//! Unordered track pairs — the unit TMerge reasons about.

use crate::TrackId;

/// An unordered pair of distinct track IDs, stored canonically
/// (`lo < hi`), so `{a, b}` and `{b, a}` are the same value — the paper's
/// `p_{i,j}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackPair {
    lo: TrackId,
    hi: TrackId,
}

impl TrackPair {
    /// Creates a canonical pair. Returns `None` when `a == b` (a track is
    /// never polyonymous with itself).
    pub fn new(a: TrackId, b: TrackId) -> Option<Self> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(Self { lo: a, hi: b }),
            std::cmp::Ordering::Greater => Some(Self { lo: b, hi: a }),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The smaller track id.
    pub fn lo(&self) -> TrackId {
        self.lo
    }

    /// The larger track id.
    pub fn hi(&self) -> TrackId {
        self.hi
    }

    /// Both ids as a tuple `(lo, hi)`.
    pub fn ids(&self) -> (TrackId, TrackId) {
        (self.lo, self.hi)
    }

    /// True when `t` is one of the two tracks.
    pub fn contains(&self, t: TrackId) -> bool {
        self.lo == t || self.hi == t
    }
}

impl std::fmt::Display for TrackPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_canonical() {
        let a = TrackPair::new(TrackId(5), TrackId(2)).unwrap();
        let b = TrackPair::new(TrackId(2), TrackId(5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.lo(), TrackId(2));
        assert_eq!(a.hi(), TrackId(5));
    }

    #[test]
    fn self_pair_is_rejected() {
        assert!(TrackPair::new(TrackId(3), TrackId(3)).is_none());
    }

    #[test]
    fn contains_checks_both_sides() {
        let p = TrackPair::new(TrackId(1), TrackId(9)).unwrap();
        assert!(p.contains(TrackId(1)));
        assert!(p.contains(TrackId(9)));
        assert!(!p.contains(TrackId(5)));
    }

    #[test]
    fn display_formats_canonically() {
        let p = TrackPair::new(TrackId(9), TrackId(1)).unwrap();
        assert_eq!(p.to_string(), "(t1, t9)");
    }
}
