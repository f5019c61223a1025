//! Merge application: the relabelling implied by accepted pairs.
//!
//! Accepted candidate pairs are merged transitively — if `(a, b)` and
//! `(b, c)` are both accepted, all three tracks receive one id. Each group
//! is relabelled to its smallest member id, matching how
//! [`tm_types::TrackSet::relabeled`] consumes the mapping.
//!
//! [`MergedIds`] keeps that relabelling current one pair at a time, so a
//! live merger extends it as pairs commit instead of rebuilding it from
//! its whole history for every query.

use std::collections::HashMap;
use tm_types::{TrackId, TrackPair};

/// The relabelling implied by a growing set of accepted pairs: every id of
/// a merged group maps to the group's smallest id; ids never merged map to
/// themselves.
///
/// Union by size: a union moves the smaller group's members into the
/// larger group, so `n` ids cost O(n log n) moves in all, and
/// [`MergedIds::get`] is two hash lookups that allocate nothing. A group's
/// members form a circular list through the nodes, so a union allocates
/// nothing either, and the map only ever gains entries: its allocations
/// follow the number of merged ids alone, never the hash order.
#[derive(Debug, Clone, Default)]
pub struct MergedIds {
    /// Every id that has been part of a union.
    nodes: HashMap<TrackId, Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The member that holds the group's `min` and `size`.
    leader: TrackId,
    /// The next member of the group's circular member list.
    next: TrackId,
    /// The group's smallest id (read on the leader only).
    min: TrackId,
    /// The group's member count (read on the leader only).
    size: usize,
}

impl MergedIds {
    /// No merges yet: every id maps to itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// The smallest id of `id`'s group (`id` itself when it was never
    /// merged).
    pub fn get(&self, id: TrackId) -> TrackId {
        self.nodes
            .get(&id)
            .map_or(id, |n| self.nodes[&n.leader].min)
    }

    /// Merges the groups of `pair`'s two ids.
    pub fn union(&mut self, pair: TrackPair) {
        let a = self.leader(pair.lo());
        let b = self.leader(pair.hi());
        if a == b {
            return;
        }
        let (big, small) = if self.nodes[&a].size >= self.nodes[&b].size {
            (a, b)
        } else {
            (b, a)
        };
        let mut id = small;
        loop {
            let node = self.nodes.get_mut(&id).expect("member has a node");
            node.leader = big;
            id = node.next;
            if id == small {
                break;
            }
        }
        // Splice the two circular member lists into one.
        let moved = self.nodes[&small];
        let node = self.nodes.get_mut(&big).expect("leader has a node");
        let big_next = std::mem::replace(&mut node.next, moved.next);
        node.min = node.min.min(moved.min);
        node.size += moved.size;
        self.nodes.get_mut(&small).expect("leader has a node").next = big_next;
    }

    /// The leader of `id`'s group, entering `id` as a group of its own on
    /// first sight.
    fn leader(&mut self, id: TrackId) -> TrackId {
        self.nodes
            .entry(id)
            .or_insert(Node {
                leader: id,
                next: id,
                min: id,
                size: 1,
            })
            .leader
    }

    /// The relabelling as a map: every merged id whose group's smallest id
    /// is another id, mapped to that id. Ids absent from it keep their id.
    pub fn to_map(&self) -> HashMap<TrackId, TrackId> {
        self.nodes
            .keys()
            .filter_map(|&id| {
                let target = self.get(id);
                (target != id).then_some((id, target))
            })
            .collect()
    }
}

impl<'a> Extend<&'a TrackPair> for MergedIds {
    fn extend<I: IntoIterator<Item = &'a TrackPair>>(&mut self, pairs: I) {
        for &p in pairs {
            self.union(p);
        }
    }
}

impl<'a> FromIterator<&'a TrackPair> for MergedIds {
    fn from_iter<I: IntoIterator<Item = &'a TrackPair>>(pairs: I) -> Self {
        let mut ids = Self::new();
        ids.extend(pairs);
        ids
    }
}

/// Builds the relabelling mapping implied by a set of accepted merge pairs:
/// every track in a merged group maps to the group's smallest id. Ids not
/// involved in any pair are absent (identity).
///
/// ```
/// use tm_core::merge_mapping;
/// use tm_types::{TrackId, TrackPair};
/// let pair = |a, b| TrackPair::new(TrackId(a), TrackId(b)).unwrap();
/// let mapping = merge_mapping(&[pair(3, 7), pair(7, 9)]);
/// assert_eq!(mapping[&TrackId(7)], TrackId(3));
/// assert_eq!(mapping[&TrackId(9)], TrackId(3));
/// ```
pub fn merge_mapping(accepted: &[TrackPair]) -> HashMap<TrackId, TrackId> {
    accepted.iter().collect::<MergedIds>().to_map()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u64, b: u64) -> TrackPair {
        TrackPair::new(TrackId(a), TrackId(b)).unwrap()
    }

    /// The from-scratch relabelling the incremental one must equal: a
    /// path-compressing union-find over every pair, grouped, each group
    /// mapped to its smallest id.
    mod reference {
        use super::*;

        #[derive(Default)]
        struct UnionFind {
            parent: HashMap<TrackId, TrackId>,
            size: HashMap<TrackId, usize>,
        }

        impl UnionFind {
            fn find(&mut self, id: TrackId) -> TrackId {
                let parent = *self.parent.entry(id).or_insert(id);
                if parent == id {
                    return id;
                }
                let root = self.find(parent);
                self.parent.insert(id, root);
                root
            }

            fn union(&mut self, a: TrackId, b: TrackId) {
                let ra = self.find(a);
                let rb = self.find(b);
                if ra == rb {
                    return;
                }
                let sa = *self.size.get(&ra).unwrap_or(&1);
                let sb = *self.size.get(&rb).unwrap_or(&1);
                let (big, small) = if sa >= sb { (ra, rb) } else { (rb, ra) };
                self.parent.insert(small, big);
                self.size.insert(big, sa + sb);
            }
        }

        pub(super) fn merge_mapping(accepted: &[TrackPair]) -> HashMap<TrackId, TrackId> {
            let mut uf = UnionFind::default();
            for p in accepted {
                uf.union(p.lo(), p.hi());
            }
            let ids: Vec<TrackId> = uf.parent.keys().copied().collect();
            let mut groups: HashMap<TrackId, Vec<TrackId>> = HashMap::new();
            for id in ids {
                let root = uf.find(id);
                groups.entry(root).or_default().push(id);
            }
            let mut mapping = HashMap::new();
            for group in groups.values() {
                let target = *group.iter().min().expect("groups are non-empty");
                for &id in group {
                    if id != target {
                        mapping.insert(id, target);
                    }
                }
            }
            mapping
        }
    }

    #[test]
    fn unions_join_groups() {
        let mut ids = MergedIds::new();
        assert_ne!(ids.get(TrackId(1)), ids.get(TrackId(2)));
        ids.union(pair(1, 2));
        assert_eq!(ids.get(TrackId(2)), TrackId(1));
        ids.union(pair(3, 4));
        assert_ne!(ids.get(TrackId(1)), ids.get(TrackId(3)));
        ids.union(pair(2, 3));
        assert_eq!(ids.get(TrackId(4)), TrackId(1));
        // A repeated or redundant pair changes nothing.
        ids.union(pair(1, 4));
        assert_eq!(ids.to_map().len(), 3);
    }

    #[test]
    fn a_smaller_group_can_bring_the_smallest_id() {
        // The larger group {5, 6, 9} absorbs {1, 7}, whose 1 becomes every
        // member's target although its group moved.
        let mut ids: MergedIds = [pair(5, 6), pair(6, 9)].iter().collect();
        ids.union(pair(1, 7));
        ids.union(pair(7, 9));
        for id in [5, 6, 7, 9] {
            assert_eq!(ids.get(TrackId(id)), TrackId(1), "id {id}");
        }
        assert_eq!(ids.get(TrackId(1)), TrackId(1));
        assert_eq!(
            ids.get(TrackId(8)),
            TrackId(8),
            "unmerged ids map to themselves"
        );
    }

    #[test]
    fn mapping_targets_smallest_id() {
        let mapping = merge_mapping(&[pair(7, 3), pair(7, 9)]);
        assert_eq!(mapping.get(&TrackId(7)), Some(&TrackId(3)));
        assert_eq!(mapping.get(&TrackId(9)), Some(&TrackId(3)));
        assert_eq!(
            mapping.get(&TrackId(3)),
            None,
            "root maps to itself implicitly"
        );
    }

    #[test]
    fn transitive_chains_collapse() {
        let mapping = merge_mapping(&[pair(1, 2), pair(2, 3), pair(3, 4), pair(10, 11)]);
        for id in [2, 3, 4] {
            assert_eq!(mapping.get(&TrackId(id)), Some(&TrackId(1)));
        }
        assert_eq!(mapping.get(&TrackId(11)), Some(&TrackId(10)));
        assert_eq!(mapping.len(), 4);
    }

    #[test]
    fn empty_input_empty_mapping() {
        assert!(merge_mapping(&[]).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn pairs_of(edges: Vec<(u64, u64)>) -> Vec<TrackPair> {
            edges
                .into_iter()
                .filter_map(|(a, b)| TrackPair::new(TrackId(a), TrackId(b)))
                .collect()
        }

        proptest! {
            #[test]
            fn mapping_is_idempotent_and_decreasing(
                edges in proptest::collection::vec((0u64..30, 0u64..30), 0..40)
            ) {
                let pairs = pairs_of(edges);
                let mapping = merge_mapping(&pairs);
                for (from, to) in &mapping {
                    // Targets are strictly smaller and are themselves roots.
                    prop_assert!(to < from);
                    prop_assert!(!mapping.contains_key(to));
                }
                // Connectivity is preserved: both ends of each accepted pair
                // resolve to the same final id.
                let resolve = |id: TrackId| *mapping.get(&id).unwrap_or(&id);
                for p in &pairs {
                    prop_assert_eq!(resolve(p.lo()), resolve(p.hi()));
                }
            }

            /// After every prefix of a pair sequence, in whatever order the
            /// pairs arrive, the incremental relabelling equals the
            /// from-scratch one, both as a map and id by id.
            #[test]
            fn incremental_relabelling_equals_the_rebuilt_one(
                edges in proptest::collection::vec((0u64..40, 0u64..40), 0..60),
                order in proptest::collection::vec(0usize..1000, 60)
            ) {
                let mut pairs = pairs_of(edges);
                // A random permutation: sort by a random key per position.
                let mut keyed: Vec<(usize, TrackPair)> =
                    pairs.drain(..).zip(&order).map(|(p, &k)| (k, p)).collect();
                keyed.sort_by_key(|&(k, _)| k);
                let pairs: Vec<TrackPair> = keyed.into_iter().map(|(_, p)| p).collect();
                let mut ids = MergedIds::new();
                for n in 0..=pairs.len() {
                    if n > 0 {
                        ids.union(pairs[n - 1]);
                    }
                    let want = reference::merge_mapping(&pairs[..n]);
                    prop_assert_eq!(&ids.to_map(), &want, "prefix {}", n);
                    for id in (0..40).map(TrackId) {
                        prop_assert_eq!(ids.get(id), *want.get(&id).unwrap_or(&id));
                    }
                }
            }
        }
    }
}
