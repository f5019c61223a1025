//! Reusable per-window working memory for the scoring hot path.
//!
//! [`crate::score::exact_scores`] used to rebuild, per call, a
//! `HashMap<TrackId, Vec<f64>>` of dense feature matrices plus per-group
//! `Vec`s of resolved pairs and missing boxes — allocation churn on every
//! window of a streaming run. This module provides the two building blocks
//! that eliminate it:
//!
//! * [`Arena`] — a bump allocator for the short-lived, **borrow-carrying**
//!   per-group buffers (resolved [`crate::score::PairBoxes`], missing
//!   `(TrackId, &TrackBox)` lists). Those types borrow the window's
//!   `TrackSet`, so they cannot live in a reusable `Vec` field without
//!   infecting the owner with the window lifetime; a bump region handed out
//!   per call sidesteps that. `reset` rewinds the cursor but keeps the
//!   chunks, so steady-state windows allocate nothing.
//! * [`DenseStore`] — the flat feature-matrix pool replacing the per-call
//!   `HashMap<TrackId, Vec<f64>>`: one contiguous `Vec<f64>` for all rows
//!   plus a reusable index, cleared (capacity kept) between windows.
//!
//! The `tm-bench` allocation audit (`tests/alloc_audit.rs`) installs a
//! counting global allocator and pins the zero-allocation steady state.

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::mem::{align_of, size_of};
use std::ptr::NonNull;
use tm_types::TrackId;

/// Words (u64) in the first chunk an arena allocates: 8 KiB.
const MIN_CHUNK_WORDS: usize = 1024;

/// One raw chunk. Kept as raw parts — never materialized as a slice
/// reference — so handed-out `&mut [T]` loans are the only references into
/// the storage (no aliasing with the arena's own bookkeeping).
struct Chunk {
    ptr: NonNull<u64>,
    words: usize,
}

impl Chunk {
    fn with_words(words: usize) -> Self {
        let mut v: Vec<u64> = Vec::with_capacity(words);
        let ptr = NonNull::new(v.as_mut_ptr()).expect("Vec allocation is non-null");
        let words = v.capacity();
        std::mem::forget(v);
        Chunk { ptr, words }
    }
}

/// A bump allocator with 8-byte alignment, tuned for per-window scratch:
/// allocate regions during a window, [`Arena::reset`] between windows
/// (keeps the chunks), drop frees everything.
///
/// Only `Copy` element types are accepted — the arena never runs
/// destructors, so a non-`Copy` type could leak owned resources. Loans
/// returned by the `alloc_*` methods borrow the arena shared-ly, so several
/// can coexist; `reset` takes `&mut self`, which ends them all first.
pub struct Arena {
    chunks: UnsafeCell<Vec<Chunk>>,
    /// Index of the chunk currently being bumped.
    cur: Cell<usize>,
    /// Words already used in the current chunk.
    used: Cell<usize>,
}

// SAFETY: the arena owns its chunks exclusively; sending the whole arena to
// another thread moves the raw storage with it. It is *not* Sync (Cell /
// UnsafeCell), which is what actually guards the bookkeeping.
unsafe impl Send for Arena {}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: shared read of the chunk list; no loans are dereferenced.
        let chunks = unsafe { &*self.chunks.get() };
        f.debug_struct("Arena")
            .field("chunks", &chunks.len())
            .field("capacity_words", &self.capacity_words())
            .finish()
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for c in self.chunks.get_mut().drain(..) {
            // SAFETY: ptr/words came from a forgotten Vec with this exact
            // capacity; length 0 skips (nonexistent) element drops.
            drop(unsafe { Vec::from_raw_parts(c.ptr.as_ptr(), 0, c.words) });
        }
    }
}

impl Arena {
    /// An empty arena; chunks are allocated on first use and then reused.
    pub fn new() -> Self {
        Self {
            chunks: UnsafeCell::new(Vec::new()),
            cur: Cell::new(0),
            used: Cell::new(0),
        }
    }

    /// Rewinds the bump cursor to the start, keeping every chunk. All loans
    /// are statically over (`&mut self`), so the regions may be reissued.
    pub fn reset(&mut self) {
        self.cur.set(0);
        self.used.set(0);
    }

    /// Total words currently reserved across chunks (for tests/telemetry).
    pub fn capacity_words(&self) -> usize {
        // SAFETY: shared read of the chunk list.
        unsafe { &*self.chunks.get() }.iter().map(|c| c.words).sum()
    }

    /// Bumps off `words` u64-aligned words, growing with doubled chunks
    /// when the reserved ones are exhausted.
    fn alloc_words(&self, words: usize) -> NonNull<u64> {
        // SAFETY: the only mutable borrow of the chunk Vec; it touches the
        // `Chunk` bookkeeping structs (pointers and lengths), never the
        // pointed-to storage, so outstanding loans into chunk storage are
        // not aliased. The Vec spine may reallocate on push; chunk storage
        // never moves (each is its own heap block).
        let chunks = unsafe { &mut *self.chunks.get() };
        loop {
            if self.cur.get() < chunks.len() {
                let chunk = &chunks[self.cur.get()];
                let used = self.used.get();
                if used + words <= chunk.words {
                    self.used.set(used + words);
                    // SAFETY: `used + words <= chunk.words` keeps the
                    // offset inside (or one past) the allocation.
                    return unsafe { NonNull::new_unchecked(chunk.ptr.as_ptr().add(used)) };
                }
                // Exhausted for this request: move to the next chunk. The
                // skipped tail is wasted until the next reset — bounded by
                // one request size per chunk.
                self.cur.set(self.cur.get() + 1);
                self.used.set(0);
                continue;
            }
            let grown = chunks
                .last()
                .map(|c| c.words.saturating_mul(2))
                .unwrap_or(MIN_CHUNK_WORDS);
            chunks.push(Chunk::with_words(grown.max(words).max(MIN_CHUNK_WORDS)));
        }
    }

    fn alloc_region<T: Copy>(&self, len: usize) -> NonNull<T> {
        assert!(
            align_of::<T>() <= align_of::<u64>(),
            "arena only serves alignments up to 8"
        );
        let bytes = len
            .checked_mul(size_of::<T>())
            .expect("arena region size overflow");
        self.alloc_words(bytes.div_ceil(size_of::<u64>())).cast()
    }

    /// Allocates a `len`-element region and fills it from `iter`, which
    /// must yield **at least** `len` items (callers derive `len` from a
    /// counting pass over the same data). Extra items are not consumed.
    // Loans from `&self` are sound here: every call reserves a fresh,
    // disjoint region, and `reset` needs `&mut self`, which statically
    // ends all outstanding loans (the usual bump-arena contract).
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_from_iter_exact<T: Copy>(
        &self,
        len: usize,
        mut iter: impl Iterator<Item = T>,
    ) -> &mut [T] {
        let region = self.alloc_region::<T>(len);
        for i in 0..len {
            let v = iter
                .next()
                .expect("iterator yielded fewer items than the counted len");
            // SAFETY: i < len, inside the region just reserved.
            unsafe { region.as_ptr().add(i).write(v) };
        }
        // SAFETY: region holds exactly `len` initialized `T`s; the loan
        // borrows `self` shared-ly and regions never overlap.
        unsafe { std::slice::from_raw_parts_mut(region.as_ptr(), len) }
    }

    /// Allocates a `len`-element region filled by a fallible per-index
    /// producer. On `Err` the partially-written region is abandoned
    /// (harmless: elements are `Copy`, the space is reclaimed at reset).
    #[allow(clippy::mut_from_ref)] // same disjoint-loan contract as above
    pub fn alloc_try_fill<T: Copy, E>(
        &self,
        len: usize,
        mut produce: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<&mut [T], E> {
        let region = self.alloc_region::<T>(len);
        for i in 0..len {
            // SAFETY: i < len, inside the region just reserved.
            unsafe { region.as_ptr().add(i).write(produce(i)?) };
        }
        // SAFETY: as in `alloc_from_iter_exact`.
        Ok(unsafe { std::slice::from_raw_parts_mut(region.as_ptr(), len) })
    }
}

/// A pool of dense row-major feature matrices keyed by track, backing the
/// exact scorer. All rows live in one flat `Vec<f64>`; per-track spans are
/// recorded in a reusable index. [`DenseStore::clear`] empties both while
/// keeping their capacity, so steady-state windows never reallocate.
#[derive(Debug, Default)]
pub struct DenseStore {
    data: Vec<f64>,
    index: HashMap<TrackId, (usize, usize)>,
    dim: usize,
}

impl DenseStore {
    /// Empties the store, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.index.clear();
        self.dim = 0;
    }

    /// Row width of the stored matrices (0 until the first row arrives).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether `track` already has a committed matrix.
    pub fn contains(&self, track: TrackId) -> bool {
        self.index.contains_key(&track)
    }

    /// The flat row-major matrix committed for `track`.
    ///
    /// # Panics
    /// If `track` was never committed.
    pub fn rows(&self, track: TrackId) -> &[f64] {
        let &(start, len) = self
            .index
            .get(&track)
            .expect("track matrix was committed before use");
        &self.data[start..start + len]
    }

    /// Starts a track's matrix; returns the start cursor to pass to
    /// [`DenseStore::commit_track`].
    pub fn start_track(&self) -> usize {
        self.data.len()
    }

    /// Appends one feature row (also records the row width).
    pub fn push_row(&mut self, row: &[f64]) {
        self.dim = row.len();
        self.data.extend_from_slice(row);
    }

    /// Commits the rows appended since `start` as `track`'s matrix.
    pub fn commit_track(&mut self, track: TrackId, start: usize) {
        self.index.insert(track, (start, self.data.len() - start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips_values() {
        let arena = Arena::new();
        let a = arena.alloc_from_iter_exact(5, (0u64..).map(|i| i * 3));
        let b = arena.alloc_from_iter_exact(3, [9.5f64, 8.5, 7.5].into_iter());
        assert_eq!(a, &[0, 3, 6, 9, 12]);
        assert_eq!(b, &[9.5, 8.5, 7.5]);
        // Loans coexist and stay independently writable.
        a[0] = 100;
        b[2] = -1.0;
        assert_eq!(a[0], 100);
        assert_eq!(b[2], -1.0);
    }

    #[test]
    fn arena_reset_reuses_chunks() {
        let mut arena = Arena::new();
        for round in 0..10 {
            let xs = arena.alloc_from_iter_exact(600, (0u64..).map(|i| i + round));
            assert_eq!(xs.len(), 600);
            arena.reset();
        }
        // 600 u64 fit in the first chunk; reset must have reused it.
        assert_eq!(arena.capacity_words(), MIN_CHUNK_WORDS);
    }

    #[test]
    fn arena_grows_past_chunk_boundaries() {
        let arena = Arena::new();
        let big = arena.alloc_from_iter_exact(10_000, 0u64..);
        assert_eq!(big.len(), 10_000);
        assert!(big.iter().enumerate().all(|(i, &v)| v == i as u64));
        let after = arena.alloc_from_iter_exact(4, 0u64..);
        assert_eq!(after, &[0, 1, 2, 3]);
    }

    #[test]
    fn arena_try_fill_propagates_errors() {
        let mut arena = Arena::new();
        let ok: Result<&mut [u32], ()> = arena.alloc_try_fill(4, |i| Ok(i as u32 * 2));
        assert_eq!(ok.unwrap(), &[0, 2, 4, 6]);
        arena.reset();
        let err: Result<&mut [u32], &str> =
            arena.alloc_try_fill(4, |i| if i == 2 { Err("boom") } else { Ok(0) });
        assert_eq!(err.unwrap_err(), "boom");
        // The arena stays usable after a failed fill.
        arena.reset();
        let again: Result<&mut [u32], ()> = arena.alloc_try_fill(2, |i| Ok(i as u32));
        assert_eq!(again.unwrap(), &[0, 1]);
    }

    #[test]
    fn arena_zero_len_regions_are_fine() {
        let arena = Arena::new();
        let empty: &mut [u64] = arena.alloc_from_iter_exact(0, std::iter::empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn dense_store_commits_and_clears() {
        let mut store = DenseStore::default();
        let start = store.start_track();
        store.push_row(&[1.0, 2.0]);
        store.push_row(&[3.0, 4.0]);
        store.commit_track(TrackId(7), start);
        assert!(store.contains(TrackId(7)));
        assert_eq!(store.dim(), 2);
        assert_eq!(store.rows(TrackId(7)), &[1.0, 2.0, 3.0, 4.0]);

        let data_cap_before = store.data.capacity();
        store.clear();
        assert!(!store.contains(TrackId(7)));
        assert_eq!(store.dim(), 0);
        assert_eq!(
            store.data.capacity(),
            data_cap_before,
            "clear keeps capacity"
        );
    }
}
