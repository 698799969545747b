//! Struct-of-arrays atomic mark words: the hot per-vertex marking state
//! of one [`Slot`], packed into dense atomic arrays.
//!
//! Kept inside [`Vertex`](crate::Vertex), beside the (cold) reduction
//! fields, a vertex's marking state would cost a threaded marking wave a
//! whole-vertex cache line per color transition — and the `Return` half
//! of the wave (one return per mark, exactly half of all marking tasks)
//! touches the vertex only to decrement `mt_cnt`. This module moves that
//! state out of the vertex structs into two dense arrays:
//!
//! * **state words** — `epoch(32) | mt_cnt(30) | color(2)` per vertex.
//!   Eight vertices share a cache line, so a DFS-numbered subtree's marks
//!   stream through the cache instead of hopping between fat vertices.
//! * **parent words** — `epoch(32) | mt_par(32)` per vertex, written once
//!   when the vertex is claimed and read once when its count drains.
//!
//! Epoch versioning keeps the O(1) between-pass reset: a word whose epoch
//! half differs from the current cycle reads as freshly unmarked, so
//! starting a cycle is still a single counter bump and no sweep.
//!
//! Memory-ordering discipline (enforced by `dgr-check`'s mark-word lint):
//! every access to `mark_words` / `par_words` uses Acquire/Release (or
//! stronger) — the Release on a claim or completion is what publishes the
//! transition to workers that observe the color lock-free, exactly like
//! the `r_words` probe it generalizes.

use dgr_atomic::{AtomicU64Api, Atomics, Ordering, Site, StdAtomics};

use crate::ids::VertexId;
use crate::vertex::{Color, MarkParent, MarkSlot};
use crate::{GraphStore, Slot};

/// Parent encoding: ordinary vertices use their raw id; the dummy roots
/// and "no parent" take the top ids (a store can therefore hold at most
/// `u32::MAX - 2` vertices, far beyond any other limit in the crate).
const PAR_ROOTPAR: u32 = u32::MAX;
const PAR_TASK_ROOTPAR: u32 = u32::MAX - 1;
const PAR_NONE: u32 = u32::MAX - 2;

/// Maximum encodable `mt_cnt` (30 bits).
const CNT_MAX: u64 = (1 << 30) - 1;

fn color_code(color: Color) -> u64 {
    match color {
        Color::Unmarked => 0,
        Color::Transient => 1,
        Color::Marked => 2,
    }
}

fn code_color(code: u64) -> Color {
    match code & 0b11 {
        0 => Color::Unmarked,
        1 => Color::Transient,
        _ => Color::Marked,
    }
}

fn encode_state(epoch: u32, cnt: u32, color: Color) -> u64 {
    debug_assert!(u64::from(cnt) <= CNT_MAX, "mt_cnt overflows the state word");
    (u64::from(epoch) << 32) | (u64::from(cnt) << 2) | color_code(color)
}

fn state_epoch(word: u64) -> u32 {
    (word >> 32) as u32
}

fn state_cnt(word: u64) -> u32 {
    ((word >> 2) & CNT_MAX) as u32
}

/// Encodes a [`MarkParent`] into the low half of a parent word.
pub fn encode_parent(par: Option<MarkParent>) -> u32 {
    match par {
        Some(MarkParent::Vertex(v)) => v.raw(),
        Some(MarkParent::RootPar) => PAR_ROOTPAR,
        Some(MarkParent::TaskRootPar) => PAR_TASK_ROOTPAR,
        None => PAR_NONE,
    }
}

/// Decodes the low half of a parent word back into a [`MarkParent`].
pub fn decode_parent(code: u32) -> Option<MarkParent> {
    match code {
        PAR_ROOTPAR => Some(MarkParent::RootPar),
        PAR_TASK_ROOTPAR => Some(MarkParent::TaskRootPar),
        PAR_NONE => None,
        v => Some(MarkParent::Vertex(VertexId::new(v))),
    }
}

/// Result of a [`MarkWords::try_claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// This caller performed the Unmarked transition; it now owns the
    /// expansion of the vertex (spawning marks on the children).
    Won(Color),
    /// Another worker already claimed the vertex this cycle.
    Lost,
}

/// Dense struct-of-arrays marking state for one [`Slot`] of every vertex.
///
/// # Example
///
/// ```
/// use dgr_graph::{Color, MarkParent, MarkWords};
/// use dgr_graph::markword::Claim;
///
/// let words: MarkWords = MarkWords::new(4);
/// let epoch = 1;
/// // First claim wins and owns the two-children expansion.
/// assert_eq!(
///     words.try_claim(0, epoch, 2, MarkParent::RootPar),
///     Claim::Won(Color::Transient)
/// );
/// assert_eq!(words.try_claim(0, epoch, 2, MarkParent::RootPar), Claim::Lost);
/// // Children completing drain the count; the last one yields the parent.
/// assert_eq!(words.complete_child(0, epoch), None);
/// assert_eq!(words.complete_child(0, epoch), Some(MarkParent::RootPar));
/// assert_eq!(words.probe(0, epoch), Some(Color::Marked));
/// ```
/// The struct is generic over the [`Atomics`] facade: production code
/// monomorphizes to [`StdAtomics`] (provably the raw `std::sync::atomic`
/// types — see `zero_cost_facade.rs` in `dgr-check`), while the model
/// checker instantiates it with its weak-memory shim and explores the
/// claim/complete protocol under seeded ordering mutations.
#[derive(Debug)]
pub struct MarkWords<A: Atomics = StdAtomics> {
    /// Per-vertex `epoch | mt_cnt | color` state words.
    mark_words: Vec<A::U64>,
    /// Per-vertex `epoch | mt_par` parent words.
    par_words: Vec<A::U64>,
}

impl<A: Atomics> MarkWords<A> {
    /// A fresh array of `capacity` never-written words (epoch half `0`,
    /// which is never a live epoch).
    pub fn new(capacity: usize) -> Self {
        MarkWords {
            mark_words: (0..capacity).map(|_| A::U64::new(0)).collect(),
            par_words: (0..capacity).map(|_| A::U64::new(0)).collect(),
        }
    }

    /// Builds the array from a store's `slot` marks (entering the shared
    /// form mid-computation must not lose marks a simulator pass wrote).
    /// The words carry each slot's own epoch; the store's current epoch
    /// for `slot` is read separately with [`GraphStore::mark_epoch`].
    pub fn from_store(store: &GraphStore, slot: Slot) -> Self {
        let mark_words = store
            .ids()
            .map(|id| {
                let s = store.vertex(id).slot(slot);
                A::U64::new(encode_state(s.epoch, s.mt_cnt, s.color))
            })
            .collect();
        let par_words = store
            .ids()
            .map(|id| {
                let s = store.vertex(id).slot(slot);
                A::U64::new((u64::from(s.epoch) << 32) | u64::from(encode_parent(s.mt_par)))
            })
            .collect();
        MarkWords {
            mark_words,
            par_words,
        }
    }

    /// Number of vertex slots covered.
    pub fn len(&self) -> usize {
        self.mark_words.len()
    }

    /// `true` if the array covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.mark_words.is_empty()
    }

    /// Lock-free probe of vertex `i`'s color in cycle `epoch`, or `None`
    /// if nothing was written this cycle (reads as Unmarked, but claiming
    /// requires [`MarkWords::try_claim`]).
    ///
    /// Acquire pairs with the Release stores of claim/complete: a worker
    /// observing a non-Unmarked color happens-after everything the
    /// transitioning worker did first, so settling a duplicate visit on
    /// the probe alone is as sound as a locked read of the vertex.
    pub fn probe(&self, i: usize, epoch: u32) -> Option<Color> {
        // ordering: Acquire pairs with the claim/complete Release stores
        // (see the method docs above).
        let w = self.mark_words[i].load(Ordering::Acquire);
        (state_epoch(w) == epoch).then(|| code_color(w))
    }

    /// Full current-cycle state of vertex `i`: `(color, mt_cnt)`.
    pub fn probe_state(&self, i: usize, epoch: u32) -> Option<(Color, u32)> {
        // ordering: Acquire — same pairing as `probe`.
        let w = self.mark_words[i].load(Ordering::Acquire);
        (state_epoch(w) == epoch).then(|| (code_color(w), state_cnt(w)))
    }

    /// Attempts the Unmarked → Transient/Marked transition of vertex `i`
    /// in cycle `epoch`: on success the vertex carries `n_children`
    /// outstanding child marks (zero children goes straight to Marked)
    /// and `parent` as its `mt_par`.
    ///
    /// Only the CAS **winner** writes the parent word, after its claim
    /// succeeds — a losing claimant must not touch it, or its parent
    /// would overwrite the winner's and the eventual drain would return
    /// to the wrong vertex (double-decrementing one parent and starving
    /// the real one, which deadlocks the wave). Readers still always see
    /// the winner's store: a `complete_child` on this vertex can only be
    /// reached through return tasks of the children the winner spawned
    /// *after* `try_claim` returned, and every task hand-off on the way
    /// is a release/acquire edge.
    pub fn try_claim(&self, i: usize, epoch: u32, n_children: u32, parent: MarkParent) -> Claim {
        let par_word = (u64::from(epoch) << 32) | u64::from(encode_parent(Some(parent)));
        // Seeded mutation `mw-parent-before-claim`: reintroduce the PR 6
        // parent-clobber bug by publishing the parent word *before* the
        // claim CAS decides a winner — a losing claimant then overwrites
        // the winner's parent and the drain returns to the wrong vertex.
        // Only the model checker's shim ever enables this branch;
        // `StdAtomics::mutated` is a constant `false` the optimizer drops.
        if A::mutated(Site::MwParentPublish) {
            // ordering: Release is irrelevant here — the bug this branch
            // seeds is the *placement* (before the CAS picks a winner),
            // not the strength.
            self.par_words[i].store(par_word, Ordering::Release);
        }
        // ordering: Acquire pairs with a rival's Release-claim — losing
        // settles the duplicate visit on this load alone.
        let mut cur = self.mark_words[i].load(Ordering::Acquire);
        loop {
            if state_epoch(cur) == epoch && code_color(cur) != Color::Unmarked {
                return Claim::Lost;
            }
            let color = if n_children == 0 {
                Color::Marked
            } else {
                Color::Transient
            };
            let next = encode_state(epoch, n_children, color);
            // ordering: AcqRel on success — the Release half publishes the
            // new color to lock-free probes; the Acquire half orders the
            // winner's parent store after every prior transition it must
            // not clobber. The seeded mutation `mw-claim-cas-relaxed`
            // weakens the success ordering to Relaxed.
            match self.mark_words[i].compare_exchange_weak(
                cur,
                next,
                A::remap(Site::MwClaimCas, Ordering::AcqRel),
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if !A::mutated(Site::MwParentPublish) {
                        // ordering: Release — the winner's parent word must
                        // be visible to the `complete_child` that drains the
                        // count (the hand-off chain is release/acquire all
                        // the way, see the method docs).
                        self.par_words[i].store(par_word, Ordering::Release);
                    }
                    return Claim::Won(color);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records the return of one child mark of vertex `i`: decrements the
    /// outstanding count and, if this was the last one, completes the
    /// vertex (Transient → Marked) and returns its `mt_par` so the caller
    /// can propagate the return.
    ///
    /// Must only be called for a `(i, epoch)` pair that was claimed this
    /// cycle with a nonzero child count — which the marking protocol
    /// guarantees, since return tasks are only spawned by child marks
    /// that the claim itself emitted.
    pub fn complete_child(&self, i: usize, epoch: u32) -> Option<MarkParent> {
        // One child's worth in the count field (the color bits are below).
        // ordering: AcqRel — Release orders this child's subtree effects
        // before the decrement; Acquire makes the siblings' subtrees
        // visible to whichever caller drains the count.
        let prev = self.mark_words[i].fetch_sub(1 << 2, Ordering::AcqRel);
        debug_assert_eq!(state_epoch(prev), epoch, "return for a stale cycle");
        debug_assert!(state_cnt(prev) > 0, "mt_cnt underflow");
        debug_assert_eq!(code_color(prev), Color::Transient);
        if state_cnt(prev) != 1 {
            return None;
        }
        // Count drained: this caller owns the Transient → Marked step.
        // ordering: Release publishes Marked (and the whole subtree's
        // effects) to lock-free probes.
        self.mark_words[i].store(encode_state(epoch, 0, Color::Marked), Ordering::Release);
        // ordering: Acquire pairs with the winner's Release parent store.
        let par = self.par_words[i].load(Ordering::Acquire);
        debug_assert_eq!((par >> 32) as u32, epoch, "parent from a stale cycle");
        decode_parent(par as u32)
    }

    /// Writes the array's state back into the store's `slot` marks and
    /// makes `epoch` the slot's current epoch (leaving the shared form).
    /// A never-written word leaves the slot alone; a word from the same
    /// epoch the slot already carries only refreshes the fields the
    /// marking wave owns (color, count, parent), so simulator-written
    /// extras like the priority survive a round-trip.
    pub fn write_back(&self, store: &mut GraphStore, slot: Slot, epoch: u32) {
        store.set_mark_epoch(slot, epoch);
        for i in 0..self.len() {
            // ordering: Acquire — write-back happens-after every worker's
            // published transitions (same pairing as `probe`).
            let w = self.mark_words[i].load(Ordering::Acquire);
            let word_epoch = state_epoch(w);
            if word_epoch == 0 {
                continue;
            }
            // ordering: Acquire pairs with the winner's parent Release.
            let par_w = self.par_words[i].load(Ordering::Acquire);
            let mt_par = if (par_w >> 32) as u32 == word_epoch {
                decode_parent(par_w as u32)
            } else {
                None
            };
            let s = store.vertex_mut(VertexId::new(i as u32)).slot_mut(slot);
            if s.epoch != word_epoch {
                *s = MarkSlot::fresh(word_epoch);
            }
            s.color = code_color(w);
            s.mt_cnt = state_cnt(w);
            s.mt_par = mt_par;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeLabel;

    #[test]
    fn parent_encoding_roundtrips() {
        for par in [
            None,
            Some(MarkParent::RootPar),
            Some(MarkParent::TaskRootPar),
            Some(MarkParent::Vertex(VertexId::new(0))),
            Some(MarkParent::Vertex(VertexId::new(123_456))),
        ] {
            assert_eq!(decode_parent(encode_parent(par)), par);
        }
    }

    #[test]
    fn claim_complete_lifecycle() {
        let words: MarkWords = MarkWords::new(2);
        assert_eq!(words.probe(0, 1), None, "never written");
        assert_eq!(
            words.try_claim(0, 1, 0, MarkParent::RootPar),
            Claim::Won(Color::Marked),
            "leaf claim goes straight to Marked"
        );
        assert_eq!(
            words.try_claim(1, 1, 3, MarkParent::Vertex(VertexId::new(0))),
            Claim::Won(Color::Transient)
        );
        assert_eq!(words.probe_state(1, 1), Some((Color::Transient, 3)));
        assert_eq!(words.complete_child(1, 1), None);
        assert_eq!(words.complete_child(1, 1), None);
        assert_eq!(
            words.complete_child(1, 1),
            Some(MarkParent::Vertex(VertexId::new(0)))
        );
        assert_eq!(words.probe_state(1, 1), Some((Color::Marked, 0)));
    }

    #[test]
    fn epoch_bump_resets_without_a_sweep() {
        let words: MarkWords = MarkWords::new(1);
        assert_eq!(
            words.try_claim(0, 1, 0, MarkParent::RootPar),
            Claim::Won(Color::Marked)
        );
        assert_eq!(words.probe(0, 2), None, "next cycle reads fresh");
        assert_eq!(
            words.try_claim(0, 2, 1, MarkParent::RootPar),
            Claim::Won(Color::Transient),
            "stale word is claimable"
        );
    }

    #[test]
    fn slots_roundtrip_through_the_array() {
        let mut g = GraphStore::with_capacity(2);
        let a = g.alloc(NodeLabel::Hole).unwrap();
        let b = g.alloc(NodeLabel::Hole).unwrap();
        let e = g.mark_epoch(Slot::R);
        {
            let s = g.mark_mut(b, Slot::R);
            s.color = Color::Transient;
            s.mt_cnt = 2;
            s.mt_par = Some(MarkParent::Vertex(a));
        }
        let words: MarkWords = MarkWords::from_store(&g, Slot::R);
        assert_eq!(words.probe_state(b.index(), e), Some((Color::Transient, 2)));
        assert_eq!(
            words.complete_child(b.index(), e),
            None,
            "one of two children returned"
        );
        let mut back = g.clone();
        words.write_back(&mut back, Slot::R, e);
        let s = back.mark(b, Slot::R);
        assert!(s.is_transient());
        assert_eq!(s.mt_cnt, 1);
        assert_eq!(s.mt_par, Some(MarkParent::Vertex(a)));
        assert!(back.mark(a, Slot::R).is_unmarked(), "untouched");
        // The write-back installs the epoch it is given.
        words.write_back(&mut back, Slot::R, e + 1);
        assert_eq!(back.mark_epoch(Slot::R), e + 1);
        assert!(back.mark(b, Slot::R).is_unmarked(), "older cycle is stale");
    }

    #[test]
    fn concurrent_claims_have_exactly_one_winner() {
        use std::sync::atomic::{AtomicU32, Ordering as O};
        let words: std::sync::Arc<MarkWords> = std::sync::Arc::new(MarkWords::new(64));
        let wins = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let words = std::sync::Arc::clone(&words);
                let wins = &wins;
                scope.spawn(move || {
                    for i in 0..64 {
                        if let Claim::Won(_) = words.try_claim(i, 1, 1, MarkParent::RootPar) {
                            wins.fetch_add(1, O::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(O::SeqCst), 64);
    }

    #[test]
    fn losing_claim_never_clobbers_the_winning_parent() {
        // Each thread claims with a distinct parent id; the drain must
        // return exactly the parent the *winner* supplied. (A loser that
        // writes the parent word on its way to `Claim::Lost` corrupts the
        // return routing — the original multi-parent race.)
        use std::sync::atomic::{AtomicU32, Ordering as O};
        const SLOTS: usize = 256;
        let words: std::sync::Arc<MarkWords> = std::sync::Arc::new(MarkWords::new(SLOTS));
        let winners: Vec<AtomicU32> = (0..SLOTS).map(|_| AtomicU32::new(u32::MAX)).collect();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let words = std::sync::Arc::clone(&words);
                let winners = &winners;
                scope.spawn(move || {
                    for (i, w) in winners.iter().enumerate() {
                        let parent = MarkParent::Vertex(VertexId::new(1000 + t));
                        if let Claim::Won(_) = words.try_claim(i, 1, 1, parent) {
                            w.store(t, O::SeqCst);
                        }
                    }
                });
            }
        });
        for (i, w) in winners.iter().enumerate() {
            let t = w.load(O::SeqCst);
            assert_ne!(t, u32::MAX, "every slot has a winner");
            assert_eq!(
                words.complete_child(i, 1),
                Some(MarkParent::Vertex(VertexId::new(1000 + t))),
                "slot {i}: drained parent is the winner's"
            );
        }
    }
}
