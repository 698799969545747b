//! A computation graph frozen for the length of a threaded marking pass.

use std::sync::atomic::{AtomicU32, Ordering};

use dgr_graph::{GraphStore, MarkWords, Slot, Vertex, VertexId};

/// The computation graph in the form the threaded runtime marks: one
/// [`GraphStore`], moved in whole and read-only while it is shared, plus
/// its R-slot marking state as dense atomic [`MarkWords`].
///
/// Section 6 has each task lock the vertex it manipulates because a
/// mutator may be rewriting the graph. The threaded runtime runs marking
/// passes only: the cooperating mutator primitives (Fig. 4-2) run on the
/// deterministic simulator and `reduction::System`, where each task is
/// atomic by construction. So no vertex changes while the graph is
/// shared, and no method here can change one — every method takes
/// `&self` and hands out `&Vertex`, which the borrow checker enforces.
/// The only state a pass writes is the mark words, by CAS claim and
/// owned decrement.
///
/// # Example
///
/// ```
/// use dgr_graph::{GraphStore, NodeLabel};
/// use dgr_sim::SharedGraph;
///
/// let mut store = GraphStore::with_capacity(2);
/// let a = store.alloc(NodeLabel::lit_int(1)).unwrap();
/// let shared = SharedGraph::from_store(store);
/// assert_eq!(shared.vertex(a).label, NodeLabel::lit_int(1));
/// let back = shared.into_store();
/// assert_eq!(back.live_count(), 1);
/// ```
#[derive(Debug)]
pub struct SharedGraph {
    /// The frozen graph. Its own R-slot marks and R epoch are stale while
    /// shared: `marks` and `epoch_r` are authoritative until
    /// [`SharedGraph::into_store`] writes them back.
    store: GraphStore,
    /// Current R-slot marking epoch. Atomic only so that
    /// [`SharedGraph::begin_r_cycle`] can bump it through `&self`; it
    /// changes only between passes, while no marking thread is running,
    /// so Relaxed loads inside a pass always see the pass's epoch (the
    /// thread spawn that starts the pass synchronizes-with everything
    /// before it).
    epoch_r: AtomicU32,
    /// The hot R-slot marking state (see [`MarkWords`]): marking passes
    /// transition colors with CAS, and the state streams through the
    /// cache instead of hopping between fat vertices.
    marks: MarkWords,
}

impl SharedGraph {
    /// Moves a plain store into the shared form.
    pub fn from_store(store: GraphStore) -> Self {
        SharedGraph {
            marks: MarkWords::from_store(&store, Slot::R),
            epoch_r: AtomicU32::new(store.mark_epoch(Slot::R)),
            store,
        }
    }

    /// Moves the store back out, with the R-slot marks and epoch written
    /// back; everything else comes back exactly as it went in.
    pub fn into_store(self) -> GraphStore {
        let mut store = self.store;
        self.marks
            .write_back(&mut store, Slot::R, self.epoch_r.into_inner());
        store
    }

    /// The dense atomic marking state of every vertex's R slot — the
    /// lock-free substrate marking passes run on (probe, claim,
    /// complete). Authoritative while the graph is shared.
    pub fn marks(&self) -> &MarkWords {
        &self.marks
    }

    /// The current marking epoch of `slot`. Relaxed: the R epoch only
    /// changes between passes (never while marking threads run), so any
    /// load during a pass returns the pass's epoch. The T slot is not
    /// marked while shared, so its epoch is the store's.
    pub fn mark_epoch(&self, slot: Slot) -> u32 {
        match slot {
            Slot::R => self.epoch_r.load(Ordering::Relaxed),
            Slot::T => self.store.mark_epoch(Slot::T),
        }
    }

    /// Begins a new R-slot marking cycle: an O(1) epoch bump, after which
    /// every vertex's R slot reads as freshly reset (stale mark words
    /// fail the epoch check in [`MarkWords::probe`]).
    ///
    /// Must only be called while no marking threads are running; the
    /// thread spawn that starts the next pass publishes the new epoch.
    pub fn begin_r_cycle(&self) {
        self.epoch_r.fetch_add(1, Ordering::Relaxed);
    }

    /// The distinguished root, if set.
    pub fn root(&self) -> Option<VertexId> {
        self.store.root()
    }

    /// Total number of vertex slots.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Shared access to a vertex. Its R slot is stale while shared; read
    /// marks through [`SharedGraph::marks`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        self.store.vertex(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::NodeLabel;

    #[test]
    fn roundtrip_preserves_contents() {
        let mut store = GraphStore::with_capacity(4);
        let a = store.alloc(NodeLabel::lit_int(7)).unwrap();
        let b = store.alloc(NodeLabel::If).unwrap();
        store.connect(b, a);
        store.set_root(b);
        let shared = SharedGraph::from_store(store);
        assert_eq!(shared.root(), Some(b));
        let back = shared.into_store();
        assert_eq!(back.vertex(b).args(), &[a]);
        assert_eq!(back.free_count(), 2);
        assert!(back.check_consistency().is_ok());
    }
}
