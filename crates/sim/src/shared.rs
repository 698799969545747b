//! A computation graph shared between PE threads with per-vertex locks.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dgr_graph::{Epochs, GraphError, GraphStore, MarkWords, NodeLabel, Slot, Vertex, VertexId};

/// The computation graph in the form the threaded runtime uses: each vertex
/// behind its own mutex, the free list behind one more. A lock poisoned by
/// a panicking holder is re-entered (the poison flag is ignored).
///
/// This realizes the paper's atomicity assumption at exactly the granularity
/// Section 6 discusses: a task locks the vertices it manipulates, marking
/// tasks "never nest the locking of vertices", and multi-vertex mutator
/// primitives acquire their locks in vertex-id order (a total order, so the
/// mutators cannot deadlock against each other).
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
/// {
///     let guard = shared.lock(a);
///     assert_eq!(guard.label, NodeLabel::lit_int(1));
/// }
/// let back = shared.into_store();
/// assert_eq!(back.live_count(), 1);
/// ```
#[derive(Debug)]
pub struct SharedGraph {
    verts: Vec<Mutex<Vertex>>,
    free: Mutex<Vec<VertexId>>,
    root: Option<VertexId>,
    /// Current marking epoch per [`Slot`] (see [`Epochs`]). Bumped only
    /// between passes, while no marking thread is running, so Relaxed
    /// loads inside a pass always see the pass's epoch (the thread spawn
    /// that starts the pass synchronizes-with everything before it).
    mark_epochs: [AtomicU32; 2],
    /// Touch epoch, carried through for round-tripping (the threaded
    /// marking runtime never touches vertices).
    touch_epoch: u32,
    /// The hot R-slot marking state, as a dense struct-of-arrays atomic
    /// array (see [`MarkWords`]): marking passes transition colors with
    /// CAS instead of taking the vertex mutex, and the state streams
    /// through the cache instead of hopping between fat vertices. The
    /// array is authoritative while the graph is shared;
    /// [`SharedGraph::into_store`] writes it back into the vertex slots.
    marks: MarkWords,
}

impl SharedGraph {
    /// Converts a plain store into the shared form.
    pub fn from_store(store: GraphStore) -> Self {
        let (verts, free, root, epochs) = store.into_parts();
        let marks = MarkWords::from_slots(&verts, Slot::R);
        SharedGraph {
            verts: verts.into_iter().map(Mutex::new).collect(),
            free: Mutex::new(free),
            root,
            mark_epochs: [
                AtomicU32::new(epochs.mark[Slot::R.index()]),
                AtomicU32::new(epochs.mark[Slot::T.index()]),
            ],
            touch_epoch: epochs.touch,
            marks,
        }
    }

    /// Converts back into a plain store (consumes the shared graph; all
    /// locks must be free, which is guaranteed by ownership).
    pub fn into_store(self) -> GraphStore {
        let mut verts: Vec<Vertex> = self
            .verts
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.marks.write_back(&mut verts, Slot::R);
        let [epoch_r, epoch_t] = self.mark_epochs;
        let epochs = Epochs {
            mark: [epoch_r.into_inner(), epoch_t.into_inner()],
            touch: self.touch_epoch,
        };
        let free = self
            .free
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        GraphStore::from_parts(verts, free, self.root, epochs)
    }

    /// The dense atomic marking state of every vertex's R slot — the
    /// lock-free substrate marking passes run on (probe, claim,
    /// complete). Authoritative while the graph is shared.
    pub fn marks(&self) -> &MarkWords {
        &self.marks
    }

    /// The current marking epoch of `slot`. Relaxed: the epoch only
    /// changes between passes (never while marking threads run), so any
    /// load during a pass returns the pass's epoch.
    pub fn mark_epoch(&self, slot: Slot) -> u32 {
        self.mark_epochs[slot.index()].load(Ordering::Relaxed)
    }

    /// Begins a new marking cycle for `slot`: an O(1) epoch bump, after
    /// which every vertex's slot reads as freshly reset (stale mark
    /// words fail the epoch check in [`MarkWords::probe`]).
    ///
    /// Must only be called while no marking threads are running; the
    /// thread spawn that starts the next pass publishes the new epoch.
    pub fn begin_mark_cycle(&self, slot: Slot) {
        self.mark_epochs[slot.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The distinguished root, if set.
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Total number of vertex slots.
    pub fn capacity(&self) -> usize {
        self.verts.len()
    }

    /// Locks a single vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn lock(&self, id: VertexId) -> MutexGuard<'_, Vertex> {
        self.verts[id.index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks two distinct vertices in id order (deadlock-free for any set
    /// of callers using the same discipline). For `a == b` a single guard
    /// is returned.
    pub fn lock_pair(
        &self,
        a: VertexId,
        b: VertexId,
    ) -> (MutexGuard<'_, Vertex>, Option<MutexGuard<'_, Vertex>>) {
        if a == b {
            (self.lock(a), None)
        } else if a < b {
            let ga = self.lock(a);
            let gb = self.lock(b);
            (ga, Some(gb))
        } else {
            let gb = self.lock(b);
            let ga = self.lock(a);
            (ga, Some(gb))
        }
    }

    /// Allocates a vertex from the shared free list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::OutOfVertices`] if the free list is empty.
    pub fn alloc(&self, label: NodeLabel) -> Result<VertexId, GraphError> {
        let id = self.free_list().pop().ok_or(GraphError::OutOfVertices {
            requested: 1,
            available: 0,
        })?;
        let mut v = self.lock(id);
        *v = Vertex::new(label);
        // A recycled slot must not inherit the previous occupant's
        // published marks (the epoch may still be current).
        self.marks.clear(id.index());
        Ok(id)
    }

    /// Returns a vertex to the shared free list, clearing it.
    pub fn free(&self, id: VertexId) {
        {
            let mut v = self.lock(id);
            v.clear_for_free();
            self.marks.clear(id.index());
        }
        self.free_list().push(id);
    }

    /// Number of vertices currently on the free list.
    pub fn free_count(&self) -> usize {
        self.free_list().len()
    }

    /// Locks the free list, ignoring poison like [`SharedGraph::lock`].
    fn free_list(&self) -> MutexGuard<'_, Vec<VertexId>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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

    #[test]
    fn lock_pair_handles_equal_ids() {
        let store = GraphStore::with_capacity(2);
        let shared = SharedGraph::from_store(store);
        let (g, other) = shared.lock_pair(VertexId::new(0), VertexId::new(0));
        assert!(other.is_none());
        drop(g);
        let (_a, b) = shared.lock_pair(VertexId::new(1), VertexId::new(0));
        assert!(b.is_some());
    }

    #[test]
    fn alloc_and_free_are_thread_safe() {
        let store = GraphStore::with_capacity(64);
        let shared = Arc::new(SharedGraph::from_store(store));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..16 {
                        if let Ok(id) = g.alloc(NodeLabel::Hole) {
                            mine.push(id);
                        }
                    }
                    for id in mine {
                        g.free(id);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.free_count(), 64);
        let back = Arc::try_unwrap(shared).unwrap().into_store();
        assert!(back.check_consistency().is_ok());
    }

    #[test]
    fn concurrent_mutation_with_ordered_locks() {
        let mut store = GraphStore::with_capacity(2);
        let a = store.alloc(NodeLabel::If).unwrap();
        let b = store.alloc(NodeLabel::lit_int(0)).unwrap();
        let shared = Arc::new(SharedGraph::from_store(store));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let g = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // Half the threads lock (a, b), half (b, a); ordered
                    // acquisition must not deadlock.
                    let (x, y) = if i % 2 == 0 { (a, b) } else { (b, a) };
                    for _ in 0..100 {
                        let (mut ga, gb) = g.lock_pair(x, y);
                        ga.push_arg(y);
                        drop(gb);
                        ga.remove_arg(y);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let back = Arc::try_unwrap(shared).unwrap().into_store();
        assert!(back.vertex(a).args().is_empty());
        assert!(back.vertex(b).args().is_empty());
    }
}
