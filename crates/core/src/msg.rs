//! Marking task messages.

use dgr_graph::{MarkParent, Priority, Slot, VertexId};

/// A marking task, represented (like every task) as a message `<s, d>`:
/// the destination vertex is where the task executes, the parent is the
/// source in the marking tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkMsg {
    /// `mark1(v, par)` — Figure 4-1: the simplified algorithm, tracing
    /// `args(v)` in the R slot.
    Mark1 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex (parent in the marking tree).
        par: MarkParent,
    },
    /// `mark2(v, par, prior)` — Figure 5-1: priority marking for `M_R`.
    Mark2 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex.
        par: MarkParent,
        /// The priority carried by this mark task.
        prior: Priority,
    },
    /// `mark3(v, par)` — Figure 5-3: task marking for `M_T`, tracing
    /// `requested(v) ∪ (args(v) − req-args(v))` in the T slot.
    Mark3 {
        /// The vertex to mark.
        v: VertexId,
        /// The spawning vertex.
        par: MarkParent,
    },
    /// `return1(to)` — the backward task. `slot` selects whose marking
    /// tree (and whose `done` flag) the return belongs to.
    Return {
        /// Which marking process's tree is being returned through.
        slot: Slot,
        /// The marking-tree parent receiving the return.
        to: MarkParent,
    },
}

impl MarkMsg {
    /// The vertex at which this task executes, used to route the message
    /// to the owning PE. Returns `None` for returns addressed to the dummy
    /// roots (`rootpar` / the virtual `troot`), which execute wherever the
    /// marking process was initiated.
    pub fn dest_vertex(&self) -> Option<VertexId> {
        match *self {
            MarkMsg::Mark1 { v, .. } | MarkMsg::Mark2 { v, .. } | MarkMsg::Mark3 { v, .. } => {
                Some(v)
            }
            MarkMsg::Return { to, .. } => to.as_vertex(),
        }
    }

    /// The slot this message operates on.
    pub fn slot(&self) -> Slot {
        match *self {
            MarkMsg::Mark1 { .. } | MarkMsg::Mark2 { .. } => Slot::R,
            MarkMsg::Mark3 { .. } => Slot::T,
            MarkMsg::Return { slot, .. } => slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_vertex_routes_marks_to_target() {
        let v = VertexId::new(3);
        let m = MarkMsg::Mark1 {
            v,
            par: MarkParent::RootPar,
        };
        assert_eq!(m.dest_vertex(), Some(v));
        assert_eq!(m.slot(), Slot::R);
    }

    #[test]
    fn dest_vertex_of_dummy_returns_is_none() {
        let r = MarkMsg::Return {
            slot: Slot::T,
            to: MarkParent::TaskRootPar,
        };
        assert_eq!(r.dest_vertex(), None);
        assert_eq!(r.slot(), Slot::T);
        let r2 = MarkMsg::Return {
            slot: Slot::R,
            to: MarkParent::Vertex(VertexId::new(1)),
        };
        assert_eq!(r2.dest_vertex(), Some(VertexId::new(1)));
    }

    #[test]
    fn slots_match_figures() {
        let v = VertexId::new(0);
        assert_eq!(
            MarkMsg::Mark2 {
                v,
                par: MarkParent::RootPar,
                prior: Priority::Vital
            }
            .slot(),
            Slot::R
        );
        assert_eq!(
            MarkMsg::Mark3 {
                v,
                par: MarkParent::TaskRootPar
            }
            .slot(),
            Slot::T
        );
    }
}
