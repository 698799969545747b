//! Reduction task messages and the combined system message type.

use dgr_core::MarkMsg;
use dgr_graph::{RequestKind, Requester, Value, VertexId};

/// A task of the reduction process, represented as a message `<s, d>`.
#[derive(Debug, Clone, PartialEq)]
pub enum RedMsg {
    /// `s` requests the value of `d` (spawned as `<s, d>`; executing it
    /// adds `s` to `requested(d)` and propagates demand further).
    Request {
        /// The requesting party (`-` for the initial task `<-, root>`).
        src: Requester,
        /// The vertex whose value is wanted.
        dst: VertexId,
        /// Whether the demand is vital or speculative.
        kind: RequestKind,
    },
    /// `src` returns its computed value to `dst` (the task `<src, dst>`
    /// spawned for each `s ∈ requested(src)` once the value is known).
    Return {
        /// The vertex that computed the value.
        src: VertexId,
        /// The party that requested it.
        dst: Requester,
        /// The computed value.
        value: Value,
    },
}

impl RedMsg {
    /// The vertex this task executes at, for routing; `None` for returns
    /// to the external observer.
    pub fn dest_vertex(&self) -> Option<VertexId> {
        match *self {
            RedMsg::Request { dst, .. } => Some(dst),
            RedMsg::Return { dst, .. } => dst.as_vertex(),
        }
    }

    /// The task's endpoints `(s, d)` as vertices, for seeding `M_T`'s
    /// virtual task roots. In-transit tasks are included this way, which
    /// substitutes for the paper's separate in-transit treatment: the
    /// simulator mailboxes *are* the task pools plus the network.
    pub fn endpoints(&self) -> (Option<VertexId>, Option<VertexId>) {
        match *self {
            RedMsg::Request { src, dst, .. } => (src.as_vertex(), Some(dst)),
            RedMsg::Return { src, dst, .. } => (Some(src), dst.as_vertex()),
        }
    }
}

/// The union message type delivered by a full system (reduction tasks,
/// marking tasks, or both, in their respective lanes).
#[derive(Debug, Clone, PartialEq)]
pub enum SysMsg {
    /// A reduction task.
    Red(RedMsg),
    /// A marking task.
    Mark(MarkMsg),
}

impl SysMsg {
    /// The vertex the message executes at, if any.
    pub fn dest_vertex(&self) -> Option<VertexId> {
        match self {
            SysMsg::Red(m) => m.dest_vertex(),
            SysMsg::Mark(m) => m.dest_vertex(),
        }
    }

    /// Returns the reduction task, if this is one.
    pub fn as_red(&self) -> Option<&RedMsg> {
        match self {
            SysMsg::Red(m) => Some(m),
            SysMsg::Mark(_) => None,
        }
    }
}

impl From<RedMsg> for SysMsg {
    fn from(m: RedMsg) -> Self {
        SysMsg::Red(m)
    }
}

impl From<MarkMsg> for SysMsg {
    fn from(m: MarkMsg) -> Self {
        SysMsg::Mark(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_endpoints() {
        let m = RedMsg::Request {
            src: Requester::Vertex(VertexId::new(1)),
            dst: VertexId::new(2),
            kind: RequestKind::Vital,
        };
        assert_eq!(m.dest_vertex(), Some(VertexId::new(2)));
        assert_eq!(
            m.endpoints(),
            (Some(VertexId::new(1)), Some(VertexId::new(2)))
        );
    }

    #[test]
    fn initial_task_has_no_source() {
        let m = RedMsg::Request {
            src: Requester::External,
            dst: VertexId::new(0),
            kind: RequestKind::Vital,
        };
        assert_eq!(m.endpoints(), (None, Some(VertexId::new(0))));
    }

    #[test]
    fn return_to_external_routes_nowhere() {
        let m = RedMsg::Return {
            src: VertexId::new(3),
            dst: Requester::External,
            value: Value::Int(1),
        };
        assert_eq!(m.dest_vertex(), None);
        assert_eq!(m.endpoints(), (Some(VertexId::new(3)), None));
    }

    #[test]
    fn sysmsg_conversions() {
        let r: SysMsg = RedMsg::Request {
            src: Requester::External,
            dst: VertexId::new(0),
            kind: RequestKind::Vital,
        }
        .into();
        assert!(r.as_red().is_some());
        let m: SysMsg = MarkMsg::Return {
            slot: dgr_graph::Slot::R,
            to: dgr_graph::MarkParent::RootPar,
        }
        .into();
        assert!(m.as_red().is_none());
        assert_eq!(m.dest_vertex(), None);
    }
}
