//! Message envelopes and scheduling lanes.

use dgr_graph::{PeId, Priority};

/// The scheduling lane a message travels in.
///
/// The paper distinguishes tasks of the reduction process (prioritized 3/2/1
/// by `M_R`'s classification) from tasks of the marking process; mutator
/// notifications get their own lane so a scheduling policy can model the
/// "simple busy-waiting protocol" of Section 6 by favoring them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Graph-mutation notifications (highest urgency).
    Mutator,
    /// Mark and return tasks of `M_R` / `M_T`.
    Marking,
    /// Reduction tasks, prioritized by the destination vertex's class.
    Reduction(Priority),
}

impl Lane {
    /// Dense index used by mailbox arrays: mutator 0, marking 1, reduction
    /// vital/eager/reserve 2/3/4.
    pub fn index(self) -> usize {
        match self {
            Lane::Mutator => 0,
            Lane::Marking => 1,
            Lane::Reduction(Priority::Vital) => 2,
            Lane::Reduction(Priority::Eager) => 3,
            Lane::Reduction(Priority::Reserve) => 4,
        }
    }

    /// All lanes in scheduling-preference order.
    pub const ALL: [Lane; 5] = [
        Lane::Mutator,
        Lane::Marking,
        Lane::Reduction(Priority::Vital),
        Lane::Reduction(Priority::Eager),
        Lane::Reduction(Priority::Reserve),
    ];

    /// Returns `true` for the reduction lanes.
    pub fn is_reduction(self) -> bool {
        matches!(self, Lane::Reduction(_))
    }
}

/// A message addressed to a processing element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The PE whose mailbox receives the message.
    pub dst: PeId,
    /// The scheduling lane.
    pub lane: Lane,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(dst: PeId, lane: Lane, msg: M) -> Self {
        Envelope { dst, lane, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_indices_are_dense_and_ordered() {
        for (i, lane) in Lane::ALL.iter().enumerate() {
            assert_eq!(lane.index(), i);
        }
    }

    #[test]
    fn reduction_lanes() {
        assert!(Lane::Reduction(Priority::Vital).is_reduction());
        assert!(!Lane::Marking.is_reduction());
        assert!(!Lane::Mutator.is_reduction());
    }

    #[test]
    fn envelope_construction() {
        let e = Envelope::new(PeId::new(1), Lane::Marking, 42u32);
        assert_eq!(e.dst, PeId::new(1));
        assert_eq!(e.lane, Lane::Marking);
        assert_eq!(e.msg, 42);
    }
}
