//! Marking under mutation with cooperation switched off.
//!
//! Chandy–Misra-style distributed graph algorithms assume the graph is
//! static. Running the paper's marking on a mutating graph *without* the
//! cooperating mutator primitives reproduces that assumption — and its
//! failure mode: live vertices end up unmarked and would be reclaimed.
//! The move mutation keeps root-reachability invariant, so every unmarked
//! live vertex at the end is a definite loss.

use dgr_core::driver::{reset_slot, route};
use dgr_core::{handle_mark, MarkMsg, MarkState, RMode};
use dgr_graph::{oracle, GraphStore, MarkParent, PartitionMap, PartitionStrategy, Requester, Slot};
use dgr_sim::{DetSim, SchedPolicy};
use dgr_telemetry::LifecycleTracker;
use dgr_workloads::mutation::MoveMutator;

/// Result of one marking-under-mutation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoopReport {
    /// Whether cooperation was enabled.
    pub cooperating: bool,
    /// Mutations applied during the marking pass.
    pub mutations: u64,
    /// Live (root-reachable) vertices at the end of the pass.
    pub live: usize,
    /// Live vertices the pass failed to mark — what a collector using
    /// these marks would wrongly reclaim.
    pub lost_live: usize,
    /// Marking events executed.
    pub mark_events: u64,
}

/// Runs one `mark1` pass over `g` while applying one move mutation every
/// `mutation_period` marking events (`0` = no mutation).
pub fn mark_under_mutation(
    g: &mut GraphStore,
    cooperating: bool,
    mutation_period: u64,
    seed: u64,
) -> CoopReport {
    let root = g.root().expect("marking needs a root");
    reset_slot(g, Slot::R);
    let mut state = MarkState::new();
    state.cooperation_enabled = cooperating;
    state.begin_r(RMode::Simple);

    let partition = PartitionMap::new(4, g.capacity(), PartitionStrategy::Modulo);
    let mut sim: DetSim<MarkMsg> = DetSim::new(4, SchedPolicy::Random { marking_bias: 0.5 }, seed);
    sim.send(route(
        &partition,
        MarkMsg::Mark1 {
            v: root,
            par: MarkParent::RootPar,
        },
    ));

    let mut mutator = MoveMutator::new(seed.wrapping_add(1));
    let mut events = 0u64;
    let mut buf: Vec<MarkMsg> = Vec::new();
    while let Some((_pe, _lane, msg)) = sim.next_event() {
        handle_mark(&mut state, g, msg, &mut |m| buf.push(m));
        events += 1;
        for m in buf.drain(..) {
            sim.send(route(&partition, m));
        }
        if mutation_period > 0 && events.is_multiple_of(mutation_period) {
            let mut coop_buf: Vec<MarkMsg> = Vec::new();
            mutator.step(&mut state, g, &mut |m| coop_buf.push(m));
            for m in coop_buf {
                sim.send(route(&partition, m));
            }
        }
    }
    assert!(state.r_done, "marking drained without termination");

    let reach = oracle::reachable_r(g);
    let lost_live = g
        .live_ids()
        .filter(|&v| reach.contains(v) && !g.mark(v, Slot::R).is_marked())
        .count();
    CoopReport {
        cooperating,
        mutations: mutator.applied,
        live: reach.len(),
        lost_live,
        mark_events: events,
    }
}

/// [`mark_under_mutation`] followed by reclamation, with the vertex
/// lifecycle observed through `lc`.
///
/// The caller owns the cycle bracket (`begin_cycle`/`end_cycle`). After
/// the pass drains, every oracle-garbage vertex is censused and freed —
/// garbage is never root-reachable, so the pass never marks it and its
/// marks agree with the oracle on this set regardless of cooperation.
/// (What non-cooperation corrupts is the *live* side: `lost_live` counts
/// live vertices the marks would additionally, wrongly, reclaim; the
/// observatory does not free those, or repeated passes would run on a
/// corrupted graph.) Every marking event is charged to the M_R meter
/// against the paper's two-messages-per-marked-vertex bound.
pub fn mark_under_mutation_observed(
    g: &mut GraphStore,
    cooperating: bool,
    mutation_period: u64,
    seed: u64,
    lc: &mut LifecycleTracker,
) -> CoopReport {
    let r = mark_under_mutation(g, cooperating, mutation_period, seed);
    let reach = oracle::reachable_r(g);
    let garbage = oracle::garbage(g, &reach);
    if lc.enabled() {
        for w in garbage.iter() {
            lc.garbage_vertex(w.index());
        }
    }
    // Same requester hygiene as the concurrent restructuring phase.
    let live: Vec<_> = g.live_ids().filter(|&v| !garbage.contains(v)).collect();
    for v in live {
        g.vertex_mut(v).retain_requesters(|req| match req {
            Requester::Vertex(x) => !garbage.contains(x),
            Requester::External => true,
        });
    }
    let marked = g
        .live_ids()
        .filter(|&v| g.mark(v, Slot::R).is_marked())
        .count() as u64;
    for w in garbage.iter() {
        g.free(w);
        lc.reclaim_vertex(w.index());
    }
    lc.meter_msgs(0, r.mark_events, 2 * marked);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_workloads::graphs::binary_tree;

    #[test]
    fn cooperating_loses_nothing() {
        for seed in 0..10 {
            let mut g = binary_tree(8);
            let r = mark_under_mutation(&mut g, true, 1, seed);
            assert!(r.mutations > 0, "seed {seed}: mutations applied");
            assert_eq!(r.lost_live, 0, "seed {seed}");
        }
    }

    #[test]
    fn non_cooperating_loses_live_vertices() {
        // Aggregate over seeds: any single schedule may get lucky, but
        // across ten adversarial runs the static-graph assumption must
        // lose vertices.
        let mut total_lost = 0usize;
        for seed in 0..10 {
            let mut g = binary_tree(8);
            let r = mark_under_mutation(&mut g, false, 1, seed);
            total_lost += r.lost_live;
        }
        assert!(total_lost > 0, "static-graph marking lost no vertices?");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn observed_noncoop_reclaims_true_garbage_and_meters_marking() {
        use dgr_workloads::graphs::random_digraph;
        let mut g = random_digraph(128, 2.5, 11);
        let mut lc = LifecycleTracker::new();
        lc.begin_cycle(0);
        let r = mark_under_mutation_observed(&mut g, false, 8, 11, &mut lc);
        lc.end_cycle();
        let s = lc.snapshot();
        assert!(s.reclaimed > 0, "workload produced no garbage");
        assert_eq!(s.exact, s.reclaimed, "census precedes every free");
        assert_eq!(s.float_now, 0);
        assert_eq!(s.msgs_mr, r.mark_events);
        assert!(s.bound > 0, "bound follows the marked live set");
        // True garbage is never root-reachable, so reclamation leaves
        // exactly the live set — regardless of lost marks.
        let reach = oracle::reachable_r(&g);
        assert_eq!(g.live_ids().count(), reach.len());
    }

    #[test]
    fn no_mutation_no_difference() {
        let mut g1 = binary_tree(6);
        let mut g2 = binary_tree(6);
        let coop = mark_under_mutation(&mut g1, true, 0, 3);
        let non = mark_under_mutation(&mut g2, false, 0, 3);
        assert_eq!(coop.lost_live, 0);
        assert_eq!(non.lost_live, 0, "a static graph needs no cooperation");
    }
}
