//! `mark1` on the work-stealing parallel runtime.
//!
//! Each marking task touches exactly one vertex and takes no vertex lock
//! — a stronger form of the property Section 6 uses (marking tasks never
//! nest vertex locks) to argue that resource deadlock between marking
//! tasks is impossible and interference with the reduction process is
//! minimal.
//!
//! This module is used by the scalability experiments (T5): the same
//! algorithm that the deterministic simulator executes runs here on one
//! OS thread per PE, on the [`StealRuntime`] — per-PE Chase–Lev deques,
//! a sharded mailbox mesh for cross-PE envelopes, and adaptive parking.
//!
//! The hot-path structure, all semantics-preserving:
//!
//! * between-pass resets are an O(1) epoch bump ([`reset_shared_r`]);
//! * the per-vertex mark state lives in the shared graph's dense
//!   [`MarkWords`](dgr_graph::MarkWords) array: the Unmarked → Transient
//!   transition is a CAS claim, the count drain of a `Return` is one
//!   `fetch_sub`, and no task takes a vertex lock — no mutator runs
//!   beside a threaded pass, so the [`SharedGraph`] is frozen and a
//!   claimant reads the child list through a plain `&Vertex`;
//! * tasks are allocation-free `u64` words carrying a saturating depth
//!   hint, so the runtime's LIFO pop / oldest-first steal discipline
//!   executes deep work locally and hands thieves the biggest remaining
//!   subtrees (critical-path-aware scheduling);
//! * a task for vertex `v` is still *routed* to `v`'s owner PE per the
//!   partition — the paper's distribution model, and what the envelope
//!   counter measures — but an idle PE may steal it: soundness does not
//!   depend on placement because every state transition is a CAS or an
//!   owned decrement on the shared mark words.

use std::sync::atomic::{AtomicBool, Ordering};

use dgr_graph::{markword::Claim, PeId};
use dgr_graph::{GraphStore, MarkParent, PartitionMap, PartitionStrategy, Slot, VertexId};
use dgr_sim::steal::with_depth;
use dgr_sim::{SharedGraph, SpawnScope, StealRuntime};
use dgr_telemetry::{CounterId, HeartbeatHandle, Phase, Registry};

/// Task words: `depth(6) | kind(1) | par(28) | v(28)` with the depth hint
/// in the runtime's reserved top bits. 28-bit vertex fields bound the
/// graph at ~268M vertices — far beyond any workload here, asserted at
/// pass start.
const FIELD_BITS: u32 = 28;
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;
/// `par`/`to` sentinel for the paper's `rootpar` termination target.
const ROOTPAR: u64 = FIELD_MAX;
const KIND_RETURN: u64 = 1 << (2 * FIELD_BITS);

fn mark_task(v: VertexId, par: u64, depth: u64) -> u64 {
    with_depth((par << FIELD_BITS) | u64::from(v.raw()), depth)
}

fn return_task(to: u64, depth: u64) -> u64 {
    with_depth(KIND_RETURN | to, depth)
}

/// Owner PE of a task: where its subject vertex lives (`rootpar` returns
/// go to PE 0, which spawned the root mark).
fn route(partition: &PartitionMap, task: u64) -> PeId {
    let v = task & FIELD_MAX;
    if v == ROOTPAR {
        PeId::new(0)
    } else {
        partition.pe_of(VertexId::new(v as u32))
    }
}

/// Counters from one threaded `mark1` pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadedMarkStats {
    /// Marking tasks executed (marks + returns). `mark1` sends exactly
    /// one return per mark, and marks a first visit exactly once, so this
    /// count is schedule-independent and equals the event count of a
    /// deterministic-simulator pass over the same graph.
    pub messages: u64,
    /// Cross-PE envelopes the runtime routed through the mailbox mesh
    /// (tasks whose owner PE differed from the spawning PE).
    pub envelopes: u64,
    /// Successful steal operations across all workers.
    pub steals: u64,
    /// Steal attempts that found the victim empty or lost a race.
    pub steal_fails: u64,
    /// Times a worker parked on the idle-backoff timeout.
    pub parks: u64,
    /// Largest private spill depth any worker reached.
    pub spill_hw: u64,
}

/// Runs a complete `mark1` pass over `store` using `num_pes` OS threads,
/// returning the marked store and the number of marking tasks executed.
///
/// The R slot is reset first. Termination is detected both by the
/// algorithm (the `done` flag set by the return to `rootpar`) and by
/// runtime quiescence; the two are asserted to agree.
///
/// # Panics
///
/// Panics if the store has no root or if quiescence is reached without the
/// algorithm signalling `done`.
pub fn run_mark1_threaded(
    mut store: GraphStore,
    num_pes: u16,
    strategy: PartitionStrategy,
) -> (GraphStore, u64) {
    crate::driver::reset_slot(&mut store, Slot::R);
    let shared = SharedGraph::from_store(store);
    let stats = run_mark1_shared(&shared, num_pes, strategy);
    (shared.into_store(), stats.messages)
}

/// Resets every vertex's R slot in a shared graph (between passes): an
/// O(1) epoch bump; stale per-vertex state is reset lazily on first
/// access. Must not run concurrently with a marking pass.
pub fn reset_shared_r(shared: &SharedGraph) {
    shared.begin_r_cycle();
}

/// Runs one `mark1` pass over an already-shared graph whose R slots are
/// reset, returning the pass's message counters. This is the timed core
/// of the T5 scalability experiment — the store↔shared conversions of
/// [`run_mark1_threaded`] are serial setup, not marking.
///
/// # Panics
///
/// Panics if the graph has no root or quiescence is reached without the
/// algorithm signalling `done`.
pub fn run_mark1_shared(
    shared: &SharedGraph,
    num_pes: u16,
    strategy: PartitionStrategy,
) -> ThreadedMarkStats {
    run_mark1_shared_observed(
        shared,
        num_pes,
        strategy,
        &Registry::new(num_pes),
        &HeartbeatHandle::new(),
    )
}

/// [`run_mark1_shared`] with an explicit telemetry registry and a
/// liveness pulse: the pass is wrapped in an `M_R` span, each PE's
/// executed marking tasks land in its mark-event counter, and the
/// underlying runtime records deque depth, steals, drained batch sizes
/// and park events per PE. The pass also brackets an `M_R` phase on `hb`
/// and the runtime beats delivery progress per local drain run, so the
/// `dgr-observe` watchdog can supervise a long pass from another thread.
///
/// # Panics
///
/// Panics under the same conditions as [`run_mark1_shared`].
pub fn run_mark1_shared_observed(
    shared: &SharedGraph,
    num_pes: u16,
    strategy: PartitionStrategy,
    telem: &Registry,
    hb: &HeartbeatHandle,
) -> ThreadedMarkStats {
    let root = shared.root().expect("marking needs a root");
    assert!(
        (shared.capacity() as u64) < ROOTPAR,
        "graph too large for 28-bit task fields"
    );
    let partition = PartitionMap::new(num_pes, shared.capacity(), strategy);
    let done = AtomicBool::new(false);
    // The pass's epoch is fixed before threads spawn (spawning publishes
    // it); every mark-word access below is normalized against it.
    let epoch = shared.mark_epoch(Slot::R);
    let marks = shared.marks();

    let _pass = telem.span(0, 0, Phase::Mr, "mark1_threaded");
    hb.begin_phase(0, Phase::Mr);
    let seed = mark_task(root, ROOTPAR, 0);
    let stats = StealRuntime::new(num_pes).run_observed(
        vec![(route(&partition, seed), seed)],
        |scope: &mut SpawnScope<'_>, task: u64| {
            telem.pe(scope.me().raw()).inc(CounterId::MarkEvents);
            let depth = dgr_sim::steal::task_depth(task);
            let emit = |scope: &mut SpawnScope<'_>, t: u64| {
                scope.spawn(route(&partition, t), t);
            };
            if task & KIND_RETURN == 0 {
                // A mark task: claim `v` for this cycle or settle as a
                // duplicate visit.
                let v = VertexId::new((task & FIELD_MAX) as u32);
                let par = (task >> FIELD_BITS) & FIELD_MAX;
                // Lock-free fast path: a current-epoch color other than
                // Unmarked means this mark1 returns immediately.
                let probed = marks.probe(v.index(), epoch);
                if probed.is_some_and(|c| c != dgr_graph::Color::Unmarked) {
                    emit(scope, return_task(par, depth));
                    return;
                }
                // The winner of the CAS claim owns the expansion. The
                // graph is frozen while shared, so the child list is read
                // through a plain `&Vertex`.
                let vertex = shared.vertex(v);
                if vertex.is_free() {
                    emit(scope, return_task(par, depth));
                    return;
                }
                let mut n_children = 0u32;
                vertex.for_each_r_child(|_| n_children += 1);
                let parent = if par == ROOTPAR {
                    MarkParent::RootPar
                } else {
                    MarkParent::Vertex(VertexId::new(par as u32))
                };
                match marks.try_claim(v.index(), epoch, n_children, parent) {
                    Claim::Won(_) if n_children > 0 => {
                        // Spawn deepest-last so the runtime chains the
                        // final child and thieves get the first ones.
                        vertex.for_each_r_child(|c| {
                            emit(scope, mark_task(c, u64::from(v.raw()), depth + 1));
                        });
                    }
                    Claim::Won(_) | Claim::Lost => emit(scope, return_task(par, depth)),
                }
            } else {
                // A return task: drain one outstanding child of `to`.
                let to = task & FIELD_MAX;
                if to == ROOTPAR {
                    // Relaxed: asserted only after the runtime joins its
                    // workers, which synchronizes.
                    done.store(true, Ordering::Relaxed);
                    return;
                }
                let v = VertexId::new(to as u32);
                if let Some(parent) = marks.complete_child(v.index(), epoch) {
                    let t = match parent {
                        MarkParent::RootPar => return_task(ROOTPAR, depth),
                        MarkParent::Vertex(p) => {
                            return_task(u64::from(p.raw()), depth.saturating_sub(1))
                        }
                        MarkParent::TaskRootPar => {
                            unreachable!("mark1 never uses the task root")
                        }
                    };
                    emit(scope, t);
                }
            }
        },
        telem,
        hb,
    );
    hb.end_phase();
    if !done.load(Ordering::Relaxed) {
        // Flight-record before panicking: the runtime is quiescent, so
        // the in-flight set is empty — the event-ring tail and counters
        // are what's left to explain the missing termination signal.
        let reason = "quiescent without termination signal";
        let dropped = telem.dropped_events();
        let events = telem.drain_events();
        match dgr_telemetry::write_flight(reason, 0, &events, dropped, &telem.snapshot(), &[]) {
            Ok(path) => eprintln!("flight recorder: wrote {}", path.display()),
            Err(e) => eprintln!("flight recorder: dump failed: {e}"),
        }
        panic!("{reason}");
    }
    ThreadedMarkStats {
        messages: stats.executed,
        envelopes: stats.envelopes,
        steals: stats.steals,
        steal_fails: stats.steal_fails,
        parks: stats.parks,
        spill_hw: stats.spill_hw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{oracle, NodeLabel};

    /// A binary tree of the given depth plus `stray` disconnected vertices.
    fn tree(depth: usize, stray: usize) -> GraphStore {
        let n = (1 << (depth + 1)) - 1;
        let mut g = GraphStore::with_capacity(n + stray);
        let ids: Vec<_> = (0..n)
            .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
            .collect();
        for i in 0..n {
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n {
                    g.connect(ids[i], ids[child]);
                }
            }
        }
        for _ in 0..stray {
            g.alloc(NodeLabel::lit_int(-1)).unwrap();
        }
        g.set_root(ids[0]);
        g
    }

    #[test]
    fn threaded_mark1_agrees_with_oracle() {
        for pes in [1u16, 2, 4, 8] {
            let g = tree(8, 37);
            let (marked, handled) = run_mark1_threaded(g, pes, PartitionStrategy::Modulo);
            assert!(handled > 0);
            let r = oracle::reachable_r(&marked);
            for v in marked.live_ids() {
                assert_eq!(
                    r.contains(v),
                    marked.mark(v, Slot::R).is_marked(),
                    "{pes} PEs, vertex {v}"
                );
                assert_eq!(marked.mark(v, Slot::R).mt_cnt, 0);
            }
        }
    }

    #[test]
    fn threaded_mark1_handles_cycles_and_sharing() {
        let mut g = GraphStore::with_capacity(64);
        let ids: Vec<_> = (0..32)
            .map(|i| g.alloc(NodeLabel::lit_int(i)).unwrap())
            .collect();
        // Dense strongly-connected mess.
        for i in 0..32usize {
            g.connect(ids[i], ids[(i * 7 + 3) % 32]);
            g.connect(ids[i], ids[(i * 5 + 11) % 32]);
            g.connect(ids[i], ids[(i + 1) % 32]);
        }
        g.set_root(ids[0]);
        let (marked, _) = run_mark1_threaded(g, 4, PartitionStrategy::Block);
        for &v in &ids {
            assert!(marked.mark(v, Slot::R).is_marked());
        }
    }

    #[test]
    fn threaded_matches_simulated_mark_set() {
        let g = tree(6, 11);
        let mut g_sim = g.clone();
        crate::driver::run_mark1(&mut g_sim, &crate::driver::MarkRunConfig::default());
        let (g_thr, _) = run_mark1_threaded(g, 4, PartitionStrategy::Modulo);
        for v in g_sim.ids() {
            assert_eq!(
                g_sim.mark(v, Slot::R).is_marked(),
                g_thr.mark(v, Slot::R).is_marked(),
                "differential mismatch at {v}"
            );
        }
    }

    #[test]
    fn threaded_message_count_matches_simulator_events() {
        // mark1 sends one mark per first visit or revisit and exactly one
        // return per mark, so the task count is schedule-independent:
        // the threaded pass must execute exactly as many tasks as the
        // deterministic simulator delivers events.
        let g = tree(7, 5);
        let mut g_sim = g.clone();
        let sim_stats =
            crate::driver::run_mark1(&mut g_sim, &crate::driver::MarkRunConfig::default());
        for pes in [1u16, 3, 8] {
            let (_, messages) = run_mark1_threaded(g.clone(), pes, PartitionStrategy::Modulo);
            assert_eq!(messages, sim_stats.events, "{pes} PEs");
        }
    }

    #[test]
    fn repeated_shared_passes_with_epoch_reset() {
        // Re-running after reset_shared_r must redo the full pass (same
        // message count), not see stale marks from the previous epoch.
        let shared = SharedGraph::from_store({
            let mut g = tree(5, 3);
            crate::driver::reset_slot(&mut g, Slot::R);
            g
        });
        let first = run_mark1_shared(&shared, 4, PartitionStrategy::Modulo);
        for _ in 0..3 {
            reset_shared_r(&shared);
            let again = run_mark1_shared(&shared, 4, PartitionStrategy::Modulo);
            assert_eq!(again.messages, first.messages);
        }
        let back = shared.into_store();
        assert!(back.mark(back.root().unwrap(), Slot::R).is_marked());
    }

    #[test]
    fn shared_passes_round_trip_the_store_losslessly() {
        fn flat(_: &NodeLabel) -> u32 {
            64
        }
        // Custom weights and cost model, a freed vertex, and T-slot marks
        // written by an M_T pass on the deterministic simulator.
        let mut g = tree(5, 3);
        let root = g.root().unwrap();
        g.set_vertex_weight(root, 7);
        g.set_cost_model(flat);
        g.grow(1);
        let extra = g.alloc(NodeLabel::If).unwrap();
        g.connect(root, extra);
        g.free(VertexId::new(64));
        let mut tasks = dgr_graph::TaskEndpoints::new();
        tasks.push_task(None, root);
        crate::driver::run_mark3(&mut g, &tasks, &crate::driver::MarkRunConfig::default());
        assert!(g.ids().any(|v| g.mark(v, Slot::T).is_marked()));
        let before = g.clone();
        let epoch_r = g.mark_epoch(Slot::R);

        let shared = SharedGraph::from_store(g);
        for _ in 0..3 {
            reset_shared_r(&shared);
            run_mark1_shared(&shared, 2, PartitionStrategy::Modulo);
        }
        let back = shared.into_store();

        assert_eq!(back.mark_epoch(Slot::R), epoch_r + 3);
        assert_eq!(back.mark_epoch(Slot::T), before.mark_epoch(Slot::T));
        for v in back.ids() {
            assert_eq!(back.vertex_bytes(v), before.vertex_bytes(v), "{v} bytes");
            assert_eq!(back.mark(v, Slot::T), before.mark(v, Slot::T), "{v} T slot");
        }
        assert_eq!(back.live_bytes(), before.live_bytes());
        assert_eq!(back.alloc_bytes_total(), before.alloc_bytes_total());
        let r = oracle::reachable_r(&back);
        for v in back.live_ids() {
            assert_eq!(r.contains(v), back.mark(v, Slot::R).is_marked(), "{v}");
        }
        // Same free list in the same order, and the same cost model.
        let drain = |mut g: GraphStore| {
            std::iter::from_fn(move || {
                g.alloc(NodeLabel::Cons)
                    .ok()
                    .map(|v| (v, g.vertex_bytes(v)))
            })
            .collect::<Vec<_>>()
        };
        assert_eq!(drain(back), drain(before));
    }
}
