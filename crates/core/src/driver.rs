//! Drivers that run complete marking passes on the deterministic simulator.
//!
//! A pass spawns the initial mark task(s), then delivers marking messages
//! until the system is quiescent; the algorithm's own termination detection
//! (the `done` flag set by `return1(rootpar)`, or the virtual `troot` count
//! for `M_T`) is asserted to agree. These drivers run marking **alone** —
//! the combined marking + reduction + restructuring cycle lives in
//! `dgr-gc`, which interleaves mutator work between marking events.

use dgr_graph::{
    GraphStore, MarkParent, PartitionMap, PartitionStrategy, Priority, Slot, TaskEndpoints,
};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
use dgr_telemetry::{CounterId, Phase, Registry};

use crate::handler::handle_mark;
use crate::invariants::check_invariants;
use crate::msg::MarkMsg;
use crate::state::{MarkState, RMode};

/// Configuration for a marking pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkRunConfig {
    /// Number of processing elements.
    pub num_pes: u16,
    /// Scheduling policy for message delivery.
    pub policy: SchedPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// How vertices map to PEs.
    pub partition: PartitionStrategy,
    /// Check the marking invariants after every event (slow; tests only).
    pub check_invariants: bool,
}

impl Default for MarkRunConfig {
    fn default() -> Self {
        MarkRunConfig {
            num_pes: 4,
            policy: SchedPolicy::Fifo,
            seed: 0,
            partition: PartitionStrategy::Modulo,
            check_invariants: false,
        }
    }
}

/// Statistics of a completed marking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkStats {
    /// Marking messages delivered (mark + return events).
    pub events: u64,
    /// Vertices marked in the pass's slot.
    pub marked: usize,
    /// Messages that crossed a partition boundary.
    pub remote_messages: u64,
}

/// Resets one marking slot on every vertex (free-list vertices included) —
/// the preparation step at the start of each marking cycle. O(1): bumps
/// the store's epoch for the slot, and stale per-vertex state is reset
/// lazily on first access (see [`GraphStore::begin_mark_cycle`]).
pub fn reset_slot(g: &mut GraphStore, slot: Slot) {
    g.begin_mark_cycle(slot);
}

/// Routes a marking message to the PE owning its destination vertex;
/// returns addressed to the dummy roots execute on PE 0, where the marking
/// process was initiated.
pub fn route(partition: &PartitionMap, msg: MarkMsg) -> Envelope<MarkMsg> {
    let pe = msg
        .dest_vertex()
        .map(|v| partition.pe_of(v))
        .unwrap_or(dgr_graph::PeId::new(0));
    Envelope::new(pe, Lane::Marking, msg)
}

/// Phase tag and flow-event name for a marking message, by slot: the
/// `M_T` wave and the `M_R` wave get distinct names so the analyzer can
/// histogram their fan-outs separately (Theorem 2 orders them).
fn flow_meta(m: &MarkMsg) -> (Phase, &'static str) {
    match m.slot() {
        Slot::T => (Phase::Mt, "M_T"),
        Slot::R => (Phase::Mr, "M_R"),
    }
}

/// Dumps the flight recorder (event-ring tail, metrics snapshot, every
/// undelivered message) next to the process, then panics with `reason`.
/// The dump works with telemetry off too — the in-flight set comes from
/// the simulator, the rings are just empty.
fn flight_dump_and_panic(reason: String, pe: u16, telem: &Registry, sim: &DetSim<MarkMsg>) -> ! {
    let in_flight: Vec<String> = sim
        .iter_pending()
        .map(|(p, l, m)| format!("pe={} lane={l:?} {m:?}", p.raw()))
        .collect();
    let dropped = telem.dropped_events();
    let events = telem.drain_events();
    match dgr_telemetry::write_flight(&reason, pe, &events, dropped, &telem.snapshot(), &in_flight)
    {
        Ok(path) => eprintln!("flight recorder: wrote {}", path.display()),
        Err(e) => eprintln!("flight recorder: dump failed: {e}"),
    }
    panic!("{reason}");
}

fn run_pass(
    g: &mut GraphStore,
    cfg: &MarkRunConfig,
    state: &mut MarkState,
    slot: Slot,
    initial: Vec<MarkMsg>,
    phase: Phase,
    telem: &Registry,
) -> MarkStats {
    let partition = PartitionMap::new(cfg.num_pes, g.capacity(), cfg.partition);
    let mut sim: DetSim<MarkMsg> = DetSim::new(cfg.num_pes, cfg.policy, cfg.seed);
    for m in initial {
        // Seeds originate on PE 0, where the marking process starts.
        let (fphase, fname) = flow_meta(&m);
        let seq = sim.send(route(&partition, m));
        telem.flow_send(0, 0, fphase, fname, seq + 1);
    }
    let mut stats = MarkStats::default();
    let mut buf: Vec<MarkMsg> = Vec::new();
    let _pass = telem.span(0, 0, phase, phase.name());
    while let Some((pe, _lane, seq, msg)) = sim.next_event_tagged() {
        if msg.dest_vertex().map(|v| partition.pe_of(v)) != Some(pe) && msg.dest_vertex().is_some()
        {
            stats.remote_messages += 1;
        }
        let (fphase, fname) = flow_meta(&msg);
        telem.flow_recv(pe.raw(), 0, fphase, fname, seq + 1);
        telem.pe(pe.raw()).inc(CounterId::MarkEvents);
        handle_mark(state, g, msg, &mut |m| buf.push(m));
        stats.events += 1;
        for m in buf.drain(..) {
            let (fphase, fname) = flow_meta(&m);
            let env = route(&partition, m);
            if env.dst != pe {
                stats.remote_messages += 1;
                telem.pe(pe.raw()).inc(CounterId::SendsRemote);
            } else {
                telem.pe(pe.raw()).inc(CounterId::SendsLocal);
            }
            let seq = sim.send(env);
            telem.flow_send(pe.raw(), 0, fphase, fname, seq + 1);
        }
        if cfg.check_invariants {
            let pending: Vec<MarkMsg> = sim.iter_pending().map(|(_, _, m)| *m).collect();
            if let Err(e) = check_invariants(g, slot, &pending, state) {
                flight_dump_and_panic(
                    format!(
                        "invariant violation on PE {} after event {} (handling {msg:?}): {e}",
                        pe.raw(),
                        stats.events
                    ),
                    pe.raw(),
                    telem,
                    &sim,
                );
            }
        }
    }
    stats.marked = g
        .live_ids()
        .filter(|&v| g.mark(v, slot).is_marked())
        .count();
    stats
}

/// Runs the simplified algorithm (`mark1`, Figure 4-1) from the root to
/// completion. Resets the R slot first.
///
/// # Panics
///
/// Panics if the graph has no root, or if the pass drains without the
/// `done` flag being set (which would indicate a broken invariant).
pub fn run_mark1(g: &mut GraphStore, cfg: &MarkRunConfig) -> MarkStats {
    run_mark1_with(g, cfg, &Registry::new(cfg.num_pes))
}

/// [`run_mark1`] with an explicit telemetry registry: the pass is wrapped
/// in an `M_R` span and per-PE mark-event and local/remote send counters
/// are recorded.
///
/// # Panics
///
/// Panics under the same conditions as [`run_mark1`].
pub fn run_mark1_with(g: &mut GraphStore, cfg: &MarkRunConfig, telem: &Registry) -> MarkStats {
    let root = g.root().expect("marking needs a root");
    reset_slot(g, Slot::R);
    let mut state = MarkState::new();
    state.begin_r(RMode::Simple);
    let stats = run_pass(
        g,
        cfg,
        &mut state,
        Slot::R,
        vec![MarkMsg::Mark1 {
            v: root,
            par: MarkParent::RootPar,
        }],
        Phase::Mr,
        telem,
    );
    assert!(state.r_done, "mark1 drained without termination signal");
    stats
}

/// Runs the priority-marking process `M_R` (Figure 5-2): spawns
/// `mark2(root, rootpar, 3)` and waits for `done`. Resets the R slot first.
///
/// # Panics
///
/// Panics if the graph has no root or termination is not signalled.
pub fn run_mark2(g: &mut GraphStore, cfg: &MarkRunConfig) -> MarkStats {
    let root = g.root().expect("marking needs a root");
    reset_slot(g, Slot::R);
    let mut state = MarkState::new();
    state.begin_r(RMode::Priority);
    let stats = run_pass(
        g,
        cfg,
        &mut state,
        Slot::R,
        vec![MarkMsg::Mark2 {
            v: root,
            par: MarkParent::RootPar,
            prior: Priority::Vital,
        }],
        Phase::Mr,
        &Registry::new(cfg.num_pes),
    );
    assert!(state.r_done, "M_R drained without termination signal");
    stats
}

/// Runs the task-marking process `M_T` (Figure 5-3): hangs one `mark3`
/// seed per task endpoint on the virtual `troot` and waits for all of them
/// to return. Resets the T slot first.
///
/// # Panics
///
/// Panics if termination is not signalled.
pub fn run_mark3(g: &mut GraphStore, tasks: &TaskEndpoints, cfg: &MarkRunConfig) -> MarkStats {
    reset_slot(g, Slot::T);
    let mut state = MarkState::new();
    state.begin_t(tasks.seeds().len() as u32);
    let initial = tasks
        .seeds()
        .iter()
        .map(|&v| MarkMsg::Mark3 {
            v,
            par: MarkParent::TaskRootPar,
        })
        .collect();
    let telem = Registry::new(cfg.num_pes);
    let stats = run_pass(g, cfg, &mut state, Slot::T, initial, Phase::Mt, &telem);
    assert!(state.t_done, "M_T drained without termination signal");
    stats
}

/// Statistics of a round-synchronous (BSP) marking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BspStats {
    /// Synchronous rounds executed — the pass's *parallel time* when every
    /// PE executes one task per round.
    pub rounds: u64,
    /// Total marking tasks executed — the pass's *work*.
    pub events: u64,
}

/// Runs `mark1` in round-synchronous (BSP) fashion: in each round every PE
/// executes at most one pending marking task; tasks spawned in a round are
/// delivered for the next. The returned [`BspStats::rounds`] is the pass's
/// ideal parallel time with `num_pes` processors — the hardware-independent
/// scalability measure of experiment T5 (wall-clock speedup requires more
/// hardware threads than a CI container has).
///
/// # Panics
///
/// Panics if the graph has no root or termination is not signalled.
pub fn run_mark1_bsp(g: &mut GraphStore, num_pes: u16, strategy: PartitionStrategy) -> BspStats {
    use std::collections::VecDeque;
    let root = g.root().expect("marking needs a root");
    reset_slot(g, Slot::R);
    let partition = PartitionMap::new(num_pes, g.capacity(), strategy);
    let mut state = MarkState::new();
    state.begin_r(RMode::Simple);

    let pe_of = |m: &MarkMsg| {
        m.dest_vertex()
            .map(|v| partition.pe_of(v).index())
            .unwrap_or(0)
    };
    let mut queues: Vec<VecDeque<MarkMsg>> = vec![VecDeque::new(); num_pes as usize];
    let first = MarkMsg::Mark1 {
        v: root,
        par: MarkParent::RootPar,
    };
    queues[pe_of(&first)].push_back(first);

    let mut stats = BspStats::default();
    let mut buf: Vec<MarkMsg> = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        stats.rounds += 1;
        let mut staged: Vec<MarkMsg> = Vec::new();
        for q in queues.iter_mut() {
            if let Some(m) = q.pop_front() {
                handle_mark(&mut state, g, m, &mut |m| buf.push(m));
                stats.events += 1;
                staged.append(&mut buf);
            }
        }
        for m in staged {
            let pe = pe_of(&m);
            queues[pe].push_back(m);
        }
    }
    assert!(state.r_done, "BSP marking drained without termination");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_graph::{oracle, NodeLabel, RequestKind, VertexId};

    #[test]
    fn bsp_marks_like_fifo_and_parallelizes() {
        // A wide tree: rounds shrink as PEs grow; the mark set is exact.
        let n: u32 = 255;
        let mut g = GraphStore::with_capacity(n as usize);
        let ids: Vec<_> = (0..n)
            .map(|i| g.alloc(NodeLabel::lit_int(i as i64)).unwrap())
            .collect();
        for i in 0..n as usize {
            for c in [2 * i + 1, 2 * i + 2] {
                if c < n as usize {
                    g.connect(ids[i], ids[c]);
                }
            }
        }
        g.set_root(ids[0]);

        let mut rounds = Vec::new();
        for pes in [1u16, 4, 16] {
            let mut g2 = g.clone();
            let stats = run_mark1_bsp(&mut g2, pes, PartitionStrategy::Modulo);
            assert_eq!(stats.events, 2 * n as u64, "one mark + one return each");
            for v in g2.live_ids() {
                assert!(g2.mark(v, Slot::R).is_marked());
            }
            rounds.push(stats.rounds);
        }
        assert!(
            rounds[0] > rounds[1] && rounds[1] > rounds[2],
            "parallel time falls with PEs: {rounds:?}"
        );
    }

    fn diamond() -> (GraphStore, [VertexId; 5]) {
        let mut g = GraphStore::with_capacity(16);
        let root = g.alloc(NodeLabel::If).unwrap();
        let a = g.alloc(NodeLabel::If).unwrap();
        let b = g.alloc(NodeLabel::If).unwrap();
        let c = g.alloc(NodeLabel::lit_int(0)).unwrap();
        let stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
        g.connect(root, a);
        g.connect(root, b);
        g.connect(a, c);
        g.connect(b, c);
        g.set_root(root);
        (g, [root, a, b, c, stray])
    }

    #[test]
    fn mark1_agrees_with_oracle_on_all_policies() {
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::RoundRobin,
            SchedPolicy::PriorityFirst,
            SchedPolicy::Random { marking_bias: 0.5 },
        ] {
            let (mut g, [root, a, b, c, stray]) = diamond();
            let cfg = MarkRunConfig {
                policy,
                check_invariants: true,
                ..Default::default()
            };
            let stats = run_mark1(&mut g, &cfg);
            let r = oracle::reachable_r(&g);
            for v in [root, a, b, c] {
                assert!(r.contains(v) && g.mark(v, Slot::R).is_marked());
            }
            assert!(!r.contains(stray) && g.mark(stray, Slot::R).is_unmarked());
            assert_eq!(stats.marked, 4);
        }
    }

    #[test]
    fn mark2_priorities_agree_with_oracle() {
        let mut g = GraphStore::with_capacity(16);
        let root = g.alloc(NodeLabel::If).unwrap();
        let p = g.alloc(NodeLabel::Prim(dgr_graph::PrimOp::Lt)).unwrap();
        let t = g.alloc(NodeLabel::If).unwrap();
        let e = g.alloc(NodeLabel::lit_int(3)).unwrap();
        let shared = g.alloc(NodeLabel::lit_int(4)).unwrap();
        g.connect(root, p);
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(root, t);
        g.vertex_mut(root)
            .set_request_kind(1, Some(RequestKind::Eager));
        g.connect(root, e);
        g.connect(t, shared);
        g.vertex_mut(t)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.connect(p, shared);
        g.vertex_mut(p)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.set_root(root);

        let cfg = MarkRunConfig {
            check_invariants: true,
            ..Default::default()
        };
        run_mark2(&mut g, &cfg);
        let want = oracle::priorities(&g);
        for v in g.live_ids() {
            let got = g
                .mark(v, Slot::R)
                .is_marked()
                .then(|| g.mark(v, Slot::R).prior);
            assert_eq!(got, want[v.index()], "priority mismatch at {v}");
        }
        crate::invariants::check_priority_closure(&g).unwrap();
    }

    #[test]
    fn mark2_random_schedules_agree_with_oracle() {
        for seed in 0..20 {
            let (mut g, _) = diamond();
            // Sprinkle request kinds.
            let root = g.root().unwrap();
            g.vertex_mut(root)
                .set_request_kind(0, Some(RequestKind::Eager));
            let cfg = MarkRunConfig {
                policy: SchedPolicy::Random { marking_bias: 0.5 },
                seed,
                check_invariants: true,
                ..Default::default()
            };
            run_mark2(&mut g, &cfg);
            let want = oracle::priorities(&g);
            for v in g.live_ids() {
                let got = g
                    .mark(v, Slot::R)
                    .is_marked()
                    .then(|| g.mark(v, Slot::R).prior);
                assert_eq!(got, want[v.index()], "seed {seed}, vertex {v}");
            }
        }
    }

    #[test]
    fn mark3_agrees_with_oracle() {
        let (mut g, [root, a, b, c, stray]) = diamond();
        // One task whose destination is a; root has requested a and b...
        g.vertex_mut(root)
            .set_request_kind(0, Some(RequestKind::Vital));
        g.vertex_mut(a)
            .add_requester(dgr_graph::Requester::Vertex(root));
        let mut tasks = TaskEndpoints::new();
        tasks.push_task(Some(root), a);

        let cfg = MarkRunConfig::default();
        run_mark3(&mut g, &tasks, &cfg);
        let t = oracle::reachable_t(&g, &tasks);
        for v in [root, a, b, c, stray] {
            assert_eq!(
                t.contains(v),
                g.mark(v, Slot::T).is_marked(),
                "T mismatch at {v}"
            );
        }
    }

    #[test]
    fn mark3_empty_taskpool_is_noop() {
        let (mut g, _) = diamond();
        let stats = run_mark3(&mut g, &TaskEndpoints::new(), &MarkRunConfig::default());
        assert_eq!(stats.marked, 0);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn single_pe_works() {
        let (mut g, _) = diamond();
        let cfg = MarkRunConfig {
            num_pes: 1,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        assert_eq!(stats.marked, 4);
        assert_eq!(stats.remote_messages, 0, "single PE has no remote traffic");
    }

    #[test]
    fn many_pes_generate_remote_traffic() {
        let (mut g, _) = diamond();
        let cfg = MarkRunConfig {
            num_pes: 8,
            ..Default::default()
        };
        let stats = run_mark1(&mut g, &cfg);
        assert!(stats.remote_messages > 0);
    }

    #[test]
    fn reset_slot_clears_previous_cycle() {
        let (mut g, [root, ..]) = diamond();
        run_mark1(&mut g, &MarkRunConfig::default());
        assert!(g.mark(root, Slot::R).is_marked());
        reset_slot(&mut g, Slot::R);
        assert!(g.mark(root, Slot::R).is_unmarked());
        assert_eq!(g.mark(root, Slot::R).mt_cnt, 0);
    }

    #[test]
    fn marking_twice_is_idempotent() {
        let (mut g, _) = diamond();
        let s1 = run_mark1(&mut g, &MarkRunConfig::default());
        let s2 = run_mark1(&mut g, &MarkRunConfig::default());
        assert_eq!(s1.marked, s2.marked);
        assert_eq!(s1.events, s2.events);
    }
}
