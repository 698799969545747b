//! A complete reduction system on the deterministic simulator.

use dgr_core::{handle_mark, MarkMsg, MarkState};
use dgr_graph::HeapDelta;
use dgr_graph::{
    GraphStore, PartitionMap, PartitionStrategy, Priority, RequestKind, Requester, Slot,
    TaskEndpoints, Value,
};
use dgr_sim::{DetSim, Envelope, Lane, SchedPolicy};
use dgr_telemetry::{CounterId, HeapSnapshot, HeapTracker, Phase, Registry};

use crate::engine::{handle_red, EngineCtx};
use crate::msg::{RedMsg, SysMsg};
use crate::stats::RedStats;
use crate::templates::TemplateStore;

/// Configuration of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of processing elements.
    pub num_pes: u16,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// Vertex-to-PE assignment.
    pub partition: PartitionStrategy,
    /// Evaluate conditional branches speculatively.
    pub speculation: bool,
    /// Heap growth increment when the free list runs dry (`0` = fixed
    /// heap).
    pub grow_step: usize,
    /// Event budget for [`System::run`].
    pub max_events: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_pes: 4,
            policy: SchedPolicy::RoundRobin,
            seed: 0,
            partition: PartitionStrategy::Modulo,
            speculation: false,
            grow_step: 256,
            max_events: 10_000_000,
        }
    }
}

/// How a [`System::run`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The root's value was returned to the external observer.
    Value(Value),
    /// Every task drained without producing the root's value — the
    /// computation deadlocked (Section 3.1) or was never demanded.
    Quiescent,
    /// The event budget was exhausted with tasks still pending (a
    /// non-terminating or merely large computation).
    Budget,
}

/// A reduction system: the computation graph, the supercombinators, the
/// marking state, and the simulator carrying both reduction and marking
/// tasks.
///
/// [`System::step`] delivers one task — reduction or marking, whichever
/// the scheduling policy picks — so marking cycles injected by a GC driver
/// execute *concurrently* with reduction, interleaved at task granularity
/// exactly as in the paper.
#[derive(Debug)]
pub struct System {
    /// The computation graph.
    pub graph: GraphStore,
    /// The program's supercombinators.
    pub templates: TemplateStore,
    /// Marking-process state (consulted by the cooperating mutators).
    pub mark_state: MarkState,
    /// Reduction counters.
    pub stats: RedStats,
    /// The root's computed value, once returned to the external observer.
    pub result: Option<Value>,
    config: SystemConfig,
    sim: DetSim<SysMsg>,
    events: u64,
    /// Telemetry registry (the zero-sized no-op unless the `telemetry`
    /// feature is on): per-PE lane-delivery counters and local/remote
    /// send attribution.
    telem: Registry,
    /// The PE whose task is currently dispatching — sends issued while
    /// `Some(pe)` are attributed to that PE as local or remote; sends
    /// with no executing task (external injection, GC driver seeds) are
    /// not attributed.
    executing: Option<dgr_graph::PeId>,
    /// The marking cycle flow events are attributed to; a GC driver sets
    /// it at the start of each cycle so the causal trace of the marking
    /// wave groups by cycle.
    telem_cycle: u32,
    /// Heap tracker (the zero-sized no-op unless the `telemetry` feature
    /// is on): per-PE live-bytes clocks, waterlines and size classes,
    /// fed from the graph store's byte journal after every dispatch.
    heap: HeapTracker,
}

/// Phase tag and flow-event name of a marking message, by slot: the
/// task-marking wave (`M_T`) and the priority-marking wave (`M_R`) are
/// traced under distinct names so a cycle analyzer can keep their
/// fan-outs apart.
fn mark_flow_meta(m: &MarkMsg) -> (Phase, &'static str) {
    match m.slot() {
        Slot::T => (Phase::Mt, "M_T"),
        Slot::R => (Phase::Mr, "M_R"),
    }
}

impl System {
    /// Creates a system over the given graph and templates.
    pub fn new(mut graph: GraphStore, templates: TemplateStore, config: SystemConfig) -> Self {
        let sim = DetSim::new(config.num_pes, config.policy, config.seed);
        let telem = Registry::new(config.num_pes);
        let mut heap = HeapTracker::new(config.num_pes as usize);
        if heap.enabled() {
            // Stamp everything the builder phase allocated before the
            // tracker existed, so later reclaims of those vertices still
            // carry exact byte stamps, then journal all future traffic.
            let pm = PartitionMap::new(config.num_pes, graph.capacity(), config.partition);
            let live: Vec<_> = graph.live_ids().collect();
            for v in live {
                heap.alloc(
                    pm.pe_of(v).index(),
                    v.index(),
                    u64::from(graph.vertex_bytes(v)),
                );
            }
            graph.set_heap_journal(true);
        }
        System {
            graph,
            templates,
            mark_state: MarkState::new(),
            stats: RedStats::default(),
            result: None,
            config,
            sim,
            events: 0,
            telem,
            executing: None,
            telem_cycle: 0,
            heap,
        }
    }

    /// Sets the marking cycle number flow events are stamped with (GC
    /// drivers call this at the start of each cycle).
    pub fn set_telemetry_cycle(&mut self, cycle: u32) {
        self.telem_cycle = cycle;
    }

    /// The system's telemetry registry (the zero-sized no-op in a default
    /// build). GC drivers snapshot it around cycle phases.
    pub fn telemetry(&self) -> &Registry {
        &self.telem
    }

    /// The system's heap tracker (the zero-sized no-op in a default
    /// build). GC drivers close a heap cycle on it per marking cycle.
    pub fn heap_tracker(&self) -> &HeapTracker {
        &self.heap
    }

    /// The heap tracker, mutably (for `close_cycle` / `record_trigger` /
    /// `begin_episode` by GC drivers and bench harnesses).
    pub fn heap_tracker_mut(&mut self) -> &mut HeapTracker {
        &mut self.heap
    }

    /// Running heap totals (empty in a default build).
    pub fn heap_snapshot(&self) -> HeapSnapshot {
        self.heap.snapshot()
    }

    /// Replays the graph store's byte journal into the heap tracker,
    /// attributing each vertex's bytes to the PE that owns it under the
    /// current partition. Called after every dispatch; a GC driver also
    /// calls it after restructuring, whose frees bypass dispatch.
    pub fn drain_heap_journal(&mut self) {
        if !self.heap.enabled() || !self.graph.heap_journal_pending() {
            return;
        }
        let pm = self.partition();
        for delta in self.graph.take_heap_journal() {
            match delta {
                HeapDelta::Alloc { id, bytes } => {
                    self.heap
                        .alloc(pm.pe_of(id).index(), id.index(), u64::from(bytes));
                }
                HeapDelta::Free { id, bytes } => {
                    self.heap
                        .free(pm.pe_of(id).index(), id.index(), u64::from(bytes));
                }
                HeapDelta::Reweight { id, old, new } => {
                    self.heap.reweight(
                        pm.pe_of(id).index(),
                        id.index(),
                        u64::from(old),
                        u64::from(new),
                    );
                }
            }
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current vertex-to-PE assignment (recomputed so heap growth is
    /// reflected).
    pub fn partition(&self) -> PartitionMap {
        PartitionMap::new(
            self.config.num_pes,
            self.graph.capacity(),
            self.config.partition,
        )
    }

    /// Events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The simulator (for task-pool inspection).
    pub fn sim(&self) -> &DetSim<SysMsg> {
        &self.sim
    }

    /// The simulator, mutably (for expunging and re-laning by a GC
    /// driver's restructuring phase).
    pub fn sim_mut(&mut self) -> &mut DetSim<SysMsg> {
        &mut self.sim
    }

    /// Routes and enqueues a reduction task with the given lane priority.
    pub fn send_red(&mut self, msg: RedMsg, prio: Priority) {
        let pe = msg
            .dest_vertex()
            .map(|v| self.partition().pe_of(v))
            .unwrap_or(dgr_graph::PeId::new(0));
        self.count_send(pe);
        self.sim
            .send(Envelope::new(pe, Lane::Reduction(prio), SysMsg::Red(msg)));
    }

    /// Routes and enqueues a marking task, recording a flow-send event
    /// (the causal edge's origin) on the sending PE — the currently
    /// executing one, or the destination for externally injected seeds.
    pub fn send_mark(&mut self, msg: MarkMsg) {
        let pe = msg
            .dest_vertex()
            .map(|v| self.partition().pe_of(v))
            .unwrap_or(dgr_graph::PeId::new(0));
        self.count_send(pe);
        let (fphase, fname) = mark_flow_meta(&msg);
        let src = self.executing.unwrap_or(pe);
        let seq = self
            .sim
            .send(Envelope::new(pe, Lane::Marking, SysMsg::Mark(msg)));
        // Flow id = seq + 1: the simulator's sequence numbers are unique
        // across the system's lifetime, and 0 stays the "no flow" value.
        self.telem
            .flow_send(src.raw(), self.telem_cycle, fphase, fname, seq + 1);
    }

    /// Attributes a send to the PE whose task is currently executing, as
    /// local (same PE) or remote. Sends with no executing task (external
    /// injection) are not counted.
    fn count_send(&self, dst: dgr_graph::PeId) {
        let Some(src) = self.executing else { return };
        let id = if src == dst {
            CounterId::SendsLocal
        } else {
            CounterId::SendsRemote
        };
        self.telem.pe(src.raw()).inc(id);
    }

    /// Spawns the initial task `<-, root>`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no root.
    pub fn demand_root(&mut self) {
        let root = self.graph.root().expect("reduction needs a root");
        self.send_red(
            RedMsg::Request {
                src: Requester::External,
                dst: root,
                kind: RequestKind::Vital,
            },
            Priority::Vital,
        );
    }

    /// Delivers and executes one task. Returns `false` if the system is
    /// quiescent.
    pub fn step(&mut self) -> bool {
        let Some((pe, lane, seq, msg)) = self.sim.next_event_tagged() else {
            return false;
        };
        self.flow_recv(pe, seq, &msg);
        self.dispatch(pe, lane, msg);
        true
    }

    /// Records the delivery end of a marking message's flow edge (see
    /// [`System::send_mark`]); reduction messages are not flow-traced.
    fn flow_recv(&self, pe: dgr_graph::PeId, seq: u64, msg: &SysMsg) {
        if let SysMsg::Mark(m) = msg {
            let (fphase, fname) = mark_flow_meta(m);
            self.telem
                .flow_recv(pe.raw(), self.telem_cycle, fphase, fname, seq + 1);
        }
    }

    /// Delivers and executes one task from the given lane (oldest first),
    /// regardless of the scheduling policy. Returns `false` if that lane
    /// is empty. Used by the GC driver to give marking tasks priority
    /// service during a collection phase (the paper's Section 6 remark
    /// that marking tasks may take precedence at a vertex).
    pub fn step_lane(&mut self, lane: Lane) -> bool {
        let Some((pe, lane, seq, msg)) = self.sim.next_event_in_lane_tagged(lane) else {
            return false;
        };
        self.flow_recv(pe, seq, &msg);
        self.dispatch(pe, lane, msg);
        true
    }

    fn dispatch(&mut self, pe: dgr_graph::PeId, lane: Lane, msg: SysMsg) {
        self.events += 1;
        let shard = self.telem.pe(pe.raw());
        match lane {
            Lane::Marking => shard.inc(CounterId::MarkEvents),
            Lane::Reduction(_) => shard.inc(CounterId::RedEvents),
            Lane::Mutator => shard.inc(CounterId::MutEvents),
        }
        self.executing = Some(pe);
        match msg {
            SysMsg::Red(RedMsg::Return {
                dst: Requester::External,
                value,
                ..
            }) => {
                self.result = Some(value);
            }
            SysMsg::Red(m) => {
                let mut out_red: Vec<(RedMsg, Priority)> = Vec::new();
                let mut out_mark: Vec<MarkMsg> = Vec::new();
                {
                    let mut ctx = EngineCtx {
                        state: &mut self.mark_state,
                        g: &mut self.graph,
                        templates: &self.templates,
                        speculation: self.config.speculation,
                        grow_step: self.config.grow_step,
                        stats: &mut self.stats,
                        out_red: &mut out_red,
                        out_mark: &mut out_mark,
                    };
                    handle_red(&mut ctx, m);
                }
                for (m, p) in out_red {
                    self.send_red(m, p);
                }
                for m in out_mark {
                    self.send_mark(m);
                }
            }
            SysMsg::Mark(m) => {
                let mut out: Vec<MarkMsg> = Vec::new();
                handle_mark(&mut self.mark_state, &mut self.graph, m, &mut |m| {
                    out.push(m)
                });
                for m in out {
                    self.send_mark(m);
                }
            }
        }
        self.executing = None;
        self.drain_heap_journal();
    }

    /// Demands the root and runs until the result arrives, the system is
    /// quiescent, or the event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.demand_root();
        self.run_more()
    }

    /// Continues running without demanding the root again.
    pub fn run_more(&mut self) -> RunOutcome {
        while self.result.is_none() && self.events < self.config.max_events {
            if !self.step() {
                return RunOutcome::Quiescent;
            }
        }
        match &self.result {
            Some(v) => RunOutcome::Value(v.clone()),
            None => {
                if self.sim.is_empty() {
                    RunOutcome::Quiescent
                } else {
                    RunOutcome::Budget
                }
            }
        }
    }

    /// The endpoints of every pending reduction task, including tasks "in
    /// transit" between PEs — the seeds for `M_T`'s virtual task roots.
    pub fn pending_task_endpoints(&self) -> TaskEndpoints {
        let mut t = TaskEndpoints::new();
        for (_pe, _lane, msg) in self.sim.iter_pending() {
            if let Some(red) = msg.as_red() {
                let (s, d) = red.endpoints();
                if let Some(s) = s {
                    t.push_seed(s);
                }
                if let Some(d) = d {
                    t.push_seed(d);
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use dgr_graph::{NodeLabel, PrimOp, Template, TemplateNode, TemplateRef};

    fn run_expr(build: impl FnOnce(&mut Builder<'_>) -> dgr_graph::VertexId) -> RunOutcome {
        run_expr_cfg(build, TemplateStore::new(), SystemConfig::default())
    }

    fn run_expr_cfg(
        build: impl FnOnce(&mut Builder<'_>) -> dgr_graph::VertexId,
        templates: TemplateStore,
        config: SystemConfig,
    ) -> RunOutcome {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let root = build(&mut b);
        g.set_root(root);
        let mut sys = System::new(g, templates, config);
        sys.run()
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn heap_tracker_stamps_builder_vertices_and_runtime_traffic() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let two = b.int(2);
        let three = b.int(3);
        let root = b.prim2(PrimOp::Add, two, three);
        g.set_root(root);
        let built_bytes = g.live_bytes();
        assert!(built_bytes > 0);

        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        // Builder-phase vertices were bulk-stamped at construction.
        assert_eq!(sys.heap_snapshot().live, built_bytes);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(5)));

        let s = sys.heap_snapshot();
        // The ledger mirrors the graph's own clock, and every byte freed
        // so far carried an exact allocation stamp.
        assert_eq!(s.live, sys.graph.live_bytes());
        assert_eq!(s.alloc_bytes, sys.graph.alloc_bytes_total());
        assert!(s.peak >= s.live);
        assert_eq!(s.exact_bytes, s.freed_bytes);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn heap_tracker_is_silent_feature_off() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let two = b.int(2);
        let three = b.int(3);
        let root = b.prim2(PrimOp::Add, two, three);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(5)));
        // The no-op tracker records nothing, but the graph's own
        // always-on byte clock still runs (the pressure trigger needs it).
        assert!(sys.heap_snapshot().is_empty());
        assert!(sys.graph.alloc_bytes_total() > 0);
    }

    #[test]
    fn arithmetic_tree() {
        // (2 * 3) + (10 - 4) = 12
        let out = run_expr(|b| {
            let two = b.int(2);
            let three = b.int(3);
            let m = b.prim2(PrimOp::Mul, two, three);
            let ten = b.int(10);
            let four = b.int(4);
            let s = b.prim2(PrimOp::Sub, ten, four);
            b.prim2(PrimOp::Add, m, s)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(12)));
    }

    #[test]
    fn shared_subexpression_computed_once() {
        // x + x where x = 3 * 7: sharing through the multigraph.
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let three = b.int(3);
        let seven = b.int(7);
        let x = b.prim2(PrimOp::Mul, three, seven);
        let root = b.prim2(PrimOp::Add, x, x);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn conditional_takes_then_branch() {
        let out = run_expr(|b| {
            let one = b.int(1);
            let two = b.int(2);
            let p = b.prim2(PrimOp::Lt, one, two);
            let t = b.int(10);
            let e = b.int(20);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(10)));
    }

    #[test]
    fn conditional_takes_else_branch() {
        let out = run_expr(|b| {
            let p = b.bool_(false);
            let t = b.int(10);
            let e = b.int(20);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(20)));
    }

    #[test]
    fn conditional_with_speculation() {
        for seed in 0..8 {
            let cfg = SystemConfig {
                speculation: true,
                policy: SchedPolicy::Random { marking_bias: 0.5 },
                seed,
                ..Default::default()
            };
            let out = run_expr_cfg(
                |b| {
                    let one = b.int(1);
                    let two = b.int(2);
                    let p = b.prim2(PrimOp::Lt, one, two);
                    let t10 = b.int(10);
                    let t20 = b.int(20);
                    let t = b.prim2(PrimOp::Add, t10, t20);
                    let e3 = b.int(3);
                    let e4 = b.int(4);
                    let e = b.prim2(PrimOp::Mul, e3, e4);
                    b.if_(p, t, e)
                },
                TemplateStore::new(),
                cfg,
            );
            assert_eq!(out, RunOutcome::Value(Value::Int(30)), "seed {seed}");
        }
    }

    #[test]
    fn lazy_branch_is_never_demanded_without_speculation() {
        // The else branch divides by zero; without speculation it must not
        // poison the result.
        let out = run_expr(|b| {
            let p = b.bool_(true);
            let t = b.int(1);
            let seven = b.int(7);
            let zero = b.int(0);
            let e = b.prim2(PrimOp::Div, seven, zero);
            b.if_(p, t, e)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(1)));
    }

    #[test]
    fn speculation_of_bottom_branch_does_not_poison_result() {
        // With speculation the div-by-zero branch runs eagerly but its ⊥
        // is discarded once the predicate chooses the other branch.
        let cfg = SystemConfig {
            speculation: true,
            ..Default::default()
        };
        let out = run_expr_cfg(
            |b| {
                let p = b.bool_(true);
                let t = b.int(1);
                let seven = b.int(7);
                let zero = b.int(0);
                let e = b.prim2(PrimOp::Div, seven, zero);
                b.if_(p, t, e)
            },
            TemplateStore::new(),
            cfg,
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(1)));
    }

    #[test]
    fn list_head_and_tail() {
        // head (tail (cons 1 (cons 2 nil))) = 2
        let out = run_expr(|b| {
            let l = b.int_list(&[1, 2]);
            let t = b.prim1(PrimOp::Tail, l);
            b.prim1(PrimOp::Head, t)
        });
        assert_eq!(out, RunOutcome::Value(Value::Int(2)));
    }

    #[test]
    fn isnil_distinguishes() {
        let out = run_expr(|b| {
            let l = b.int_list(&[]);
            b.prim1(PrimOp::IsNil, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bool(true)));
        let out = run_expr(|b| {
            let l = b.int_list(&[1]);
            b.prim1(PrimOp::IsNil, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bool(false)));
    }

    #[test]
    fn head_of_nil_is_bottom() {
        let out = run_expr(|b| {
            let l = b.nil();
            b.prim1(PrimOp::Head, l)
        });
        assert_eq!(out, RunOutcome::Value(Value::Bottom));
    }

    #[test]
    fn self_referential_sum_deadlocks() {
        // Figure 3-1: x = x + 1 drains to quiescence with no result.
        let mut g = GraphStore::with_capacity(4);
        let x = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
        let one = g.alloc(NodeLabel::lit_int(1)).unwrap();
        g.connect(x, x);
        g.connect(x, one);
        g.set_root(x);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        assert_eq!(sys.run(), RunOutcome::Quiescent);
        assert!(sys.result.is_none());
    }

    fn inc_store() -> (TemplateStore, u32) {
        let mut ts = TemplateStore::new();
        let id = ts.register(
            Template::new(
                "inc",
                1,
                vec![
                    TemplateNode::new(
                        NodeLabel::Prim(PrimOp::Add),
                        vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                    ),
                    TemplateNode::new(NodeLabel::lit_int(1), vec![]),
                ],
            )
            .unwrap(),
        );
        (ts, id)
    }

    #[test]
    fn saturated_application_expands() {
        let (ts, inc) = inc_store();
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(inc);
                let x = b.int(41);
                b.apply(f, &[x])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn partial_application_returns_function_value() {
        // const = \x y -> x; root = (const 7) applied later... here we
        // just check the partial value forms.
        let mut ts = TemplateStore::new();
        let konst = ts.register(
            Template::new(
                "const",
                2,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(konst);
                let seven = b.int(7);
                b.apply(f, &[seven])
            },
            ts,
            SystemConfig::default(),
        );
        match out {
            RunOutcome::Value(Value::Fn(id, caps)) => {
                assert_eq!(id, konst);
                assert_eq!(caps.len(), 1);
            }
            other => panic!("expected partial application, got {other:?}"),
        }
    }

    #[test]
    fn curried_application_through_partial_value() {
        // ((const 7) 9) = 7, where the inner application is a separate
        // vertex returning a partial Fn value.
        let mut ts = TemplateStore::new();
        let konst = ts.register(
            Template::new(
                "const",
                2,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(konst);
                let seven = b.int(7);
                let partial = b.apply(f, &[seven]);
                let nine = b.int(9);
                b.apply(partial, &[nine])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(7)));
    }

    #[test]
    fn oversaturated_application_splits() {
        // id inc 41 = 42, where id = \x -> x applied to 2 arguments.
        let mut ts = TemplateStore::new();
        let id = ts.register(
            Template::new(
                "id",
                1,
                vec![TemplateNode::new(
                    NodeLabel::Ind,
                    vec![TemplateRef::Param(0)],
                )],
            )
            .unwrap(),
        );
        let inc = ts.register(
            Template::new(
                "inc",
                1,
                vec![
                    TemplateNode::new(
                        NodeLabel::Prim(PrimOp::Add),
                        vec![TemplateRef::Param(0), TemplateRef::Local(1)],
                    ),
                    TemplateNode::new(NodeLabel::lit_int(1), vec![]),
                ],
            )
            .unwrap(),
        );
        let out = run_expr_cfg(
            |b| {
                let idf = b.fn_ref(id);
                let incf = b.fn_ref(inc);
                let x = b.int(41);
                b.apply(idf, &[incf, x])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(42)));
    }

    #[test]
    fn recursive_function_runs() {
        // sum(n) = if n == 0 then 0 else n + sum(n - 1); sum(10) = 55.
        let mut ts = TemplateStore::new();
        let sum = 0u32; // will be id 0: self-reference via fn_ref-like global
        let tpl = Template::new(
            "sum",
            1,
            vec![
                // 0: if (n == 0) 0 (n + sum (n - 1))
                TemplateNode::new(
                    NodeLabel::If,
                    vec![
                        TemplateRef::Local(1),
                        TemplateRef::Local(2),
                        TemplateRef::Local(3),
                    ],
                ),
                // 1: n == 0
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Eq),
                    vec![TemplateRef::Param(0), TemplateRef::Local(2)],
                ),
                // 2: 0
                TemplateNode::new(NodeLabel::lit_int(0), vec![]),
                // 3: n + (sum (n-1))
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Add),
                    vec![TemplateRef::Param(0), TemplateRef::Local(4)],
                ),
                // 4: apply sum (n-1)
                TemplateNode::new(
                    NodeLabel::Apply,
                    vec![TemplateRef::Local(5), TemplateRef::Local(6)],
                ),
                // 5: the function value for sum itself
                TemplateNode::new(NodeLabel::Lit(Value::Fn(sum, vec![])), vec![]),
                // 6: n - 1
                TemplateNode::new(
                    NodeLabel::Prim(PrimOp::Sub),
                    vec![TemplateRef::Param(0), TemplateRef::Local(7)],
                ),
                // 7: 1
                TemplateNode::new(NodeLabel::lit_int(1), vec![]),
            ],
        )
        .unwrap();
        assert_eq!(ts.register(tpl), sum);
        let out = run_expr_cfg(
            |b| {
                let f = b.fn_ref(sum);
                let n = b.int(10);
                b.apply(f, &[n])
            },
            ts,
            SystemConfig::default(),
        );
        assert_eq!(out, RunOutcome::Value(Value::Int(55)));
    }

    #[test]
    fn results_identical_across_policies_and_pes() {
        let (ts, inc) = inc_store();
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::RoundRobin,
            SchedPolicy::PriorityFirst,
            SchedPolicy::Random { marking_bias: 0.3 },
        ] {
            for pes in [1u16, 3, 8] {
                let cfg = SystemConfig {
                    policy,
                    num_pes: pes,
                    seed: 42,
                    ..Default::default()
                };
                let out = run_expr_cfg(
                    |b| {
                        let f = b.fn_ref(inc);
                        let x0 = b.int(0);
                        let a1 = b.apply(f, &[x0]);
                        let a2 = b.apply(f, &[a1]);
                        b.apply(f, &[a2])
                    },
                    ts.clone(),
                    cfg,
                );
                assert_eq!(out, RunOutcome::Value(Value::Int(3)));
            }
        }
    }

    #[test]
    fn fixed_heap_exhaustion_yields_bottom() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::with_capacity(3);
        let f = g.alloc(NodeLabel::Lit(Value::Fn(inc, vec![]))).unwrap();
        let x = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, f);
        g.connect(app, x);
        g.set_root(app);
        let cfg = SystemConfig {
            grow_step: 0,
            ..Default::default()
        };
        let mut sys = System::new(g, ts, cfg);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Bottom));
        assert!(sys.stats.bottoms > 0);
        assert_eq!(sys.stats.grows, 0);
    }

    #[test]
    fn heap_grows_when_allowed() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::with_capacity(3);
        let f = g.alloc(NodeLabel::Lit(Value::Fn(inc, vec![]))).unwrap();
        let x = g.alloc(NodeLabel::lit_int(1)).unwrap();
        let app = g.alloc(NodeLabel::Apply).unwrap();
        g.connect(app, f);
        g.connect(app, x);
        g.set_root(app);
        let cfg = SystemConfig {
            grow_step: 16,
            ..Default::default()
        };
        let mut sys = System::new(g, ts, cfg);
        assert_eq!(sys.run(), RunOutcome::Value(Value::Int(2)));
        assert!(sys.stats.grows > 0);
    }

    #[test]
    fn pending_task_endpoints_cover_in_flight_tasks() {
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let one = b.int(1);
        let two = b.int(2);
        let root = b.prim2(PrimOp::Add, one, two);
        g.set_root(root);
        let mut sys = System::new(g, TemplateStore::new(), SystemConfig::default());
        sys.demand_root();
        let t = sys.pending_task_endpoints();
        assert_eq!(t.seeds(), &[root], "initial task <-, root>");
        sys.step(); // execute the initial request: spawns 2 arg requests
        let t = sys.pending_task_endpoints();
        assert!(t.seeds().contains(&one) && t.seeds().contains(&two));
        assert!(t.seeds().contains(&root), "sources included");
    }

    #[test]
    fn stats_track_activity() {
        let (ts, inc) = inc_store();
        let mut g = GraphStore::new();
        let mut b = Builder::new(&mut g);
        let f = b.fn_ref(inc);
        let x = b.int(1);
        let root = b.apply(f, &[x]);
        g.set_root(root);
        let mut sys = System::new(g, ts, SystemConfig::default());
        sys.run();
        assert!(sys.stats.requests > 0);
        assert!(sys.stats.returns > 0);
        assert_eq!(sys.stats.expansions, 1);
        assert_eq!(sys.stats.dangling_requests, 0);
    }
}
