//! The dgr benchmark: the paper's whole loop end to end (a program is
//! compiled, reduced and collected by concurrent `M_T`/`M_R` cycles) and
//! the threaded marking runtime against sequential floors, layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--peer <telemetry build>]
//! ```
//!
//! Workloads (closed loop, one process, at most two worker threads):
//!
//! * `programs_gc`: nfib 20, qsort 400 on a seeded list, sum-squares
//!   2000, primes 200 and cyclic-sum 2000, each compiled with the prelude
//!   and run on the default 4-PE `System` under `GcConfig::default()`.
//! * `programs_roomy`: the same suite under a 64 MiB heap bound that no
//!   program reaches, so no cycle runs: language, reduction and scheduler
//!   only.
//! * `mark_tree`: `mark1` passes over `binary_tree_dfs(16)` on the
//!   work-stealing runtime at 2 and at 1 PE.
//! * `mark_digraph`: the same over `random_digraph(1M, 3.0, seed)`, rooted
//!   in its giant component.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds a traced
//! pass with spans around each call into a layer, the COST ladder, and
//! (with `--peer`) the same traced pass in a build with telemetry on, and
//! prints the per-layer metrics. Every operation is checked against a
//! reference: values computed in plain Rust, `oracle::reachable_r`, the
//! DetSim message count and the benchmark's own floors. Failures are
//! counted, not raised. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod marking;
mod programs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dgr_graph::MarkWords;
use dgr_sim::SharedGraph;

use crate::marking::{Csr, Family, Reference};
use crate::programs::{LayerTallies, Program, SUITE};
use crate::stats::{highest_tail, median, percentile};
use crate::trace::Tracer;

/// A small deterministic generator (SplitMix64) for the seeded inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Text of a caught panic payload.
pub fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ProgramsGc,
    ProgramsRoomy,
    MarkTree,
    MarkDigraph,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ProgramsGc,
        Workload::ProgramsRoomy,
        Workload::MarkTree,
        Workload::MarkDigraph,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ProgramsGc => "programs_gc",
            Workload::ProgramsRoomy => "programs_roomy",
            Workload::MarkTree => "mark_tree",
            Workload::MarkDigraph => "mark_digraph",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    peer: Option<PathBuf>,
    /// Run only the traced pass and print its per-layer self times (the
    /// mode `--peer` is invoked in).
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        if k == "--probe" {
            probe = true;
            continue;
        }
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        if !["workload", "seed", "seconds", "trace", "out", "peer"].contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match kv.get("seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if probe => 0.0,
        None => return Err("--seconds is required".into()),
    };
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be within 0..=3600".into());
    }
    let trace = match kv.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: kv
            .get("out")
            .map_or_else(|| ".bench_out".into(), PathBuf::from),
        peer: kv.get("peer").map(PathBuf::from),
        probe,
    })
}

/// The end-to-end metrics (name, unit) of an untraced run. Every
/// workload reports every one of them.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("suite_s", "s"), ("peak_live_mb", "MB")];

/// Per-layer metrics read from `GcDriver::timeline()`, not timed here.
const READ_NOT_TIMED: [&str; 4] = ["gc.mt_ms", "gc.mr_ms", "gc.settle_ms", "gc.restructure_ms"];

/// The per-layer metrics (name, unit) of a traced run, in report order.
/// Every workload reports every one of them; a layer the workload does not
/// run (the ladder on `programs_*`, `dgr-lang` on `mark_*`) reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("lang.compile_ms", "ms"),
    ("reduction.events", "count"),
    ("reduction.ns_per_event", "ns"),
    ("gc.cycles", "count"),
    ("gc.cycle_ms", "ms"),
    ("gc.share", "ratio"),
    ("gc.mark_events", "count"),
    ("gc.red_events_during_marking", "count"),
    ("gc.reclaimed", "count"),
    ("gc.aborted", "count"),
    ("gc.dangling", "count"),
    ("gc.msg_efficiency", "ratio"),
    ("gc.mt_ms", "ms"),
    ("gc.mr_ms", "ms"),
    ("gc.settle_ms", "ms"),
    ("gc.restructure_ms", "ms"),
    ("gc_cycle_p50_ms", "ms"),
    ("gc_cycle_p99_ms", "ms"),
    ("floor.dfs_ns", "ns"),
    ("floor.protocol_ns", "ns"),
    ("graph.traverse_ns", "ns"),
    ("graph.markword_ns", "ns"),
    ("core.detsim_ns", "ns"),
    ("sim.steal_1pe_ns", "ns"),
    ("sim.steal_2pe_ns", "ns"),
    ("sim.remote_share", "ratio"),
    ("sim.steal_success", "ratio"),
    ("sim.parks", "count"),
    ("sim.spill_hw", "count"),
    ("cost.steal_1pe_x", "ratio"),
    ("cost.best_x", "ratio"),
    ("sim.speedup_2pe", "ratio"),
    ("mark_p50_ms", "ms"),
    ("mark_1pe_p50_ms", "ms"),
    ("mark_p90_ms", "ms"),
    ("telemetry.lang_overhead_pct", "%"),
    ("telemetry.reduction_overhead_pct", "%"),
    ("telemetry.gc_overhead_pct", "%"),
    ("telemetry.sim_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What a run found.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    spans: Option<String>,
    /// Raw timed-loop samples, in order, for the run record.
    samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Counts one checked operation.
    fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(e);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not a listed metric"
        );
        self.metrics.insert(name, value);
    }

    /// The reported metrics of the run's mode, in order, with units.
    fn report(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }
}

/// Ratio `a / b`, `0` when `b` is `0` (a layer the workload never ran).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Repeats `setup` at least `MIN_SETUPS` times, and until `SETUP_FLOOR`
/// has passed, keeping the last result. Returns it with the median set-up
/// seconds. `setup` receives its repetition index and returns its own
/// set-up time (so it can leave reference computations out).
fn repeated_setup<T>(mut setup: impl FnMut(usize) -> (T, Duration)) -> (T, f64) {
    const MIN_SETUPS: usize = 3;
    const MAX_SETUPS: usize = 200;
    const SETUP_FLOOR: Duration = Duration::from_secs(1);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS || (start.elapsed() < SETUP_FLOOR && times.len() < MAX_SETUPS) {
        // Drop the previous state first: a digraph's store is hundreds of
        // MB.
        drop(last.take());
        let (state, t) = setup(times.len());
        times.push(t.as_secs_f64());
        last = Some(state);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// Compile warm-up of the `programs_*` set-up: every suite program must
/// compile.
fn compile_suite(progs: &[Program]) -> Result<(), String> {
    for p in progs {
        dgr_lang::build_with_prelude(&p.source, dgr_reduction::SystemConfig::default())
            .map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(())
}

/// Per-pass results of the programs suite.
struct SuitePass {
    wall_s: f64,
    /// Wall seconds of each program run, compile to checked value.
    prog_s: Vec<f64>,
    runs: Vec<Result<programs::RunCounts, String>>,
    tallies: LayerTallies,
}

impl SuitePass {
    /// Sum over the suite of each program's peak live bytes, in MB.
    fn peak_live_mb(&self) -> f64 {
        let bytes: u64 = self.runs.iter().flatten().map(|c| c.peak_live).sum();
        bytes as f64 / 1e6
    }
}

/// One closed-loop pass over the suite: each program run starts when the
/// previous one ends. Every run is counted as an operation.
fn suite_pass(
    out: &mut Outcome,
    progs: &[Program],
    cfg: &dgr_gc::GcConfig,
    tracer: &mut Tracer,
    next_run: &mut u32,
    cycle_ms: &mut Vec<f64>,
) -> SuitePass {
    let t = Instant::now();
    let mut tallies = LayerTallies::default();
    let mut prog_s = Vec::with_capacity(progs.len());
    let runs: Vec<_> = progs
        .iter()
        .map(|p| {
            *next_run += 1;
            let t = Instant::now();
            let r = programs::run_program(p, cfg, tracer, *next_run, cycle_ms, &mut tallies);
            prog_s.push(t.elapsed().as_secs_f64());
            r
        })
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    for r in &runs {
        out.op(r.as_ref().map(|_| ()).map_err(Clone::clone));
    }
    SuitePass {
        wall_s,
        prog_s,
        runs,
        tallies,
    }
}

/// Self time (ms) of each layer span of the traced pass, keyed by span
/// name, for the telemetry overhead comparison.
fn layer_self_ms(tracer: &Tracer, layers: &[(&str, &'static str)]) -> Vec<(String, f64)> {
    let folded = tracer.by_name();
    layers
        .iter()
        .map(|&(span, _)| {
            let ns = folded.get(span).map_or(0, |t| t.self_ns);
            (span.to_string(), ns as f64 / 1e6)
        })
        .collect()
}

/// The layer spans compared across telemetry builds, with the metric
/// each one's overhead is reported as.
const PROGRAM_LAYERS: [(&str, &str); 3] = [
    ("lang.compile", "telemetry.lang_overhead_pct"),
    ("reduction.window", "telemetry.reduction_overhead_pct"),
    ("gc.cycle", "telemetry.gc_overhead_pct"),
];
const MARK_LAYERS: [(&str, &str); 1] = [("sim.steal", "telemetry.sim_overhead_pct")];

fn run_programs(args: &Args, roomy: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = programs::gc_config(roomy);
    let (progs, setup_s) = repeated_setup(|_| {
        let t = Instant::now();
        let progs = programs::suite(SUITE, args.seed);
        let compiled = compile_suite(&progs);
        ((progs, compiled), t.elapsed())
    });
    let (progs, compiled) = progs;
    out.op(compiled);
    if args.probe {
        // Telemetry-on probe: one traced suite pass after the compile
        // warm-up.
        let mut tracer = Tracer::new(true);
        let mut run = 0;
        suite_pass(
            &mut out,
            &progs,
            &cfg,
            &mut tracer,
            &mut run,
            &mut Vec::new(),
        );
        print_probe(&out, &layer_self_ms(&tracer, &PROGRAM_LAYERS));
        return out;
    }

    // Untimed warm-up: every program under GcDriver::run(). The first
    // timed pass of the manual loop must reproduce these runs exactly.
    let driver_runs: Vec<_> = progs
        .iter()
        .map(|p| programs::run_with_driver(p, &cfg))
        .collect();

    let mut off = Tracer::new(false);
    let mut run = 0;
    let mut cycle_ms = Vec::new();
    let mut walls = Vec::new();
    let mut prog_s = vec![Vec::new(); progs.len()];
    let mut peaks = Vec::new();
    let start = Instant::now();
    // A GC run also needs the samples its p99 reports (one pass has ~1080
    // cycles).
    while walls.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds
        || (!roomy && highest_tail(cycle_ms.len()).is_none_or(|p| p < 99.0))
    {
        let p = suite_pass(&mut out, &progs, &cfg, &mut off, &mut run, &mut cycle_ms);
        if walls.is_empty() {
            for ((prog, manual), driver) in progs.iter().zip(&p.runs).zip(&driver_runs) {
                out.op(match (manual, driver) {
                    (Ok(m), Ok(d)) => programs::check_fidelity(prog, m, d),
                    (_, Err(e)) => Err(format!("GcDriver::run(): {e}")),
                    (Err(_), _) => Ok(()), // already counted as a failed run
                });
            }
        }
        walls.push(p.wall_s);
        for (all, t) in prog_s.iter_mut().zip(&p.prog_s) {
            all.push(*t);
        }
        peaks.push(p.peak_live_mb());
    }
    let suite_s = median(&mut walls.clone());
    out.samples.push(("suite_s".into(), walls));
    for (p, t) in progs.iter().zip(prog_s) {
        out.samples.push((format!("{} s", p.name), t));
    }
    out.metric("setup_s", setup_s);
    out.metric("suite_s", suite_s);
    out.metric("peak_live_mb", median(&mut peaks));
    if !args.trace {
        return out;
    }
    if !roomy {
        cycle_ms.sort_by(f64::total_cmp);
        out.metric("gc_cycle_p50_ms", percentile(&cycle_ms, 50.0));
        out.metric("gc_cycle_p99_ms", percentile(&cycle_ms, 99.0));
    }

    let mut tracer = Tracer::new(true);
    let traced = suite_pass(
        &mut out,
        &progs,
        &cfg,
        &mut tracer,
        &mut run,
        &mut Vec::new(),
    );
    let f = tracer.by_name();
    let self_ns = |name: &str| f.get(name).map_or(0, |t| t.self_ns) as f64;
    let count = |name: &str| f.get(name).map_or(0, |t| t.count) as f64;
    let t = traced.tallies;
    let cycles = count("gc.cycle");
    out.metric("lang.compile_ms", self_ns("lang.compile") / 1e6);
    out.metric("reduction.events", t.window_events as f64);
    out.metric(
        "reduction.ns_per_event",
        ratio(self_ns("reduction.window"), t.window_events as f64),
    );
    out.metric("gc.cycles", cycles);
    out.metric("gc.cycle_ms", ratio(self_ns("gc.cycle") / 1e6, cycles));
    out.metric("gc.share", self_ns("gc.cycle") / (traced.wall_s * 1e9));
    out.metric("gc.mark_events", t.mark_events as f64);
    out.metric("gc.red_events_during_marking", t.red_during_marking as f64);
    out.metric("gc.reclaimed", t.reclaimed as f64);
    out.metric("gc.aborted", t.aborted as f64);
    out.metric("gc.dangling", t.dangling as f64);
    out.metric(
        "gc.msg_efficiency",
        ratio(t.mark_events as f64, 2.0 * t.marked as f64),
    );
    // Read from GcDriver's own phase clocks, not timed by the benchmark.
    out.metric("gc.mt_ms", t.mt_us as f64 / 1e3);
    out.metric("gc.mr_ms", t.mr_us as f64 / 1e3);
    out.metric("gc.settle_ms", t.settle_us as f64 / 1e3);
    out.metric("gc.restructure_ms", t.restructure_us as f64 / 1e3);
    out.metric(
        "trace.overhead_pct",
        (traced.wall_s / suite_s - 1.0) * 100.0,
    );
    let off_layers = layer_self_ms(&tracer, &PROGRAM_LAYERS);
    out.spans = Some(tracer.to_jsonl());
    drop(progs);
    telemetry_overhead(&mut out, args, &PROGRAM_LAYERS, &off_layers);
    out
}

/// State of a `mark_*` run after set-up.
struct MarkState {
    shared: SharedGraph,
    csr: Csr,
    /// `GraphStore::live_bytes()` of the graph.
    live_bytes: u64,
}

fn run_marking(args: &Args, family: Family) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let mut reference: Option<Reference> = None;
    // Set-up: graph build, CSR snapshot, SharedGraph::from_store and one
    // warm-up pass per PE count. The first repetition also computes the
    // reference (oracle set and DetSim message count) on the store; that
    // is checking, not set-up, and its time is left out.
    let mut setup = |rep: usize| {
        let t = Instant::now();
        let mut store = marking::build_store(family, args.seed);
        let mut setup = t.elapsed();
        if rep == 0 && !args.probe {
            let reachable = tracer.span("graph.traverse", 0, || marking::oracle_reachable(&store));
            let messages = tracer.span("core.detsim", 0, || marking::detsim_mark1(&mut store));
            reference = Some(Reference {
                reachable,
                messages,
            });
        }
        let t = Instant::now();
        let live_bytes = store.live_bytes();
        let csr = Csr::from_store(&store);
        let shared = SharedGraph::from_store(store);
        for pes in [2, 1] {
            // Unchecked: the timed loop checks every pass.
            let _ = marking::checked_pass(&shared, pes, None);
        }
        setup += t.elapsed();
        (
            MarkState {
                shared,
                csr,
                live_bytes,
            },
            setup,
        )
    };
    // The telemetry probe reports no set-up time: one set-up is enough.
    let (
        MarkState {
            shared,
            csr,
            live_bytes,
        },
        setup_s,
    ) = if args.probe {
        let (state, t) = setup(0);
        (state, t.as_secs_f64())
    } else {
        repeated_setup(setup)
    };

    if args.probe {
        let mut tracer = Tracer::new(true);
        traced_passes(&mut out, &shared, family, None, &mut tracer);
        print_probe(&out, &layer_self_ms(&tracer, &MARK_LAYERS));
        return out;
    }
    let reference = reference.expect("the first set-up computes the reference");
    let reached = reference.reachable.iter().filter(|&&r| r).count();

    // The reference itself is checked against the benchmark's own floors.
    let dfs = tracer.span("floor.dfs", 0, || marking::floor_dfs(&csr));
    out.op(if dfs == reached {
        Ok(())
    } else {
        Err(format!(
            "oracle reaches {reached} vertices, the DFS floor {dfs}"
        ))
    });
    let floor_msgs = tracer.span("floor.protocol", 0, || marking::floor_protocol(&csr));
    out.op(if floor_msgs == reference.messages {
        Ok(())
    } else {
        Err(format!(
            "DetSim counts {} messages, the protocol floor {floor_msgs}",
            reference.messages
        ))
    });

    // Closed loop: 2-PE and 1-PE passes alternate until the time is up and
    // the 2-PE tail has its samples.
    let min_2pe = match family {
        Family::Tree => 100,
        Family::Digraph => 3,
    };
    let mut ms = [Vec::new(), Vec::new()]; // [2 PE, 1 PE]
    let mut steal = StealTotals::default();
    let start = Instant::now();
    while ms[0].len() < min_2pe || start.elapsed().as_secs_f64() < args.seconds {
        for (slot, pes) in [(0, 2), (1, 1)] {
            let t = Instant::now();
            let r = marking::checked_pass(&shared, pes, Some(reference.messages));
            let dt = t.elapsed().as_secs_f64() * 1e3;
            let checked = r.and_then(|s| {
                if pes == 2 {
                    steal.add(&s);
                }
                if ms[slot].is_empty() {
                    marking::check_marked_set(&shared, &reference.reachable)
                        .map_err(|e| format!("{pes}-PE pass: {e}"))
                } else {
                    Ok(())
                }
            });
            out.op(checked);
            ms[slot].push(dt);
        }
    }
    // A round of the closed loop, one 2-PE and one 1-PE pass, is this
    // workload's suite pass.
    let mut rounds: Vec<f64> = ms[0]
        .iter()
        .zip(&ms[1])
        .map(|(a, b)| (a + b) / 1e3)
        .collect();
    out.metric("setup_s", setup_s);
    out.metric("suite_s", median(&mut rounds));
    out.metric("peak_live_mb", live_bytes as f64 / 1e6);
    out.samples.push(("mark_2pe_ms".into(), ms[0].clone()));
    out.samples.push(("mark_1pe_ms".into(), ms[1].clone()));
    if !args.trace {
        return out;
    }
    let p50_2 = median(&mut ms[0].clone());
    out.metric("mark_p50_ms", p50_2);
    out.metric("mark_1pe_p50_ms", median(&mut ms[1].clone()));
    // The 2-PE tail, where a run holds ten samples beyond it (mark_tree).
    ms[0].sort_by(f64::total_cmp);
    if highest_tail(ms[0].len()).is_some_and(|p| p >= 90.0) {
        out.metric("mark_p90_ms", percentile(&ms[0], 90.0));
    }

    // The COST ladder: each rung is one timed call, repeated, reported as
    // ns per message (per vertex for the traversals).
    let reps = match family {
        Family::Tree => 5,
        Family::Digraph => 3,
    };
    for _ in 0..reps {
        tracer.span("floor.dfs", 0, || marking::floor_dfs(&csr));
        tracer.span("floor.protocol", 0, || marking::floor_protocol(&csr));
    }
    for _ in 0..reps {
        let words = MarkWords::new(csr.len());
        let n = tracer.span("graph.markword", 0, || {
            marking::markword_protocol(&csr, &words, 1)
        });
        out.op(if n == reference.messages {
            Ok(())
        } else {
            Err(format!(
                "mark-word floor handled {n} messages, DetSim {}",
                reference.messages
            ))
        });
    }
    let (s1, s2) = traced_passes(&mut out, &shared, family, Some(&reference), &mut tracer);
    let spans = tracer.spans();
    let med = |name: &str| -> f64 {
        let mut d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&mut d)
        }
    };
    let msgs = reference.messages as f64;
    let protocol = med("floor.protocol");
    out.metric("floor.dfs_ns", med("floor.dfs") / reached as f64);
    out.metric("floor.protocol_ns", protocol / msgs);
    out.metric("graph.traverse_ns", med("graph.traverse") / reached as f64);
    out.metric("graph.markword_ns", med("graph.markword") / msgs);
    out.metric("core.detsim_ns", med("core.detsim") / msgs);
    out.metric("sim.steal_1pe_ns", s1 / msgs);
    out.metric("sim.steal_2pe_ns", s2 / msgs);
    out.metric(
        "sim.remote_share",
        ratio(steal.envelopes as f64, steal.messages as f64),
    );
    out.metric(
        "sim.steal_success",
        ratio(
            steal.steals as f64,
            (steal.steals + steal.steal_fails) as f64,
        ),
    );
    out.metric("sim.parks", ratio(steal.parks as f64, steal.passes as f64));
    out.metric("sim.spill_hw", steal.spill_hw as f64);
    out.metric("cost.steal_1pe_x", ratio(s1, protocol));
    out.metric("cost.best_x", ratio(s1.min(s2), protocol));
    out.metric("sim.speedup_2pe", ratio(s1, s2));
    out.metric("trace.overhead_pct", (s2 / 1e6 / p50_2 - 1.0) * 100.0);
    let off_layers = layer_self_ms(&tracer, &MARK_LAYERS);
    out.spans = Some(tracer.to_jsonl());
    drop((shared, csr, reference));
    telemetry_overhead(&mut out, args, &MARK_LAYERS, &off_layers);
    out
}

/// Tallies of the 2-PE passes of the timed loop.
#[derive(Debug, Default)]
struct StealTotals {
    passes: u64,
    messages: u64,
    envelopes: u64,
    steals: u64,
    steal_fails: u64,
    parks: u64,
    spill_hw: u64,
}

impl StealTotals {
    fn add(&mut self, s: &dgr_core::threaded::ThreadedMarkStats) {
        self.passes += 1;
        self.messages += s.messages;
        self.envelopes += s.envelopes;
        self.steals += s.steals;
        self.steal_fails += s.steal_fails;
        self.parks += s.parks;
        self.spill_hw = self.spill_hw.max(s.spill_hw);
    }
}

/// A fixed number of traced passes per PE count, each in a `sim.steal`
/// span. `reference` checks their message counts (the probe has none).
/// Returns the median 1-PE and 2-PE pass, ns.
fn traced_passes(
    out: &mut Outcome,
    shared: &SharedGraph,
    family: Family,
    reference: Option<&Reference>,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let k = match family {
        Family::Tree => 20,
        Family::Digraph => 3,
    };
    let mut ns = [Vec::new(), Vec::new()];
    for i in 0..k {
        for (slot, pes) in [(0, 2u16), (1, 1u16)] {
            let t = Instant::now();
            let r = tracer.span("sim.steal", i, || {
                marking::checked_pass(shared, pes, reference.map(|r| r.messages))
            });
            ns[slot].push(t.elapsed().as_nanos() as f64);
            out.op(r.map(|_| ()));
        }
    }
    (median(&mut ns[1]), median(&mut ns[0]))
}

/// Prints the probe's result: per-layer self ms as one JSON line.
fn print_probe(out: &Outcome, layers: &[(String, f64)]) {
    let body: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!(
        "{{\"failed\":{},\"layers\":{{{}}}}}",
        out.failures.len(),
        body.join(",")
    );
}

/// Runs the same traced pass in the telemetry-on build (`--peer`) and
/// reports each layer's self-time change as a percentage.
fn telemetry_overhead(
    out: &mut Outcome,
    args: &Args,
    layers: &[(&str, &'static str)],
    off: &[(String, f64)],
) {
    let Some(peer) = &args.peer else {
        return;
    };
    let run = Command::new(peer)
        .args(["--probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output();
    let on = match run {
        Ok(o) if o.status.success() => parse_probe(&String::from_utf8_lossy(&o.stdout)),
        Ok(o) => Err(format!(
            "telemetry probe exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr)
                .lines()
                .last()
                .unwrap_or("")
        )),
        Err(e) => Err(format!("telemetry probe did not start: {e}")),
    };
    let metrics = on.and_then(|on| {
        // A layer the workload never ran (`gc.cycle` on programs_roomy) has
        // no overhead to report.
        layers
            .iter()
            .zip(off)
            .filter(|(_, (_, off_ms))| *off_ms > 0.0)
            .map(|(&(_, metric), (span, off_ms))| {
                let on_ms = on
                    .get(span)
                    .ok_or_else(|| format!("telemetry probe lacks layer {span}"))?;
                Ok((metric, (on_ms / off_ms - 1.0) * 100.0))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    match metrics {
        Ok(ms) => {
            out.op(Ok(()));
            for (name, pct) in ms {
                out.metric(name, pct);
            }
        }
        Err(e) => out.op(Err(e)),
    }
}

/// Parses the probe's last line: `{"failed":n,"layers":{"k":ms,...}}`.
fn parse_probe(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = stdout
        .lines()
        .last()
        .ok_or("telemetry probe printed nothing")?;
    let failed = line
        .strip_prefix("{\"failed\":")
        .and_then(|r| r.split(',').next())
        .ok_or_else(|| format!("unreadable probe line {line:?}"))?;
    if failed != "0" {
        return Err(format!("telemetry probe saw {failed} failed operations"));
    }
    let layers = line
        .split_once("\"layers\":{")
        .and_then(|(_, r)| r.strip_suffix("}}"))
        .ok_or_else(|| format!("unreadable probe line {line:?}"))?;
    layers
        .split(',')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once(':').ok_or("bad probe entry")?;
            let v: f64 = v
                .parse()
                .map_err(|e| format!("bad probe value {v:?}: {e}"))?;
            Ok((k.trim_matches('"').to_string(), v))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        let out = match args.workload {
            Workload::ProgramsGc => run_programs(&args, false),
            Workload::ProgramsRoomy => run_programs(&args, true),
            Workload::MarkTree => run_marking(&args, Family::Tree),
            Workload::MarkDigraph => run_marking(&args, Family::Digraph),
        };
        for f in &out.failures {
            eprintln!("probe failure: {f}");
        }
        return ExitCode::SUCCESS;
    }
    let host = host::fingerprint();
    let out = match args.workload {
        Workload::ProgramsGc => run_programs(&args, false),
        Workload::ProgramsRoomy => run_programs(&args, true),
        Workload::MarkTree => run_marking(&args, Family::Tree),
        Workload::MarkDigraph => run_marking(&args, Family::Digraph),
    };
    let failed = out.failures.len() as u64;
    let fail_rate = ratio(failed as f64, out.attempted as f64);

    println!(
        "perfbench {} seed {} trace {} | host {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host.to_json()
    );
    let report = out.report(args.trace);
    for (name, value, unit) in &report {
        // The GC phase clocks are GcDriver's own, read rather than timed.
        let read = if READ_NOT_TIMED.contains(name) {
            " (read from GcDriver::timeline)"
        } else {
            ""
        };
        println!("  {name:<34} {value:>16.6} {unit}{read}");
    }
    println!(
        "  {:<34} {:>16.6} ratio ({failed} of {} operations failed)",
        "fail_rate", fail_rate, out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }

    let metrics: Vec<String> = report
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        metrics.join(",")
    );
    if let Err(e) = write_record(&args, &host, &out, &result, fail_rate) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Writes the run record (fingerprint, result, failures) and, for a
/// traced run, its spans under `--out`.
fn write_record(
    args: &Args,
    host: &host::Host,
    out: &Outcome,
    result: &str,
    fail_rate: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(name, v)| {
            let v: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("{}:[{}]", json_str(name), v.join(","))
        })
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"host\":{},\"fail_rate\":{fail_rate},\"failures\":[{}],\"samples\":{{{}}},\"result\":{result}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        host.to_json(),
        failures.join(","),
        samples.join(",")
    );
    std::fs::write(args.out.join(format!("{stem}.json")), record)?;
    if let Some(spans) = &out.spans {
        std::fs::write(args.out.join(format!("{stem}.spans.jsonl")), spans)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = start + spec[start..].find(']').expect("section closed");
            &spec[start..end]
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{key}");
            for (name, unit) in table {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn every_run_reports_its_whole_table() {
        let mut out = Outcome::default();
        out.metric("suite_s", 1.5);
        out.metric("gc.cycles", 3.0);
        let e2e = out.report(false);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(e2e.contains(&("suite_s", 1.5, "s")));
        let layers = out.report(true);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.contains(&("gc.cycles", 3.0, "count")));
        // A layer the workload did not run reads 0.
        assert!(layers.contains(&("floor.dfs_ns", 0.0, "ns")));
    }

    #[test]
    fn probe_line_round_trips() {
        let mut out = Outcome::default();
        out.op(Ok(()));
        let line = format!(
            "{{\"failed\":{},\"layers\":{{\"gc\":{},\"lang\":{}}}}}",
            out.failures.len(),
            2.5,
            0.125
        );
        let parsed = parse_probe(&format!("noise\n{line}")).unwrap();
        assert_eq!(parsed["gc"], 2.5);
        assert_eq!(parsed["lang"], 0.125);
        assert!(parse_probe("{\"failed\":1,\"layers\":{}}").is_err());
    }
}
