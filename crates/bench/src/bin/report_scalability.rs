//! Experiment T5: marking scalability across processing elements.
//!
//! Parallel time is measured two ways. Round-synchronously (BSP): in each
//! round every PE executes one pending marking task, so the number of
//! rounds is the pass's ideal parallel time with that many PEs. And in
//! wall time on the work-stealing threaded runtime, where the derived
//! `speedup` column is `median wall[1 PE] / median wall[N PEs]` over
//! [`REPS`] passes per cell. Wall-clock speedup needs real hardware
//! threads; on a single-core CI container every PE count time-slices one
//! core, so the report asserts only a loose "monotone-ish" profile (no
//! anti-scaling collapse) and leaves strict minimum-speedup gating to
//! `bench_gate --min-speedup`, which caps its requirement at
//! `available_parallelism`.
//!
//! `--small` runs a reduced T5c only (small tree + small digraph, PEs
//! 1/4/16) for the CI scalability smoke job; `--json` writes
//! `BENCH_scalability.json` either way.

use dgr_bench::{emit_json, f2, print_table, timed, JsonValue};
use dgr_core::driver::{run_mark1, run_mark1_bsp, MarkRunConfig};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared};
use dgr_graph::PartitionStrategy;
use dgr_sim::SharedGraph;
use dgr_workloads::graphs::{binary_tree_dfs, random_digraph};

/// Timed passes per (workload, PEs) cell. The cell reports the minimum
/// (`wall_us`, the figure `bench_gate` compares), the median and the
/// inter-quartile range; five is the fewest passes with distinct
/// quartiles.
const REPS: usize = 5;

/// Wall-time summary of one (workload, PEs) cell over [`REPS`] passes.
struct Cell {
    pes: u16,
    min_ms: f64,
    q1_ms: f64,
    median_ms: f64,
    q3_ms: f64,
}

impl Cell {
    fn new(pes: u16, mut walls_ms: Vec<f64>) -> Self {
        walls_ms.sort_by(f64::total_cmp);
        // Linear interpolation between the closest ranks.
        let q = |p: f64| {
            let at = p * (walls_ms.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            walls_ms[lo] + (walls_ms[hi] - walls_ms[lo]) * (at - lo as f64)
        };
        Cell {
            pes,
            min_ms: walls_ms[0],
            q1_ms: q(0.25),
            median_ms: q(0.5),
            q3_ms: q(0.75),
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Asserts the wall-time profile of one workload is monotone-ish. Every
/// speedup here is `median wall[1 PE] / median wall[N PEs]`.
///
/// Two guards, separating two failure modes:
///
/// * **Floor** (every host) — the *best* multi-PE point must keep at
///   least `floor` of serial throughput. Local workloads (DFS trees
///   under block placement, near-zero envelopes) get a tight floor; the
///   random digraph is communication-bound (~50-95% remote share), pays
///   the full envelope tax with no parallel payback when PEs time-slice
///   one core, and its floor only rules out collapse. Using the best
///   point rather than the last keeps the guard robust to single-point
///   scheduling outliers (2x swings are routine on shared runners).
/// * **Decay** (hosts with real parallelism only) — among the multi-PE
///   points, the speedup at N PEs must never fall more than `1 - decay`
///   below the best at any smaller multi-PE count, by more than the
///   cell's own inter-quartile spread (its wall-time quartiles mapped to
///   speedup). A shortfall inside the spread is indistinguishable from
///   host noise; one beyond it is a real decay. This is the anti-scaling
///   guard: it is what the old one-channel-per-PE runtime failed on
///   tree_d15 past 4 PEs. On a single hardware thread every point is
///   noise around 1.0, so per-point comparisons are skipped.
///
/// Thresholds are deliberately loose: strict minimums belong to
/// `bench_gate --min-speedup`, which caps by the host's parallelism.
fn assert_monotone_ish(name: &str, cells: &[Cell], floor: f64, decay: f64, para: usize) {
    let base = cells[0].median_ms;
    let mut best = f64::MIN;
    for c in cells.iter().filter(|c| c.pes > 1) {
        let s = base / c.median_ms;
        let spread = base / c.q1_ms - base / c.q3_ms;
        if para > 1 {
            assert!(
                s + spread >= decay * best,
                "{name}: anti-scaling at {} PEs: median speedup {s:.2} fell below \
                 {decay} x best-so-far ({best:.2}) by more than its IQR spread \
                 ({spread:.2})",
                c.pes
            );
        }
        best = best.max(s);
    }
    assert!(
        best >= floor,
        "{name}: best multi-PE speedup is {best:.2}, below the {floor} floor"
    );
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let small = std::env::args().any(|a| a == "--small");
    let mut records = Vec::new();

    if !small {
        // T5a: ideal parallel time (BSP rounds) vs PEs.
        let mut rows = Vec::new();
        let mut base_rounds = 0u64;
        for &pes in &[1u16, 2, 4, 8, 16, 32, 64] {
            let mut g = binary_tree_dfs(15); // 65k vertices
            let stats = run_mark1_bsp(&mut g, pes, PartitionStrategy::Modulo);
            if pes == 1 {
                base_rounds = stats.rounds;
            }
            rows.push(vec![
                pes.to_string(),
                stats.events.to_string(),
                stats.rounds.to_string(),
                f2(base_rounds as f64 / stats.rounds as f64),
            ]);
        }
        print_table(
            "T5a: round-synchronous marking, binary tree depth 15 (65k vertices)",
            &["PEs", "work (tasks)", "parallel time (rounds)", "speedup"],
            &rows,
        );

        // T5b: the chain is the worst case — no parallelism to extract.
        let mut rows = Vec::new();
        for &pes in &[1u16, 8, 64] {
            let mut g = dgr_workloads::graphs::chain(8192);
            let stats = run_mark1_bsp(&mut g, pes, PartitionStrategy::Modulo);
            rows.push(vec![
                pes.to_string(),
                stats.events.to_string(),
                stats.rounds.to_string(),
            ]);
        }
        print_table(
            "T5b: round-synchronous marking, chain of 8192 (the marking tree is a path)",
            &["PEs", "work (tasks)", "parallel time (rounds)"],
            &rows,
        );
    }

    // T5c: the work-stealing threaded runtime — wall time, derived
    // speedup, and cross-PE envelope counts under block placement. The
    // timed region is the marking pass alone: the shared graph is built
    // once and epoch-reset per run. Envelope counts stay the
    // hardware-independent signal; wall speedup is meaningful only up to
    // the host's available parallelism (printed in the table title).
    // Each entry: (name, vertices, graph, floor, decay) — see
    // `assert_monotone_ish` for the threshold semantics. Small mode uses
    // looser floors: its workloads are short enough that thread spawn
    // overhead is a visible fraction of the 16-PE run.
    let workloads: Vec<(&str, u64, dgr_graph::GraphStore, f64, f64)> = if small {
        vec![
            ("tree_d14", 32767, binary_tree_dfs(14), 0.40, 0.6),
            (
                "digraph_200k",
                200_000,
                random_digraph(200_000, 3.0, 17),
                0.25,
                0.4,
            ),
        ]
    } else {
        vec![
            ("tree_d15", 65535, binary_tree_dfs(15), 0.70, 0.8),
            ("tree_d16", 131071, binary_tree_dfs(16), 0.70, 0.8),
            (
                "digraph_1m",
                1_000_000,
                random_digraph(1_000_000, 3.0, 17),
                0.30,
                0.4,
            ),
        ]
    };
    let pe_list: &[u16] = if small {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let para = available_parallelism();

    for (name, vertices, store, floor, decay) in workloads {
        let mut rows = Vec::new();
        let mut cells: Vec<Cell> = Vec::new();
        let shared = SharedGraph::from_store(store);
        for &pes in pe_list {
            let mut walls_ms = Vec::with_capacity(REPS);
            let mut stats = None;
            for _ in 0..REPS {
                reset_shared_r(&shared);
                let (s, ms) = timed(|| run_mark1_shared(&shared, pes, PartitionStrategy::Block));
                walls_ms.push(ms);
                stats = Some(s);
            }
            let stats = stats.expect("REPS >= 1");
            let cell = Cell::new(pes, walls_ms);
            let speedup = cells
                .first()
                .map_or(1.0, |base| base.median_ms / cell.median_ms);
            rows.push(vec![
                pes.to_string(),
                stats.messages.to_string(),
                stats.envelopes.to_string(),
                f2(cell.min_ms),
                f2(cell.median_ms),
                f2(cell.q3_ms - cell.q1_ms),
                f2(speedup),
            ]);
            records.push(vec![
                (
                    "benchmark",
                    JsonValue::Str(format!("threaded_mark1_{name}")),
                ),
                ("vertices", JsonValue::Int(vertices)),
                ("pes", JsonValue::Int(pes as u64)),
                ("messages", JsonValue::Int(stats.messages)),
                ("wall_us", JsonValue::Float(cell.min_ms * 1e3)),
                ("wall_median_us", JsonValue::Float(cell.median_ms * 1e3)),
                (
                    "wall_iqr_us",
                    JsonValue::Float((cell.q3_ms - cell.q1_ms) * 1e3),
                ),
            ]);
            cells.push(cell);
        }
        print_table(
            &format!(
                "T5c: work-stealing runtime, {name} + block partition \
                 ({vertices} vertices, {REPS} passes per cell, {para} hardware threads)"
            ),
            &[
                "PEs",
                "tasks",
                "cross-PE envelopes",
                "min ms",
                "median ms",
                "IQR ms",
                "speedup",
            ],
            &rows,
        );
        assert_monotone_ish(name, &cells, floor, decay, para);
    }

    if !small {
        // T5d: cross-partition traffic by placement in the event simulator.
        let mut rows = Vec::new();
        for &pes in &[2u16, 8, 32] {
            for (name, strat) in [
                ("modulo", PartitionStrategy::Modulo),
                ("block", PartitionStrategy::Block),
            ] {
                let mut g = random_digraph(50_000, 3.0, 17);
                let cfg = MarkRunConfig {
                    num_pes: pes,
                    partition: strat,
                    ..Default::default()
                };
                let stats = run_mark1(&mut g, &cfg);
                rows.push(vec![
                    pes.to_string(),
                    name.to_string(),
                    stats.events.to_string(),
                    stats.remote_messages.to_string(),
                    f2(stats.remote_messages as f64 / stats.events.max(1) as f64 * 100.0) + "%",
                ]);
            }
        }
        print_table(
            "T5d: cross-partition marking traffic (random digraph 50k, degree 3)",
            &["PEs", "partition", "events", "remote", "remote share"],
            &rows,
        );
        println!(
            "\nShape check: parallel time falls near-linearly with PEs on the tree \
             and not at all on the chain (the marking wavefront is the available \
             parallelism); locality-aware placement (DFS + block) needs orders of \
             magnitude fewer cross-PE messages than hashed placement."
        );
    }

    emit_json(json, "BENCH_scalability.json", &records);
}
