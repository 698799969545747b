//! Phase-resolved observability report.
//!
//! Runs the GC driver over a list-heavy reduction workload with the
//! telemetry layer on (the default feature of this crate) and emits:
//!
//! * `BENCH_telemetry.json` — per-cycle records plus per-phase (`M_T`,
//!   `M_R`, `classify`) duration totals, machine-readable;
//! * `BENCH_telemetry_trace.json` — the drained event ring in Chrome
//!   `trace_event` format, loadable in `chrome://tracing` or Perfetto;
//! * `BENCH_telemetry_events.jsonl` — the same events as JSON Lines.
//!
//! A second section drives the threaded marking runtime and reports its
//! counters (task deliveries, batches, parks, local/remote sends) and the
//! batch-size histogram. Pass `--small` for a CI-sized workload.

use dgr_bench::{emit_json, f2, print_table, JsonRecord, JsonValue};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared_observed};
use dgr_gc::{GcConfig, GcDriver};
use dgr_graph::PartitionStrategy;
use dgr_lang::build_with_prelude;
use dgr_reduction::SystemConfig;
use dgr_sim::SharedGraph;
use dgr_telemetry::{
    bucket_label, chrome_trace_json, events_jsonl, timeline_text, CounterId, GaugeId,
    HeartbeatHandle, HistId, Registry, TELEMETRY_ENABLED,
};
use dgr_workloads::graphs::binary_tree_dfs;

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path} ({} bytes)", contents.len());
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    if !TELEMETRY_ENABLED {
        println!(
            "note: built without the `telemetry` feature — durations and cycle \
             census are still reported, message counters and traces are empty"
        );
    }

    // Phase-resolved GC cycles over a reduction that allocates and drops
    // one cons cell per element (steady garbage for the collector).
    let n = if small { 60 } else { 250 };
    let src = format!("sum (map (\\x -> x * x) (range 1 {n}))");
    let sys = build_with_prelude(&src, SystemConfig::default()).expect("workload builds");
    let mut gc = GcDriver::new(
        sys,
        GcConfig {
            period: if small { 150 } else { 300 },
            mt_every: 2,
            ..Default::default()
        },
    );
    let out = gc.run();
    assert!(
        matches!(out, dgr_reduction::RunOutcome::Value(_)),
        "workload finished: {out:?}"
    );

    let cycles: Vec<_> = gc.timeline().iter().cloned().collect();
    println!("\n== per-cycle timeline (sum of squares 1..{n}) ==");
    println!("{}", timeline_text(&cycles));

    let mut records: Vec<JsonRecord> = Vec::new();
    for c in &cycles {
        records.push(vec![
            ("benchmark", JsonValue::Str("gc_cycle".into())),
            ("cycle", JsonValue::Int(u64::from(c.cycle))),
            ("mt_us", JsonValue::Int(c.mt_us)),
            ("mr_us", JsonValue::Int(c.mr_us)),
            ("settle_us", JsonValue::Int(c.settle_us)),
            ("classify_us", JsonValue::Int(c.restructure_us)),
            ("total_us", JsonValue::Int(c.total_us)),
            ("mark_events", JsonValue::Int(c.mark_events)),
            (
                "red_events_during_marking",
                JsonValue::Int(c.red_events_during_marking),
            ),
            ("sends_local", JsonValue::Int(c.sends_local)),
            ("sends_remote", JsonValue::Int(c.sends_remote)),
            ("mark_backlog_hw", JsonValue::Int(c.mark_backlog_hw)),
            ("marked_t", JsonValue::Int(c.marked_t as u64)),
            ("marked_r", JsonValue::Int(c.marked_r() as u64)),
            ("garbage", JsonValue::Int(c.garbage as u64)),
            ("reclaimed", JsonValue::Int(c.reclaimed as u64)),
            ("expunged", JsonValue::Int(c.expunged as u64)),
            ("relaned", JsonValue::Int(c.relaned as u64)),
        ]);
    }
    // The per-phase totals the trajectory tooling plots: M_T (synchronous
    // deadlock-detection pass), M_R (concurrent marking incl. settling),
    // classify (census + restructuring).
    let phase_totals = [
        ("M_T", cycles.iter().map(|c| c.mt_us).sum::<u64>()),
        (
            "M_R",
            cycles.iter().map(|c| c.mr_us + c.settle_us).sum::<u64>(),
        ),
        ("classify", cycles.iter().map(|c| c.restructure_us).sum()),
    ];
    let mut rows = Vec::new();
    for (phase, us) in phase_totals {
        rows.push(vec![
            phase.to_string(),
            us.to_string(),
            f2(us as f64 / cycles.len().max(1) as f64),
        ]);
        records.push(vec![
            ("benchmark", JsonValue::Str("phase_total".into())),
            ("phase", JsonValue::Str(phase.into())),
            ("total_us", JsonValue::Int(us)),
            ("cycles", JsonValue::Int(cycles.len() as u64)),
        ]);
    }
    print_table(
        &format!("phase totals over {} cycles", cycles.len()),
        &["phase", "total us", "us/cycle"],
        &rows,
    );

    let events = gc.sys.telemetry().drain_events();
    write_file("BENCH_telemetry_trace.json", &chrome_trace_json(&events));
    write_file("BENCH_telemetry_events.jsonl", &events_jsonl(&events));
    println!(
        "trace: {} events ({} dropped by the ring)",
        events.len(),
        gc.sys.telemetry().dropped_events()
    );

    // Threaded marking runtime: counters and the outbox batch-size
    // histogram across a DFS-numbered tree with block placement.
    let depth = if small { 12 } else { 15 };
    let pes: u16 = 4;
    let shared = SharedGraph::from_store(binary_tree_dfs(depth));
    reset_shared_r(&shared);
    let telem = Registry::new(pes);
    let stats = run_mark1_shared_observed(
        &shared,
        pes,
        PartitionStrategy::Block,
        &telem,
        &HeartbeatHandle::new(),
    );
    let snap = gather(&telem);
    print_table(
        &format!("threaded mark1, tree depth {depth}, {pes} PEs, block partition"),
        &[
            "tasks",
            "batches",
            "parks",
            "local",
            "remote",
            "batch avg",
            "mbox hw",
        ],
        &[vec![
            snap.counter(CounterId::Tasks).to_string(),
            snap.counter(CounterId::Batches).to_string(),
            snap.counter(CounterId::Parks).to_string(),
            snap.counter(CounterId::SendsLocal).to_string(),
            snap.counter(CounterId::SendsRemote).to_string(),
            f2(snap.hist(HistId::BatchSize).mean()),
            snap.gauge(GaugeId::MailboxHighWater).to_string(),
        ]],
    );
    let batch = snap.hist(HistId::BatchSize);
    let batch_rows: Vec<Vec<String>> = batch
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| vec![bucket_label(i), count.to_string()])
        .collect();
    if !batch_rows.is_empty() {
        print_table("outbox batch sizes", &["bucket", "batches"], &batch_rows);
    }
    records.push(vec![
        ("benchmark", JsonValue::Str("threaded_mark1".into())),
        ("pes", JsonValue::Int(u64::from(pes))),
        ("messages", JsonValue::Int(stats.messages)),
        ("tasks", JsonValue::Int(snap.counter(CounterId::Tasks))),
        ("batches", JsonValue::Int(snap.counter(CounterId::Batches))),
        ("parks", JsonValue::Int(snap.counter(CounterId::Parks))),
        (
            "sends_local",
            JsonValue::Int(snap.counter(CounterId::SendsLocal)),
        ),
        (
            "sends_remote",
            JsonValue::Int(snap.counter(CounterId::SendsRemote)),
        ),
        (
            "batch_mean",
            JsonValue::Float(snap.hist(HistId::BatchSize).mean()),
        ),
    ]);

    emit_json(true, "BENCH_telemetry.json", &records);
}

/// Merged view over all PE shards of a registry.
fn gather(telem: &Registry) -> dgr_telemetry::PeSnapshot {
    telem.snapshot().merged()
}
