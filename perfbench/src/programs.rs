//! The `programs_*` workloads: a five-program suite compiled with the
//! prelude, reduced on the simulated 4-PE `System`, and collected by
//! `GcDriver` cycles, driven step by step so each cycle can be timed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dgr_gc::{GcConfig, GcDriver, GcTrigger};
use dgr_graph::Value;
use dgr_lang::build_with_prelude;
use dgr_reduction::{RunOutcome, System, SystemConfig};
use dgr_telemetry::TriggerCause;
use dgr_workloads::programs;

use crate::trace::Tracer;
use crate::{panic_text, SplitMix64};

/// Heap bound of `programs_roomy`: above every suite program's total
/// allocation (nfib 20 allocates ~4.9 MB), so no cycle ever fires.
const ROOMY_BOUND: u64 = 64 << 20;

/// One suite program: its generated source and the value plain Rust
/// computes for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Diagnostic name.
    pub name: String,
    /// Source text, compiled with the prelude in scope.
    pub source: String,
    /// The value the program must produce.
    pub expected: Value,
}

/// Program sizes of a suite.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `nfib n`.
    pub nfib: i64,
    /// Length of the seeded list `qsort` sorts.
    pub qsort: usize,
    /// `sum-squares n`.
    pub squares: i64,
    /// `primes n`.
    pub primes: i64,
    /// `cyclic-sum n`.
    pub cyclic: i64,
}

/// The benchmark's suite sizes.
pub const SUITE: Sizes = Sizes {
    nfib: 20,
    qsort: 400,
    squares: 2000,
    primes: 200,
    cyclic: 2000,
};

/// The suite for `seed`. Only the qsort input list depends on the seed.
pub fn suite(sizes: Sizes, seed: u64) -> Vec<Program> {
    let from_catalog = |p: programs::Program| Program {
        expected: p.expected.expect("suite programs terminate"),
        name: p.name,
        source: p.source,
    };
    vec![
        from_catalog(programs::nfib(sizes.nfib)),
        qsort(&seeded_list(seed, sizes.qsort)),
        from_catalog(programs::sum_squares(sizes.squares)),
        from_catalog(programs::primes(sizes.primes)),
        from_catalog(programs::cyclic_sum(sizes.cyclic)),
    ]
}

/// `n` distinct values in `0..1000` drawn from `seed`, ordered so that
/// `qsort`'s first-element pivot splits every sublist evenly.
///
/// The seed picks the values and how each pivot's two halves interleave;
/// the recursion shape is fixed. On uniformly drawn lists the shape, and
/// with it the collector's work, followed the seed: `GcDriver` ran 2.6M to
/// 5.4M marking events on qsort 400 over eight seeds, which no bound on
/// run-to-run spread could absorb. On these lists it runs 2.24M to 2.26M.
pub fn seeded_list(seed: u64, n: usize) -> Vec<i64> {
    assert!(n <= 1000, "{n} distinct values do not fit in 0..1000");
    let mut rng = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut taken = [false; 1000];
    let mut values = Vec::with_capacity(n);
    while values.len() < n {
        let x = (rng.next_u64() % 1000) as usize;
        if !std::mem::replace(&mut taken[x], true) {
            values.push(x as i64);
        }
    }
    values.sort_unstable();
    balanced(&values, &mut rng)
}

/// `sorted` reordered so that each sublist starts with its median: the
/// median, then the lower and the upper half (each built the same way)
/// merged in an order drawn from `rng`. Both halves keep their own order,
/// so `filter` hands each recursive call a list of the same form.
fn balanced(sorted: &[i64], rng: &mut SplitMix64) -> Vec<i64> {
    let Some(&pivot) = sorted.get(sorted.len() / 2) else {
        return Vec::new();
    };
    let m = sorted.len() / 2;
    let (lo, hi) = (balanced(&sorted[..m], rng), balanced(&sorted[m + 1..], rng));
    let mut out = Vec::with_capacity(sorted.len());
    out.push(pivot);
    let (mut i, mut j) = (0, 0);
    while i < lo.len() || j < hi.len() {
        let (left_lo, left_hi) = ((lo.len() - i) as u64, (hi.len() - j) as u64);
        if rng.next_u64() % (left_lo + left_hi) < left_lo {
            out.push(lo[i]);
            i += 1;
        } else {
            out.push(hi[j]);
            j += 1;
        }
    }
    out
}

/// Quicksort of a literal list, checked by a position-weighted sum so a
/// wrong order changes the value (a plain sum would not).
fn qsort(list: &[i64]) -> Program {
    let items: Vec<String> = list.iter().map(i64::to_string).collect();
    let source = format!(
        "let rec qsort = \\xs -> if isnil xs then nil
                           else append
                             (qsort (filter (\\y -> y < head xs) (tail xs)))
                             (cons (head xs)
                               (qsort (filter (\\y -> y >= head xs) (tail xs))));
                 wsum = \\i xs -> if isnil xs then 0
                                  else i * head xs + wsum (i + 1) (tail xs)
         in wsum 1 (qsort [{}])",
        items.join(", ")
    );
    let mut sorted = list.to_vec();
    sorted.sort_unstable();
    let expected = sorted
        .iter()
        .zip(1..)
        .map(|(&x, i): (&i64, i64)| i * x)
        .sum();
    Program {
        name: format!("qsort {}", list.len()),
        source,
        expected: Value::Int(expected),
    }
}

/// The collector configuration of a `programs_*` workload.
pub fn gc_config(roomy: bool) -> GcConfig {
    if roomy {
        GcConfig {
            trigger: GcTrigger::HeapBytes(ROOMY_BOUND),
            ..GcConfig::default()
        }
    } else {
        GcConfig::default()
    }
}

/// Compiles `p` into a fresh system under the default `SystemConfig`.
fn compile(p: &Program) -> Result<System, String> {
    build_with_prelude(&p.source, SystemConfig::default()).map_err(|e| e.to_string())
}

/// Everything one program run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCounts {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// `System::events()` at the end.
    pub events: u64,
    /// `stats().cycles` at the end.
    pub cycles: u32,
    /// `stats().reclaimed_total` at the end.
    pub reclaimed: usize,
    /// Largest `live_bytes()` seen after any step of the manual loop.
    pub peak_live: u64,
}

/// Per-layer tallies of one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTallies {
    /// Reduction events delivered by the manual loop between cycles.
    pub window_events: u64,
    /// Marking events over all cycles.
    pub mark_events: u64,
    /// Reduction events executed during marking.
    pub red_during_marking: u64,
    /// Vertices reclaimed.
    pub reclaimed: u64,
    /// Cycles abandoned on their phase budget.
    pub aborted: u64,
    /// Pending tasks whose destination was already free.
    pub dangling: u64,
    /// Vertices marked by both processes (the Section 4 bound is twice
    /// this in messages).
    pub marked: u64,
    /// Phase clocks read from `GcDriver::timeline()`, µs.
    pub mt_us: u64,
    /// `M_R` phase clock, µs.
    pub mr_us: u64,
    /// Settle clock, µs.
    pub settle_us: u64,
    /// Restructure clock, µs.
    pub restructure_us: u64,
}

impl LayerTallies {
    fn add(&mut self, o: &LayerTallies) {
        self.window_events += o.window_events;
        self.mark_events += o.mark_events;
        self.red_during_marking += o.red_during_marking;
        self.reclaimed += o.reclaimed;
        self.aborted += o.aborted;
        self.dangling += o.dangling;
        self.marked += o.marked;
        self.mt_us += o.mt_us;
        self.mr_us += o.mr_us;
        self.settle_us += o.settle_us;
        self.restructure_us += o.restructure_us;
    }
}

/// Runs `gc` to completion with the per-step loop `GcDriver::run` uses,
/// written out so each `run_cycle_as` call is timed from outside and
/// `live_bytes()` is sampled after every step. `GcTrigger::fired` is
/// public for exactly this use. Cycle wall times (ms) are appended to
/// `cycle_ms`; a check that fails returns its reason.
fn manual_loop(
    gc: &mut GcDriver,
    tracer: &mut Tracer,
    run: u32,
    cycle_ms: &mut Vec<f64>,
    tallies: &mut LayerTallies,
) -> Result<RunCounts, String> {
    let cfg = gc.config().clone();
    let mut peak = gc.sys.graph.live_bytes();
    gc.sys.demand_root();
    let outcome = loop {
        let mut n = 0;
        let mut cause = None;
        tracer.begin("reduction.window", run);
        while gc.sys.result.is_none() {
            if n > 0 {
                cause = cfg.trigger.fired(n, cfg.period, gc.sys.graph.live_bytes());
                if cause.is_some() {
                    break;
                }
            }
            if !gc.sys.step() {
                break;
            }
            n += 1;
            peak = peak.max(gc.sys.graph.live_bytes());
        }
        tracer.end();
        tallies.window_events += n;
        if let Some(v) = &gc.sys.result {
            break RunOutcome::Value(v.clone());
        }
        let was_quiescent = gc.sys.sim().is_empty();
        tracer.begin("gc.cycle", run);
        let t = Instant::now();
        let rep = gc.run_cycle_as(cause.unwrap_or(TriggerCause::Period));
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end();
        let clocks = gc.timeline().back().expect("a cycle just ran");
        tallies.mark_events += rep.mark_events;
        tallies.red_during_marking += rep.reduction_events_during_marking;
        tallies.reclaimed += rep.reclaimed as u64;
        tallies.aborted += u64::from(rep.aborted);
        tallies.dangling += rep.census.dangling as u64;
        tallies.marked += (rep.marked_r + rep.marked_t) as u64;
        tallies.mt_us += clocks.mt_us;
        tallies.mr_us += clocks.mr_us;
        tallies.settle_us += clocks.settle_us;
        tallies.restructure_us += clocks.restructure_us;
        if rep.aborted {
            return Err(format!("cycle {} aborted", rep.cycle));
        }
        if rep.census.dangling != 0 {
            return Err(format!(
                "cycle {}: {} dangling tasks",
                rep.cycle, rep.census.dangling
            ));
        }
        if !rep.deadlocked.is_empty() {
            return Err(format!(
                "cycle {}: {} deadlocked vertices reported",
                rep.cycle,
                rep.deadlocked.len()
            ));
        }
        if let Some(v) = &gc.sys.result {
            break RunOutcome::Value(v.clone());
        }
        if was_quiescent && gc.sys.sim().is_empty() {
            break RunOutcome::Quiescent;
        }
        if gc.sys.events() >= cfg.max_total_events {
            break RunOutcome::Budget;
        }
    };
    Ok(RunCounts {
        outcome,
        events: gc.sys.events(),
        cycles: gc.stats().cycles,
        reclaimed: gc.stats().reclaimed_total,
        peak_live: peak,
    })
}

/// One checked program run: compile, then the manual loop. Returns the
/// counts, or why the run failed (a panic inside dgr counts as a failure,
/// not a crash of the benchmark).
pub fn run_program(
    p: &Program,
    cfg: &GcConfig,
    tracer: &mut Tracer,
    run: u32,
    cycle_ms: &mut Vec<f64>,
    tallies: &mut LayerTallies,
) -> Result<RunCounts, String> {
    let depth = tracer.depth();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tracer.begin("program", run);
        let sys = tracer.span("lang.compile", run, || compile(p));
        let out = sys.and_then(|sys| {
            let mut gc = GcDriver::new(sys, cfg.clone());
            let mut mine = LayerTallies::default();
            let out = manual_loop(&mut gc, tracer, run, cycle_ms, &mut mine);
            tallies.add(&mine);
            out
        });
        tracer.end();
        out
    }));
    let counts = caught.map_err(|e| {
        tracer.close_to(depth);
        format!("{}: panicked: {}", p.name, panic_text(&e))
    })??;
    check_value(p, &counts.outcome)?;
    Ok(counts)
}

fn check_value(p: &Program, outcome: &RunOutcome) -> Result<(), String> {
    match outcome {
        RunOutcome::Value(v) if *v == p.expected => Ok(()),
        other => Err(format!(
            "{}: got {other:?}, expected {:?}",
            p.name, p.expected
        )),
    }
}

/// One checked run of `p` under `GcDriver::run()`: the reference the
/// manual loop must reproduce.
pub fn run_with_driver(p: &Program, cfg: &GcConfig) -> Result<RunCounts, String> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut gc = GcDriver::new(compile(p)?, cfg.clone());
        let outcome = gc.run();
        check_value(p, &outcome)?;
        Ok::<_, String>(RunCounts {
            outcome,
            events: gc.sys.events(),
            cycles: gc.stats().cycles,
            reclaimed: gc.stats().reclaimed_total,
            peak_live: 0,
        })
    }));
    caught.map_err(|e| format!("{}: panicked: {}", p.name, panic_text(&e)))?
}

/// Checks that a manual-loop run reproduces the `GcDriver::run()` run of
/// the same program: the same value, `events()`, `stats().cycles` and
/// `reclaimed_total`.
pub fn check_fidelity(p: &Program, manual: &RunCounts, driver: &RunCounts) -> Result<(), String> {
    let key = |r: &RunCounts| (r.outcome.clone(), r.events, r.cycles, r.reclaimed);
    if key(manual) != key(driver) {
        return Err(format!(
            "{}: manual loop (value, events, cycles, reclaimed) = {:?}, GcDriver::run() = {:?}",
            p.name,
            key(manual),
            key(driver)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        nfib: 9,
        qsort: 40,
        squares: 60,
        primes: 30,
        cyclic: 60,
    };

    #[test]
    fn same_seed_same_sources_different_seed_different_list() {
        assert_eq!(suite(SUITE, 7), suite(SUITE, 7));
        assert_ne!(seeded_list(7, 400), seeded_list(8, 400));
        let (a, b) = (suite(SUITE, 7), suite(SUITE, 8));
        assert_ne!(a[1].source, b[1].source, "qsort input follows the seed");
        assert_eq!(a[0], b[0], "only the qsort input depends on the seed");
        assert!(seeded_list(3, 400).iter().all(|x| (0..1000).contains(x)));
    }

    #[test]
    fn seeded_lists_are_distinct_and_split_evenly_at_every_pivot() {
        fn check(xs: &[i64]) {
            let Some((&pivot, rest)) = xs.split_first() else {
                return;
            };
            let lo: Vec<i64> = rest.iter().copied().filter(|&y| y < pivot).collect();
            let hi: Vec<i64> = rest.iter().copied().filter(|&y| y >= pivot).collect();
            assert_eq!(lo.len(), xs.len() / 2);
            check(&lo);
            check(&hi);
        }
        for seed in 1..5 {
            let list = seeded_list(seed, 400);
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 400, "values are distinct");
            check(&list);
        }
    }

    #[test]
    fn qsort_checksum_depends_on_order() {
        let p = qsort(&[3, 1, 2]);
        // Sorted [1, 2, 3] weighted 1, 2, 3.
        assert_eq!(p.expected, Value::Int(1 + 4 + 9));
    }

    fn suite_counts(seed: u64, roomy: bool) -> Vec<RunCounts> {
        let cfg = gc_config(roomy);
        suite(SMALL, seed)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                run_program(
                    p,
                    &cfg,
                    &mut Tracer::new(false),
                    i as u32,
                    &mut Vec::new(),
                    &mut LayerTallies::default(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_counts() {
        for roomy in [false, true] {
            let a = suite_counts(11, roomy);
            assert_eq!(a, suite_counts(11, roomy));
            let cycles: u32 = a.iter().map(|r| r.cycles).sum();
            assert_eq!(cycles == 0, roomy, "only the roomy bound suppresses cycles");
            assert!(a.iter().all(|r| r.peak_live > 0 && r.events > 0));
        }
    }

    #[test]
    fn manual_loop_reproduces_the_driver() {
        for roomy in [false, true] {
            let cfg = gc_config(roomy);
            for (p, manual) in suite(SMALL, 5).iter().zip(suite_counts(5, roomy)) {
                let driver = run_with_driver(p, &cfg).unwrap();
                check_fidelity(p, &manual, &driver).unwrap();
                let off_by_one = RunCounts {
                    events: driver.events + 1,
                    ..driver
                };
                assert!(check_fidelity(p, &manual, &off_by_one).is_err());
            }
        }
    }

    #[test]
    fn a_wrong_expectation_is_a_failure_not_a_panic() {
        let mut p = suite(SMALL, 1).remove(0);
        p.expected = Value::Int(-1);
        let r = run_program(
            &p,
            &gc_config(false),
            &mut Tracer::new(false),
            0,
            &mut Vec::new(),
            &mut LayerTallies::default(),
        );
        assert!(r.unwrap_err().contains("expected"));
    }
}
