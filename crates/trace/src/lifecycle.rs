//! Offline vertex-lifecycle reconstruction from `lc_*` instants.
//!
//! The GC driver closes every completed cycle by emitting one instant
//! per lifecycle ledger field (`lc_garbage`, `lc_reclaimed`, `lc_exact`,
//! `lc_latency_sum`, `lc_float`, `lc_msgs_mt`, `lc_msgs_mr`, `lc_bound`)
//! plus up to four `lc_floater` instants whose value packs the offender
//! as `(vertex_index << 16) | min(age, 0xFFFF)`. This module folds a
//! parsed stream back into the per-cycle float/latency/message-cost
//! table — the same numbers the live `/status` lifecycle block shows,
//! recovered from the JSONL alone.
//!
//! Like [`blame`](mod@crate::blame), instants are keyed by cycle with the
//! last value winning, so re-runs appended to one stream report the
//! final ledger of each cycle.

use std::collections::BTreeMap;

use crate::{Kind, ParsedEvent};

/// One completed cycle's reconstructed lifecycle ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleRow {
    /// The GC cycle number.
    pub cycle: u32,
    /// Vertices censused dead-but-unreclaimed (pre-reclaim).
    pub garbage: u64,
    /// Vertices reclaimed this cycle.
    pub reclaimed: u64,
    /// Reclaims that carried an exact latency stamp.
    pub exact: u64,
    /// Sum of the exact latencies, in cycles.
    pub latency_sum: u64,
    /// Vertices still floating after this cycle's reclaim.
    pub float: u64,
    /// `M_T` messages charged to the cycle.
    pub msgs_mt: u64,
    /// `M_R` messages charged to the cycle.
    pub msgs_mr: u64,
    /// Section 4 message-bound units charged to the cycle.
    pub bound: u64,
}

impl LifecycleRow {
    /// Mean exact reclamation latency in cycles (0 when nothing exact).
    pub fn mean_latency(&self) -> f64 {
        if self.exact == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.exact as f64
        }
    }

    /// Messages per reclaimed vertex (0 when nothing reclaimed).
    pub fn msgs_per_reclaimed(&self) -> f64 {
        if self.reclaimed == 0 {
            0.0
        } else {
            (self.msgs_mt + self.msgs_mr) as f64 / self.reclaimed as f64
        }
    }

    /// Observed messages over the bound (0 when no bound was metered).
    pub fn efficiency(&self) -> f64 {
        if self.bound == 0 {
            0.0
        } else {
            (self.msgs_mt + self.msgs_mr) as f64 / self.bound as f64
        }
    }
}

/// The reconstructed lifecycle table plus run-wide aggregates.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReport {
    /// One row per cycle that closed a ledger, in cycle order.
    pub rows: Vec<LifecycleRow>,
    /// Worst floating vertices over the whole stream: `(vertex, age)`
    /// with the maximum age each vertex ever reached, oldest first.
    pub worst_floaters: Vec<(u32, u64)>,
}

impl LifecycleReport {
    /// Total vertices reclaimed across all rows.
    pub fn reclaimed(&self) -> u64 {
        self.rows.iter().map(|r| r.reclaimed).sum()
    }

    /// Total reclaims with an exact latency stamp.
    pub fn exact(&self) -> u64 {
        self.rows.iter().map(|r| r.exact).sum()
    }

    /// Run-wide mean exact latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        let exact = self.exact();
        if exact == 0 {
            0.0
        } else {
            self.rows.iter().map(|r| r.latency_sum).sum::<u64>() as f64 / exact as f64
        }
    }

    /// The float count after the last closed cycle.
    pub fn float_now(&self) -> u64 {
        self.rows.last().map(|r| r.float).unwrap_or(0)
    }
}

/// Unpacks an `lc_floater` value into `(vertex_index, age)`.
pub fn unpack_floater(value: u64) -> (u32, u64) {
    ((value >> 16) as u32, value & 0xFFFF)
}

/// Folds a parsed stream's `lc_*` instants into the per-cycle table.
pub fn lifecycle(events: &[ParsedEvent]) -> LifecycleReport {
    let mut rows: BTreeMap<u32, LifecycleRow> = BTreeMap::new();
    let mut floaters: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        if e.kind != Kind::Instant || !e.name.starts_with("lc_") {
            continue;
        }
        if e.name == "lc_floater" {
            let (v, age) = unpack_floater(e.value);
            let slot = floaters.entry(v).or_insert(0);
            *slot = (*slot).max(age);
            continue;
        }
        let row = rows.entry(e.cycle).or_default();
        match e.name.as_str() {
            "lc_garbage" => row.garbage = e.value,
            "lc_reclaimed" => row.reclaimed = e.value,
            "lc_exact" => row.exact = e.value,
            "lc_latency_sum" => row.latency_sum = e.value,
            "lc_float" => row.float = e.value,
            "lc_msgs_mt" => row.msgs_mt = e.value,
            "lc_msgs_mr" => row.msgs_mr = e.value,
            "lc_bound" => row.bound = e.value,
            _ => {}
        }
    }
    let mut worst: Vec<(u32, u64)> = floaters.into_iter().collect();
    worst.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    worst.truncate(8);
    LifecycleReport {
        rows: rows
            .into_iter()
            .map(|(cycle, mut r)| {
                r.cycle = cycle;
                r
            })
            .collect(),
        worst_floaters: worst,
    }
}

/// Renders the lifecycle table as a plain-text report.
pub fn lifecycle_text(r: &LifecycleReport) -> String {
    let mut out = String::new();
    if r.rows.is_empty() {
        out.push_str("no lc_* instants — was the run built with the `telemetry` feature?\n");
        return out;
    }
    let reclaimed = r.reclaimed();
    let exact = r.exact();
    let exact_pct = if reclaimed == 0 {
        100.0
    } else {
        exact as f64 / reclaimed as f64 * 100.0
    };
    out.push_str(&format!(
        "vertex lifecycle over {} cycles: {reclaimed} reclaimed ({exact} exact, {exact_pct:.1}%), \
         mean latency {:.2} cycles, float now {}\n",
        r.rows.len(),
        r.mean_latency(),
        r.float_now(),
    ));
    out.push_str("cycle  garbage  reclaim  exact  mean_lat  float  msgs_mt  msgs_mr  bound  msg/rec    eff\n");
    for row in &r.rows {
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>7}  {:>5}  {:>8.2}  {:>5}  {:>7}  {:>7}  {:>5}  {:>7.2}  {:>5.2}\n",
            row.cycle,
            row.garbage,
            row.reclaimed,
            row.exact,
            row.mean_latency(),
            row.float,
            row.msgs_mt,
            row.msgs_mr,
            row.bound,
            row.msgs_per_reclaimed(),
            row.efficiency(),
        ));
    }
    if !r.worst_floaters.is_empty() {
        out.push_str("worst floaters (vertex: max age in cycles):\n");
        for (v, age) in &r.worst_floaters {
            out.push_str(&format!("  v{v}: {age}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(cycle: u32, name: &str, value: u64) -> ParsedEvent {
        ParsedEvent {
            ts_us: 0,
            pe: 0,
            cycle,
            phase: "gc".to_string(),
            kind: Kind::Instant,
            name: name.to_string(),
            value,
            lamport: 0,
        }
    }

    fn one_cycle(cycle: u32, reclaimed: u64, float: u64) -> Vec<ParsedEvent> {
        vec![
            lc(cycle, "lc_garbage", reclaimed + float),
            lc(cycle, "lc_reclaimed", reclaimed),
            lc(cycle, "lc_exact", reclaimed),
            lc(cycle, "lc_latency_sum", reclaimed * 2),
            lc(cycle, "lc_float", float),
            lc(cycle, "lc_msgs_mt", 10),
            lc(cycle, "lc_msgs_mr", 30),
            lc(cycle, "lc_bound", 50),
        ]
    }

    #[test]
    fn folds_rows_per_cycle_and_totals() {
        let mut ev = one_cycle(1, 4, 2);
        ev.extend(one_cycle(2, 6, 0));
        ev.push(lc(1, "lc_floater", (7 << 16) | 3));
        ev.push(lc(2, "lc_floater", (7 << 16) | 5)); // same vertex, older
        ev.push(lc(2, "lc_floater", (9 << 16) | 1));
        let r = lifecycle(&ev);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].cycle, 1);
        assert_eq!(r.rows[0].garbage, 6);
        assert_eq!(r.rows[0].float, 2);
        assert!((r.rows[0].mean_latency() - 2.0).abs() < 1e-9);
        assert!((r.rows[0].msgs_per_reclaimed() - 10.0).abs() < 1e-9);
        assert!((r.rows[0].efficiency() - 0.8).abs() < 1e-9);
        assert_eq!(r.reclaimed(), 10);
        assert_eq!(r.float_now(), 0, "last cycle drained the float");
        assert_eq!(
            r.worst_floaters,
            vec![(7, 5), (9, 1)],
            "max age per vertex, oldest first"
        );
    }

    #[test]
    fn last_value_wins_within_a_cycle() {
        let mut ev = one_cycle(3, 4, 1);
        ev.push(lc(3, "lc_reclaimed", 9));
        let r = lifecycle(&ev);
        assert_eq!(r.rows[0].reclaimed, 9);
    }

    #[test]
    fn unpack_matches_the_driver_packing() {
        assert_eq!(unpack_floater((1234 << 16) | 77), (1234, 77));
        assert_eq!(unpack_floater(0xFFFF), (0, 0xFFFF), "age saturates");
    }

    #[test]
    fn empty_stream_renders_the_hint() {
        let text = lifecycle_text(&lifecycle(&[]));
        assert!(text.contains("no lc_* instants"), "{text}");
    }

    #[test]
    fn report_renders_the_table_and_offenders() {
        let mut ev = one_cycle(1, 4, 2);
        ev.push(lc(1, "lc_floater", (42 << 16) | 6));
        let text = lifecycle_text(&lifecycle(&ev));
        assert!(text.contains("4 reclaimed (4 exact, 100.0%)"), "{text}");
        assert!(text.contains("float now 2"), "{text}");
        assert!(text.contains("worst floaters"), "{text}");
        assert!(text.contains("v42: 6"), "{text}");
    }
}
