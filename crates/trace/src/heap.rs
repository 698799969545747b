//! Offline heap-pressure reconstruction from `hp_*` instants.
//!
//! The GC driver closes every cycle's heap window by emitting one
//! instant per field (`hp_cause`, `hp_bound`, `hp_live`, `hp_peak`,
//! `hp_alloc_bytes`, `hp_freed_bytes`, `hp_allocs`, `hp_frees`,
//! `hp_exact_bytes`). This module folds a parsed stream back into the
//! per-cycle live/peak/trigger-cause table — the same numbers the live
//! `/status` heap block shows, recovered from the JSONL alone.
//!
//! Like [`lifecycle`](mod@crate::lifecycle), instants are keyed by cycle
//! with the last value winning, so re-runs appended to one stream
//! report the final window of each cycle.

use std::collections::BTreeMap;

use crate::{Kind, ParsedEvent};

/// One cycle's reconstructed heap window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapRow {
    /// The GC cycle number.
    pub cycle: u32,
    /// What started the cycle (the `TriggerCause` code: 0 period,
    /// 1 heap bytes).
    pub cause: u64,
    /// The byte bound in force (0 when the trigger watches none).
    pub bound: u64,
    /// Live bytes when the window closed (post-reclaim).
    pub live: u64,
    /// Peak live bytes inside the window.
    pub peak: u64,
    /// Bytes allocated during the window.
    pub alloc_bytes: u64,
    /// Bytes freed during the window.
    pub freed_bytes: u64,
    /// Allocations during the window.
    pub allocs: u64,
    /// Frees during the window.
    pub frees: u64,
    /// Freed bytes that carried an exact allocation stamp.
    pub exact_bytes: u64,
}

impl HeapRow {
    /// The trigger cause decoded (`"period"`, `"heap"`, or `"?"` for a
    /// code this analyzer doesn't know).
    pub fn cause_name(&self) -> &'static str {
        match self.cause {
            0 => "period",
            1 => "heap",
            _ => "?",
        }
    }

    /// Fraction of freed bytes with an exact stamp (1 when none freed).
    pub fn exact_fraction(&self) -> f64 {
        if self.freed_bytes == 0 {
            1.0
        } else {
            self.exact_bytes as f64 / self.freed_bytes as f64
        }
    }

    /// Peak live bytes over the bound (0 when no bound was in force):
    /// above 1, the cycle started too late to hold the waterline.
    pub fn pressure(&self) -> f64 {
        if self.bound == 0 {
            0.0
        } else {
            self.peak as f64 / self.bound as f64
        }
    }
}

/// The reconstructed heap table plus run-wide aggregates.
#[derive(Debug, Clone, Default)]
pub struct HeapReport {
    /// One row per closed cycle window, in cycle order.
    pub rows: Vec<HeapRow>,
}

impl HeapReport {
    /// Largest peak over all windows.
    pub fn peak(&self) -> u64 {
        self.rows.iter().map(|r| r.peak).max().unwrap_or(0)
    }

    /// Total bytes allocated across all windows.
    pub fn alloc_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.alloc_bytes).sum()
    }

    /// Total bytes freed across all windows.
    pub fn freed_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.freed_bytes).sum()
    }

    /// Run-wide fraction of freed bytes with an exact stamp.
    pub fn exact_fraction(&self) -> f64 {
        let freed = self.freed_bytes();
        if freed == 0 {
            1.0
        } else {
            self.rows.iter().map(|r| r.exact_bytes).sum::<u64>() as f64 / freed as f64
        }
    }

    /// Cycles started by each cause, `(period, heap)`.
    pub fn cause_tally(&self) -> (u64, u64) {
        let heap = self.rows.iter().filter(|r| r.cause == 1).count() as u64;
        (self.rows.len() as u64 - heap, heap)
    }
}

/// Folds a parsed stream's `hp_*` instants into the per-cycle table.
pub fn heap(events: &[ParsedEvent]) -> HeapReport {
    let mut rows: BTreeMap<u32, HeapRow> = BTreeMap::new();
    for e in events {
        if e.kind != Kind::Instant || !e.name.starts_with("hp_") {
            continue;
        }
        let row = rows.entry(e.cycle).or_default();
        match e.name.as_str() {
            "hp_cause" => row.cause = e.value,
            "hp_bound" => row.bound = e.value,
            "hp_live" => row.live = e.value,
            "hp_peak" => row.peak = e.value,
            "hp_alloc_bytes" => row.alloc_bytes = e.value,
            "hp_freed_bytes" => row.freed_bytes = e.value,
            "hp_allocs" => row.allocs = e.value,
            "hp_frees" => row.frees = e.value,
            "hp_exact_bytes" => row.exact_bytes = e.value,
            _ => {}
        }
    }
    HeapReport {
        rows: rows
            .into_iter()
            .map(|(cycle, mut r)| {
                r.cycle = cycle;
                r
            })
            .collect(),
    }
}

/// Renders the heap table as a plain-text report.
pub fn heap_text(r: &HeapReport) -> String {
    let mut out = String::new();
    if r.rows.is_empty() {
        out.push_str("no hp_* instants — was the run built with the `telemetry` feature?\n");
        return out;
    }
    let (period, pressure) = r.cause_tally();
    out.push_str(&format!(
        "heap pressure over {} cycles ({period} period-triggered, {pressure} heap-triggered): \
         peak {} bytes, {} allocated, {} freed ({:.1}% exact)\n",
        r.rows.len(),
        r.peak(),
        r.alloc_bytes(),
        r.freed_bytes(),
        r.exact_fraction() * 100.0,
    ));
    out.push_str(
        "cycle  cause     bound     live     peak    alloc_b   freed_b  allocs  frees  exact%  press\n",
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{:>5}  {:<6} {:>8} {:>8} {:>8} {:>10} {:>9} {:>7} {:>6}  {:>5.1}  {:>5.2}\n",
            row.cycle,
            row.cause_name(),
            row.bound,
            row.live,
            row.peak,
            row.alloc_bytes,
            row.freed_bytes,
            row.allocs,
            row.frees,
            row.exact_fraction() * 100.0,
            row.pressure(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp(cycle: u32, name: &str, value: u64) -> ParsedEvent {
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

    fn one_cycle(cycle: u32, cause: u64, peak: u64) -> Vec<ParsedEvent> {
        vec![
            hp(cycle, "hp_cause", cause),
            hp(cycle, "hp_bound", 1000),
            hp(cycle, "hp_live", peak / 2),
            hp(cycle, "hp_peak", peak),
            hp(cycle, "hp_alloc_bytes", 400),
            hp(cycle, "hp_freed_bytes", 200),
            hp(cycle, "hp_allocs", 10),
            hp(cycle, "hp_frees", 5),
            hp(cycle, "hp_exact_bytes", 200),
        ]
    }

    #[test]
    fn folds_rows_per_cycle_and_totals() {
        let mut ev = one_cycle(1, 0, 800);
        ev.extend(one_cycle(2, 1, 1200));
        let r = heap(&ev);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].cycle, 1);
        assert_eq!(r.rows[0].cause_name(), "period");
        assert_eq!(r.rows[1].cause_name(), "heap");
        assert_eq!(r.peak(), 1200);
        assert_eq!(r.alloc_bytes(), 800);
        assert_eq!(r.freed_bytes(), 400);
        assert!((r.exact_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(r.cause_tally(), (1, 1));
        assert!((r.rows[0].pressure() - 0.8).abs() < 1e-9);
        assert!((r.rows[1].pressure() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn last_value_wins_within_a_cycle() {
        let mut ev = one_cycle(3, 0, 800);
        ev.push(hp(3, "hp_peak", 900));
        let r = heap(&ev);
        assert_eq!(r.rows[0].peak, 900);
    }

    #[test]
    fn empty_stream_renders_the_hint() {
        let text = heap_text(&heap(&[]));
        assert!(text.contains("no hp_* instants"), "{text}");
    }

    #[test]
    fn report_renders_the_table() {
        let mut ev = one_cycle(1, 1, 950);
        ev.extend(one_cycle(2, 0, 700));
        let text = heap_text(&heap(&ev));
        assert!(
            text.contains("1 period-triggered, 1 heap-triggered"),
            "{text}"
        );
        assert!(text.contains("peak 950 bytes"), "{text}");
        assert!(text.contains("heap  "), "{text}");
        assert!(text.contains("period"), "{text}");
    }
}
