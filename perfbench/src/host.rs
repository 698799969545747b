//! The host fingerprint every record carries, so records from different
//! hosts are compared by their ratios to the floors, not by raw times.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::SplitMix64;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 1 << 22;

/// What the host and build were.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub parallelism: usize,
    /// ns per iteration of a fixed integer loop (median of 5).
    pub calibration_ns: f64,
    /// Whether the recording telemetry is compiled in.
    pub telemetry: bool,
    /// The commit measured, from `DGR_BENCH_COMMIT` (`unknown` outside a
    /// git checkout).
    pub commit: String,
}

/// Measures the host.
pub fn fingerprint() -> Host {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = SplitMix64(black_box(1));
            let mut acc = 0u64;
            for _ in 0..CALIBRATION_ITERS {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
        })
        .collect();
    Host {
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calibration_ns: median(&mut samples),
        telemetry: cfg!(feature = "telemetry"),
        commit: std::env::var("DGR_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    }
}

impl Host {
    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"calibration_ns\":{},\"telemetry\":{},\"commit\":{}}}",
            self.parallelism,
            self.calibration_ns,
            self.telemetry,
            crate::json_str(&self.commit)
        )
    }
}
