//! Shared helpers for the evaluation harness.
//!
//! Each experiment in `EXPERIMENTS.md` is regenerated by one binary in
//! `src/bin/` (tables printed to stdout). This library holds the table
//! formatter and small conveniences they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Prints a fixed-width table with a title, a header row, and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Runs `f`, returning its result and the elapsed wall time in
/// milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// A scalar in a [`write_json_records`] record.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An integer (vertex counts, PEs, message counts).
    Int(u64),
    /// A float (wall times).
    Float(f64),
    /// A string (benchmark names).
    Str(String),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Int(n) => n.to_string(),
            JsonValue::Float(x) => {
                if x.is_finite() {
                    format!("{x:.1}")
                } else {
                    "null".to_string()
                }
            }
            JsonValue::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
        }
    }
}

/// One benchmark record: ordered `key: value` pairs.
pub type JsonRecord = Vec<(&'static str, JsonValue)>;

/// Writes records as a JSON array of objects — the `BENCH_*.json`
/// machine-readable perf trajectory consumed by later PRs.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_json_records(path: &str, records: &[JsonRecord]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, rec) in records.iter().enumerate() {
        let fields: Vec<String> = rec
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.render()))
            .collect();
        out.push_str("  {");
        out.push_str(&fields.join(", "));
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// The shared tail of every report binary: writes `records` to `path`
/// (via [`write_json_records`]) and prints a one-line confirmation. Does
/// nothing when `enabled` is false (the `--json` flag was not passed).
///
/// # Panics
///
/// Panics if the file cannot be written — a report run that silently
/// drops its machine-readable output is worse than a crash.
pub fn emit_json(enabled: bool, path: &str, records: &[JsonRecord]) {
    if !enabled {
        return;
    }
    write_json_records(path, records).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path} ({} records)", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, ms) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()]],
        );
    }

    #[test]
    fn json_records_render_and_escape() {
        let dir = std::env::temp_dir().join("dgr_bench_json_test.json");
        let path = dir.to_str().unwrap();
        write_json_records(
            path,
            &[
                vec![
                    ("benchmark", JsonValue::Str("a \"quoted\"\n".into())),
                    ("vertices", JsonValue::Int(65535)),
                    ("wall_us", JsonValue::Float(12.349)),
                ],
                vec![("pes", JsonValue::Int(4))],
            ],
        )
        .unwrap();
        let got = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(
            got,
            "[\n  {\"benchmark\": \"a \\\"quoted\\\"\\u000a\", \"vertices\": 65535, \
             \"wall_us\": 12.3},\n  {\"pes\": 4}\n]\n"
        );
    }
}
