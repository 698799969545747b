//! Repo-specific source lints, run in CI alongside the model checker.
//!
//! Five rules, all scoped to `crates/*/src` and the root `src/`:
//!
//! 1. **mark-word ordering** — a line touching the packed `(epoch, color)`
//!    mark word (`r_words`, the lock-free probe target the SoA arrays
//!    generalized) must not use `Ordering::Relaxed`: the release/acquire
//!    pairing on the mark word is what publishes a vertex's marked state
//!    to other workers.
//! 2. **markword-array ordering** — same rule for the dense SoA arrays
//!    (`mark_words` / `par_words` in `dgr-graph`'s `markword` module):
//!    every access must use a sanctioned ordering (Acquire, Release,
//!    AcqRel, or SeqCst), never Relaxed. A Relaxed probe could observe a
//!    claimed color without the claim's preceding writes; a Relaxed
//!    drain could read a stale parent and misroute the return wave.
//! 3. **mark-state confinement** — direct mark-slot mutation
//!    (`mark_mut` / `slot_mut` / `mark_at_mut`) is allowed only in the
//!    graph crate itself, the handler/cooperation/compressed/threaded
//!    modules of `dgr-core` (the sequential handler implementations and
//!    the lock-free threaded pass), and the fault injector of this crate
//!    (whose job is to play a buggy implementation). Test modules are
//!    exempt.
//! 4. **deque confinement** — constructing a `StealDeque` is allowed only
//!    inside `crates/sim/src`: the work-stealing runtime owns the deques
//!    (one per PE, owner-push/owner-pop, thieves steal through the
//!    runtime). Other crates spawn through `SpawnScope`, so no code path
//!    outside the runtime can push a task that termination detection
//!    does not know about.
//! 5. **no `unsafe`** — the workspace forbids `unsafe` outside `vendor/`;
//!    this catches it even where a crate forgot its `forbid` attribute.
//! 6. **facade bypass** — the modules model-checked through the
//!    `dgr-atomic` facade (`deque`, `mailbox`, `quiesce`, `markword`)
//!    must not touch `std::sync::atomic` directly: a raw atomic there is
//!    invisible to `dgr-check -- atomics`, so its orderings are unverified
//!    by construction. Production code still gets std atomics — via the
//!    `StdAtomics` monomorphization, which the zero-cost test pins.
//! 7. **ordering comment** — in those modules (plus the runtime wiring in
//!    `sim/src/steal.rs`), every non-`Relaxed` ordering must carry an
//!    `// ordering:` comment on the same or one of the two preceding
//!    lines, stating what the edge publishes or acquires. The SeqCst
//!    audit that introduced the facade justified every survivor; this
//!    rule keeps future edits honest. Test modules are exempt.
//!
//! The needles below are spelled with `concat!` so the lint does not flag
//! its own source.

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub text: String,
}

const MARK_WORD: &str = concat!("r_w", "ords");
const MARKWORD_ARRAYS: [&str; 2] = [concat!("mark_w", "ords"), concat!("par_w", "ords")];
const RELAXED: &str = concat!("Rel", "axed");
const DEQUE_NEW: &str = concat!("StealDeque::", "new(");
const MUT_NEEDLES: [&str; 3] = [
    concat!("mark_m", "ut("),
    concat!("slot_m", "ut("),
    concat!("mark_at_m", "ut("),
];
const UNSAFE_NEEDLES: [&str; 4] = [
    concat!("uns", "afe {"),
    concat!("uns", "afe fn"),
    concat!("uns", "afe impl"),
    concat!("uns", "afe trait"),
];
const STD_ATOMIC: &str = concat!("std::sync::", "atomic");
const ORDERING_STRONG: [&str; 4] = [
    concat!("Ordering::", "Acquire"),
    concat!("Ordering::", "Release"),
    concat!("Ordering::", "AcqRel"),
    concat!("Ordering::", "SeqCst"),
];
const ORDERING_COMMENT: &str = concat!("// ord", "ering:");

/// The substrate modules that are generic over the atomics facade and
/// model-checked by `atomics` — raw std atomics are banned here.
const SHIMMED: [&str; 4] = [
    "crates/sim/src/deque.rs",
    "crates/sim/src/mailbox.rs",
    "crates/sim/src/quiesce.rs",
    "crates/graph/src/markword.rs",
];

/// Where every surviving non-Relaxed ordering must be annotated.
fn ordering_commented_scope(rel: &str) -> bool {
    SHIMMED.contains(&rel) || rel == "crates/sim/src/steal.rs"
}

/// Files (repo-relative, `/`-separated) allowed to mutate mark slots
/// directly. `crates/graph/src/` is prefix-matched: the graph crate owns
/// the slots.
const MUT_ALLOWLIST: [&str; 5] = [
    "crates/core/src/handler.rs",
    "crates/core/src/coop.rs",
    "crates/core/src/compressed.rs",
    "crates/core/src/threaded.rs",
    "crates/check/src/faults.rs",
];

fn allowed_mut(rel: &str) -> bool {
    rel.starts_with("crates/graph/src/") || MUT_ALLOWLIST.contains(&rel)
}

fn allowed_deque(rel: &str) -> bool {
    // The runtime owns the deques; the weak-memory checker's scenario
    // harness legitimately constructs them to model-check that ownership.
    rel.starts_with("crates/sim/src/") || rel == "crates/check/src/atomics/harness.rs"
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The `src` directories the rules apply to, under `root`.
fn src_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path().join("src");
            if p.is_dir() {
                dirs.push(p);
            }
        }
    }
    dirs
}

/// Runs all rules over the repository rooted at `root`; findings are
/// sorted by file and line.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for d in src_dirs(root) {
        collect_rs(&d, &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let mut in_tests = false;
        let lines: Vec<&str> = text.lines().collect();
        for (i, &l) in lines.iter().enumerate() {
            let t = l.trim();
            // Everything from the test module on is exempt from the
            // confinement rule (tests legitimately hand-construct states).
            if t == "#[cfg(test)]" || t.starts_with("mod tests") {
                in_tests = true;
            }
            if t.starts_with("//") {
                continue;
            }
            if l.contains(MARK_WORD) && l.contains(RELAXED) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "mark-word-relaxed",
                    text: t.to_string(),
                });
            }
            if MARKWORD_ARRAYS.iter().any(|n| l.contains(n)) && l.contains(RELAXED) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "markword-array-relaxed",
                    text: t.to_string(),
                });
            }
            if !in_tests && !allowed_deque(&rel) && l.contains(DEQUE_NEW) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "deque-confinement",
                    text: t.to_string(),
                });
            }
            if !in_tests && !allowed_mut(&rel) && MUT_NEEDLES.iter().any(|n| l.contains(n)) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "mark-state-confinement",
                    text: t.to_string(),
                });
            }
            if UNSAFE_NEEDLES.iter().any(|n| l.contains(n)) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "no-unsafe",
                    text: t.to_string(),
                });
            }
            if !in_tests && SHIMMED.contains(&rel.as_str()) && l.contains(STD_ATOMIC) {
                findings.push(Finding {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "facade-bypass",
                    text: t.to_string(),
                });
            }
            if !in_tests
                && ordering_commented_scope(&rel)
                && ORDERING_STRONG.iter().any(|n| l.contains(n))
            {
                // The annotation may sit on the same line or anywhere in
                // the contiguous run of non-blank lines above (rustfmt
                // splits builder chains, and the justification comments
                // span several lines); a blank line ends the statement's
                // neighborhood. Capped at 12 lines so a far-away comment
                // can't blanket a whole function.
                let annotated = (i.saturating_sub(12)..=i)
                    .rev()
                    .take_while(|&j| j == i || !lines[j].trim().is_empty())
                    .any(|j| lines[j].contains(ORDERING_COMMENT));
                if !annotated {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: i + 1,
                        rule: "ordering-comment",
                        text: t.to_string(),
                    });
                }
            }
        }
    }
    findings
}

/// The repository root, resolved from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the repo root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_is_lint_clean() {
        let findings = run(&repo_root());
        assert!(findings.is_empty(), "repo lint findings: {:#?}", findings);
    }

    #[test]
    fn rules_fire_on_bad_code() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture");
        let src = dir.join("crates").join("evil").join("src");
        fs::create_dir_all(&src).unwrap();
        let bad = format!(
            "fn f() {{\n    x.{}y, Ordering::{});\n    g.{}v, s).mt_cnt += 1;\n    \
             self.{}[i].load(Ordering::{});\n    let q = {}64);\n}}\n",
            MARK_WORD, RELAXED, MUT_NEEDLES[0], MARKWORD_ARRAYS[1], RELAXED, DEQUE_NEW
        );
        fs::write(src.join("evil.rs"), bad).unwrap();
        let findings = run(&dir);
        assert!(findings.iter().any(|f| f.rule == "mark-word-relaxed"));
        assert!(findings.iter().any(|f| f.rule == "mark-state-confinement"));
        assert!(findings.iter().any(|f| f.rule == "markword-array-relaxed"));
        assert!(findings.iter().any(|f| f.rule == "deque-confinement"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomics_rules_fire_in_shimmed_modules() {
        let dir = std::env::temp_dir().join("dgr-check-lint-fixture-atomics");
        let src = dir.join("crates").join("sim").join("src");
        fs::create_dir_all(&src).unwrap();
        // A raw std atomic and an unannotated strong ordering, placed in
        // a shimmed module path; an annotated one must NOT fire.
        let bad = format!(
            "use {}::AtomicU64;\nfn f(x: &AtomicU64) {{\n    x.load({});\n    \
             {} top publishes stolen cells\n    x.store(1, {});\n}}\n",
            STD_ATOMIC, ORDERING_STRONG[3], ORDERING_COMMENT, ORDERING_STRONG[1]
        );
        fs::write(src.join("deque.rs"), bad).unwrap();
        let findings = run(&dir);
        assert!(findings.iter().any(|f| f.rule == "facade-bypass"));
        let oc: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "ordering-comment")
            .collect();
        assert_eq!(oc.len(), 1, "only the unannotated ordering fires: {oc:#?}");
        assert_eq!(oc[0].line, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
