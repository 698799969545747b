#!/usr/bin/env python3
"""Builds and runs the dgr benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) built against
the repository's crates. It is built twice, into $CARGO_TARGET_DIR (default
.bench_build): once without telemetry, which measures every end-to-end
number, and once with it, which the traced run (--trace 1) calls to measure
each layer's telemetry overhead. Run records and spans go to .bench_out/.
The last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILDS = {"off": [], "telemetry": ["--features", "telemetry"]}


def build(target_dir, name, features):
    """Builds one variant; returns the binary's path, or None on failure."""
    out = os.path.join(target_dir, name)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", out] + features
    # Build output goes to stderr so standard output ends with the result.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "release", "perfbench")


def commit():
    """The commit checked out, or 'unknown' outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    os.chdir(ROOT)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bins = {}
    for name, features in BUILDS.items():
        bins[name] = build(target_dir, name, features)
        if bins[name] is None:
            print(f"run.py: building the {name} variant failed", file=sys.stderr)
            return 1
    env = dict(os.environ, DGR_BENCH_COMMIT=commit())
    cmd = [bins["off"]] + sys.argv[1:] + ["--out", ".bench_out",
                                         "--peer", bins["telemetry"]]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
