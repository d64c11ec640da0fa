#!/usr/bin/env python3
"""Builds the benchmark and the release CLI from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr. The benchmark
binary then runs the workload in a process of its own and prints, as the
last line of stdout, `{"correct", "attempted", "failed", "metrics"}`.
Traced runs write their spans to `perfbench/out/`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sources whose digest stands in for the commit outside a git checkout.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims")


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the CLI (the service's worker binary) and the benchmark.

    Returns (benchmark binary, worker binary). Exits non-zero when the
    repository's sources are missing or do not build.
    """
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates", "smr"))):
        sys.exit("perfbench: no repository sources (Cargo.toml, crates/smr) next to perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for extra in (["--bin", "revisionist-simulations"], ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "rsim-perfbench"), os.path.join(release, "revisionist-simulations")


def commit():
    """The git commit, or a digest of the sources where there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files
        )
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def rustc_version():
    out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    bench, worker = build()
    env = dict(os.environ, RSIM_BENCH_COMMIT=commit(), RSIM_BENCH_RUSTC=rustc_version())
    cmd = [bench, *sys.argv[1:], "--worker", worker, "--out", os.path.join(HERE, "out")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
