#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run it from the repository root. It builds through run.py and runs the
benchmark's unit tests, which feed each correctness gate a wrong pin or
mismatched bytes and check that it fires. Then it runs every workload of
BENCHMARK.json at tiny size, untraced and traced, and checks:

* the result line's keys, and that its metric names and units are
  exactly BENCHMARK.json's end-to-end (untraced) or per-layer (traced)
  metrics, each a finite number, with 0 failed operations;
* the machine stamp (nproc, commit, rustc, seed) on stdout;
* per-workload RSS isolation: the reported peak RSS is bounded by the
  workload process's own high-water mark, sampled from /proc while it
  runs, and by the kernel's peak for that process tree;
* that run.py fails, without a result, where only BENCHMARK.json and
  perfbench/ exist.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
OUT = os.path.join(HERE, "out")


def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def run_tiny(bench, worker, workload, trace, seed):
    """Runs one tiny workload; returns (stdout lines, last polled VmHWM, tree peak MiB)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--worker", worker, "--out", OUT, "--tiny"]
    env = dict(os.environ, RSIM_BENCH_COMMIT=run.commit(), RSIM_BENCH_RUSTC=run.rustc_version())
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.DEVNULL)
        polled = None
        while True:
            polled = vm_hwm_mb(proc.pid) or polled
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the peak of this process tree alone.
        tree_mb = usage.ru_maxrss / 1024
        assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}"
        out.seek(0)
        return out.read().decode().strip().splitlines(), polled, tree_mb


def check_result(lines, workload, trace, seed):
    stamp = json.loads(lines[0])["stamp"]
    for key in ("nproc", "commit", "rustc"):
        assert stamp[key] not in ("", "unknown", 0), f"stamp lacks {key}: {stamp}"
    assert (stamp["seed"], stamp["workload"]) == (seed, workload), stamp
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace {trace}: metric set differs: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert sorted(m) == ["unit", "value"] and math.isfinite(m["value"]), (name, m)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def check_bare_directory():
    """run.py must fail, printing no result, next to nothing but the benchmark."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "target"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", BENCH["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and out.stdout.strip() == "", (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare)


def main():
    os.makedirs(OUT, exist_ok=True)
    bench, worker = run.build()
    env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path",
                    os.path.join(HERE, "Cargo.toml")], cwd=ROOT, env=env, check=True)
    for seed, w in enumerate(BENCH["workloads"], start=3):
        workload = w["name"]
        for trace in (0, 1):
            lines, polled, tree_mb = run_tiny(bench, worker, workload, trace, seed)
            result = check_result(lines, workload, trace, seed)
            if trace == 0:
                # The reported peak is a per-call peak of this process (its
                # workers' too, for the service), so its own process-wide
                # high-water mark bounds it, and so does its process tree's.
                peak = result["metrics"]["peak_rss_mb"]["value"]
                assert peak <= tree_mb + 0.1, (workload, peak, tree_mb)
                if workload != "service-stdio":
                    assert polled is not None and polled / 2 <= peak <= polled + 0.1, (workload, peak, polled)
            print(f"ok  {workload} trace {trace}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics", flush=True)
    check_bare_directory()
    print("ok  run.py fails without the repository's sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
