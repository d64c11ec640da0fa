# Developer task runner. `just ci` mirrors .github/workflows/ci.yml.

# Build, test, lint — the full gate.
ci: build test clippy

build:
    cargo build --release

test:
    cargo test -q --workspace

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Quick seeded campaign: 5 schedulers x 200 seeds over phased racing.
smoke-campaign:
    cargo run --release -- campaign --procs 3 --runs 200 \
        --sched rr,random,quantum:2,obstruction:2,crash:1 --json

# Fault-injection certificate: the exhaustive single-crash sweep plus
# the §3 non-blocking certification (mirrors CI's smoke-faults job).
smoke-faults:
    cargo run --release -- campaign --faults sweep --procs 3 --runs 4 \
        --budget 4000 --sched rr --json
    cargo run --release -- aug --f 3 --m 2 --certify

# Shrink a known violation into a replay bundle, replay it at several
# thread counts, and prove a tampered bundle is rejected (mirrors CI's
# smoke-replay job).
smoke-replay:
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched random --runs 100 --bundle cex.bundle.json
    cargo run --release -- replay cex.bundle.json
    cargo run --release -- replay cex.bundle.json --threads 8
    sed 's/"fingerprint": [0-9]*/"fingerprint": 1/' cex.bundle.json \
        > tampered.bundle.json
    ! cargo run --release -- replay tampered.bundle.json

# Chaos determinism gate for the multi-process campaign service: a
# service run with a worker SIGKILLed mid-unit and a torn journal
# write injected must merge to a report byte-identical to the
# single-process no-fault reference, every corpus bundle must replay,
# and a second run over the same state dir must converge from the
# journal alone (mirrors CI's smoke-service job).
smoke-service:
    rm -rf svc-state
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --threads 1 --json-out svc-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --workers 2 --unit-runs 8 \
        --state svc-state --chaos kill@unit:1,torn@result:3 \
        --json-out svc-merged.json
    cmp svc-ref.json svc-merged.json
    for b in svc-state/corpus/*.bundle.json; do \
        cargo run --release -- replay "$b" || exit 1; done
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --state svc-state --json-out svc-rerun.json
    cmp svc-ref.json svc-rerun.json

# TCP transport determinism gate: workers dial the coordinator over a
# real socket while the chaos proxy drops, delays, duplicates,
# corrupts and partitions frames and one worker is SIGKILLed — the
# merged report must stay byte-identical to the single-process
# reference, and a --faults matrix must shard across TCP workers with
# the same guarantee (mirrors CI's smoke-service-tcp job).
smoke-service-tcp:
    rm -rf svc-tcp-state svc-tcp-faults-state
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --threads 1 --json-out svc-tcp-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --listen 127.0.0.1:0 --workers 2 \
        --unit-runs 8 --lease-timeout 2 --max-lease-attempts 10 \
        --state svc-tcp-state --summary \
        --chaos kill@unit:2,drop@4,delay@6,dup@9,corrupt@11,partition@14-16 \
        --json-out svc-tcp-merged.json
    cmp svc-tcp-ref.json svc-tcp-merged.json
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr --runs 4 --faults sweep:2 --threads 1 \
        --json-out svc-tcp-faults-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr --runs 4 --faults sweep:2 --listen 127.0.0.1:0 \
        --workers 2 --unit-runs 2 --state svc-tcp-faults-state --summary \
        --json-out svc-tcp-faults-merged.json
    cmp svc-tcp-faults-ref.json svc-tcp-faults-merged.json

# Pre-flight analyzer smoke: every shipped protocol must analyze clean
# (deny-level), the ill-formed fixture must be rejected with its stable
# lint codes, the static-interference pass must warn (and gate under
# --deny) on the serializable fixture, and the analyzer module must be
# clippy-clean (mirrors CI's analyze-smoke job).
analyze-smoke:
    cargo run --release -- analyze --protocol racing
    cargo run --release -- analyze --protocol contrarian
    cargo run --release -- analyze --protocol ladder
    cargo run --release -- analyze --protocol serializable --matrix
    ! cargo run --release -- analyze --protocol serializable --deny RS-W010
    cargo run --release -- analyze --explain RS-W008
    ! cargo run --release -- analyze --protocol illformed
    ! cargo run --release -- campaign --protocol illformed --runs 1
    cargo clippy -p rsim-smr --all-targets -- -D warnings

# Miri smoke over the pointer-heavy suites (trace arena, fingerprint
# cache, journaled work queue, copy-on-write configurations and
# shared tuple values). Needs a nightly toolchain with the
# miri component (`rustup +nightly component add miri`); isolation is
# off because the queue tests touch the real filesystem. Non-blocking
# in CI — run locally before touching unsafe or aliasing-sensitive
# code.
miri-smoke:
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib trace::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib fingerprint::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib service::queue::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib system::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib value::

# Generated-protocol mutation-kill fuzzing: every base must pass
# pre-flight, every predicted-fatal mutant must be killed + shrunk +
# bundled into fuzz-corpus/, analyzer-reject mutants must die at
# pre-flight, and one stored bundle must replay bit-for-bit (mirrors
# CI's fuzz-smoke job). Exit is nonzero if any prediction fails.
fuzz-smoke:
    cargo run --release -- fuzz --seeds 0..16 --mutants \
        --corpus fuzz-corpus --json-out FUZZ_smoke.json
    cargo run --release -- replay fuzz-corpus/gen-0-shrink-m.bundle.json --threads 4

# Per-experiment Criterion benches (CRITERION_SAMPLES trims sample count).
bench:
    cargo bench -p rsim-bench

# Quick hot-path benchmark: one sample per arm, machine-readable
# summary (with baked-in pre-optimisation baselines and speedups) to
# BENCH_e14.json at the repo root (mirrors CI's bench-smoke job).
bench-smoke: bench-e16
    CRITERION_SAMPLES=1 BENCH_E14_OUT={{justfile_directory()}}/BENCH_e14.json \
        cargo bench -p rsim-bench --bench e14_hotpath

# Quick DPOR benchmark: reduction factor + on/off wall-clock over the
# phased-racing family, with report-equality asserts baked in. Writes
# BENCH_e16.json at the repo root (mirrors CI's bench-smoke job).
bench-e16:
    CRITERION_SAMPLES=1 BENCH_E16_OUT={{justfile_directory()}}/BENCH_e16.json \
        cargo bench -p rsim-bench --bench e16_dpor

# Regenerate the numbers in EXPERIMENTS.md.
report:
    cargo run --release --example experiments_report
