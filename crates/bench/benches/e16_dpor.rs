//! E16: happens-before-guided partial-order reduction.
//!
//! Measures what DPOR buys on the phased-racing family (the
//! `PhasedRacing` consensus protocol at growing process counts): forks
//! pruned vs configurations visited, the wall-clock speedup of the
//! reduced exploration over the unreduced one on the *same* workload,
//! and — because the reduction must never change what an exploration
//! finds — asserts report equality (visited, terminals, truncation,
//! violation) between the DPOR-on and DPOR-off runs of every arm.
//! Depth-bounded limits with no config cap keep that comparison exact
//! (a mid-level cap cuts in visit order and is legitimately
//! order-dependent). Also re-runs the E14 hot-path workloads with the
//! reduction on, so states-per-second stays comparable against the
//! `BENCH_e14.json` baselines. The serializable blind-writer family,
//! where every pair of steps commutes, gates the reduction at ≥2× fewer
//! forks. Emits `BENCH_e16.json` (path override
//! via `BENCH_E16_OUT`) for the `just bench-smoke` target.

use rsim_protocols::racing::racing_system;
use rsim_protocols::serializable::serializable_system;
use rsim_smr::explore::{ExploreReport, Explorer, Limits};
use rsim_smr::process::ProcessId;
use rsim_smr::system::System;
use rsim_smr::value::Value;
use std::hint::black_box;
use std::time::Instant;

/// The E14 hot-path anchors (states/sec at the pre-optimisation seed
/// commit) — the reduction must not regress the raw exploration rate.
mod baseline {
    pub const E14_SERIAL_STATES_PER_SEC: f64 = 42_682.0;
    pub const E14_PARALLEL_STATES_PER_SEC: f64 = 23_457.0;
}

/// The phased-racing family: `procs` processes racing on a 2-component
/// snapshot, explored breadth-first to `depth` schedule steps. Depths
/// shrink as the family widens so every arm stays around 10^4..10^5
/// configurations.
const FAMILY: [(usize, usize); 4] = [(3, 12), (4, 10), (5, 9), (6, 8)];

fn ints(n: usize) -> Vec<Value> {
    (1..=n as i64).map(Value::Int).collect()
}

fn family_system(procs: usize) -> System {
    racing_system(2, &ints(procs))
}

/// Consensus agreement/validity over whatever outputs exist so far —
/// the realistic per-configuration checker cost for this family.
fn agreement_check(inputs: Vec<Value>) -> impl Fn(&System) -> Option<String> + Sync {
    move |sys: &System| {
        let mut decided: Option<Value> = None;
        for p in 0..sys.process_count() {
            if let Some(v) = sys.output(ProcessId(p)) {
                if !inputs.contains(&v) {
                    return Some(format!("validity: p{p} decided {v}"));
                }
                match &decided {
                    Some(d) if *d != v => {
                        return Some(format!("agreement: {d} vs {v}"));
                    }
                    _ => decided = Some(v),
                }
            }
        }
        None
    }
}

/// Mean ns/iter of `f` over `iters` runs (after one warm-up).
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn samples(default: usize) -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Report equality on every verdict observable between a DPOR-on and
/// a DPOR-off run of the same workload.
fn assert_equivalent(on: &ExploreReport, off: &ExploreReport, label: &str) {
    assert!(on.dpor && !off.dpor, "{label}: dpor flags misrecorded");
    assert_eq!(on.configs_visited, off.configs_visited, "{label}: configs_visited");
    assert_eq!(on.terminals, off.terminals, "{label}: terminals");
    assert_eq!(on.truncated, off.truncated, "{label}: truncated");
    assert_eq!(on.violation, off.violation, "{label}: violation");
}

fn main() {
    let mut json = Vec::new();
    println!("e16_dpor: happens-before-guided partial-order reduction");
    println!("{}", "-".repeat(72));

    // -- phased-racing family: reduction factor + on/off speedup --------
    let mut headline_factor = 0.0f64;
    let n = samples(3);
    for (procs, depth) in FAMILY {
        let sys = family_system(procs);
        let check = agreement_check(ints(procs));
        let limits = Limits { max_depth: depth, max_configs: 8_000_000 };
        let run = |dpor: bool| {
            Explorer::new(limits)
                .with_threads(4)
                .with_dpor(dpor)
                .explore_parallel(&sys, &check)
                .expect("explore")
        };
        let on = run(true);
        let off = run(false);
        assert_equivalent(&on, &off, &format!("racing procs={procs}"));
        let on_ns = time_ns(n, || {
            black_box(run(true));
        });
        let off_ns = time_ns(n, || {
            black_box(run(false));
        });
        let factor = on.reduction_factor();
        headline_factor = headline_factor.max(factor);
        println!(
            "racing/procs_{procs}_depth_{depth}   {:>9} visited  {:>9} pruned  {factor:>5.2}x forks  ({:.0} ms on, {:.0} ms off, {:.2}x wall)",
            on.configs_visited,
            on.pruned,
            on_ns / 1e6,
            off_ns / 1e6,
            off_ns / on_ns,
        );
        json.push(format!(
            "    {{\"procs\": {procs}, \"depth\": {depth}, \"visited\": {}, \"pruned\": {}, \"reduction_factor\": {factor:.4}, \"verdicts_identical\": true, \"on_ms\": {:.1}, \"off_ms\": {:.1}, \"wall_speedup\": {:.2}}}",
            on.configs_visited,
            on.pruned,
            on_ns / 1e6,
            off_ns / 1e6,
            off_ns / on_ns,
        ));
    }
    assert!(
        headline_factor >= 2.0,
        "phased-racing family peaked at {headline_factor:.2}x — the ≥2x reduction gate failed"
    );

    // -- serializable family: every pair commutes ----------------------
    // Blind max-writers: DPOR collapses the exploration to one
    // interleaving class, with verdicts identical to the unreduced run.
    let mut serializable_json = Vec::new();
    let mut serializable_fork_reduction = 0.0f64;
    for procs in 3..=6usize {
        let stamps: Vec<i64> = (1..=procs as i64).collect();
        let sys = serializable_system(&stamps);
        let limits = Limits { max_depth: 2 * procs + 2, max_configs: 8_000_000 };
        let run = |dpor: bool| {
            Explorer::new(limits)
                .with_threads(4)
                .with_dpor(dpor)
                .explore_parallel(&sys, &|_| None)
                .expect("explore")
        };
        let on = run(true);
        let off = run(false);
        assert_equivalent(&on, &off, &format!("serializable procs={procs}"));
        assert_eq!(on.terminals, 1, "serializable procs={procs}: one schedule class");
        let factor = on.reduction_factor();
        serializable_fork_reduction = serializable_fork_reduction.max(factor);
        println!(
            "serializable/procs_{procs}      {:>9} visited  {:>9} pruned  {factor:>5.2}x forks",
            on.configs_visited, on.pruned,
        );
        serializable_json.push(format!(
            "    {{\"procs\": {procs}, \"visited\": {}, \"pruned\": {}, \"reduction_factor\": {factor:.4}, \"verdicts_identical\": true}}",
            on.configs_visited, on.pruned,
        ));
    }
    assert!(
        serializable_fork_reduction >= 2.0,
        "serializable family peaked at {serializable_fork_reduction:.2}x — the ≥2x \
         fork-reduction gate failed"
    );

    // -- E14 hot-path workloads with the reduction on --------------------
    let initial = racing_system(2, &ints(3));
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    let explorer = Explorer::new(limits);
    let states = explorer.explore(&initial, &mut |_| None).expect("explore").configs_visited;
    let n = samples(10);
    let serial_ns = time_ns(n, || {
        black_box(explorer.explore(&initial, &mut |_| None).expect("explore"));
    });
    let serial_rate = states as f64 / (serial_ns / 1e9);
    println!(
        "explore/serial_dpor         {:>12.1} ms/run  ({states} states, {serial_rate:.0} states/s, {:.2}x vs e14 baseline)",
        serial_ns / 1e6,
        serial_rate / baseline::E14_SERIAL_STATES_PER_SEC,
    );

    let par = Explorer::new(limits).with_threads(4);
    let pstates =
        par.explore_parallel(&initial, &|_| None).expect("explore").configs_visited;
    let par_ns = time_ns(n, || {
        black_box(par.explore_parallel(&initial, &|_| None).expect("explore"));
    });
    let par_rate = pstates as f64 / (par_ns / 1e9);
    println!(
        "explore/parallel_4_dpor     {:>12.1} ms/run  ({pstates} states, {par_rate:.0} states/s, {:.2}x vs e14 baseline)",
        par_ns / 1e6,
        par_rate / baseline::E14_PARALLEL_STATES_PER_SEC,
    );

    // -- JSON summary ----------------------------------------------------
    let out = std::env::var("BENCH_E16_OUT").unwrap_or_else(|_| "BENCH_e16.json".into());
    let body = format!(
        "{{\n  \"experiment\": \"e16_dpor\",\n  \"baseline_commit\": \"61aecfe\",\n  \"family\": [\n{}\n  ],\n  \"serializable\": [\n{}\n  ],\n  \"headline_reduction_factor\": {headline_factor:.4},\n  \"serializable_reduction_factor\": {serializable_fork_reduction:.4},\n  \"serial_states\": {states},\n  \"serial_states_per_sec\": {serial_rate:.0},\n  \"parallel_states\": {pstates},\n  \"parallel_states_per_sec\": {par_rate:.0},\n  \"e14_serial_ratio\": {:.2},\n  \"e14_parallel_ratio\": {:.2}\n}}\n",
        json.join(",\n"),
        serializable_json.join(",\n"),
        serial_rate / baseline::E14_SERIAL_STATES_PER_SEC,
        par_rate / baseline::E14_PARALLEL_STATES_PER_SEC,
    );
    std::fs::write(&out, body).expect("write BENCH_e16.json");
    println!("{}", "-".repeat(72));
    println!("wrote {out}");
}
