//! Per-operation timings of the layers below the entry points, taken
//! from outside around calls to each layer's public functions.

use crate::measure::{quantile, Tracer};
use crate::workloads::{check, system, BUDGET};
use rsim_smr::analyze::{self, InterferenceMatrix, LintConfig};
use rsim_smr::campaign::{replay_run, CampaignConfig};
use rsim_smr::fingerprint::FingerprintCache;
use rsim_smr::hb;
use rsim_smr::process::ProcessId;
use rsim_smr::system::System;
use std::hint::black_box;

/// Identical calls per timed batch: one call is too short for the clock.
const BATCH: usize = 16;
const WALKS: usize = 40;
const ANALYZE_REPS: usize = 20;
const SAMPLED_RUNS: usize = 1_000;

/// SplitMix64: the walks' seeded choice of the next process.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded walks of `initial` to `depth`, timing at every configuration
/// a batch of each explore-stack operation: clone of the frozen system
/// (`system.fork`), `System::step` on those clones (`system.step`),
/// `config_fingerprint` (`fingerprint.config`), visited-map insert
/// (`fingerprint.insert`) and `hb::independent` over the enabled pairs
/// (`hb.independent`).
pub fn walk_ops(initial: &System, depth: usize, seed: u64, threads: usize, tracer: &mut Tracer) {
    let mut rng = Rng::new(seed);
    let cache = FingerprintCache::for_threads(threads);
    let mut salt = 0u64;
    for _ in 0..WALKS {
        tracer.span("walk", 0, |tracer| {
            let mut sys = initial.clone();
            for _ in 0..depth {
                let enabled: Vec<ProcessId> = (0..sys.process_count())
                    .map(ProcessId)
                    .filter(|&p| !sys.is_terminated(p))
                    .collect();
                if enabled.is_empty() {
                    break;
                }
                sys.freeze_trace();
                let mut forks = Vec::with_capacity(BATCH);
                tracer.span("system.fork", BATCH as u64, |_| {
                    for _ in 0..BATCH {
                        forks.push(black_box(&sys).clone());
                    }
                });
                let pid = enabled[rng.below(enabled.len())];
                tracer.span("system.step", BATCH as u64, |_| {
                    for fork in &mut forks {
                        black_box(fork.step(pid)).expect("enabled process steps");
                    }
                });
                tracer.span("fingerprint.config", BATCH as u64, |_| {
                    for _ in 0..BATCH {
                        black_box(black_box(&sys).config_fingerprint());
                    }
                });
                let fp = sys.config_fingerprint();
                tracer.span("fingerprint.insert", BATCH as u64, |_| {
                    for _ in 0..BATCH {
                        salt = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        black_box(cache.insert_fingerprint(fp ^ salt));
                    }
                });
                let ops: Vec<_> = enabled
                    .iter()
                    .filter_map(|&p| sys.poised(p).operation().cloned())
                    .collect();
                let pairs: Vec<(usize, usize)> = (0..ops.len())
                    .flat_map(|a| (a + 1..ops.len()).map(move |b| (a, b)))
                    .collect();
                if !pairs.is_empty() {
                    tracer.span("hb.independent", (pairs.len() * BATCH) as u64, |_| {
                        for _ in 0..BATCH {
                            for &(a, b) in &pairs {
                                black_box(hb::independent(black_box(&ops[a]), &ops[b]));
                            }
                        }
                    });
                }
                sys = forks.swap_remove(0);
            }
        });
    }
}

/// Times the pre-flight (`analyze.preflight`) and the static
/// interference matrix every campaign run builds (`analyze.interfere`).
pub fn analyze_ops(sys: &System, tracer: &mut Tracer) {
    for _ in 0..ANALYZE_REPS {
        tracer.span("analyze.preflight", 1, |_| {
            black_box(analyze::preflight(black_box(sys), &LintConfig::default()))
                .expect("racing passes the pre-flight");
        });
        tracer.span("analyze.interfere", 1, |_| {
            black_box(InterferenceMatrix::build(
                black_box(sys),
                analyze::DEFAULT_BUDGET,
            ));
        });
    }
}

/// Replays `SAMPLED_RUNS` seeded (scheduler, seed) cells of `config`
/// one by one (`campaign.run`) and returns their p50 and p99 in µs.
pub fn sampled_runs(
    config: &CampaignConfig,
    m: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0xca3b);
    let mark = tracer.mark();
    for _ in 0..SAMPLED_RUNS {
        let spec = &config.schedulers[rng.below(config.schedulers.len())];
        let run_seed = config.seed_start + rng.below(config.runs.max(1)) as u64;
        tracer.span("campaign.run", 1, |_| {
            black_box(replay_run(spec, run_seed, BUDGET, |_| system(m), &check))
        });
    }
    let micros: Vec<f64> = tracer
        .since(mark, "campaign.run")
        .map(|s| s.secs() * 1e6)
        .collect();
    (quantile(&micros, 0.5), quantile(&micros, 0.99))
}
