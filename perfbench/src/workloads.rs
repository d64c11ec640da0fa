//! The benchmarked systems, their pinned reference outputs, and one
//! measured call per workload, made through the library's public entry
//! points exactly as the CLI makes them.

use crate::measure::Tracer;
use rsim_protocols::racing::racing_system;
use rsim_smr::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
use rsim_smr::campaign::{
    run_campaign_with, CampaignConfig, CampaignOptions, CampaignReport, SchedulerSpec,
};
use rsim_smr::error::ModelError;
use rsim_smr::explore::{ExploreReport, Explorer, Limits};
use rsim_smr::fault::FaultPlan;
use rsim_smr::fingerprint::fingerprint;
use rsim_smr::service::{run_service, ServiceOptions, ServiceOutcome, ServiceSpec, ServiceStats};
use rsim_smr::shrink;
use rsim_smr::system::System;
use rsim_smr::value::Value;
use rsim_tasks::agreement::consensus;
use rsim_tasks::ColorlessTask;
use std::path::Path;

pub const PROCS: usize = 3;
/// Phased racing at m = n is at the Corollary 33 bound: clean.
pub const EXPLORE_M: usize = 3;
/// Phased racing at m = n − 1 is below the bound: about 1% of seeded
/// runs violate consensus, which is what the check is there to find.
pub const CAMPAIGN_M: usize = 2;
pub const BUDGET: usize = 2_000;
pub const SCHEDULERS: [&str; 3] = ["random", "obstruction:1", "quantum:3"];
/// The campaign seed range is one of this many windows, chosen by the
/// benchmark seed, so that every window's report can be pinned.
pub const WINDOWS: u64 = 4;
/// The exploration cap, far above any pinned depth's reachable count,
/// so explorations stop on depth alone.
const MAX_CONFIGS: usize = 50_000_000;
pub const SERVICE_WORKERS: usize = 2;

/// Problem sizes: exploration depth, campaign seeds per scheduler, and
/// service seeds per work unit.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub depth: usize,
    pub runs: usize,
    pub unit_runs: usize,
}

/// The measured workloads. Unit work is about a tenth of a 200 ms
/// heartbeat period, so the service's per-unit floor shows as idle time.
pub const FULL: Sizes = Sizes {
    depth: 19,
    runs: 2_000,
    unit_runs: 100,
};
/// Small calls that fill in the layers a traced workload does not drive.
pub const PROBE: Sizes = Sizes {
    depth: 14,
    runs: 200,
    unit_runs: 100,
};
/// The self-test's size.
pub const TINY: Sizes = Sizes {
    depth: 8,
    runs: 60,
    unit_runs: 30,
};

/// Exact explore-racing counts: (depth, visited, terminals, pruned).
/// They hold at any thread count and DPOR keeps them fixed.
const EXPLORE_PINS: &[(usize, usize, usize, usize)] = &[
    (8, 1_543, 0, 660),
    (14, 39_520, 0, 14_688),
    (19, 232_322, 5, 71_969),
];

/// Campaign report pins: (seeds per scheduler, window, FNV-1a of the
/// canonical report bytes, violating runs).
const CAMPAIGN_PINS: &[(usize, u64, u64, usize)] = &[
    (60, 0, 0x589f_1057_06b0_5e81, 2),
    (60, 1, 0x3f4d_7249_4420_9ab7, 0),
    (60, 2, 0x8d0c_4085_0b65_6215, 0),
    (60, 3, 0xb13c_4571_082a_b27d, 2),
    (200, 0, 0x60e5_d208_ebf6_3de0, 4),
    (200, 1, 0xacb2_b28f_8628_04fa, 2),
    (200, 2, 0xd656_d16d_7dba_b9aa, 6),
    (200, 3, 0x21e6_ddfe_7c37_e37d, 4),
    (2000, 0, 0x5478_baa7_b2b9_b2bf, 46),
    (2000, 1, 0xd923_f5ef_31a1_d030, 44),
    (2000, 2, 0xb350_5468_9e0c_0244, 47),
    (2000, 3, 0x2e89_f63d_fd27_d66f, 44),
];

pub fn inputs() -> Vec<Value> {
    (1..=PROCS as i64).map(Value::Int).collect()
}

pub fn system(m: usize) -> System {
    racing_system(m, &inputs())
}

/// The CLI's racing check: consensus on the outputs of a terminated run.
pub fn check(sys: &System) -> Option<String> {
    if !sys.all_terminated() {
        return None;
    }
    let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
    consensus()
        .validate(&inputs(), &outs)
        .err()
        .map(|e| e.to_string())
}

/// The system description the CLI stamps into bundles and service specs.
pub fn system_desc(m: usize) -> Vec<(String, String)> {
    [
        ("kind", "campaign".to_string()),
        ("protocol", "racing".into()),
        ("procs", PROCS.to_string()),
        ("m", m.to_string()),
        ("rounds", "3".into()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

pub fn campaign_config(runs: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        schedulers: SCHEDULERS
            .iter()
            .map(|s| SchedulerSpec::parse(s).expect("valid scheduler spec"))
            .collect(),
        seed_start: (seed % WINDOWS) * runs as u64,
        runs,
        budget: BUDGET,
        threads: 1,
    }
}

pub fn service_spec(sizes: Sizes, seed: u64) -> ServiceSpec {
    ServiceSpec {
        system: system_desc(CAMPAIGN_M),
        config: campaign_config(sizes.runs, seed),
        unit_runs: sizes.unit_runs,
        faults: Vec::new(),
    }
}

/// The pinned (visited, terminals, pruned) for `depth`.
pub fn explore_pin(depth: usize) -> Option<(usize, usize, usize)> {
    EXPLORE_PINS
        .iter()
        .find(|p| p.0 == depth)
        .map(|&(_, v, t, p)| (v, t, p))
}

/// The pinned (report hash, violations) for a campaign config.
pub fn campaign_pin(config: &CampaignConfig) -> Option<(u64, usize)> {
    let window = config.seed_start / config.runs.max(1) as u64;
    CAMPAIGN_PINS
        .iter()
        .find(|p| p.0 == config.runs && p.1 == window)
        .map(|&(_, _, h, v)| (h, v))
}

/// Does an exploration match the pin: no violation, no wall-clock
/// truncation, and exactly the pinned counts?
pub fn explore_ok(report: &ExploreReport, pin: Option<(usize, usize, usize)>) -> bool {
    report.violation.is_none()
        && report.truncation.is_none()
        && pin == Some((report.configs_visited, report.terminals, report.pruned))
}

/// One explore-racing call: the CLI's `explore` path.
pub fn explore_call(
    sys: &System,
    depth: usize,
    threads: usize,
) -> Result<ExploreReport, ModelError> {
    Explorer::new(Limits {
        max_depth: depth,
        max_configs: MAX_CONFIGS,
    })
    .with_threads(threads)
    .explore_parallel(sys, &check)
}

/// One in-process campaign: every run, then every violation shrunk to
/// a minimal bundle and stored into a deduplicated corpus, then the
/// canonical report — the work a service worker does for its units.
pub struct CampaignRun {
    pub report: CampaignReport,
    pub json: String,
    pub violations: usize,
    pub run_errors: usize,
    pub shrink_failures: usize,
    pub store_errors: usize,
}

impl CampaignRun {
    pub fn operations(&self) -> u64 {
        (self.report.total_runs + 2 * self.violations + 1) as u64
    }

    /// Failed operations against the pin: run errors, failed shrinks or
    /// stores, and a report that differs from the reference.
    pub fn failures(&self, pin: Option<(u64, usize)>) -> u64 {
        let report_ok = pin == Some((fingerprint(&self.json), self.violations));
        (self.run_errors + self.shrink_failures + self.store_errors + usize::from(!report_ok))
            as u64
    }
}

pub fn campaign_call(config: &CampaignConfig, corpus: &Path, tracer: &mut Tracer) -> CampaignRun {
    let corpus_ready = std::fs::create_dir_all(corpus).is_ok();
    let total = (config.runs * config.schedulers.len()) as u64;
    let report = tracer.span("campaign.run_campaign", total, |_| {
        run_campaign_with(
            config,
            &CampaignOptions::default(),
            |_| system(CAMPAIGN_M),
            &check,
        )
    });
    let mut run = CampaignRun {
        json: String::new(),
        violations: 0,
        run_errors: report.failures.iter().filter(|r| r.error.is_some()).count(),
        shrink_failures: 0,
        store_errors: usize::from(!corpus_ready),
        report,
    };
    let violating: Vec<(String, u64)> = run
        .report
        .failures
        .iter()
        .filter(|r| r.violation.is_some())
        .map(|r| (r.scheduler.clone(), r.seed))
        .collect();
    run.violations = violating.len();
    for (scheduler, seed) in violating {
        match tracer.span("shrink", 1, |_| minimized_bundle(&scheduler, seed)) {
            Some(bundle) => {
                if tracer
                    .span("bundle.store", 1, |_| bundle.store_dedup(corpus))
                    .is_err()
                {
                    run.store_errors += 1;
                }
            }
            None => run.shrink_failures += 1,
        }
    }
    run.json = tracer.span("campaign.report_json", 1, |_| run.report.to_json());
    run
}

/// The CLI's shrink path: re-capture the violating run as a decision
/// trace, ddmin it, and bundle the minimized counterexample.
fn minimized_bundle(scheduler: &str, seed: u64) -> Option<ReplayBundle> {
    let spec = SchedulerSpec::parse(scheduler).ok()?;
    let factory = |_seed: u64| system(CAMPAIGN_M);
    let cex_check = |sys: &System, _crashed: &[rsim_smr::process::ProcessId]| check(sys);
    let (cex, _) = shrink::capture(
        &spec,
        seed,
        BUDGET,
        &FaultPlan::none(),
        &factory,
        &cex_check,
    )?;
    let seeded = || system(CAMPAIGN_M);
    let (shrunk, _) = shrink::shrink(&cex, &seeded, &cex_check);
    let outcome = shrink::execute(&seeded, &shrunk, &cex_check);
    Some(ReplayBundle {
        version: BUNDLE_VERSION,
        tool: tool_id(),
        system: system_desc(CAMPAIGN_M),
        scheduler: spec.to_string(),
        seed,
        plan: shrunk.plan.to_string(),
        decisions: shrunk.decisions.iter().map(|p| p.0).collect(),
        fingerprint: outcome.fingerprint()?,
        violation: outcome.violation?,
    })
}

/// Failed operations of one service call: requeued and quarantined
/// units, and merged bytes that differ from the in-process reference.
pub fn service_failures(stats: &ServiceStats, merged: &str, reference: &str) -> u64 {
    (stats.requeues + stats.quarantined_units + usize::from(merged != reference)) as u64
}

/// One service call over stdio with `SERVICE_WORKERS` worker processes
/// of the release binary, in a fresh state directory under `dir`.
pub fn service_call(
    spec: &ServiceSpec,
    dir: &Path,
    worker: &Path,
) -> Result<ServiceOutcome, ModelError> {
    let mut opts = ServiceOptions::new(
        dir.join("state"),
        dir.join("corpus"),
        vec![worker.display().to_string(), "campaign-worker".into()],
    );
    opts.workers = SERVICE_WORKERS;
    run_service(spec, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the package's `out/`, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            Scratch(
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("{name}-{}", std::process::id())),
            )
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn explore_gate_rejects_a_wrong_pin() {
        let report = explore_call(&system(EXPLORE_M), TINY.depth, 2).expect("explores");
        let pin = explore_pin(TINY.depth).expect("tiny depth is pinned");
        assert!(explore_ok(&report, Some(pin)));
        let (v, t, p) = pin;
        for wrong in [(v + 1, t, p), (v, t + 1, p), (v, t, p + 1)] {
            assert!(!explore_ok(&report, Some(wrong)), "{wrong:?}");
        }
        assert!(!explore_ok(&report, None));
    }

    #[test]
    fn campaign_gate_rejects_a_wrong_pin() {
        let scratch = Scratch::new("campaign-gate");
        let config = campaign_config(TINY.runs, 0);
        let run = campaign_call(&config, &scratch.0, &mut Tracer::new(false));
        let (hash, violations) = campaign_pin(&config).expect("tiny window 0 is pinned");
        assert_eq!(run.failures(Some((hash, violations))), 0);
        assert_eq!(run.failures(Some((hash ^ 1, violations))), 1);
        assert_eq!(run.failures(Some((hash, violations + 1))), 1);
        assert_eq!(run.failures(None), 1);
    }

    #[test]
    fn service_gate_counts_requeues_and_byte_mismatches() {
        let clean = ServiceStats::default();
        assert_eq!(service_failures(&clean, "{\"a\": 1}", "{\"a\": 1}"), 0);
        assert_eq!(service_failures(&clean, "{\"a\": 1}", "{\"a\": 2}"), 1);
        let retried = ServiceStats {
            requeues: 2,
            quarantined_units: 1,
            ..ServiceStats::default()
        };
        assert_eq!(service_failures(&retried, "x", "x"), 3);
    }
}
