//! End-to-end tests of the `campaign-service` subcommand: the chaos
//! determinism gate. A service run with worker kills and torn journal
//! writes injected must converge to a merged report byte-identical to
//! a single-process, no-fault `campaign` of the same spec, and every
//! corpus bundle it writes must replay under the stock `replay`
//! subcommand.

use revisionist_simulations::smr::campaign::{CampaignConfig, SchedulerSpec};
use revisionist_simulations::smr::service::{run_service, ServiceOptions, ServiceSpec};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_revisionist-simulations"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rsim-service-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign spec shared by the reference and the service runs.
/// Seed 28 under `random` is a consensus violation, so the corpus and
/// the shrink path are exercised, not just the happy path.
const SPEC: &[&str] = &[
    "--protocol",
    "racing",
    "--procs",
    "3",
    "--m",
    "2",
    "--sched",
    "rr,random",
    "--runs",
    "40",
    "--budget",
    "2000",
];

fn corpus_bundles(corpus: &Path) -> Vec<PathBuf> {
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(corpus)
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    bundles.sort();
    bundles
}

/// The requeue count from the service's stats line.
fn requeues(stderr: &str) -> usize {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("service: "))
        .unwrap_or_else(|| panic!("stats line missing: {stderr}"));
    let before = line.split(" requeues").next().expect("requeue field");
    before.rsplit(' ').next().and_then(|n| n.parse().ok()).expect("requeue count")
}

#[test]
fn chaos_service_matches_single_process_reference_byte_for_byte() {
    let dir = tmp_dir("chaos");
    let reference = dir.join("reference.json");
    let merged = dir.join("merged.json");
    let state = dir.join("state");

    // The ground truth: one process, one thread, no faults.
    let mut ref_args: Vec<&str> = vec!["campaign"];
    ref_args.extend_from_slice(SPEC);
    let ref_out = reference.to_str().unwrap();
    ref_args.extend_from_slice(&["--threads", "1", "--json-out", ref_out]);
    let (_, stderr, ok) = run(&ref_args);
    assert!(ok, "reference campaign failed: {stderr}");

    // The service, with a worker SIGKILLed mid-unit and a torn journal
    // write injected on another unit's result.
    let mut svc_args: Vec<&str> = vec!["campaign-service"];
    svc_args.extend_from_slice(SPEC);
    let state_s = state.to_str().unwrap();
    let merged_out = merged.to_str().unwrap();
    svc_args.extend_from_slice(&[
        "--workers",
        "2",
        "--unit-runs",
        "8",
        "--state",
        state_s,
        "--chaos",
        "kill@unit:1,torn@result:3",
        "--json-out",
        merged_out,
    ]);
    let (_, stderr, ok) = run(&svc_args);
    assert!(ok, "service failed: {stderr}");
    assert!(
        stderr.contains("1 worker kills, 1 torn journal writes injected"),
        "chaos must actually fire: {stderr}"
    );
    // The kill and the torn write each requeue their unit. A kill that
    // landed after its unit's result would requeue nothing and leave
    // the recovery path untested.
    assert!(
        requeues(&stderr) >= 2,
        "both injected faults must requeue their units: {stderr}"
    );

    let ref_bytes = std::fs::read(&reference).unwrap();
    let svc_bytes = std::fs::read(&merged).unwrap();
    assert!(
        ref_bytes == svc_bytes,
        "merged report differs from the single-process reference:\n--- \
         reference ---\n{}\n--- service ---\n{}",
        String::from_utf8_lossy(&ref_bytes),
        String::from_utf8_lossy(&svc_bytes),
    );

    // Every corpus bundle replays under the stock replay subcommand and
    // reproduces its recorded violation.
    let bundles = corpus_bundles(&state.join("corpus"));
    assert!(!bundles.is_empty(), "seed 28 must have produced a bundle");
    for bundle in &bundles {
        let (stdout, stderr, ok) = run(&["replay", bundle.to_str().unwrap()]);
        assert!(ok, "replay of {} failed: {stderr}", bundle.display());
        assert!(
            stdout.contains("violation reproduced bit-for-bit"),
            "replay of {} did not reproduce: {stdout}",
            bundle.display()
        );
    }

    // A second service run over the same state directory recovers every
    // shard from the journal — zero new leases — and emits the
    // identical report.
    let rerun = dir.join("rerun.json");
    let rerun_out = rerun.to_str().unwrap();
    let mut again: Vec<&str> = vec!["campaign-service"];
    again.extend_from_slice(SPEC);
    again.extend_from_slice(&[
        "--workers",
        "2",
        "--unit-runs",
        "8",
        "--state",
        state_s,
        "--json-out",
        rerun_out,
    ]);
    let (_, stderr, ok) = run(&again);
    assert!(ok, "rerun failed: {stderr}");
    assert!(
        stderr.contains("(10 recovered), 0 leases"),
        "rerun must converge from the journal alone: {stderr}"
    );
    assert!(std::fs::read(&rerun).unwrap() == ref_bytes);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Pointing the service at a state directory journaled for a different
/// campaign must fail closed with a structured mismatch naming both
/// identities — never merge incompatible aggregates.
#[test]
fn service_refuses_a_state_dir_from_another_campaign() {
    let dir = tmp_dir("mismatch");
    let state = dir.join("state");
    let state_s = state.to_str().unwrap();
    let base = [
        "campaign-service",
        "--protocol",
        "racing",
        "--sched",
        "rr",
        "--budget",
        "500",
        "--unit-runs",
        "4",
        "--state",
        state_s,
        "--json",
    ];
    let mut first: Vec<&str> = base.to_vec();
    first.extend_from_slice(&["--runs", "4"]);
    let (_, stderr, ok) = run(&first);
    assert!(ok, "seeding run failed: {stderr}");

    let mut second: Vec<&str> = base.to_vec();
    second.extend_from_slice(&["--runs", "8"]);
    let (_, stderr, ok) = run(&second);
    assert!(!ok, "a mismatched state dir must be refused");
    assert!(
        stderr.contains("resume mismatch"),
        "structured error expected: {stderr}"
    );
    assert!(stderr.contains("seeds=0+4") && stderr.contains("seeds=0+8"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A unit's result goes out as soon as the unit finishes, not at the
/// next heartbeat: four short units under a 5 s heartbeat period must
/// finish well inside one period. (A worker that waits out its beat
/// before sending each result needs at least 20 s here.)
#[test]
fn heartbeat_period_is_not_a_per_unit_floor() {
    let dir = tmp_dir("floor");
    let spec = ServiceSpec {
        system: vec![
            ("kind".into(), "campaign".into()),
            ("protocol".into(), "racing".into()),
            ("procs".into(), "3".into()),
            ("m".into(), "2".into()),
            ("rounds".into(), "3".into()),
        ],
        config: CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 8,
            budget: 2000,
            threads: 1,
        },
        unit_runs: 2,
        faults: Vec::new(),
    };
    let mut opts = ServiceOptions::new(
        dir.join("state"),
        dir.join("corpus"),
        vec![env!("CARGO_BIN_EXE_revisionist-simulations").into(), "campaign-worker".into()],
    );
    opts.workers = 1;
    opts.heartbeat_interval = Duration::from_secs(5);

    let start = Instant::now();
    let outcome = run_service(&spec, &opts).expect("service runs");
    let elapsed = start.elapsed();
    assert_eq!(outcome.stats.units, 4);
    assert_eq!((outcome.stats.leases, outcome.stats.requeues), (4, 0));
    assert_eq!(outcome.report.campaign().total_runs, 8);
    assert!(
        elapsed < opts.heartbeat_interval,
        "4 units took {elapsed:?} against a {:?} heartbeat period",
        opts.heartbeat_interval
    );
    let _ = std::fs::remove_dir_all(&dir);
}
