//! End-to-end tests of the `revisionist-simulations` CLI binary.

use std::process::Command;

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

#[test]
fn bounds_table_prints() {
    let (stdout, _, ok) = run(&["bounds"]);
    assert!(ok);
    assert!(stdout.contains("lower"));
    assert!(stdout.contains("64"));
}

#[test]
fn bounds_grid_point_shows_mechanism() {
    let (stdout, _, ok) = run(&["bounds", "8", "2", "1"]);
    assert!(ok);
    assert!(stdout.contains("lower bound (Corollary 33): 4"));
    assert!(stdout.contains("feasible"));
    assert!(stdout.contains("infeasible"));
}

#[test]
fn bounds_rejects_bad_parameters() {
    let (_, stderr, ok) = run(&["bounds", "4", "9", "1"]);
    assert!(!ok);
    assert!(stderr.contains("need 1 <= x <= k < n"));
}

#[test]
fn simulate_runs_and_replays() {
    let (stdout, _, ok) =
        run(&["simulate", "--n", "4", "--m", "2", "--f", "2", "--seed", "3"]);
    assert!(ok);
    assert!(stdout.contains("H-steps"));
    assert!(stdout.contains("Lemma 26/27 replay: LEGAL"));
}

#[test]
fn simulate_seed_4_extracts_the_violation() {
    // Seed values index the vendored StdRng stream (shims/rand); seed 4
    // is a schedule whose extracted outputs violate consensus.
    let (stdout, _, ok) =
        run(&["simulate", "--n", "4", "--m", "2", "--f", "2", "--seed", "4"]);
    assert!(ok);
    assert!(stdout.contains("EXTRACTED VIOLATION"));
}

#[test]
fn simulate_rejects_infeasible() {
    let (_, stderr, ok) = run(&["simulate", "--n", "4", "--m", "3", "--f", "2"]);
    assert!(!ok);
    assert!(stderr.contains("infeasible"));
}

#[test]
fn aug_spec_checks() {
    let (stdout, _, ok) = run(&["aug", "--f", "3", "--m", "2", "--seed", "1"]);
    assert!(ok);
    assert!(stdout.contains("SATISFIED"));
}

#[test]
fn audit_reports_impossible_with_evidence() {
    let (stdout, _, ok) = run(&[
        "audit", "--n", "4", "--k", "1", "--x", "1", "--m", "2", "--schedules",
        "100",
    ]);
    assert!(ok);
    assert!(stdout.contains("IMPOSSIBLE"));
    assert!(stdout.contains("evidence"));
}

#[test]
fn audit_reports_consistent_at_the_bound() {
    let (stdout, _, ok) =
        run(&["audit", "--n", "4", "--k", "1", "--x", "1", "--m", "4"]);
    assert!(ok);
    assert!(stdout.contains("CONSISTENT"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn sweep_prints_a_row() {
    let (stdout, _, ok) =
        run(&["sweep", "--n", "4", "--m", "2", "--f", "2", "--runs", "20"]);
    assert!(ok);
    assert!(stdout.contains("budgets hold: true"));
}

#[test]
fn campaign_malformed_sched_fails_with_hint() {
    let (_, stderr, ok) = run(&["campaign", "--sched", "bogus:7"]);
    assert!(!ok);
    assert!(stderr.contains("bad spec `bogus:7`"));
    assert!(stderr.contains("valid --sched specs"), "stderr was: {stderr}");
}

#[test]
fn campaign_faults_sweep_certifies() {
    let (stdout, _, ok) = run(&[
        "campaign", "--faults", "sweep", "--procs", "3", "--runs", "2",
        "--budget", "2000", "--sched", "rr",
    ]);
    assert!(ok);
    assert!(stdout.contains("fault campaign: base=rr plans=18"));
    assert!(stdout.contains("CERTIFIED"), "stdout was: {stdout}");
}

#[test]
fn campaign_faults_json_reports_certification() {
    let (stdout, _, ok) = run(&[
        "campaign", "--faults", "crash@0:1,stall@1:0-3+crash@2:2", "--runs", "2",
        "--budget", "2000", "--json",
    ]);
    assert!(ok);
    assert!(stdout.contains("\"certified\": true"), "stdout was: {stdout}");
    assert!(stdout.contains("\"plans\": 2"));
}

#[test]
fn campaign_malformed_faults_fails_with_hint() {
    let (_, stderr, ok) = run(&["campaign", "--faults", "crash@oops"]);
    assert!(!ok);
    assert!(stderr.contains("bad spec"));
    assert!(stderr.contains("valid --faults"), "stderr was: {stderr}");
}

#[test]
fn campaign_checkpoint_resume_round_trips() {
    let dir = std::env::temp_dir().join(format!("rsim-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cli.checkpoint.json");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = run(&[
        "campaign", "--runs", "20", "--stop-after", "7", "--checkpoint", path_str,
    ]);
    assert!(ok);
    assert!(stdout.contains("TRUNCATED"), "stdout was: {stdout}");
    let (resumed, _, ok) = run(&["campaign", "--runs", "20", "--resume", path_str]);
    assert!(ok);
    assert!(!resumed.contains("TRUNCATED"));
    let (full, _, ok) = run(&["campaign", "--runs", "20"]);
    assert!(ok);
    // The aggregate lines must be bit-for-bit those of the one-shot run.
    let line = |s: &str| s.lines().nth(1).unwrap().to_string();
    assert_eq!(line(&resumed), line(&full));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aug_certify_checks_every_placement() {
    let (stdout, _, ok) = run(&["aug", "--f", "3", "--m", "2", "--certify"]);
    assert!(ok);
    assert!(
        stdout.contains("36 placements"),
        "crash+stall sweep doubles the 18-placement crash space: {stdout}"
    );
    assert!(stdout.contains("crash/stall"), "stdout was: {stdout}");
    assert!(stdout.contains("CERTIFIED"), "stdout was: {stdout}");
}

#[test]
fn campaign_resume_refuses_a_checkpoint_from_another_campaign() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-resume-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mismatch.checkpoint.json");
    let path_str = path.to_str().unwrap();
    let (_, _, ok) = run(&[
        "campaign", "--runs", "10", "--budget", "500", "--checkpoint", path_str,
    ]);
    assert!(ok);
    // Same checkpoint file, different campaign shape: fail closed with
    // a structured error naming both identities.
    let (_, stderr, ok) = run(&[
        "campaign", "--runs", "12", "--budget", "500", "--resume", path_str,
    ]);
    assert!(!ok, "mismatched resume must be refused");
    assert!(stderr.contains("cannot resume"), "stderr was: {stderr}");
    assert!(stderr.contains("resume mismatch"), "stderr was: {stderr}");
    assert!(
        stderr.contains("seeds=0+10") && stderr.contains("seeds=0+12"),
        "both campaign identities must be named: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subcommand_help_prints_usage_without_running() {
    for args in [
        &["explore", "--help", "--depth", "3"][..],
        &["campaign", "--help"],
        &["sweep", "-h", "--runs", "5"],
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{args:?}: help must exit 0");
        assert!(stderr.contains("USAGE"), "{args:?}: no usage in {stderr}");
        assert!(stdout.is_empty(), "{args:?}: the command ran: {stdout}");
    }
}

#[test]
fn unparseable_number_flag_exits_2_naming_flag_and_value() {
    for (args, flag, value) in [
        (&["explore", "--procs", "three", "--depth", "3"][..], "--procs", "three"),
        (&["campaign", "--runs", "5", "--stop-after", "abc"], "--stop-after", "abc"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_revisionist-simulations"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains(value), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: the command ran anyway");
    }
}

#[test]
fn replay_rejects_a_bundle_with_an_unparseable_numeric_field() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-bad-field-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = dir.join("cex.bundle.json");
    let (_, stderr, ok) = run(&[
        "campaign", "--protocol", "racing", "--procs", "3", "--m", "2",
        "--sched", "random", "--runs", "100", "--bundle", bundle.to_str().unwrap(),
    ]);
    assert!(ok, "campaign run failed: {stderr}");
    let (_, stderr, ok) = run(&["replay", bundle.to_str().unwrap()]);
    assert!(ok, "the untampered bundle replays: {stderr}");
    // `"m": "two"` used to replay as the default m = 2 and pass.
    let text = std::fs::read_to_string(&bundle).unwrap();
    assert!(text.contains(r#""m": "2""#), "bundle: {text}");
    let tampered = dir.join("tampered.bundle.json");
    std::fs::write(&tampered, text.replace(r#""m": "2""#, r#""m": "two""#)).unwrap();
    let (stdout, stderr, ok) = run(&["replay", tampered.to_str().unwrap()]);
    assert!(!ok, "a non-numeric field must fail replay: {stdout}");
    assert!(stderr.contains("`m`") && stderr.contains("two"), "stderr: {stderr}");
    assert!(!stdout.contains("reproduced"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
