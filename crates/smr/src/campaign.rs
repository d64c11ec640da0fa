//! Deterministic randomised campaign runner.
//!
//! A *campaign* is a matrix of seeded runs — scheduler specs × a seed
//! range — over systems produced by a caller-supplied factory. The
//! runner fans the matrix across worker threads, records the seed of
//! every run so any failure replays exactly (`campaign --seed N`), and
//! aggregates distinct-configurations/terminations/violations into a
//! machine-readable report.
//!
//! Determinism: run outcomes depend only on `(scheduler spec, seed)`,
//! never on which worker executed them. Records are merged in matrix
//! order, and the distinct-configuration count is the size of a shared
//! [`FingerprintCache`] — a set union, so it too is independent of
//! thread interleaving. A campaign report is identical at any thread
//! count.

use crate::error::ModelError;
use crate::fault::{FaultPlan, FaultScheduler};
use crate::fingerprint::FingerprintCache;
use crate::json::Json;
use crate::process::ProcessId;
use crate::sched::{Crash, Obstruction, Quantum, Random, RoundRobin, Scheduler};
use crate::system::System;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A buildable scheduler description — the "which adversary" half of a
/// run's identity (the seed is the other half).
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerSpec {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`Random`] seeded with the run seed.
    Random,
    /// [`Quantum`] with the given quantum.
    Quantum(usize),
    /// [`Obstruction`] with isolated-set bound `x`, chaos prefix and
    /// burst length.
    Obstruction {
        /// Maximum size of the eventually-isolated set.
        x: usize,
        /// Random steps before bursts begin.
        chaos_steps: usize,
        /// Steps per isolated burst.
        burst_len: usize,
    },
    /// [`Crash`] with a crash budget and per-step crash probability.
    Crash {
        /// Maximum processes to crash.
        max_crashes: usize,
        /// Per-step crash probability.
        probability: f64,
    },
}

impl SchedulerSpec {
    /// Parses a spec from its CLI syntax:
    ///
    /// * `rr` / `round-robin`
    /// * `random`
    /// * `quantum:<q>`
    /// * `obstruction:<x>` (chaos 32, bursts 64)
    /// * `crash:<max>` (probability 0.05)
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] naming the malformed spec.
    pub fn parse(spec: &str) -> Result<SchedulerSpec, ModelError> {
        let bad = |reason: String| ModelError::BadSpec {
            spec: spec.to_string(),
            reason,
        };
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        let numeric = |what: &str| -> Result<usize, ModelError> {
            arg.ok_or_else(|| bad(format!("{head} needs `:<{what}>`")))?
                .parse::<usize>()
                .map_err(|_| bad(format!("bad {what}")))
        };
        match head {
            "rr" | "round-robin" => Ok(SchedulerSpec::RoundRobin),
            "random" => Ok(SchedulerSpec::Random),
            "quantum" => {
                let q = numeric("quantum")?;
                if q == 0 {
                    return Err(bad("quantum must be >= 1".into()));
                }
                Ok(SchedulerSpec::Quantum(q))
            }
            "obstruction" => Ok(SchedulerSpec::Obstruction {
                x: numeric("x")?,
                chaos_steps: 32,
                burst_len: 64,
            }),
            "crash" => Ok(SchedulerSpec::Crash {
                max_crashes: numeric("max-crashes")?,
                probability: 0.05,
            }),
            _ => Err(bad(
                "unknown scheduler (expected rr, random, quantum:<q>, \
                 obstruction:<x>, crash:<max>)"
                    .into(),
            )),
        }
    }

    /// Builds the scheduler for one run.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerSpec::Random => Box::new(Random::seeded(seed)),
            SchedulerSpec::Quantum(q) => Box::new(Quantum::new(q)),
            SchedulerSpec::Obstruction { x, chaos_steps, burst_len } => {
                Box::new(Obstruction::new(x, chaos_steps, burst_len, seed))
            }
            SchedulerSpec::Crash { max_crashes, probability } => {
                Box::new(Crash::new(max_crashes, probability, seed))
            }
        }
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerSpec::RoundRobin => write!(f, "rr"),
            SchedulerSpec::Random => write!(f, "random"),
            SchedulerSpec::Quantum(q) => write!(f, "quantum:{q}"),
            SchedulerSpec::Obstruction { x, .. } => write!(f, "obstruction:{x}"),
            SchedulerSpec::Crash { max_crashes, .. } => {
                write!(f, "crash:{max_crashes}")
            }
        }
    }
}

/// Campaign shape: the scheduler mix, the seed range, per-run budget
/// and worker count.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignConfig {
    /// Scheduler mix; every spec runs against every seed.
    pub schedulers: Vec<SchedulerSpec>,
    /// First seed of the range.
    pub seed_start: u64,
    /// Seeds per scheduler (total runs = `schedulers.len() * runs`).
    pub runs: usize,
    /// Step budget per run.
    pub budget: usize,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 100,
            budget: 2_000,
            threads: 0,
        }
    }
}

/// Hardening knobs for [`run_campaign_with`], separate from
/// [`CampaignConfig`] so the campaign *shape* (which determines the
/// report) stays distinct from *how defensively* it executes.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Wall-clock watchdog: once elapsed, workers stop claiming runs
    /// and the report records how many were skipped. Skipping under a
    /// wall-clock limit is inherently machine-dependent; the report
    /// says so rather than silently dropping runs. Before the hard
    /// stop, a *soft* deadline at 80% of the limit degrades sampling
    /// breadth (per-run budget drops to a quarter) so more cells
    /// complete — shallowly — instead of being skipped outright.
    pub wall_limit: Option<Duration>,
    /// Run-count watchdog: stop after this many runs complete in this
    /// session (deterministic truncation, used to exercise `--resume`).
    pub stop_after: Option<usize>,
    /// Fingerprint-cache memory budget in entries; when exceeded the
    /// cache degrades to bounded-LRU shards and `distinct_configs`
    /// becomes approximate (flagged in the report). `None` = unbounded.
    pub cache_budget: Option<usize>,
    /// Write a checkpoint after every `N` completed runs (and once at
    /// the end of the session). Requires [`CampaignOptions::checkpoint_path`].
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints are written (atomically: tmp file + rename).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume state from an earlier checkpoint: completed runs are not
    /// re-executed and the fingerprint set is restored, so the final
    /// aggregates are bit-for-bit those of an uninterrupted campaign.
    pub resume_from: Option<CampaignCheckpoint>,
    /// Supervisor: re-attempt a cell this many times after a transient
    /// worker panic before recording it as failed. Only panics are
    /// retried — violations, runtime errors, and cell timeouts are
    /// deterministic outcomes and retrying them would just burn the
    /// deadline.
    pub retries: usize,
    /// Supervisor: base delay between retry attempts, doubled per
    /// attempt (bounded exponential backoff).
    pub retry_backoff: Duration,
    /// Supervisor: per-cell wall-clock timeout. A cell that exceeds it
    /// is recorded as a structured [`ModelError::CellTimeout`] failure
    /// so one pathological schedule cannot starve the worker fleet.
    pub cell_timeout: Option<Duration>,
    /// Campaign identity stamped into every checkpoint this session
    /// writes (see [`campaign_spec_id`]), so a later `--resume` can
    /// fail closed instead of merging a checkpoint from a different
    /// campaign.
    pub spec_id: Option<String>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            wall_limit: None,
            stop_after: None,
            cache_budget: None,
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            cell_timeout: None,
            spec_id: None,
        }
    }
}

/// The identity string of a campaign: protocol plus every parameter
/// that shapes the matrix or the per-run outcomes. Two campaigns with
/// the same spec id produce interchangeable checkpoints; any other
/// pair must never be merged. `threads` is deliberately excluded — the
/// report is thread-count independent by construction.
pub fn campaign_spec_id(protocol: &str, config: &CampaignConfig) -> String {
    let schedulers: Vec<String> =
        config.schedulers.iter().map(ToString::to_string).collect();
    format!(
        "protocol={} sched={} seeds={}+{} budget={}",
        protocol,
        schedulers.join(","),
        config.seed_start,
        config.runs,
        config.budget,
    )
}

/// A campaign checkpoint: which matrix indices already ran (with their
/// records) plus the fingerprint set at that point. Restoring both is
/// what makes resumed aggregates — including `distinct_configs` —
/// identical to an uninterrupted run.
#[derive(Clone, Debug, Default)]
pub struct CampaignCheckpoint {
    /// The identity of the campaign that wrote this checkpoint (see
    /// [`campaign_spec_id`]); `None` only in pre-service checkpoints.
    /// Resume validates it so two different campaigns can never be
    /// silently merged.
    pub spec: Option<String>,
    /// Completed `(matrix index, record)` pairs.
    pub completed: Vec<(usize, RunRecord)>,
    /// Sorted fingerprint set at checkpoint time.
    pub fingerprints: Vec<u64>,
}

/// Serialises one completed `(matrix index, record)` pair as the JSON
/// object used in checkpoints and service shard results — one format,
/// so shard records merge bit-for-bit with single-process checkpoints.
pub(crate) fn record_entry_json(index: usize, r: &RunRecord) -> String {
    format!(
        "{{\"index\": {}, \"scheduler\": {}, \"seed\": {}, \
         \"steps\": {}, \"terminated\": {}, \"violation\": {}, \
         \"error\": {}, \"attempts\": {}, \"pruned\": {}, \
         \"prefilter_hits\": {}, \"static_indep_pairs\": {}}}",
        index,
        json_string(&r.scheduler),
        r.seed,
        r.steps,
        r.terminated,
        r.violation.as_deref().map_or("null".into(), json_string),
        r.error.as_deref().map_or("null".into(), json_string),
        r.attempts,
        r.pruned,
        r.prefilter_hits,
        r.static_indep_pairs,
    )
}

/// Parses one checkpoint/shard record entry (inverse of
/// [`record_entry_json`]).
///
/// # Errors
///
/// Returns [`ModelError::BadSpec`] on missing or mistyped fields.
pub(crate) fn parse_record_entry(entry: &Json) -> Result<(usize, RunRecord), ModelError> {
    let bad = |reason: &str| ModelError::BadSpec {
        spec: "checkpoint".into(),
        reason: reason.into(),
    };
    let field =
        |key: &str| entry.get(key).ok_or_else(|| bad(&format!("missing `{key}`")));
    let index = field("index")?.as_usize().ok_or_else(|| bad("bad `index`"))?;
    let opt_str = |key: &str| -> Option<String> {
        entry.get(key)?.as_str().map(str::to_string)
    };
    Ok((
        index,
        RunRecord {
            scheduler: field("scheduler")?
                .as_str()
                .ok_or_else(|| bad("bad `scheduler`"))?
                .to_string(),
            seed: field("seed")?.as_u64().ok_or_else(|| bad("bad `seed`"))?,
            steps: field("steps")?.as_usize().ok_or_else(|| bad("bad `steps`"))?,
            terminated: field("terminated")?
                .as_bool()
                .ok_or_else(|| bad("bad `terminated`"))?,
            violation: opt_str("violation"),
            error: opt_str("error"),
            // Absent in pre-supervisor checkpoints: one attempt.
            attempts: entry.get("attempts").and_then(Json::as_usize).unwrap_or(1),
            // Absent in pre-DPOR checkpoints: no redundancy recorded.
            pruned: entry.get("pruned").and_then(Json::as_usize).unwrap_or(0),
            // Absent in pre-interference checkpoints: no static
            // analysis recorded.
            prefilter_hits: entry
                .get("prefilter_hits")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            static_indep_pairs: entry
                .get("static_indep_pairs")
                .and_then(Json::as_usize)
                .unwrap_or(0),
        },
    ))
}

impl CampaignCheckpoint {
    /// Serialises the checkpoint as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        if let Some(spec) = &self.spec {
            out.push_str(&format!("  \"spec\": {},\n", json_string(spec)));
        }
        out.push_str("  \"completed\": [\n");
        for (i, (index, r)) in self.completed.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&record_entry_json(*index, r));
            out.push_str(if i + 1 < self.completed.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"fingerprints\": [");
        for (i, fp) in self.fingerprints.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&fp.to_string());
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a checkpoint from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed or missing fields.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "checkpoint".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        let mut checkpoint = CampaignCheckpoint {
            spec: doc.get("spec").and_then(Json::as_str).map(str::to_string),
            ..CampaignCheckpoint::default()
        };
        for entry in doc
            .get("completed")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `completed` array"))?
        {
            checkpoint.completed.push(parse_record_entry(entry)?);
        }
        for fp in doc
            .get("fingerprints")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `fingerprints` array"))?
        {
            checkpoint
                .fingerprints
                .push(fp.as_u64().ok_or_else(|| bad("bad fingerprint"))?);
        }
        Ok(checkpoint)
    }

    /// Fails closed if this checkpoint was written by a campaign whose
    /// identity differs from `requested` (see [`campaign_spec_id`]).
    /// Checkpoints without a recorded spec (pre-service format) pass —
    /// there is nothing to compare against.
    ///
    /// # Errors
    ///
    /// [`ModelError::ResumeMismatch`] naming both specs.
    pub fn ensure_matches(&self, requested: &str) -> Result<(), ModelError> {
        match &self.spec {
            Some(spec) if spec != requested => Err(ModelError::ResumeMismatch {
                checkpoint: spec.clone(),
                requested: requested.to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// Loads a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] if the file cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, ModelError> {
        let text = std::fs::read_to_string(path).map_err(|e| ModelError::BadSpec {
            spec: path.display().to_string(),
            reason: format!("cannot read checkpoint: {e}"),
        })?;
        CampaignCheckpoint::parse(&text)
    }
}

/// Outcome of a single run; `(scheduler, seed)` replays it exactly.
#[derive(Clone, PartialEq, Debug)]
pub struct RunRecord {
    /// The scheduler spec, in its parseable syntax.
    pub scheduler: String,
    /// The run seed (seeds the scheduler and the system factory).
    pub seed: u64,
    /// Steps actually taken.
    pub steps: usize,
    /// Did every process terminate within budget?
    pub terminated: bool,
    /// Check failure on the final configuration, if any.
    pub violation: Option<String>,
    /// Runtime error, if the run aborted.
    pub error: Option<String>,
    /// Supervisor attempts this cell took (1 = first try; larger when
    /// transient worker panics were retried).
    pub attempts: usize,
    /// Happens-before redundancy of this run's schedule: adjacent step
    /// pairs that commute (per [`crate::hb::independent`]) and are in
    /// process-id-inverted order — each is an interleaving the
    /// explorer's partial-order reduction would have merged with its
    /// swapped twin. The campaign analogue of
    /// [`crate::explore::ExploreReport::pruned`].
    pub pruned: usize,
    /// Adjacent schedule pairs the run's static interference matrix
    /// answered "independent", each audited against the dynamic
    /// oracle after the run (a contradiction fails the run closed
    /// with [`ModelError::StaticUnsound`]).
    pub prefilter_hits: usize,
    /// Unordered process pairs the run's static interference matrix
    /// proved independent before the first step.
    pub static_indep_pairs: usize,
}

impl RunRecord {
    fn is_failure(&self) -> bool {
        self.violation.is_some() || self.error.is_some()
    }
}

/// Per-scheduler aggregate.
#[derive(Clone, Debug)]
pub struct SchedulerTally {
    /// The scheduler spec, in its parseable syntax.
    pub scheduler: String,
    /// Runs executed with this scheduler.
    pub runs: usize,
    /// Runs in which every process terminated.
    pub terminated: usize,
    /// Runs with a violation or error.
    pub failures: usize,
    /// Total steps across the runs.
    pub total_steps: usize,
    /// Total happens-before redundancy ([`RunRecord::pruned`]) across
    /// the runs.
    pub pruned: usize,
    /// Total static-prefilter confirmations
    /// ([`RunRecord::prefilter_hits`]) across the runs.
    pub prefilter_hits: usize,
}

/// Aggregated campaign outcome. All fields are deterministic functions
/// of the [`CampaignConfig`] and the system factory.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Total runs executed.
    pub total_runs: usize,
    /// Runs in which every process terminated within budget.
    pub terminated_runs: usize,
    /// Distinct configurations visited across all runs (fingerprint
    /// cache size — a set union, thread-count independent).
    pub distinct_configs: usize,
    /// Total steps across all runs.
    pub total_steps: usize,
    /// Total happens-before redundancy across all runs: schedule steps
    /// that commute with their inverted-order predecessor. The
    /// campaign-side reduction metric, summed per run so shard merges
    /// reproduce it bit-for-bit.
    pub total_pruned: usize,
    /// Total static-prefilter confirmations across all runs (see
    /// [`RunRecord::prefilter_hits`]), summed per run.
    pub prefilter_hits: usize,
    /// Unordered process pairs the static interference matrix proved
    /// independent (the maximum across records — every run of one
    /// campaign analyzes the same protocol shape).
    pub static_indep_pairs: usize,
    /// Per-scheduler tallies, in scheduler-mix order.
    pub per_scheduler: Vec<SchedulerTally>,
    /// Every failing run, in matrix order; each replays from its seed.
    pub failures: Vec<RunRecord>,
    /// Runs not executed because a watchdog fired (wall-clock or
    /// run-count); 0 for a complete campaign.
    pub skipped_runs: usize,
    /// Why runs were skipped, when they were. Never silent: a truncated
    /// campaign always says so here.
    pub truncation: Option<String>,
    /// The fingerprint cache hit its memory budget: `distinct_configs`
    /// is an over-count from that point on.
    pub cache_truncated: bool,
    /// Runs the supervisor re-attempted after a transient worker panic
    /// (each run's [`RunRecord::attempts`] has the detail).
    pub retried_runs: usize,
    /// Runs executed at reduced budget because the wall-clock soft
    /// deadline had passed (the degradation ladder's first rung).
    pub degraded_runs: usize,
}

impl CampaignReport {
    /// Did every run terminate with no violations or errors, with no
    /// runs skipped by a watchdog?
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
            && self.terminated_runs == self.total_runs
            && self.skipped_runs == 0
    }

    /// The campaign-side reduction factor:
    /// `(total_steps + total_pruned) / total_steps` — how much schedule
    /// redundancy the executed mix carried. `1.0` for an empty
    /// campaign.
    pub fn reduction_factor(&self) -> f64 {
        if self.total_steps == 0 {
            return 1.0;
        }
        (self.total_steps + self.total_pruned) as f64 / self.total_steps as f64
    }

    /// Renders the report as JSON (hand-rolled: the workspace builds
    /// offline, without serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schedulers\": [{}],\n",
            self.config
                .schedulers
                .iter()
                .map(|s| json_string(&s.to_string()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("  \"seed_start\": {},\n", self.config.seed_start));
        out.push_str(&format!("  \"runs_per_scheduler\": {},\n", self.config.runs));
        out.push_str(&format!("  \"budget\": {},\n", self.config.budget));
        out.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        out.push_str(&format!("  \"terminated_runs\": {},\n", self.terminated_runs));
        out.push_str(&format!("  \"distinct_configs\": {},\n", self.distinct_configs));
        out.push_str(&format!("  \"total_steps\": {},\n", self.total_steps));
        out.push_str(&format!("  \"total_pruned\": {},\n", self.total_pruned));
        out.push_str(&format!("  \"prefilter_hits\": {},\n", self.prefilter_hits));
        out.push_str(&format!(
            "  \"static_indep_pairs\": {},\n",
            self.static_indep_pairs
        ));
        out.push_str(&format!(
            "  \"reduction_factor\": {:.4},\n",
            self.reduction_factor()
        ));
        out.push_str(&format!("  \"skipped_runs\": {},\n", self.skipped_runs));
        out.push_str(&format!(
            "  \"truncation\": {},\n",
            self.truncation.as_deref().map_or("null".into(), json_string)
        ));
        out.push_str(&format!(
            "  \"cache_truncated\": {},\n",
            self.cache_truncated
        ));
        out.push_str(&format!("  \"retried_runs\": {},\n", self.retried_runs));
        out.push_str(&format!("  \"degraded_runs\": {},\n", self.degraded_runs));
        out.push_str("  \"per_scheduler\": [\n");
        for (i, t) in self.per_scheduler.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scheduler\": {}, \"runs\": {}, \"terminated\": {}, \
                 \"failures\": {}, \"total_steps\": {}, \"pruned\": {}, \
                 \"prefilter_hits\": {}}}{}\n",
                json_string(&t.scheduler),
                t.runs,
                t.terminated,
                t.failures,
                t.total_steps,
                t.pruned,
                t.prefilter_hits,
                if i + 1 < self.per_scheduler.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        for (i, r) in self.failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scheduler\": {}, \"seed\": {}, \"steps\": {}, \
                 \"terminated\": {}, \"violation\": {}, \"error\": {}}}{}\n",
                json_string(&r.scheduler),
                r.seed,
                r.steps,
                r.terminated,
                r.violation.as_deref().map_or("null".into(), json_string),
                r.error.as_deref().map_or("null".into(), json_string),
                if i + 1 < self.failures.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string literal with escaping (the workspace-wide routine in
/// [`crate::json::escape`]).
fn json_string(s: &str) -> String {
    crate::json::escape(s)
}

/// How often the per-cell timeout is polled, in steps: cheap enough to
/// be negligible, frequent enough that a pathological cell overshoots
/// its deadline by at most a few microseconds of stepping.
const TIMEOUT_POLL_STEPS: usize = 64;

/// Executes one run and records its outcome. The final configuration is
/// validated with `check`; intermediate configurations are fingerprinted
/// into `cache` when one is supplied; when a `cell_timeout` is set, the
/// wall clock is polled every [`TIMEOUT_POLL_STEPS`] steps and an
/// expired cell aborts with a structured [`ModelError::CellTimeout`].
fn execute_run(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    system: &mut System,
    check: &dyn Fn(&System) -> Option<String>,
    cache: Option<&FingerprintCache>,
    cell_timeout: Option<Duration>,
) -> RunRecord {
    let mut record = RunRecord {
        scheduler: spec.to_string(),
        seed,
        steps: 0,
        terminated: false,
        violation: None,
        error: None,
        attempts: 1,
        pruned: 0,
        prefilter_hits: 0,
        static_indep_pairs: 0,
    };
    // The static interference matrix of the pristine entry system: it
    // never mutates `system`, and every schedule pair it proves
    // independent is audited against the dynamic oracle once the run's
    // trace is complete.
    let matrix = crate::analyze::InterferenceMatrix::build(
        system,
        crate::analyze::DEFAULT_BUDGET,
    );
    record.static_indep_pairs = matrix.indep_pairs();
    let trace_start = system.trace().len();
    let mut scheduler = spec.build(seed);
    let deadline = cell_timeout.map(|limit| (Instant::now() + limit, limit));
    if cache.is_some() || deadline.is_some() {
        if let Some(cache) = cache {
            cache.insert_fingerprint(system.config_fingerprint());
        }
        while record.steps < budget && !system.all_terminated() {
            if let Some((at, limit)) = deadline {
                if record.steps.is_multiple_of(TIMEOUT_POLL_STEPS) && Instant::now() >= at
                {
                    record.error = Some(
                        ModelError::CellTimeout {
                            limit_ms: limit.as_millis(),
                            context: format!("campaign run `{spec}` seed {seed}"),
                        }
                        .to_string(),
                    );
                    return record;
                }
            }
            let Some(pid) = scheduler.next(system) else { break };
            if system.is_terminated(pid) {
                continue;
            }
            if let Err(err) = system.step(pid) {
                record.error = Some(err.to_string());
                return record;
            }
            record.steps += 1;
            if let Some(cache) = cache {
                cache.insert_fingerprint(system.config_fingerprint());
            }
        }
    } else {
        match system.run(scheduler.as_mut(), budget) {
            Ok(steps) => record.steps = steps,
            Err(err) => {
                record.error = Some(err.to_string());
                return record;
            }
        }
    }
    record.terminated = system.all_terminated();
    record.violation = check(system);
    record.pruned = commuting_inversions(system, trace_start);
    match static_audit(system, &matrix, trace_start) {
        Ok(hits) => record.prefilter_hits = hits,
        Err(err) => record.error = Some(err.to_string()),
    }
    record
}

/// Audits the run's schedule against its static interference matrix:
/// every adjacent event pair the matrix calls independent must also be
/// dynamically independent per [`crate::hb::independent`]. Confirmed
/// answers are the run's prefilter hits; a contradiction means the
/// static analyzer under-approximated dependence — an analyzer bug —
/// and fails the run closed.
///
/// # Errors
///
/// [`ModelError::StaticUnsound`] naming the pair and its operations.
fn static_audit(
    system: &System,
    matrix: &crate::analyze::InterferenceMatrix,
    trace_start: usize,
) -> Result<usize, ModelError> {
    let mut prev: Option<&crate::system::Event> = None;
    let mut hits = 0;
    for event in system.trace().events_from(trace_start) {
        if let Some(p) = prev {
            if p.pid != event.pid && matrix.independent(p.pid.0, event.pid.0) {
                if crate::hb::independent(&p.op, &event.op) {
                    hits += 1;
                } else {
                    return Err(ModelError::StaticUnsound {
                        p: p.pid.0.min(event.pid.0),
                        q: p.pid.0.max(event.pid.0),
                        ops: format!("{:?} vs {:?}", p.op, event.op),
                    });
                }
            }
        }
        prev = Some(event);
    }
    Ok(hits)
}

/// Counts the happens-before redundancy of a completed run's schedule:
/// adjacent event pairs whose operations commute
/// ([`crate::hb::independent`]) but arrive in process-id-inverted
/// order. Each such pair is the twin of a canonically ordered schedule
/// the explorer's partial-order reduction would have kept instead — so
/// this is the per-run "pruned" tally campaign aggregates and service
/// shard merges sum deterministically.
fn commuting_inversions(system: &System, trace_start: usize) -> usize {
    let mut prev: Option<&crate::system::Event> = None;
    let mut count = 0;
    for event in system.trace().events_from(trace_start) {
        if let Some(p) = prev {
            if p.pid.0 > event.pid.0 && crate::hb::independent(&p.op, &event.op) {
                count += 1;
            }
        }
        prev = Some(event);
    }
    count
}

/// Replays one run of a campaign: same `(spec, seed)` → same outcome.
/// This is what `campaign --seed N` uses to reproduce a failure.
pub fn replay_run<F>(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    factory: F,
    check: &dyn Fn(&System) -> Option<String>,
) -> RunRecord
where
    F: Fn(u64) -> System,
{
    let mut system = factory(seed);
    execute_run(spec, seed, budget, &mut system, check, None, None)
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Executes one run with panic isolation: a panicking run (factory,
/// scheduler, or check) becomes a structured
/// [`ModelError::WorkerPanic`] record carrying its replay coordinates
/// instead of tearing down the worker.
fn run_one_guarded<F>(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    factory: &F,
    check: &(dyn Fn(&System) -> Option<String> + Sync),
    cache: Option<&FingerprintCache>,
    cell_timeout: Option<Duration>,
) -> RunRecord
where
    F: Fn(u64) -> System + Sync,
{
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut system = factory(seed);
        execute_run(spec, seed, budget, &mut system, check, cache, cell_timeout)
    }));
    match attempt {
        Ok(record) => record,
        Err(payload) => RunRecord {
            scheduler: spec.to_string(),
            seed,
            steps: 0,
            terminated: false,
            violation: None,
            error: Some(
                ModelError::WorkerPanic {
                    context: format!("campaign run `{spec}` seed {seed}"),
                    message: panic_message(payload.as_ref()),
                }
                .to_string(),
            ),
            attempts: 1,
            pruned: 0,
            prefilter_hits: 0,
            static_indep_pairs: 0,
        },
    }
}

/// Is this record's error a worker panic (the only failure class the
/// supervisor treats as transient and retries)?
fn is_transient(record: &RunRecord) -> bool {
    record
        .error
        .as_deref()
        .is_some_and(|e| e.starts_with("worker panic"))
}

/// Bounded exponential backoff for retry attempt `attempt` (1-based).
fn backoff_for(base: Duration, attempt: usize) -> Duration {
    base.saturating_mul(1u32 << attempt.min(10) as u32)
}

/// Supervises one cell: runs it with panic isolation and re-attempts
/// transient worker panics up to `retries` times (with bounded
/// exponential backoff) before recording the failure. The returned
/// record's [`RunRecord::attempts`] says how many tries the cell took.
fn run_cell_supervised<F>(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    factory: &F,
    check: &(dyn Fn(&System) -> Option<String> + Sync),
    cache: Option<&FingerprintCache>,
    options: &CampaignOptions,
) -> RunRecord
where
    F: Fn(u64) -> System + Sync,
{
    let mut attempt = 1;
    loop {
        let mut record = run_one_guarded(
            spec,
            seed,
            budget,
            factory,
            check,
            cache,
            options.cell_timeout,
        );
        record.attempts = attempt;
        if is_transient(&record) && attempt <= options.retries {
            std::thread::sleep(backoff_for(options.retry_backoff, attempt));
            attempt += 1;
            continue;
        }
        return record;
    }
}

/// Writes a checkpoint atomically (tmp file + rename). A failed write
/// is reported on stderr, never silently dropped, and does not abort
/// the campaign.
fn write_checkpoint(
    path: &Path,
    spec: Option<&str>,
    mut completed: Vec<(usize, RunRecord)>,
    cache: &FingerprintCache,
) {
    completed.sort_by_key(|(index, _)| *index);
    let checkpoint = CampaignCheckpoint {
        spec: spec.map(str::to_string),
        completed,
        fingerprints: cache.snapshot(),
    };
    if let Err(e) = crate::json::write_atomic(path, &checkpoint.to_json()) {
        eprintln!("warning: checkpoint write to {} failed: {e}", path.display());
    }
}

/// Why workers stopped claiming runs (0 = still running).
const STOP_NONE: usize = 0;
const STOP_WALL: usize = 1;
const STOP_COUNT: usize = 2;

/// The mandatory campaign pre-flight: statically lints the system the
/// factory builds for the campaign's first seed, before any run
/// executes. A deny-level finding rejects the whole campaign with
/// [`ModelError::PreflightRejected`] — minutes of exploration are not
/// spent on a protocol that violates a paper precondition the linter
/// can see up front. The CLI calls this once per campaign and offers
/// `--no-preflight` to skip it.
///
/// # Errors
///
/// [`ModelError::PreflightRejected`] carrying the rendered deny-level
/// diagnostics.
pub fn preflight_campaign<F>(
    factory: F,
    seed: u64,
    lint_config: &crate::analyze::LintConfig,
) -> Result<crate::analyze::AnalysisReport, ModelError>
where
    F: Fn(u64) -> System,
{
    crate::analyze::preflight(&factory(seed), lint_config)
}

/// Runs the full campaign matrix (scheduler mix × seed range) across
/// worker threads. Equivalent to [`run_campaign_with`] with default
/// [`CampaignOptions`].
///
/// `factory(seed)` builds the system for a run; `check` validates the
/// final configuration (return a description to flag a violation).
/// Runtime errors and panics inside a run are recorded as failures,
/// not propagated.
pub fn run_campaign<F>(
    config: &CampaignConfig,
    factory: F,
    check: &(dyn Fn(&System) -> Option<String> + Sync),
) -> CampaignReport
where
    F: Fn(u64) -> System + Sync,
{
    run_campaign_with(config, &CampaignOptions::default(), factory, check)
}

/// [`run_campaign`] with hardening options: wall-clock and run-count
/// watchdogs (graceful, reported truncation), periodic checkpoints,
/// resume from a checkpoint, and a fingerprint-cache memory budget.
pub fn run_campaign_with<F>(
    config: &CampaignConfig,
    options: &CampaignOptions,
    factory: F,
    check: &(dyn Fn(&System) -> Option<String> + Sync),
) -> CampaignReport
where
    F: Fn(u64) -> System + Sync,
{
    let total = config.schedulers.len() * config.runs;
    let threads = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    let cache = FingerprintCache::for_threads_bounded(threads, options.cache_budget);

    // Restore resume state: completed runs keep their records and are
    // never re-executed; their fingerprints re-seed the dedup set so
    // `distinct_configs` matches an uninterrupted campaign exactly.
    let mut already = vec![false; total];
    let mut resumed: Vec<(usize, RunRecord)> = Vec::new();
    if let Some(checkpoint) = &options.resume_from {
        for fp in &checkpoint.fingerprints {
            cache.insert_fingerprint(*fp);
        }
        for (index, record) in &checkpoint.completed {
            if *index < total && !already[*index] {
                already[*index] = true;
                resumed.push((*index, record.clone()));
            }
        }
    }

    let now = Instant::now();
    let deadline = options.wall_limit.map(|limit| now + limit);
    // Degradation ladder, rung 1: past 80% of the wall limit, runs
    // execute at a quarter of the budget — sampling breadth shrinks
    // before cells get skipped outright at the hard stop.
    let soft_deadline = options.wall_limit.map(|limit| now + limit / 5 * 4);
    let degraded_budget = (config.budget / 4).max(1);
    let records: Mutex<Vec<(usize, RunRecord)>> = Mutex::new(resumed);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicUsize::new(STOP_NONE);
    let executed = AtomicUsize::new(0);
    let degraded = AtomicUsize::new(0);
    let last_checkpoint = Mutex::new(0usize);
    let chunk = total.div_ceil(threads * 8).clamp(1, 256);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(total.max(1)) {
            scope.spawn(|| {
                loop {
                    if stop.load(Ordering::Relaxed) != STOP_NONE {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let mut local: Vec<(usize, RunRecord)> = Vec::new();
                    // `index` is a matrix coordinate (spec, seed), not
                    // just a subscript into `already`.
                    #[allow(clippy::needless_range_loop)]
                    for index in start..(start + chunk).min(total) {
                        if already[index] {
                            continue;
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            let _ = stop.compare_exchange(
                                STOP_NONE,
                                STOP_WALL,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            );
                            break;
                        }
                        if stop.load(Ordering::Relaxed) != STOP_NONE {
                            break;
                        }
                        // Matrix order: scheduler-major, then seed.
                        let spec = &config.schedulers[index / config.runs];
                        let seed =
                            config.seed_start + (index % config.runs) as u64;
                        let budget = if soft_deadline
                            .is_some_and(|d| Instant::now() >= d)
                        {
                            degraded.fetch_add(1, Ordering::Relaxed);
                            degraded_budget
                        } else {
                            config.budget
                        };
                        let record = run_cell_supervised(
                            spec,
                            seed,
                            budget,
                            &factory,
                            check,
                            Some(&cache),
                            options,
                        );
                        local.push((index, record));
                        let done = executed.fetch_add(1, Ordering::Relaxed) + 1;
                        if options.stop_after.is_some_and(|cap| done >= cap) {
                            let _ = stop.compare_exchange(
                                STOP_NONE,
                                STOP_COUNT,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            );
                            break;
                        }
                    }
                    // Merge the chunk, then checkpoint if a full period
                    // of runs completed since the last write.
                    let to_checkpoint = {
                        let mut recs = records.lock().expect("records lock");
                        recs.extend(local);
                        match (options.checkpoint_every, &options.checkpoint_path) {
                            (Some(every), Some(_path)) if every > 0 => {
                                let mut last = last_checkpoint
                                    .lock()
                                    .expect("checkpoint counter lock");
                                if recs.len() >= *last + every {
                                    *last = recs.len();
                                    Some(recs.clone())
                                } else {
                                    None
                                }
                            }
                            _ => None,
                        }
                    };
                    if let (Some(completed), Some(path)) =
                        (to_checkpoint, &options.checkpoint_path)
                    {
                        write_checkpoint(
                            path,
                            options.spec_id.as_deref(),
                            completed,
                            &cache,
                        );
                    }
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|(index, _)| *index);

    // A final checkpoint captures everything this session completed, so
    // a watchdog-truncated campaign is always resumable.
    if let Some(path) = &options.checkpoint_path {
        write_checkpoint(path, options.spec_id.as_deref(), records.clone(), &cache);
    }

    let skipped_runs = total - records.len();
    let truncation = match stop.load(Ordering::Relaxed) {
        STOP_WALL => Some(format!(
            "wall-clock limit reached: {skipped_runs} of {total} runs skipped"
        )),
        STOP_COUNT => Some(format!(
            "run-count watchdog fired: {skipped_runs} of {total} runs skipped"
        )),
        _ if skipped_runs > 0 => {
            Some(format!("{skipped_runs} of {total} runs skipped"))
        }
        _ => None,
    };

    assemble_report(
        config,
        records,
        cache.len(),
        cache.truncated(),
        truncation,
        degraded.load(Ordering::Relaxed),
    )
}

/// Folds index-sorted run records into a [`CampaignReport`]. This is
/// the *single* aggregation routine: [`run_campaign_with`] feeds it the
/// records of one process, the service merge layer feeds it records
/// reassembled from many worker shards — so a merged multi-process
/// report is byte-identical to a single-process one by construction,
/// not by parallel maintenance of two aggregators.
pub(crate) fn assemble_report(
    config: &CampaignConfig,
    records: Vec<(usize, RunRecord)>,
    distinct_configs: usize,
    cache_truncated: bool,
    truncation: Option<String>,
    degraded_runs: usize,
) -> CampaignReport {
    let total = config.schedulers.len() * config.runs;
    let mut report = CampaignReport {
        config: config.clone(),
        total_runs: records.len(),
        terminated_runs: 0,
        distinct_configs,
        total_steps: 0,
        total_pruned: 0,
        prefilter_hits: 0,
        static_indep_pairs: 0,
        per_scheduler: config
            .schedulers
            .iter()
            .map(|s| SchedulerTally {
                scheduler: s.to_string(),
                runs: 0,
                terminated: 0,
                failures: 0,
                total_steps: 0,
                pruned: 0,
                prefilter_hits: 0,
            })
            .collect(),
        failures: Vec::new(),
        skipped_runs: total - records.len(),
        truncation,
        cache_truncated,
        retried_runs: 0,
        degraded_runs,
    };
    for (index, record) in records {
        let tally = &mut report.per_scheduler[index / config.runs];
        tally.runs += 1;
        tally.total_steps += record.steps;
        tally.pruned += record.pruned;
        tally.prefilter_hits += record.prefilter_hits;
        report.total_steps += record.steps;
        report.total_pruned += record.pruned;
        report.prefilter_hits += record.prefilter_hits;
        // Every run of a campaign analyzes the same protocol shape, so
        // the max is the one matrix's pair count (0-filled legacy
        // records aside).
        report.static_indep_pairs =
            report.static_indep_pairs.max(record.static_indep_pairs);
        if record.terminated {
            tally.terminated += 1;
            report.terminated_runs += 1;
        }
        if record.attempts > 1 {
            report.retried_runs += 1;
        }
        if record.is_failure() {
            tally.failures += 1;
            report.failures.push(record);
        }
    }
    report
}

/// A fault campaign: a matrix of fault plans × seeds, each run
/// executing the base scheduler wrapped in a [`FaultScheduler`]. This is
/// how crash-placement spaces are certified exhaustively: enumerate
/// every plan (e.g. [`FaultPlan::single_crash_plans`]) and require
/// non-blocking progress of the survivors under all of them.
#[derive(Clone, Debug)]
pub struct FaultCampaignConfig {
    /// The base scheduler every plan is applied on top of.
    pub base: SchedulerSpec,
    /// The plan space to fan over.
    pub plans: Vec<FaultPlan>,
    /// First seed of the range.
    pub seed_start: u64,
    /// Seeds per plan (total runs = `plans.len() * runs`).
    pub runs: usize,
    /// Step budget per run.
    pub budget: usize,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
}

/// A check evaluated on the final configuration of a fault run, given
/// the set of crashed processes; returns a description to flag a
/// violation.
pub type FaultCheck<'a> = &'a (dyn Fn(&System, &[ProcessId]) -> Option<String> + Sync);

/// Outcome of one fault run; `(plan, scheduler, seed)` replays it.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultRunRecord {
    /// The fault plan, in its parseable syntax.
    pub plan: String,
    /// The base scheduler spec.
    pub scheduler: String,
    /// The run seed.
    pub seed: u64,
    /// Steps actually taken.
    pub steps: usize,
    /// Processes the plan crashed during this run.
    pub crashed: usize,
    /// Did every *surviving* process terminate within budget? This is
    /// the non-blocking progress certificate: crashed processes may
    /// block nobody.
    pub survivors_terminated: bool,
    /// Check failure on the final configuration, if any.
    pub violation: Option<String>,
    /// Runtime error or worker panic, if the run aborted.
    pub error: Option<String>,
    /// Supervisor attempts this cell took (1 = first try).
    pub attempts: usize,
}

impl FaultRunRecord {
    fn is_failure(&self) -> bool {
        !self.survivors_terminated || self.violation.is_some() || self.error.is_some()
    }
}

/// Serialises one completed `(matrix index, fault record)` pair as the
/// JSON object used in both [`FaultCampaignReport::to_json`] failures
/// and service shard results — one format, so shards merge bit-for-bit
/// with the single-process report.
pub(crate) fn fault_record_entry_json(r: &FaultRunRecord) -> String {
    format!(
        "{{\"plan\": {}, \"scheduler\": {}, \"seed\": {}, \
         \"steps\": {}, \"crashed\": {}, \"survivors_terminated\": {}, \
         \"violation\": {}, \"error\": {}, \"attempts\": {}}}",
        json_string(&r.plan),
        json_string(&r.scheduler),
        r.seed,
        r.steps,
        r.crashed,
        r.survivors_terminated,
        r.violation.as_deref().map_or("null".into(), json_string),
        r.error.as_deref().map_or("null".into(), json_string),
        r.attempts,
    )
}

/// Parses one fault-record entry (inverse of
/// [`fault_record_entry_json`]).
///
/// # Errors
///
/// Returns [`ModelError::BadSpec`] on missing or mistyped fields.
pub(crate) fn parse_fault_record_entry(
    entry: &Json,
) -> Result<FaultRunRecord, ModelError> {
    let bad = |reason: &str| ModelError::BadSpec {
        spec: "fault record".into(),
        reason: reason.into(),
    };
    let field =
        |key: &str| entry.get(key).ok_or_else(|| bad(&format!("missing `{key}`")));
    let opt_str =
        |key: &str| -> Option<String> { entry.get(key)?.as_str().map(str::to_string) };
    Ok(FaultRunRecord {
        plan: field("plan")?
            .as_str()
            .ok_or_else(|| bad("bad `plan`"))?
            .to_string(),
        scheduler: field("scheduler")?
            .as_str()
            .ok_or_else(|| bad("bad `scheduler`"))?
            .to_string(),
        seed: field("seed")?.as_u64().ok_or_else(|| bad("bad `seed`"))?,
        steps: field("steps")?.as_usize().ok_or_else(|| bad("bad `steps`"))?,
        crashed: field("crashed")?.as_usize().ok_or_else(|| bad("bad `crashed`"))?,
        survivors_terminated: field("survivors_terminated")?
            .as_bool()
            .ok_or_else(|| bad("bad `survivors_terminated`"))?,
        violation: opt_str("violation"),
        error: opt_str("error"),
        attempts: entry.get("attempts").and_then(Json::as_usize).unwrap_or(1),
    })
}

/// Aggregated fault-campaign outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultCampaignReport {
    /// The base scheduler spec.
    pub scheduler: String,
    /// Number of fault plans fanned over.
    pub plans: usize,
    /// Total runs executed (`plans × seeds`).
    pub total_runs: usize,
    /// Runs certified: survivors terminated, no violation, no error.
    pub certified_runs: usize,
    /// Total steps across all runs.
    pub total_steps: usize,
    /// Every failing run, in matrix order; each replays from its
    /// `(plan, seed)`.
    pub failures: Vec<FaultRunRecord>,
    /// Runs the supervisor re-attempted after a transient worker panic.
    pub retried_runs: usize,
    /// Matrix cells with no surviving record (service campaigns only:
    /// runs lost to quarantined work units). Always zero in a
    /// single-process run.
    pub missing_runs: usize,
}

impl FaultCampaignReport {
    /// Did every plan × seed certify?
    pub fn is_certified(&self) -> bool {
        self.failures.is_empty()
            && self.missing_runs == 0
            && self.certified_runs == self.total_runs
    }

    /// Renders the report as JSON (hand-rolled; no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"scheduler\": {},\n",
            json_string(&self.scheduler)
        ));
        out.push_str(&format!("  \"plans\": {},\n", self.plans));
        out.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        out.push_str(&format!("  \"certified_runs\": {},\n", self.certified_runs));
        out.push_str(&format!("  \"total_steps\": {},\n", self.total_steps));
        out.push_str(&format!("  \"certified\": {},\n", self.is_certified()));
        out.push_str(&format!("  \"retried_runs\": {},\n", self.retried_runs));
        if self.missing_runs > 0 {
            // Emitted only when runs were lost (quarantined service
            // units), so complete merged reports stay byte-identical
            // to the single-process rendering.
            out.push_str(&format!("  \"missing_runs\": {},\n", self.missing_runs));
        }
        out.push_str("  \"failures\": [\n");
        for (i, r) in self.failures.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&fault_record_entry_json(r));
            out.push_str(if i + 1 < self.failures.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Executes one fault run (no panic guard; see
/// [`run_fault_campaign`] for the guarded path).
fn execute_fault_run<F>(
    config: &FaultCampaignConfig,
    plan: &FaultPlan,
    seed: u64,
    factory: &F,
    check: FaultCheck,
    cell_timeout: Option<Duration>,
) -> FaultRunRecord
where
    F: Fn(u64) -> System + Sync,
{
    let mut record = FaultRunRecord {
        plan: plan.to_string(),
        scheduler: config.base.to_string(),
        seed,
        steps: 0,
        crashed: 0,
        survivors_terminated: false,
        violation: None,
        error: None,
        attempts: 1,
    };
    let mut system = factory(seed);
    let mut sched = FaultScheduler::new(config.base.build(seed), plan.clone());
    if let Some(limit) = cell_timeout {
        // Manual stepping so the wall clock can be polled; the
        // FaultScheduler never picks terminated or crashed processes,
        // so this loop is step-for-step what `System::run` would do.
        let at = Instant::now() + limit;
        while record.steps < config.budget && !system.all_terminated() {
            if record.steps.is_multiple_of(TIMEOUT_POLL_STEPS) && Instant::now() >= at {
                record.error = Some(
                    ModelError::CellTimeout {
                        limit_ms: limit.as_millis(),
                        context: format!("fault run plan `{plan}` seed {seed}"),
                    }
                    .to_string(),
                );
                return record;
            }
            let Some(pid) = sched.next(&system) else { break };
            if system.is_terminated(pid) {
                continue;
            }
            if let Err(err) = system.step(pid) {
                record.error = Some(err.to_string());
                return record;
            }
            record.steps += 1;
        }
    } else {
        match system.run(&mut sched, config.budget) {
            Ok(steps) => record.steps = steps,
            Err(err) => {
                record.error = Some(err.to_string());
                return record;
            }
        }
    }
    record.crashed = sched.crashed().len();
    record.survivors_terminated = sched
        .survivors(&system)
        .iter()
        .all(|&p| system.is_terminated(p));
    record.violation = check(&system, sched.crashed());
    record
}

/// Replays one fault run: same `(plan, base scheduler, seed)` → same
/// outcome.
pub fn replay_fault_run<F>(
    config: &FaultCampaignConfig,
    plan: &FaultPlan,
    seed: u64,
    factory: F,
    check: FaultCheck,
) -> FaultRunRecord
where
    F: Fn(u64) -> System + Sync,
{
    execute_fault_run(config, plan, seed, &factory, check, None)
}

/// Runs the fault-campaign matrix (plan space × seed range) across
/// worker threads, with the same determinism contract as
/// [`run_campaign`]: records merge in matrix order, so the report is
/// identical at any thread count. Worker panics become structured
/// [`ModelError::WorkerPanic`] records naming the plan and seed.
/// Equivalent to [`run_fault_campaign_with`] under default
/// [`CampaignOptions`] (transient panics retried twice).
pub fn run_fault_campaign<F>(
    config: &FaultCampaignConfig,
    factory: F,
    check: FaultCheck,
) -> FaultCampaignReport
where
    F: Fn(u64) -> System + Sync,
{
    run_fault_campaign_with(config, &CampaignOptions::default(), factory, check)
}

/// [`run_fault_campaign`] with supervisor options. Only the supervisor
/// knobs of [`CampaignOptions`] apply here —
/// [`CampaignOptions::retries`], [`CampaignOptions::retry_backoff`] and
/// [`CampaignOptions::cell_timeout`]; the watchdog and checkpoint
/// fields are for [`run_campaign_with`] and are ignored.
pub fn run_fault_campaign_with<F>(
    config: &FaultCampaignConfig,
    options: &CampaignOptions,
    factory: F,
    check: FaultCheck,
) -> FaultCampaignReport
where
    F: Fn(u64) -> System + Sync,
{
    let total = config.plans.len() * config.runs;
    let records = run_fault_records(config, options, factory, check);
    assemble_fault_report(
        &config.base.to_string(),
        config.plans.len(),
        total,
        records.into_iter().enumerate().collect(),
    )
}

/// Executes the fault matrix and returns its records in matrix order
/// (plan-major, then seed) — the raw material of
/// [`run_fault_campaign_with`], exposed so service workers can execute
/// one unit's slice and ship the records to the coordinator for a
/// byte-identical merged report.
pub fn run_fault_records<F>(
    config: &FaultCampaignConfig,
    options: &CampaignOptions,
    factory: F,
    check: FaultCheck,
) -> Vec<FaultRunRecord>
where
    F: Fn(u64) -> System + Sync,
{
    let total = config.plans.len() * config.runs;
    let threads = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    let records: Mutex<Vec<(usize, FaultRunRecord)>> =
        Mutex::new(Vec::with_capacity(total));
    let cursor = AtomicUsize::new(0);
    let chunk = total.div_ceil(threads * 8).clamp(1, 256);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(total.max(1)) {
            scope.spawn(|| {
                let mut local: Vec<(usize, FaultRunRecord)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    for index in start..(start + chunk).min(total) {
                        // Matrix order: plan-major, then seed.
                        let plan = &config.plans[index / config.runs];
                        let seed =
                            config.seed_start + (index % config.runs) as u64;
                        // Supervised cell: transient panics are retried
                        // with backoff before the failure is recorded.
                        let mut attempt_no = 1;
                        let record = loop {
                            let attempt = catch_unwind(AssertUnwindSafe(|| {
                                execute_fault_run(
                                    config,
                                    plan,
                                    seed,
                                    &factory,
                                    check,
                                    options.cell_timeout,
                                )
                            }));
                            let mut record = attempt.unwrap_or_else(|payload| {
                                FaultRunRecord {
                                    plan: plan.to_string(),
                                    scheduler: config.base.to_string(),
                                    seed,
                                    steps: 0,
                                    crashed: 0,
                                    survivors_terminated: false,
                                    violation: None,
                                    error: Some(
                                        ModelError::WorkerPanic {
                                            context: format!(
                                                "fault run plan `{plan}` seed {seed}"
                                            ),
                                            message: panic_message(
                                                payload.as_ref(),
                                            ),
                                        }
                                        .to_string(),
                                    ),
                                    attempts: 1,
                                }
                            });
                            record.attempts = attempt_no;
                            let transient = record
                                .error
                                .as_deref()
                                .is_some_and(|e| e.starts_with("worker panic"));
                            if transient && attempt_no <= options.retries {
                                std::thread::sleep(backoff_for(
                                    options.retry_backoff,
                                    attempt_no,
                                ));
                                attempt_no += 1;
                                continue;
                            }
                            break record;
                        };
                        local.push((index, record));
                    }
                }
                records.lock().expect("records lock").extend(local);
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|(index, _)| *index);
    records.into_iter().map(|(_, record)| record).collect()
}

/// Folds index-sorted fault records into a [`FaultCampaignReport`].
/// Like [`assemble_report`], this is the *single* aggregation routine:
/// [`run_fault_campaign_with`] feeds it one process's records, the
/// service merge layer feeds it records reassembled from many worker
/// shards — byte-identical reports by construction. `expected_total`
/// is the full matrix size; cells with no surviving record (quarantined
/// units) are counted as `missing_runs` and veto certification.
pub(crate) fn assemble_fault_report(
    base: &str,
    plans: usize,
    expected_total: usize,
    records: Vec<(usize, FaultRunRecord)>,
) -> FaultCampaignReport {
    let mut report = FaultCampaignReport {
        scheduler: base.to_string(),
        plans,
        total_runs: records.len(),
        certified_runs: 0,
        total_steps: 0,
        failures: Vec::new(),
        retried_runs: 0,
        missing_runs: expected_total - records.len().min(expected_total),
    };
    for (_, record) in records {
        report.total_steps += record.steps;
        if record.attempts > 1 {
            report.retried_runs += 1;
        }
        if record.is_failure() {
            report.failures.push(record);
        } else {
            report.certified_runs += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::value::Value;

    /// Terminates after `n` updates, outputs its last view of slot 0.
    #[derive(Clone, Debug)]
    struct Stepper {
        n: usize,
    }

    impl SnapshotProtocol for Stepper {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.n == 0 {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.n -= 1;
                ProtocolStep::Update(0, Value::Int(self.n as i64))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn factory(_seed: u64) -> System {
        let procs: Vec<Box<dyn Process>> = (0..3)
            .map(|_| {
                Box::new(SnapshotProcess::new(Stepper { n: 3 }, ObjectId(0)))
                    as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(1)], procs)
    }

    #[test]
    fn static_audit_fails_closed_on_an_unsound_matrix() {
        // p0 scans and updates component 0, then p1 scans the same
        // object: the adjacent update/scan pair is dynamically
        // dependent. A matrix claiming every pair independent must be
        // caught by the audit, never silently trusted.
        let mut sys = factory(0);
        for pid in [0, 0, 1] {
            sys.step(crate::process::ProcessId(pid)).unwrap();
        }
        let unsound = crate::analyze::InterferenceMatrix::from_relation(3, |_, _| true);
        match static_audit(&sys, &unsound, 0) {
            Err(ModelError::StaticUnsound { p: 0, q: 1, ops }) => {
                assert!(ops.contains("vs"), "ops was: {ops}");
            }
            other => panic!("expected StaticUnsound for p0/p1, got {other:?}"),
        }

        // The genuine matrix for the same system passes.
        let sound = crate::analyze::InterferenceMatrix::build(&factory(0), 64);
        assert!(static_audit(&sys, &sound, 0).is_ok());
    }

    #[test]
    fn spec_parse_round_trips() {
        for spec in ["rr", "random", "quantum:2", "obstruction:2", "crash:1"] {
            let parsed = SchedulerSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
        }
        assert_eq!(
            SchedulerSpec::parse("round-robin").unwrap(),
            SchedulerSpec::RoundRobin
        );
        assert!(SchedulerSpec::parse("quantum:0").is_err());
        assert!(SchedulerSpec::parse("quantum").is_err());
        assert!(SchedulerSpec::parse("frobnicate").is_err());
        assert!(SchedulerSpec::parse("crash:x").is_err());
    }

    #[test]
    fn campaign_terminates_and_aggregates() {
        let config = CampaignConfig {
            schedulers: vec![
                SchedulerSpec::RoundRobin,
                SchedulerSpec::Random,
                SchedulerSpec::Quantum(2),
            ],
            seed_start: 0,
            runs: 20,
            budget: 1_000,
            threads: 4,
        };
        let report = run_campaign(&config, factory, &|_| None);
        assert_eq!(report.total_runs, 60);
        assert_eq!(report.terminated_runs, 60);
        assert!(report.is_clean());
        assert!(report.distinct_configs > 0);
        assert_eq!(report.per_scheduler.len(), 3);
        assert!(report.per_scheduler.iter().all(|t| t.runs == 20));
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let mk = |threads| CampaignConfig {
            schedulers: vec![SchedulerSpec::Random, SchedulerSpec::Crash {
                max_crashes: 1,
                probability: 0.1,
            }],
            seed_start: 7,
            runs: 25,
            budget: 500,
            threads,
        };
        let base = run_campaign(&mk(1), factory, &|_| None);
        for threads in [2, 8] {
            let report = run_campaign(&mk(threads), factory, &|_| None);
            assert_eq!(report.total_runs, base.total_runs);
            assert_eq!(report.terminated_runs, base.terminated_runs);
            assert_eq!(report.distinct_configs, base.distinct_configs);
            assert_eq!(report.total_steps, base.total_steps);
        }
    }

    #[test]
    fn violations_record_replayable_seeds() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 10,
            budget: 1_000,
            threads: 2,
        };
        // Flag runs whose seed is even: a deterministic pseudo-check.
        let check = |sys: &System| {
            let key = sys.config_key();
            let _ = key;
            None::<String>
        };
        let _ = check;
        let flagging = |sys: &System| -> Option<String> {
            sys.output(crate::process::ProcessId(0))
                .filter(|v| *v == Value::Int(0))
                .map(|v| format!("p0 output {v}"))
        };
        let report = run_campaign(&config, factory, &flagging);
        for failure in &report.failures {
            let spec = SchedulerSpec::parse(&failure.scheduler).unwrap();
            let replayed = replay_run(
                &spec,
                failure.seed,
                config.budget,
                factory,
                &flagging,
            );
            assert_eq!(replayed.violation, failure.violation);
            assert_eq!(replayed.steps, failure.steps);
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 5,
            budget: 200,
            threads: 1,
        };
        let report = run_campaign(&config, factory, &|_| None);
        let json = report.to_json();
        assert!(json.contains("\"total_runs\": 5"));
        assert!(json.contains("\"schedulers\": [\"random\"]"));
        assert!(json.contains("\"failures\": ["));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parse_errors_are_structured_bad_specs() {
        for bad in ["frobnicate", "quantum:x", "crash"] {
            match SchedulerSpec::parse(bad) {
                Err(ModelError::BadSpec { spec, reason }) => {
                    assert_eq!(spec, bad);
                    assert!(!reason.is_empty());
                }
                other => panic!("`{bad}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn panicking_run_yields_structured_worker_panic_record() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 6,
            budget: 500,
            threads: 2,
        };
        // Seed 3's factory panics; the campaign must survive, record a
        // WorkerPanic failure with the seed, and finish the other runs.
        let exploding = |seed: u64| {
            assert!(seed != 3, "injected failure for seed 3");
            factory(seed)
        };
        let report = run_campaign(&config, exploding, &|_| None);
        assert_eq!(report.total_runs, 6);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.seed, 3);
        let err = failure.error.as_deref().unwrap();
        assert!(err.contains("worker panic"), "error was: {err}");
        assert!(err.contains("seed 3"), "error was: {err}");
        assert!(err.contains("injected failure"), "error was: {err}");
    }

    #[test]
    fn transient_panic_heals_on_retry_and_is_reported() {
        use std::sync::atomic::AtomicUsize;

        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 4,
            budget: 500,
            threads: 1,
        };
        // Seed 2's factory panics exactly once — a transient fault the
        // supervisor must absorb by retrying the cell.
        let glitches = AtomicUsize::new(0);
        let flaky = |seed: u64| {
            if seed == 2 && glitches.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient glitch");
            }
            factory(seed)
        };
        let report = run_campaign(&config, flaky, &|_| None);
        assert_eq!(report.total_runs, 4);
        assert!(
            report.failures.is_empty(),
            "the retried cell must not be lost: {:?}",
            report.failures
        );
        assert_eq!(report.terminated_runs, 4);
        assert_eq!(report.retried_runs, 1, "exactly one cell was retried");
        assert!(report.to_json().contains("\"retried_runs\": 1"));
    }

    #[test]
    fn persistent_panic_still_fails_after_retries_with_attempt_count() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 2,
            budget: 500,
            threads: 1,
        };
        let exploding = |seed: u64| {
            assert!(seed != 1, "persistent failure for seed 1");
            factory(seed)
        };
        let options = CampaignOptions {
            retries: 3,
            retry_backoff: Duration::from_micros(10),
            ..CampaignOptions::default()
        };
        let report = run_campaign_with(&config, &options, exploding, &|_| None);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 4, "1 try + 3 retries");
        assert_eq!(report.retried_runs, 1);
    }

    #[test]
    fn fault_campaign_retries_transient_panics() {
        use std::sync::atomic::AtomicUsize;

        let config = FaultCampaignConfig {
            base: SchedulerSpec::RoundRobin,
            plans: vec![FaultPlan::none(), FaultPlan::parse("crash@0:1").unwrap()],
            seed_start: 0,
            runs: 2,
            budget: 500,
            threads: 1,
        };
        let glitches = AtomicUsize::new(0);
        let flaky = |seed: u64| {
            if seed == 1 && glitches.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient fault-run glitch");
            }
            factory(seed)
        };
        let report = run_fault_campaign(&config, flaky, &|_, _| None);
        assert_eq!(report.total_runs, 4);
        assert!(report.is_certified(), "failures: {:?}", report.failures);
        assert_eq!(report.retried_runs, 1);
        assert!(report.to_json().contains("\"retried_runs\": 1"));
    }

    /// Updates forever; never terminates.
    #[derive(Clone, Debug)]
    struct Spinner;

    impl SnapshotProtocol for Spinner {
        fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
            ProtocolStep::Update(0, Value::Int(0))
        }
        fn components(&self) -> usize {
            1
        }
    }

    #[test]
    fn pathological_cell_times_out_with_structured_error() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 1,
            budget: usize::MAX,
            threads: 1,
        };
        let spinner = |_seed: u64| {
            System::new(
                vec![Object::snapshot(1)],
                vec![Box::new(SnapshotProcess::new(Spinner, ObjectId(0)))
                    as Box<dyn Process>],
            )
        };
        let options = CampaignOptions {
            cell_timeout: Some(Duration::from_millis(20)),
            ..CampaignOptions::default()
        };
        let report = run_campaign_with(&config, &options, spinner, &|_| None);
        assert_eq!(report.total_runs, 1, "the cell is recorded, not lost");
        assert_eq!(report.failures.len(), 1);
        let err = report.failures[0].error.as_deref().unwrap();
        assert!(err.contains("cell timeout"), "error was: {err}");
        assert!(err.contains("seed 0"), "error was: {err}");
        assert_eq!(
            report.retried_runs, 0,
            "timeouts are deterministic and must not be retried"
        );
    }

    #[test]
    fn soft_deadline_degrades_budget_before_the_hard_stop() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 4,
            budget: 400,
            threads: 1,
        };
        // Seed 0 burns most of the wall budget; the remaining cells must
        // still run, but on the degraded (quarter) budget.
        let slow_start = |seed: u64| {
            if seed == 0 {
                std::thread::sleep(Duration::from_millis(500));
            }
            factory(seed)
        };
        let report = run_campaign_with(
            &config,
            &CampaignOptions {
                wall_limit: Some(Duration::from_millis(600)),
                ..CampaignOptions::default()
            },
            slow_start,
            &|_| None,
        );
        assert!(
            report.degraded_runs >= 1,
            "cells past the soft deadline must be counted as degraded: {:?}",
            report.to_json()
        );
        assert!(report.total_runs >= 2, "degraded cells still execute");
        assert!(report.to_json().contains("\"degraded_runs\""));
    }

    #[test]
    fn watchdog_truncation_still_flushes_a_final_checkpoint() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 30,
            budget: 500,
            threads: 2,
        };
        let dir = std::env::temp_dir().join(format!(
            "rsim-truncated-ckpt-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.checkpoint.json");
        let report = run_campaign_with(
            &config,
            &CampaignOptions {
                stop_after: Some(5),
                checkpoint_path: Some(path.clone()),
                ..CampaignOptions::default()
            },
            factory,
            &|_| None,
        );
        assert!(report.truncation.is_some());
        let checkpoint = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(
            checkpoint.completed.len(),
            report.total_runs,
            "the final flush must capture every completed run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_count_watchdog_truncates_gracefully() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 40,
            budget: 500,
            threads: 1,
        };
        let options = CampaignOptions {
            stop_after: Some(10),
            ..CampaignOptions::default()
        };
        let report = run_campaign_with(&config, &options, factory, &|_| None);
        assert_eq!(report.total_runs, 10);
        assert_eq!(report.skipped_runs, 30);
        let notice = report.truncation.as_deref().unwrap();
        assert!(notice.contains("30 of 40"), "notice was: {notice}");
        assert!(!report.is_clean(), "a truncated campaign is not clean");
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let checkpoint = CampaignCheckpoint {
            spec: Some("protocol=racing sched=random seeds=0+40 budget=500".into()),
            completed: vec![
                (
                    0,
                    RunRecord {
                        scheduler: "random".into(),
                        seed: 5,
                        steps: 17,
                        terminated: true,
                        violation: None,
                        error: None,
                        attempts: 1,
                        pruned: 4,
                        prefilter_hits: 2,
                        static_indep_pairs: 1,
                    },
                ),
                (
                    3,
                    RunRecord {
                        scheduler: "crash:1".into(),
                        seed: 8,
                        steps: 2,
                        terminated: false,
                        violation: Some("p0 output \"x\"".into()),
                        error: None,
                        attempts: 3,
                        pruned: 0,
                        prefilter_hits: 0,
                        static_indep_pairs: 0,
                    },
                ),
            ],
            fingerprints: vec![1, u64::MAX, 0xcbf2_9ce4_8422_2325],
        };
        let parsed = CampaignCheckpoint::parse(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed.fingerprints, checkpoint.fingerprints);
        assert_eq!(parsed.completed.len(), 2);
        assert_eq!(parsed.completed[0].0, 0);
        assert_eq!(parsed.completed[1].1.violation.as_deref(), Some("p0 output \"x\""));
        assert!(parsed.completed[1].1.error.is_none());
        assert_eq!(parsed.completed[1].1.seed, 8);
        assert_eq!(parsed.completed[0].1.attempts, 1);
        assert_eq!(parsed.completed[1].1.attempts, 3);
        assert_eq!(parsed.completed[0].1.prefilter_hits, 2);
        assert_eq!(parsed.completed[0].1.static_indep_pairs, 1);
        assert_eq!(parsed.completed[1].1.prefilter_hits, 0);
    }

    #[test]
    fn pre_supervisor_checkpoints_still_parse() {
        // Checkpoints written before the supervisor existed have no
        // `attempts` field; they load with attempts = 1.
        let legacy = r#"{
            "version": 1,
            "completed": [
                {"index": 0, "scheduler": "rr", "seed": 0, "steps": 9,
                 "terminated": true, "violation": null, "error": null}
            ],
            "fingerprints": [7]
        }"#;
        let parsed = CampaignCheckpoint::parse(legacy).unwrap();
        assert_eq!(parsed.completed[0].1.attempts, 1);
    }

    #[test]
    fn resumed_campaign_matches_uninterrupted_bit_for_bit() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random, SchedulerSpec::RoundRobin],
            seed_start: 3,
            runs: 15,
            budget: 500,
            threads: 2,
        };
        let dir = std::env::temp_dir().join(format!(
            "rsim-ckpt-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.checkpoint.json");

        let uninterrupted = run_campaign(&config, factory, &|_| None);

        // Interrupt after 12 of 30 runs; the final checkpoint captures
        // what completed.
        let interrupted = run_campaign_with(
            &config,
            &CampaignOptions {
                stop_after: Some(12),
                checkpoint_every: Some(4),
                checkpoint_path: Some(path.clone()),
                ..CampaignOptions::default()
            },
            factory,
            &|_| None,
        );
        assert!(interrupted.skipped_runs > 0);

        // Resume and compare aggregates bit-for-bit.
        let checkpoint = CampaignCheckpoint::load(&path).unwrap();
        assert!(!checkpoint.completed.is_empty());
        let resumed = run_campaign_with(
            &config,
            &CampaignOptions {
                resume_from: Some(checkpoint),
                ..CampaignOptions::default()
            },
            factory,
            &|_| None,
        );
        assert_eq!(resumed.total_runs, uninterrupted.total_runs);
        assert_eq!(resumed.terminated_runs, uninterrupted.terminated_runs);
        assert_eq!(resumed.distinct_configs, uninterrupted.distinct_configs);
        assert_eq!(resumed.total_steps, uninterrupted.total_steps);
        assert_eq!(resumed.skipped_runs, 0);
        assert!(resumed.truncation.is_none());
        for (a, b) in resumed
            .per_scheduler
            .iter()
            .zip(uninterrupted.per_scheduler.iter())
        {
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.terminated, b.terminated);
            assert_eq!(a.total_steps, b.total_steps);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_budget_is_reported_as_truncation() {
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::Random],
            seed_start: 0,
            runs: 20,
            budget: 500,
            threads: 1,
        };
        let options = CampaignOptions {
            cache_budget: Some(8),
            ..CampaignOptions::default()
        };
        let report = run_campaign_with(&config, &options, factory, &|_| None);
        assert!(report.cache_truncated, "an 8-entry budget must evict");
        let json = report.to_json();
        assert!(json.contains("\"cache_truncated\": true"));
    }

    #[test]
    fn fault_campaign_certifies_single_crash_space() {
        // Every single-crash placement over 3 processes × 8 crash
        // points: survivors must always terminate (the protocol is
        // wait-free, hence non-blocking under crash-stopped processes).
        let config = FaultCampaignConfig {
            base: SchedulerSpec::RoundRobin,
            plans: FaultPlan::single_crash_plans(3, 7),
            seed_start: 0,
            runs: 2,
            budget: 2_000,
            threads: 2,
        };
        let report = run_fault_campaign(&config, factory, &|_, _| None);
        assert_eq!(report.plans, 24);
        assert_eq!(report.total_runs, 48);
        assert!(report.is_certified(), "failures: {:?}", report.failures);
        let json = report.to_json();
        assert!(json.contains("\"certified\": true"));
    }

    #[test]
    fn fault_campaign_is_thread_count_independent() {
        let mk = |threads| FaultCampaignConfig {
            base: SchedulerSpec::Random,
            plans: FaultPlan::single_crash_plans(3, 5),
            seed_start: 11,
            runs: 3,
            budget: 1_000,
            threads,
        };
        let base = run_fault_campaign(&mk(1), factory, &|_, _| None);
        for threads in [2, 8] {
            let report = run_fault_campaign(&mk(threads), factory, &|_, _| None);
            assert_eq!(report.total_runs, base.total_runs);
            assert_eq!(report.certified_runs, base.certified_runs);
            assert_eq!(report.total_steps, base.total_steps);
        }
    }

    #[test]
    fn fault_campaign_panic_names_plan_and_seed() {
        let config = FaultCampaignConfig {
            base: SchedulerSpec::RoundRobin,
            plans: vec![
                FaultPlan::none(),
                FaultPlan::parse("crash@1:2").unwrap(),
            ],
            seed_start: 0,
            runs: 2,
            budget: 500,
            threads: 2,
        };
        let exploding = |seed: u64| {
            assert!(seed != 1, "injected fault-run failure");
            factory(seed)
        };
        let report = run_fault_campaign(&config, exploding, &|_, _| None);
        assert_eq!(report.total_runs, 4);
        assert_eq!(report.failures.len(), 2, "one per plan at seed 1");
        for failure in &report.failures {
            assert_eq!(failure.seed, 1);
            let err = failure.error.as_deref().unwrap();
            assert!(err.contains("worker panic"), "error was: {err}");
            assert!(err.contains("plan"), "error was: {err}");
            assert!(err.contains("seed 1"), "error was: {err}");
        }
    }

    #[test]
    fn fault_replay_reproduces_campaign_records() {
        let config = FaultCampaignConfig {
            base: SchedulerSpec::Random,
            plans: FaultPlan::single_crash_plans(3, 3),
            seed_start: 0,
            runs: 2,
            budget: 1_000,
            threads: 4,
        };
        // Flag every run so records survive into the report, then check
        // each replays identically.
        let flag_all = |_: &System, _: &[ProcessId]| Some("flag".to_string());
        let report = run_fault_campaign(&config, factory, &flag_all);
        assert_eq!(report.failures.len(), report.total_runs);
        for record in report.failures.iter().take(6) {
            let plan = FaultPlan::parse(&record.plan).unwrap();
            let replayed =
                replay_fault_run(&config, &plan, record.seed, factory, &flag_all);
            assert_eq!(replayed.steps, record.steps);
            assert_eq!(replayed.crashed, record.crashed);
            assert_eq!(replayed.survivors_terminated, record.survivors_terminated);
        }
    }
}
