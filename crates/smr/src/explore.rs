//! Exhaustive schedule exploration (bounded model checking).
//!
//! For small systems we can enumerate *every* interleaving up to a depth
//! bound, deduplicating indistinguishable configurations. This is how we
//! machine-check protocol properties the paper assumes of Π:
//!
//! * validity/agreement on all reachable terminal configurations
//!   ([`Explorer::explore`] with a terminal predicate);
//! * obstruction-freedom: from every reachable configuration, every solo
//!   execution terminates ([`Explorer::check_solo_termination`]);
//! * x-obstruction-freedom via [`Explorer::check_group_termination`].
//!
//! # Sequential and parallel modes
//!
//! [`Explorer::explore`] is the classic single-threaded DFS with a
//! mutable check; it stops at the first violation in DFS order.
//!
//! [`Explorer::explore_parallel`] is a level-synchronised breadth-first
//! frontier over schedule prefixes: at each depth, worker threads steal
//! chunks of the frontier, expand and check configurations in parallel,
//! and pre-filter duplicates through a shared visited-state map. Chunk
//! results are merged in frontier order and deduplicated canonically,
//! which makes every report field — `configs_visited`, `terminals`,
//! and the first violation — **bit-for-bit identical at every thread
//! count**. The violation reported is the first in canonical schedule
//! order (shortest schedule first, then lexicographic by process id),
//! independent of which thread happened to find it.
//!
//! # Partial-order reduction
//!
//! Both modes apply **happens-before-guided dynamic partial-order
//! reduction** (on by default, see [`Explorer::with_dpor`]): sleep sets
//! over schedule prefixes, driven by the exact step-commutation oracle
//! in [`crate::hb`]. Processes are deterministic, so every
//! configuration reveals each process's next operation
//! ([`System::poised`]); when the next steps of `p` and `q` commute,
//! only one order of the adjacent pair is forked and the other is put
//! to sleep. The *source set* of a configuration — the processes worth
//! branching on — is therefore its enabled set minus the sleep set
//! carried by the arriving prefix.
//!
//! The variant implemented here is sleep sets **with state matching**
//! (re-arrival at a visited configuration wakes whatever the sleep set
//! no longer justifies skipping), which prunes redundant *forks* but
//! never loses a reachable *configuration*: every state a full search
//! visits is still visited, so checks see the same states, verdicts
//! are identical with the reduction on or off, and the canonical
//! (shortest, lexicographically least) violation schedule is preserved
//! — commuting-swap–equivalent schedules have equal length, so the
//! lex-least shortest witness always survives pruning. Suppressed
//! forks are tallied in [`ExploreReport::pruned`]; the headline metric
//! is [`ExploreReport::reduction_factor`].

use crate::error::ModelError;
use crate::hb::independent;
use crate::object::Operation;
use crate::process::{Poised, ProcessId};
use crate::system::System;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sleep and claim sets are process-id bit masks; systems with more
/// processes than this fall back to unreduced exploration (the report's
/// `dpor` flag records the fallback).
const DPOR_MAX_PROCS: usize = 32;

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum schedule depth per branch.
    pub max_depth: usize,
    /// Maximum number of distinct configurations to visit.
    pub max_configs: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_depth: 64, max_configs: 200_000 }
    }
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct configurations visited.
    pub configs_visited: usize,
    /// Terminal (all-terminated) configurations found.
    pub terminals: usize,
    /// Redundant forks suppressed by partial-order reduction: enabled
    /// steps left unexplored at some configuration because every
    /// execution through them is a commuting-swap rearrangement of one
    /// that was explored. `0` when DPOR is off.
    pub pruned: usize,
    /// Whether partial-order reduction was active for this run (the
    /// configured setting, downgraded to `false` for systems with more
    /// than 32 processes).
    pub dpor: bool,
    /// Whether exploration was cut off by [`Limits`] or a wall-clock
    /// watchdog.
    pub truncated: bool,
    /// Set when a wall-clock watchdog cut the exploration short — a
    /// truncated search is reported, never silently passed off as
    /// exhaustive.
    pub truncation: Option<String>,
    /// The first violation found, if any: the schedule that produced it
    /// and a description. Sequential mode reports the first violation
    /// in DFS order; parallel mode reports the first in canonical
    /// (breadth-first, lexicographic) schedule order.
    pub violation: Option<(Vec<ProcessId>, String)>,
}

impl ExploreReport {
    /// Did the exploration complete with no violation?
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }

    /// The partial-order reduction factor: how many branch expansions
    /// an unreduced search pays per expansion this search paid —
    /// `(visited + pruned) / visited`. `1.0` means no reduction.
    pub fn reduction_factor(&self) -> f64 {
        if self.configs_visited == 0 {
            return 1.0;
        }
        (self.configs_visited + self.pruned) as f64 / self.configs_visited as f64
    }
}

/// A check evaluated on every visited configuration by the parallel
/// explorer; returns a violation description to flag the configuration.
pub type ParallelCheck<'a> = &'a (dyn Fn(&System) -> Option<String> + Sync);

/// Bounded exhaustive explorer over schedules of a [`System`].
#[derive(Clone, Debug)]
pub struct Explorer {
    limits: Limits,
    threads: usize,
    wall_limit: Option<Duration>,
    soft_wall_limit: Option<Duration>,
    preflight: bool,
    dpor: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            limits: Limits::default(),
            threads: 1,
            wall_limit: None,
            soft_wall_limit: None,
            preflight: true,
            dpor: true,
        }
    }
}

impl Explorer {
    /// Creates an explorer with the given limits (single-threaded until
    /// configured with [`Explorer::with_threads`]).
    pub fn new(limits: Limits) -> Self {
        Explorer { limits, ..Explorer::default() }
    }

    /// Sets the worker-thread count used by the `*_parallel` methods.
    /// `0` means one worker per available CPU core.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Arms a wall-clock watchdog: when it fires, exploration stops
    /// gracefully with `truncated` set and a `truncation` notice in
    /// the report (results found so far are kept).
    ///
    /// The parallel explorer degrades before it dies: once 80% of the
    /// wall limit has elapsed (the *soft* deadline, tunable via
    /// [`Explorer::with_soft_wall_limit`]), each frontier level is
    /// capped to a quarter of its size — keeping the canonical prefix,
    /// so what *is* explored stays deterministic — which narrows the
    /// search instead of cutting it off mid-level at the hard stop.
    #[must_use]
    pub fn with_wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Overrides the soft (degradation) deadline used by the parallel
    /// explorer. Defaults to 80% of the wall limit; has no effect
    /// without [`Explorer::with_wall_limit`].
    #[must_use]
    pub fn with_soft_wall_limit(mut self, limit: Duration) -> Self {
        self.soft_wall_limit = Some(limit);
        self
    }

    /// Enables or disables the mandatory pre-flight analysis (on by
    /// default): before any schedule runs, the static linter
    /// ([`crate::analyze::preflight`]) checks the initial system and a
    /// deny-level finding aborts the exploration with
    /// [`ModelError::PreflightRejected`]. Disable only to study a
    /// deliberately ill-formed protocol.
    #[must_use]
    pub fn with_preflight(mut self, preflight: bool) -> Self {
        self.preflight = preflight;
        self
    }

    /// Enables or disables happens-before-guided dynamic partial-order
    /// reduction (on by default). With the reduction off every enabled
    /// process is branched on at every configuration — the escape
    /// hatch for differential testing and for auditing the reduction
    /// itself. Either way the same configurations are visited and the
    /// same verdicts reached; DPOR only suppresses redundant forks
    /// (tallied in [`ExploreReport::pruned`]).
    #[must_use]
    pub fn with_dpor(mut self, dpor: bool) -> Self {
        self.dpor = dpor;
        self
    }

    /// The configured worker-thread count (`0` = all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether partial-order reduction is configured on.
    pub fn dpor(&self) -> bool {
        self.dpor
    }

    fn run_preflight(&self, initial: &System) -> Result<(), ModelError> {
        if self.preflight {
            crate::analyze::preflight(initial, &crate::analyze::LintConfig::default())?;
        }
        Ok(())
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        }
    }

    /// Whether DPOR is effective for `initial` (configured on and the
    /// process count fits the bit-mask representation).
    fn dpor_for(&self, initial: &System) -> bool {
        self.dpor && initial.process_count() <= DPOR_MAX_PROCS
    }

    /// Explores all schedules from `initial`, invoking `check` on every
    /// visited configuration (with the schedule so far). `check` returns
    /// a violation description to stop the search.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn explore(
        &self,
        initial: &System,
        check: &mut dyn FnMut(&System) -> Option<String>,
    ) -> Result<ExploreReport, ModelError> {
        self.run_preflight(initial)?;
        let dpor = self.dpor_for(initial);
        let mut report = ExploreReport {
            configs_visited: 0,
            terminals: 0,
            pruned: 0,
            dpor,
            truncated: false,
            truncation: None,
            violation: None,
        };
        let deadline = self.wall_limit.map(|limit| Instant::now() + limit);
        let mut seen: HashMap<u64, StateMeta> = HashMap::new();
        // The schedule so far is not stored per stack entry: it is the
        // suffix of each configuration's (copy-on-write, shared) trace
        // past the initial configuration, recovered only when a
        // violation needs reporting. Each entry carries only its sleep
        // set — the processes whose next step is a commuting swap of a
        // branch already taken elsewhere.
        let base_depth = initial.trace().len();
        let mut stack: Vec<(System, u32)> = vec![(initial.clone(), 0)];
        while let Some((mut sys, sleep)) = stack.pop() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                report.truncated = true;
                report.truncation =
                    Some("wall-clock limit reached during DFS".into());
                break;
            }
            let fp = sys.config_fingerprint();
            let first = !seen.contains_key(&fp);
            if first {
                seen.insert(fp, StateMeta::default());
                report.configs_visited += 1;
                if report.configs_visited > self.limits.max_configs {
                    report.truncated = true;
                    break;
                }
                if let Some(msg) = check(&sys) {
                    report.violation = Some((schedule_since(&sys, base_depth), msg));
                    break;
                }
                if sys.all_terminated() {
                    report.terminals += 1;
                    continue;
                }
                if sys.trace().len() - base_depth >= self.limits.max_depth {
                    report.truncated = true;
                    continue;
                }
            } else {
                // Re-arrival. Without DPOR a duplicate has nothing
                // left to offer (every live process was branched on at
                // first arrival); with it, state matching may wake
                // processes the first arrival's sleep set suppressed —
                // but only from a prefix that can still expand at all.
                if !dpor {
                    continue;
                }
                if sys.all_terminated() {
                    continue;
                }
                if sys.trace().len() - base_depth >= self.limits.max_depth {
                    report.truncated = true;
                    continue;
                }
            }
            let masks = StepMasks::of(&sys, dpor);
            let meta = seen.get_mut(&fp).expect("visited entry exists");
            let claim = masks.enabled & !sleep & !meta.expanded;
            if dpor {
                let newly_slept = masks.enabled & sleep & !meta.expanded & !meta.slept;
                meta.slept |= newly_slept;
                report.pruned += newly_slept.count_ones() as usize;
                let reclaimed = claim & meta.slept;
                meta.slept &= !reclaimed;
                report.pruned -= reclaimed.count_ones() as usize;
            }
            meta.expanded |= claim;
            if claim == 0 {
                continue;
            }
            // Seal the trace so each fork below copies zero events, and
            // move the parent into its last child instead of cloning it
            // one extra time.
            sys.freeze_trace();
            let mut remaining = claim;
            while remaining != 0 {
                let q = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let child_sleep = if dpor {
                    masks.indep[q] & (sleep | (claim & low_bits(q)))
                } else {
                    0
                };
                if remaining == 0 {
                    sys.step(ProcessId(q))?;
                    stack.push((sys, child_sleep));
                    break;
                }
                let mut fork = sys.clone();
                fork.step(ProcessId(q))?;
                stack.push((fork, child_sleep));
            }
        }
        Ok(report)
    }

    /// Parallel exhaustive exploration: a level-synchronised frontier
    /// over schedule prefixes, with worker threads stealing chunks of
    /// each level and a shared visited-state map deduplicating
    /// configurations.
    ///
    /// Every field of the returned report is deterministic — identical
    /// at 1, 2, or N threads — because chunk results are merged in
    /// frontier order and the violation chosen is the canonically first
    /// (shortest schedule, then lexicographically smallest).
    ///
    /// Unlike [`Explorer::explore`], the check must be `Fn + Sync`; it
    /// runs concurrently on many configurations.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system (the
    /// canonically first error when several workers fail).
    pub fn explore_parallel(
        &self,
        initial: &System,
        check: ParallelCheck,
    ) -> Result<ExploreReport, ModelError> {
        self.explore_parallel_inner(initial, check, false)
            .map(|(report, _)| report)
    }

    fn explore_parallel_inner(
        &self,
        initial: &System,
        check: ParallelCheck,
        collect_terminals: bool,
    ) -> Result<(ExploreReport, Vec<Vec<Value>>), ModelError> {
        self.run_preflight(initial)?;
        let threads = self.resolved_threads();
        let dpor = self.dpor_for(initial);
        let mut report = ExploreReport {
            configs_visited: 0,
            terminals: 0,
            pruned: 0,
            dpor,
            truncated: false,
            truncation: None,
            violation: None,
        };
        let start = Instant::now();
        let deadline = self.wall_limit.map(|limit| start + limit);
        // Degradation ladder, rung 1: past the soft deadline (80% of the
        // wall limit by default) each frontier level keeps only its
        // canonical prefix — breadth shrinks before the hard stop cuts
        // the search off entirely.
        let soft_deadline = self.wall_limit.map(|limit| {
            start + self.soft_wall_limit.unwrap_or(limit / 5 * 4)
        });
        let mut capped_entries = 0usize;
        let mut terminal_outputs: Vec<Vec<Value>> = Vec::new();
        let mut seen_outputs: HashSet<Vec<Value>> = HashSet::new();

        // Workers read the visited map of all *previous* levels as a
        // duplicate pre-filter; the merge below is the only writer, and
        // runs strictly between levels.
        let mut visited: HashMap<u64, StateMeta> = HashMap::new();
        let root_masks = StepMasks::of(initial, dpor);
        visited.insert(
            initial.config_fingerprint(),
            StateMeta { expanded: root_masks.enabled, slept: 0 },
        );
        report.configs_visited = 1;
        let base_depth = initial.trace().len();
        let mut root = initial.clone();
        root.freeze_trace();
        let mut frontier: Vec<Prefix> = vec![Prefix {
            sys: root,
            sleep: 0,
            claim: root_masks.enabled,
            first: true,
        }];
        // Children the merge deduplicated away; the next level's
        // workers drop them.
        let mut discard: Vec<System> = Vec::new();

        while !frontier.is_empty() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                report.truncated = true;
                report.truncation = Some(
                    "wall-clock limit reached between frontier levels".into(),
                );
                break;
            }
            if frontier.len() > 1
                && soft_deadline.is_some_and(|d| Instant::now() >= d)
            {
                let cap = (frontier.len() / 4).max(1);
                capped_entries += frontier.len() - cap;
                frontier.truncate(cap);
                report.truncated = true;
                report.truncation = Some(format!(
                    "soft wall deadline: degraded to canonical frontier \
                     prefixes ({capped_entries} entries shed so far)"
                ));
            }
            let level = Level {
                base_depth,
                check,
                visited: &visited,
                max_depth: self.limits.max_depth,
                dpor,
            };
            let mut chunks =
                run_level(frontier, std::mem::take(&mut discard), threads, &level);

            // Merge chunk results in frontier order: every aggregate
            // below is then independent of worker scheduling.
            chunks.sort_by_key(|c| c.start);
            let error = chunks
                .iter()
                .filter_map(|c| c.error.as_ref())
                .min_by_key(|(idx, _)| *idx);
            let mut violation: Option<(usize, Vec<ProcessId>, String)> = None;
            for chunk in &chunks {
                if let Some((idx, sched, msg)) = &chunk.violation {
                    if violation.as_ref().is_none_or(|(best, _, _)| idx < best) {
                        violation = Some((*idx, sched.clone(), msg.clone()));
                    }
                }
            }
            // When a level has both an error and a violation, report
            // whichever occurred at the canonically smaller frontier
            // index — this keeps the outcome identical across thread
            // counts (chunk boundaries depend on the thread count).
            if let Some((err_idx, err)) = error {
                if violation
                    .as_ref()
                    .is_none_or(|(vio_idx, _, _)| err_idx < vio_idx)
                {
                    return Err(err.clone());
                }
            }
            let mut children: Vec<Vec<Child>> = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                report.terminals += chunk.terminals;
                report.truncated |= chunk.truncated;
                if collect_terminals {
                    for outs in chunk.terminal_outputs {
                        if seen_outputs.insert(outs.clone()) {
                            terminal_outputs.push(outs);
                        }
                    }
                }
                children.push(chunk.children);
            }
            if let Some((_, sched, msg)) = violation {
                report.violation = Some((sched, msg));
                break;
            }

            // Canonical dedup: children arrive ordered by (parent
            // frontier index, process id) — exactly the breadth-first
            // lexicographic order — so the first occurrence of each
            // configuration carries its canonical schedule (recoverable
            // from its trace). Under DPOR, a re-arrival may still wake
            // processes its sleep set no longer covers (state
            // matching): it re-enters the frontier as a non-`first`
            // prefix that is expanded but not re-counted or re-checked.
            let mut next = Vec::new();
            for child in children.into_iter().flatten() {
                let Child { sys, fp, sleep, enabled } = child;
                match visited.get_mut(&fp) {
                    None => {
                        if report.configs_visited >= self.limits.max_configs {
                            report.truncated = true;
                            break;
                        }
                        report.configs_visited += 1;
                        let claim = enabled & !sleep;
                        let slept = if dpor { enabled & sleep } else { 0 };
                        report.pruned += slept.count_ones() as usize;
                        visited.insert(fp, StateMeta { expanded: claim, slept });
                        next.push(Prefix { sys, sleep, claim, first: true });
                    }
                    Some(meta) => {
                        if !dpor {
                            discard.push(sys);
                            continue;
                        }
                        let claim = enabled & !sleep & !meta.expanded;
                        let newly_slept =
                            enabled & sleep & !meta.expanded & !meta.slept;
                        meta.slept |= newly_slept;
                        report.pruned += newly_slept.count_ones() as usize;
                        let reclaimed = claim & meta.slept;
                        meta.slept &= !reclaimed;
                        report.pruned -= reclaimed.count_ones() as usize;
                        meta.expanded |= claim;
                        if claim != 0 {
                            next.push(Prefix { sys, sleep, claim, first: false });
                        } else {
                            discard.push(sys);
                        }
                    }
                }
            }
            if report.truncated && next.is_empty() {
                break;
            }
            frontier = next;
        }
        Ok((report, terminal_outputs))
    }

    /// Collects the set of output vectors over all reachable terminal
    /// configurations. Each vector is indexed by process.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn terminal_outputs(
        &self,
        initial: &System,
    ) -> Result<(Vec<Vec<Value>>, ExploreReport), ModelError> {
        let mut outputs: Vec<Vec<Value>> = Vec::new();
        let mut seen_outputs: HashSet<Vec<Value>> = HashSet::new();
        let report = self.explore(initial, &mut |sys| {
            if sys.all_terminated() {
                let outs: Vec<Value> =
                    sys.outputs().into_iter().map(Option::unwrap).collect();
                if seen_outputs.insert(outs.clone()) {
                    outputs.push(outs);
                }
            }
            None
        })?;
        Ok((outputs, report))
    }

    /// Parallel [`Explorer::terminal_outputs`]: same output set, same
    /// report determinism guarantees as [`Explorer::explore_parallel`].
    /// Outputs are returned in canonical first-reached order.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn terminal_outputs_parallel(
        &self,
        initial: &System,
    ) -> Result<(Vec<Vec<Value>>, ExploreReport), ModelError> {
        let (report, outputs) =
            self.explore_parallel_inner(initial, &|_| None, true)?;
        Ok((outputs, report))
    }

    /// Checks obstruction-freedom empirically: from every reachable
    /// configuration (within limits), every live process terminates when
    /// run solo for at most `solo_budget` steps.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_solo_termination(
        &self,
        initial: &System,
        solo_budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.check_group_termination(initial, 1, solo_budget)
    }

    /// Parallel [`Explorer::check_solo_termination`] (Theorem 35's
    /// hypothesis checked across all cores).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_solo_termination_parallel(
        &self,
        initial: &System,
        solo_budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.check_group_termination_parallel(initial, 1, solo_budget)
    }

    /// Checks x-obstruction-freedom empirically: from every reachable
    /// configuration, for every group of at most `x` live processes
    /// (rotations of the live set) and for several round-robin quanta
    /// (each member taking 1, 2, or 3 consecutive steps per turn —
    /// step-level and operation-level alternation differ for snapshot
    /// protocols), running only that group for `budget` steps
    /// terminates all of them.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_group_termination(
        &self,
        initial: &System,
        x: usize,
        budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.explore(initial, &mut |sys| group_termination_check(sys, x, budget))
    }

    /// Parallel [`Explorer::check_group_termination`]: the group-run
    /// check — the expensive part — fans out across worker threads.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_group_termination_parallel(
        &self,
        initial: &System,
        x: usize,
        budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.explore_parallel(initial, &move |sys| {
            group_termination_check(sys, x, budget)
        })
    }
}

/// The set of bits below bit `q`.
fn low_bits(q: usize) -> u32 {
    (1u32 << q) - 1
}

/// Splits `items` into consecutive chunks of `size` (the last may be
/// shorter), each tagged with the index of its first item, ordered so
/// that popping yields them front to back. Splitting from the back
/// moves every item once.
fn split_into_chunks<T>(mut items: Vec<T>, size: usize) -> Vec<(usize, Vec<T>)> {
    let mut chunks = Vec::with_capacity(items.len().div_ceil(size));
    while !items.is_empty() {
        let start = (items.len() - 1) / size * size;
        let chunk = if start == 0 {
            std::mem::take(&mut items)
        } else {
            items.split_off(start)
        };
        chunks.push((start, chunk));
    }
    chunks
}

/// Per-configuration bookkeeping for sleep-set pruning with state
/// matching, keyed by configuration fingerprint.
#[derive(Clone, Copy, Default)]
struct StateMeta {
    /// Processes already branched on from this configuration, over all
    /// arrivals.
    expanded: u32,
    /// Enabled processes a sleep set suppressed here, currently
    /// counted in `pruned` (a bit moves out again if a later arrival
    /// wakes and expands it).
    slept: u32,
}

/// The poised-step view of one configuration as process-id bit masks:
/// which processes are live, and which pairs of next operations
/// commute.
struct StepMasks {
    /// Live (non-terminated) processes.
    enabled: u32,
    /// Per process `q`: the processes whose next operation commutes
    /// with `q`'s (empty vector when DPOR is off — never read).
    indep: Vec<u32>,
}

impl StepMasks {
    /// Computes the masks for one configuration, asking the dynamic
    /// oracle ([`independent`]) about every pair of poised operations.
    fn of(sys: &System, dpor: bool) -> StepMasks {
        let n = sys.process_count();
        let mut ops: Vec<Option<Operation>> = Vec::with_capacity(n);
        let mut enabled = 0u32;
        for i in 0..n {
            match sys.poised(ProcessId(i)) {
                Poised::Step(op) => {
                    if i < DPOR_MAX_PROCS {
                        enabled |= 1 << i;
                    }
                    ops.push(Some(op));
                }
                Poised::Output(_) => ops.push(None),
            }
        }
        let mut indep = Vec::new();
        if dpor {
            indep = vec![0u32; n];
            for i in 0..n {
                let Some(op_i) = &ops[i] else { continue };
                for j in i + 1..n {
                    let Some(op_j) = &ops[j] else { continue };
                    if independent(op_i, op_j) {
                        indep[i] |= 1 << j;
                        indep[j] |= 1 << i;
                    }
                }
            }
        }
        StepMasks { enabled, indep }
    }
}

/// One schedule prefix awaiting expansion in the parallel frontier.
struct Prefix {
    sys: System,
    /// Sleep set this arrival carries (always 0 with DPOR off).
    sleep: u32,
    /// Processes to branch on from this entry, claimed canonically at
    /// merge time (ignored with DPOR off: every live process forks).
    claim: u32,
    /// First arrival at this configuration: it is counted, checked,
    /// and eligible to be a terminal. Re-arrivals only expand newly
    /// woken claims.
    first: bool,
}

/// One freshly forked configuration travelling from a worker to the
/// canonical merge.
struct Child {
    sys: System,
    fp: u64,
    /// Sleep set the fork inherited (0 with DPOR off).
    sleep: u32,
    /// Live processes of the fork (0 with DPOR off — never read).
    enabled: u32,
}

/// One worker chunk's share of a frontier level.
struct LevelChunk {
    /// Index of the first frontier entry in this chunk.
    start: usize,
    terminals: usize,
    truncated: bool,
    /// Lowest-index violation within the chunk.
    violation: Option<(usize, Vec<ProcessId>, String)>,
    /// Children in (parent index, process id) order, with fingerprints.
    children: Vec<Child>,
    /// Output vectors of terminal configurations in this chunk.
    terminal_outputs: Vec<Vec<Value>>,
    /// Lowest-index step error within the chunk.
    error: Option<(usize, ModelError)>,
}

/// What every worker of one frontier level reads.
#[derive(Clone, Copy)]
struct Level<'a> {
    /// Trace length of the initial configuration: the schedule of any
    /// entry is its trace suffix past that point.
    base_depth: usize,
    check: ParallelCheck<'a>,
    /// The visited map of all previous levels (the duplicate
    /// pre-filter).
    visited: &'a HashMap<u64, StateMeta>,
    max_depth: usize,
    dpor: bool,
}

/// Runs one frontier level across `threads` workers stealing chunks
/// from a shared queue. The level owns its frontier and the previous
/// merge's `discard`: each worker drops a share of the discards and
/// every entry it has expanded, so freeing configurations is spread
/// over the workers instead of falling on the serial merge.
fn run_level(
    frontier: Vec<Prefix>,
    discard: Vec<System>,
    threads: usize,
    level: &Level,
) -> Vec<LevelChunk> {
    let workers = threads.min(frontier.len());
    let chunk_size = frontier.len().div_ceil(threads * 4).max(1);
    let queue = Mutex::new(split_into_chunks(frontier, chunk_size));
    let per_worker = discard.len().div_ceil(workers).max(1);
    let garbage = Mutex::new(split_into_chunks(discard, per_worker));
    let results: Mutex<Vec<LevelChunk>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Popped first so the drop runs outside the lock.
                let share = garbage.lock().expect("level garbage lock").pop();
                drop(share);
                loop {
                    let Some((start, entries)) =
                        queue.lock().expect("level queue lock").pop()
                    else {
                        break;
                    };
                    let chunk = expand_chunk(entries, start, level);
                    results.lock().expect("level results lock").push(chunk);
                }
            });
        }
    });
    results.into_inner().expect("level results lock")
}

/// Checks and expands one chunk of frontier entries, dropping each
/// entry once it is expanded, and seals every child's trace so the
/// next level forks it without copying events.
fn expand_chunk(entries: Vec<Prefix>, start: usize, level: &Level) -> LevelChunk {
    let Level { base_depth, check, visited, max_depth, dpor } = *level;
    let mut out = LevelChunk {
        start,
        terminals: 0,
        truncated: false,
        violation: None,
        children: Vec::new(),
        terminal_outputs: Vec::new(),
        error: None,
    };
    for (offset, entry) in entries.into_iter().enumerate() {
        let idx = start + offset;
        let sys = &entry.sys;
        // Panic isolation: a panicking check (or a panic while forking)
        // becomes a structured WorkerPanic at this entry's canonical
        // index instead of tearing down the worker and hanging the
        // level barrier.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if entry.first {
                if let Some(msg) = check(sys) {
                    out.violation = Some((idx, schedule_since(sys, base_depth), msg));
                    // Later entries in the chunk cannot improve on this
                    // index.
                    return false;
                }
                if sys.all_terminated() {
                    out.terminals += 1;
                    out.terminal_outputs.push(
                        sys.outputs().into_iter().map(Option::unwrap).collect(),
                    );
                    return true;
                }
            }
            if sys.trace().len() - base_depth >= max_depth {
                out.truncated = true;
                return true;
            }
            if dpor {
                let masks = StepMasks::of(sys, true);
                let mut remaining = entry.claim;
                while remaining != 0 {
                    let q = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    let mut fork = sys.clone();
                    if let Err(err) = fork.step(ProcessId(q)) {
                        if out.error.is_none() {
                            out.error = Some((idx, err));
                        }
                        continue;
                    }
                    fork.freeze_trace();
                    let fp = fork.config_fingerprint();
                    let sleep =
                        masks.indep[q] & (entry.sleep | (entry.claim & low_bits(q)));
                    // Only stepping q can change liveness: the fork's
                    // enabled set is the parent's, minus q if it just
                    // terminated.
                    let enabled = if fork.is_terminated(ProcessId(q)) {
                        masks.enabled & !(1 << q)
                    } else {
                        masks.enabled
                    };
                    // Concurrent pre-filter against the previous
                    // levels' visited map: drop the fork only when the
                    // merge could not possibly claim anything from it.
                    // (`expanded` can only have grown since the map was
                    // frozen, so this never drops a live claim.)
                    if let Some(meta) = visited.get(&fp) {
                        if enabled & !sleep & !meta.expanded == 0 {
                            continue;
                        }
                    }
                    out.children.push(Child { sys: fork, fp, sleep, enabled });
                }
            } else {
                for i in 0..sys.process_count() {
                    let pid = ProcessId(i);
                    if sys.is_terminated(pid) {
                        continue;
                    }
                    let mut fork = sys.clone();
                    if let Err(err) = fork.step(pid) {
                        if out.error.is_none() {
                            out.error = Some((idx, err));
                        }
                        continue;
                    }
                    fork.freeze_trace();
                    let fp = fork.config_fingerprint();
                    // Concurrent pre-filter: configurations
                    // deduplicated at an earlier level never reach the
                    // merge. Within-level duplicates are resolved
                    // canonically by the merge itself.
                    if visited.contains_key(&fp) {
                        continue;
                    }
                    out.children.push(Child { sys: fork, fp, sleep: 0, enabled: 0 });
                }
            }
            true
        }));
        match attempt {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                let panic_err = ModelError::WorkerPanic {
                    context: format!(
                        "frontier entry {idx} (schedule {:?})",
                        schedule_since(sys, base_depth)
                            .iter()
                            .map(|p| p.0)
                            .collect::<Vec<_>>()
                    ),
                    message: payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into()),
                };
                if out.error.as_ref().is_none_or(|(best, _)| idx < *best) {
                    out.error = Some((idx, panic_err));
                }
            }
        }
    }
    out
}

/// The schedule that produced `sys`: the process ids of its trace
/// events past the initial configuration's `base_depth` events.
fn schedule_since(sys: &System, base_depth: usize) -> Vec<ProcessId> {
    sys.trace().events_from(base_depth).map(|e| e.pid).collect()
}

/// The x-obstruction-freedom check run on one configuration: every
/// rotation-group of at most `x` live processes, under quanta 1/2/3,
/// must terminate within `budget` steps. Shared by the sequential and
/// parallel explorer paths.
fn group_termination_check(sys: &System, x: usize, budget: usize) -> Option<String> {
    let n = sys.process_count();
    let quanta: &[usize] = if x == 1 { &[1] } else { &[1, 2, 3] };
    let live: Vec<ProcessId> = (0..n)
        .map(ProcessId)
        .filter(|&p| !sys.is_terminated(p))
        .collect();
    if live.is_empty() {
        return None;
    }
    // Rotations of the live set give n candidate groups of size
    // ≤ x; for x = 1 this is exactly "every solo execution".
    for start in 0..live.len() {
        let group: Vec<ProcessId> = (0..x.min(live.len()))
            .map(|k| live[(start + k) % live.len()])
            .collect();
        for &quantum in quanta {
            let mut fork = sys.clone();
            let mut steps = 0;
            'run: while steps < budget {
                let mut progressed = false;
                for &p in &group {
                    for _ in 0..quantum {
                        if fork.is_terminated(p) {
                            break;
                        }
                        if fork.step(p).is_err() {
                            return Some(format!(
                                "step error during group run of {group:?}"
                            ));
                        }
                        steps += 1;
                        progressed = true;
                        if steps >= budget {
                            break 'run;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            if group.iter().any(|&p| !fork.is_terminated(p)) {
                return Some(format!(
                    "group {group:?} failed to terminate within {budget} \
                     steps (quantum {quantum})"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};

    /// Writes its input then outputs the register's content.
    #[derive(Clone, Debug)]
    struct WriteThenRead {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for WriteThenRead {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(self.input))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn two_process_system() -> System {
        let mk = |input| {
            Box::new(SnapshotProcess::new(
                WriteThenRead { input, wrote: false },
                ObjectId(0),
            )) as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)])
    }

    /// `n` processes that each write their own snapshot component then
    /// output: heavy on commuting (different-component) updates, so
    /// DPOR should prune a lot.
    fn independent_writers(n: usize) -> System {
        #[derive(Clone, Debug)]
        struct OwnSlot {
            slot: usize,
            wrote: bool,
        }
        impl SnapshotProtocol for OwnSlot {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                if self.wrote {
                    ProtocolStep::Output(Value::Int(self.slot as i64))
                } else {
                    self.wrote = true;
                    ProtocolStep::Update(self.slot, Value::Int(1))
                }
            }
            fn components(&self) -> usize {
                4
            }
        }
        let processes = (0..n)
            .map(|slot| {
                Box::new(SnapshotProcess::new(
                    OwnSlot { slot, wrote: false },
                    ObjectId(0),
                )) as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(4)], processes)
    }

    #[test]
    fn explores_all_terminal_outputs() {
        let explorer = Explorer::default();
        let (outputs, report) =
            explorer.terminal_outputs(&two_process_system()).unwrap();
        assert!(!report.truncated);
        assert!(report.terminals > 0);
        // Outcomes: each process outputs the last write it saw; all four
        // combinations of {1,2}×{1,2} except impossible ones. At minimum
        // both-see-own and both-see-other occur.
        assert!(outputs.contains(&vec![Value::Int(1), Value::Int(2)]));
        assert!(outputs.len() >= 2);
    }

    #[test]
    fn parallel_terminal_outputs_match_sequential() {
        let explorer = Explorer::default().with_threads(4);
        let (seq, seq_report) =
            Explorer::default().terminal_outputs(&two_process_system()).unwrap();
        let (par, par_report) =
            explorer.terminal_outputs_parallel(&two_process_system()).unwrap();
        let mut seq_sorted: Vec<String> =
            seq.iter().map(|o| format!("{o:?}")).collect();
        let mut par_sorted: Vec<String> =
            par.iter().map(|o| format!("{o:?}")).collect();
        seq_sorted.sort();
        par_sorted.sort();
        assert_eq!(seq_sorted, par_sorted);
        assert_eq!(seq_report.configs_visited, par_report.configs_visited);
        assert_eq!(seq_report.terminals, par_report.terminals);
    }

    #[test]
    fn dpor_visits_the_same_states_and_verdicts() {
        // The cornerstone contract: sleep sets prune forks, never
        // configurations. On and off must agree on every count except
        // `pruned`, in both modes.
        for sys in [two_process_system(), independent_writers(3)] {
            let on = Explorer::default();
            let off = Explorer::default().with_dpor(false);
            let (out_on, rep_on) = on.terminal_outputs(&sys).unwrap();
            let (out_off, rep_off) = off.terminal_outputs(&sys).unwrap();
            assert_eq!(rep_on.configs_visited, rep_off.configs_visited);
            assert_eq!(rep_on.terminals, rep_off.terminals);
            let sort = |v: &[Vec<Value>]| {
                let mut s: Vec<String> = v.iter().map(|o| format!("{o:?}")).collect();
                s.sort();
                s
            };
            assert_eq!(sort(&out_on), sort(&out_off));
            assert!(rep_on.dpor);
            assert!(!rep_off.dpor);
            assert_eq!(rep_off.pruned, 0);

            let par_on = on.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            let par_off =
                off.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            assert_eq!(par_on.configs_visited, par_off.configs_visited);
            assert_eq!(par_on.terminals, par_off.terminals);
            assert_eq!(par_off.pruned, 0);
        }
    }

    #[test]
    fn dpor_prunes_commuting_writers() {
        // Three writers to three different components: almost every
        // adjacent pair commutes, so the reduction must actually fire.
        let sys = independent_writers(3);
        let report = Explorer::default().explore(&sys, &mut |_| None).unwrap();
        assert!(report.dpor);
        assert!(report.pruned > 0, "no forks pruned: {report:?}");
        assert!(report.reduction_factor() > 1.0);
        let par = Explorer::default()
            .with_threads(4)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        assert!(par.pruned > 0);
    }

    #[test]
    fn parallel_dpor_report_is_thread_count_invariant() {
        let sys = independent_writers(3);
        let base = Explorer::default()
            .with_threads(1)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        for threads in [2, 4, 8] {
            let rep = Explorer::default()
                .with_threads(threads)
                .explore_parallel(&sys, &|_| None)
                .unwrap();
            assert_eq!(rep.configs_visited, base.configs_visited, "t={threads}");
            assert_eq!(rep.terminals, base.terminals, "t={threads}");
            assert_eq!(rep.pruned, base.pruned, "t={threads}");
        }
    }

    #[test]
    fn solo_termination_holds_for_terminating_protocol() {
        let explorer = Explorer::default();
        let report = explorer
            .check_solo_termination(&two_process_system(), 10)
            .unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
    }

    #[test]
    fn parallel_solo_termination_holds() {
        let explorer = Explorer::default().with_threads(0);
        let report = explorer
            .check_solo_termination_parallel(&two_process_system(), 10)
            .unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
    }

    #[test]
    fn solo_termination_catches_spinner() {
        /// Never terminates: keeps writing forever.
        #[derive(Clone, Debug)]
        struct Spinner {
            i: i64,
        }
        impl SnapshotProtocol for Spinner {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                self.i += 1;
                ProtocolStep::Update(0, Value::Int(self.i))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let sys = System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(SnapshotProcess::new(Spinner { i: 0 }, ObjectId(0)))],
        );
        let explorer = Explorer::new(Limits { max_depth: 3, max_configs: 1000 });
        let report = explorer.check_solo_termination(&sys, 20).unwrap();
        assert!(!report.is_clean());
        let report = explorer
            .with_threads(2)
            .check_solo_termination_parallel(&sys, 20)
            .unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn violation_reports_schedule() {
        let explorer = Explorer::default();
        let report = explorer
            .explore(&two_process_system(), &mut |sys| {
                sys.output(ProcessId(0)).map(|v| format!("p0 output {v}"))
            })
            .unwrap();
        let (schedule, msg) = report.violation.unwrap();
        assert!(msg.contains("p0 output"));
        assert!(!schedule.is_empty());
    }

    #[test]
    fn parallel_violation_is_canonical() {
        // The canonical (BFS-lexicographic) first schedule on which p0
        // has output: p0 runs solo for its 3 steps (scan, update, scan).
        let check = |sys: &System| {
            sys.output(ProcessId(0)).map(|v| format!("p0 output {v}"))
        };
        for threads in [1, 2, 8] {
            for dpor in [true, false] {
                let explorer =
                    Explorer::default().with_threads(threads).with_dpor(dpor);
                let report = explorer
                    .explore_parallel(&two_process_system(), &check)
                    .unwrap();
                let (schedule, msg) = report.violation.unwrap();
                assert!(msg.contains("p0 output"));
                assert_eq!(
                    schedule,
                    vec![ProcessId(0), ProcessId(0), ProcessId(0)],
                    "threads = {threads}, dpor = {dpor}"
                );
            }
        }
    }

    #[test]
    fn dedup_bounds_visited_configs() {
        let explorer = Explorer::default();
        let report = explorer
            .explore(&two_process_system(), &mut |_| None)
            .unwrap();
        // Without dedup the tree has hundreds of nodes; with dedup the
        // distinct-configuration count is small.
        assert!(report.configs_visited < 100);
    }

    #[test]
    fn parallel_depth_truncation_matches_flag() {
        let explorer = Explorer::new(Limits { max_depth: 1, max_configs: 1000 })
            .with_threads(2);
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
    }

    #[test]
    fn parallel_config_budget_truncates() {
        let explorer = Explorer::new(Limits { max_depth: 64, max_configs: 3 })
            .with_threads(2);
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
        assert!(report.configs_visited <= 3);
    }

    #[test]
    fn panicking_check_becomes_structured_worker_panic() {
        // The check panics once p0 has produced an output. At any
        // thread count this must surface as Err(WorkerPanic) carrying
        // the canonical schedule — never a dead worker or a hang.
        let check = |sys: &System| -> Option<String> {
            assert!(
                sys.output(ProcessId(0)).is_none(),
                "injected check panic"
            );
            None
        };
        let mut messages = Vec::new();
        for threads in [1, 2, 8] {
            let explorer = Explorer::default().with_threads(threads);
            let err = explorer
                .explore_parallel(&two_process_system(), &check)
                .unwrap_err();
            match &err {
                ModelError::WorkerPanic { context, message } => {
                    assert!(context.contains("frontier entry"));
                    assert!(message.contains("injected check panic"));
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            messages.push(err.to_string());
        }
        assert!(
            messages.iter().all(|m| m == &messages[0]),
            "panic report differs across thread counts: {messages:?}"
        );
    }

    #[test]
    fn wall_clock_watchdog_truncates_with_notice() {
        let explorer = Explorer::default()
            .with_threads(2)
            .with_wall_limit(Duration::from_secs(0));
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
        let notice = report.truncation.as_deref().unwrap();
        assert!(notice.contains("wall-clock"), "notice was: {notice}");

        let report = explorer
            .explore(&two_process_system(), &mut |_| None)
            .unwrap();
        assert!(report.truncated);
        assert!(report.truncation.is_some());
    }

    #[test]
    fn soft_deadline_degrades_frontier_instead_of_stopping() {
        // A generous hard limit with an already-expired soft deadline:
        // every level is capped to its canonical prefix, yet the search
        // still runs to completion instead of dying at the watchdog.
        let explorer = Explorer::default()
            .with_threads(2)
            .with_wall_limit(Duration::from_secs(60))
            .with_soft_wall_limit(Duration::from_secs(0));
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
        let notice = report.truncation.as_deref().unwrap();
        assert!(
            notice.contains("soft wall deadline"),
            "notice was: {notice}"
        );
        // The canonical prefix is kept, so the degraded search still
        // reaches p0's solo terminal run.
        assert!(report.terminals >= 1);
        let full = Explorer::default()
            .with_threads(2)
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(
            report.configs_visited < full.configs_visited,
            "degradation must actually shed work: {} vs {}",
            report.configs_visited,
            full.configs_visited
        );
    }

    #[test]
    fn unlimited_explorations_carry_no_truncation_notice() {
        let report = Explorer::default()
            .explore(&two_process_system(), &mut |_| None)
            .unwrap();
        assert!(!report.truncated);
        assert!(report.truncation.is_none());
    }
}
