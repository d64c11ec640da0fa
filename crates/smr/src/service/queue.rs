//! The persistent crash-safe job queue: append-only journal plus
//! atomic snapshot compaction.
//!
//! Durable state lives in two files under the state directory:
//!
//! * `journal.log` — append-only, one record per line:
//!   `<16-hex FNV-1a of payload> <payload JSON>\n`. Appends are
//!   fsynced, and a staged record rides along with the next one (group
//!   commit); a torn tail (power loss or injected chaos) corrupts at
//!   most the lines it touched, because recovery verifies every line's
//!   checksum and *skips* what fails instead of aborting. Before each
//!   append the writer repairs a missing trailing newline, so a torn
//!   line can never splice itself into the next record.
//! * `snapshot.json` — the folded state (spec, shard results, attempt
//!   counts, quarantines), written through the fsynced atomic
//!   tmp+rename path ([`crate::json::write_atomic`]). Compaction
//!   writes the snapshot first and only then truncates the journal:
//!   a crash between the two steps leaves the journal's records
//!   harmlessly duplicating the snapshot's.
//!
//! Recovery is snapshot-then-journal-replay, and every coordinator
//! start *is* a recovery — there is no separate cold-start path to
//! rot.

use crate::error::ModelError;
use crate::fingerprint::fingerprint;
use crate::json::{escape, Json};
use crate::service::merge::ShardResult;
use crate::service::unit::ServiceSpec;
use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One durable event in a service run's history.
#[derive(Clone, PartialEq, Debug)]
pub enum JournalRecord {
    /// The run began with this spec (first record of a fresh journal).
    Init {
        /// The full campaign spec.
        spec: ServiceSpec,
    },
    /// A unit was leased (persists the attempt count).
    Lease {
        /// The unit.
        unit: u64,
        /// The lease's attempt number.
        attempt: usize,
    },
    /// A unit completed with this shard result.
    Result {
        /// The shard.
        shard: ShardResult,
    },
    /// A lease ended without a result; the unit went back to pending.
    Requeue {
        /// The unit.
        unit: u64,
        /// Attempts consumed so far.
        attempt: usize,
        /// Why the lease ended.
        reason: String,
    },
    /// A unit was quarantined as poison.
    Quarantine {
        /// The unit.
        unit: u64,
        /// Why.
        reason: String,
    },
}

impl JournalRecord {
    /// Serialises the record as single-line JSON.
    pub fn to_json(&self) -> String {
        match self {
            JournalRecord::Init { spec } => {
                format!("{{\"type\": \"init\", \"spec\": {}}}", spec.to_json())
            }
            JournalRecord::Lease { unit, attempt } => format!(
                "{{\"type\": \"lease\", \"unit\": {unit}, \"attempt\": {attempt}}}"
            ),
            JournalRecord::Result { shard } => {
                format!("{{\"type\": \"result\", \"shard\": {}}}", shard.to_json())
            }
            JournalRecord::Requeue { unit, attempt, reason } => format!(
                "{{\"type\": \"requeue\", \"unit\": {unit}, \
                 \"attempt\": {attempt}, \"reason\": {}}}",
                escape(reason)
            ),
            JournalRecord::Quarantine { unit, reason } => format!(
                "{{\"type\": \"quarantine\", \"unit\": {unit}, \"reason\": {}}}",
                escape(reason)
            ),
        }
    }

    /// Parses a record from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON, an unknown
    /// type, or missing fields.
    pub fn parse(text: &str) -> Result<JournalRecord, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "journal record".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        let unit = || {
            doc.get("unit")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `unit`"))
        };
        let attempt = || {
            doc.get("attempt")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing `attempt`"))
        };
        let reason = || {
            doc.get("reason")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("missing `reason`"))
        };
        match doc.get("type").and_then(Json::as_str) {
            Some("init") => Ok(JournalRecord::Init {
                spec: ServiceSpec::parse(
                    doc.get("spec").ok_or_else(|| bad("missing `spec`"))?,
                )?,
            }),
            Some("lease") => {
                Ok(JournalRecord::Lease { unit: unit()?, attempt: attempt()? })
            }
            Some("result") => Ok(JournalRecord::Result {
                shard: ShardResult::parse(
                    doc.get("shard").ok_or_else(|| bad("missing `shard`"))?,
                )?,
            }),
            Some("requeue") => Ok(JournalRecord::Requeue {
                unit: unit()?,
                attempt: attempt()?,
                reason: reason()?,
            }),
            Some("quarantine") => {
                Ok(JournalRecord::Quarantine { unit: unit()?, reason: reason()? })
            }
            Some(other) => Err(bad(&format!("unknown record type `{other}`"))),
            None => Err(bad("missing `type`")),
        }
    }
}

/// What recovery reassembled from disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The spec the state directory belongs to (`None` for a fresh
    /// directory). Callers must validate it against the requested spec
    /// before reusing anything else here.
    pub spec: Option<ServiceSpec>,
    /// Completed shards, deduplicated by unit (first record wins; by
    /// determinism any duplicates are identical).
    pub shards: Vec<ShardResult>,
    /// Consumed lease attempts per unit still outstanding.
    pub attempts: BTreeMap<u64, usize>,
    /// Quarantined units with reasons.
    pub quarantined: Vec<(u64, String)>,
    /// Journal lines dropped as torn or corrupt — surfaced so chaos
    /// tests can assert the damage was actually seen and survived.
    pub dropped_lines: usize,
}

/// The durable queue: an open journal plus compaction bookkeeping.
#[derive(Debug)]
pub struct JobQueue {
    journal_path: PathBuf,
    snapshot_path: PathBuf,
    journal: std::fs::File,
    appends_since_compact: usize,
    compact_every: usize,
    /// Bytes were written since the last fdatasync.
    unsynced: bool,
}

/// Encodes one journal line: checksum, space, payload, newline.
fn journal_line(record: &JournalRecord) -> String {
    let payload = record.to_json();
    format!("{:016x} {payload}\n", fingerprint(&payload))
}

/// Decodes one journal line, verifying the checksum.
fn parse_line(line: &str) -> Option<JournalRecord> {
    let (sum, payload) = line.split_once(' ')?;
    if sum.len() != 16 || u64::from_str_radix(sum, 16).ok()? != fingerprint(payload)
    {
        return None;
    }
    JournalRecord::parse(payload).ok()
}

impl JobQueue {
    /// Opens (creating if needed) the queue in `state_dir` and recovers
    /// whatever a previous run left there. `compact_every` bounds how
    /// many appends accumulate before [`JobQueue::maybe_compact`]
    /// folds them into the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] when the state directory cannot
    /// be created or the journal cannot be opened.
    pub fn open(state_dir: &Path, compact_every: usize) -> Result<(JobQueue, RecoveredState), ModelError> {
        let service_err = |context: &str, e: &dyn std::fmt::Display| {
            ModelError::Service { context: context.into(), reason: e.to_string() }
        };
        std::fs::create_dir_all(state_dir)
            .map_err(|e| service_err("creating state directory", &e))?;
        let journal_path = state_dir.join("journal.log");
        let snapshot_path = state_dir.join("snapshot.json");
        let recovered = recover(&snapshot_path, &journal_path);
        let journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| service_err("opening journal", &e))?;
        Ok((
            JobQueue {
                journal_path,
                snapshot_path,
                journal,
                appends_since_compact: 0,
                compact_every: compact_every.max(1),
                unsynced: false,
            },
            recovered,
        ))
    }

    /// Repairs a journal whose last append was torn mid-line: if the
    /// file does not end in a newline, append one, so the next record
    /// starts a fresh line and the torn one fails its checksum in
    /// isolation instead of corrupting its successor.
    fn repair_trailing_newline(&mut self) -> std::io::Result<()> {
        let len = self.journal.metadata()?.len();
        if len == 0 {
            return Ok(());
        }
        // Only the last byte matters; the journal can hold megabytes.
        let mut tail = std::fs::File::open(&self.journal_path)?;
        tail.seek(SeekFrom::Start(len - 1))?;
        let mut last = [0u8; 1];
        tail.read_exact(&mut last)?;
        if last != *b"\n" {
            self.journal.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Appends one record durably: one fdatasync covers it and every
    /// record staged before it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`]: a journal that cannot be
    /// written is a disk-level fault the service must not paper over.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ModelError> {
        self.write_bytes(journal_line(record).as_bytes())?;
        self.sync()
    }

    /// Writes one record without waiting for the disk. It becomes
    /// durable with the next [`JobQueue::append`], compaction, or drop
    /// of the queue. For records nothing outside the process acts on
    /// before then: a staged result and the lease appended after it
    /// share one fdatasync.
    ///
    /// # Errors
    ///
    /// As for [`JobQueue::append`].
    pub fn stage(&mut self, record: &JournalRecord) -> Result<(), ModelError> {
        self.write_bytes(journal_line(record).as_bytes())
    }

    /// Chaos hook: append only the first `keep` bytes of the record's
    /// encoded line — the on-disk shape of a power loss mid-write.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] if even the torn write fails.
    pub fn torn_append(&mut self, record: &JournalRecord, keep: usize) -> Result<(), ModelError> {
        let line = journal_line(record);
        let keep = keep.min(line.len().saturating_sub(1));
        self.write_bytes(&line.as_bytes()[..keep])?;
        self.sync()
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.repair_trailing_newline().map_err(journal_err)?;
        self.journal.write_all(bytes).map_err(journal_err)?;
        self.unsynced = true;
        self.appends_since_compact += 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), ModelError> {
        if self.unsynced {
            self.journal.sync_data().map_err(journal_err)?;
            self.unsynced = false;
        }
        Ok(())
    }

    /// Folds the current state into `snapshot.json` (atomically) and
    /// truncates the journal. Crash-ordering: the snapshot lands
    /// first, so the worst a crash can do is leave journal records
    /// that duplicate snapshot contents — recovery dedups by unit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] on snapshot or truncate I/O
    /// failure.
    pub fn compact(
        &mut self,
        spec: &ServiceSpec,
        shards: &[ShardResult],
        attempts: &[(u64, usize)],
        quarantined: &[(u64, String)],
    ) -> Result<(), ModelError> {
        let io = |context: &str, e: &dyn std::fmt::Display| ModelError::Service {
            context: context.into(),
            reason: e.to_string(),
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"spec\": {},\n", spec.to_json()));
        out.push_str(&format!(
            "  \"shards\": [{}],\n",
            shards.iter().map(ShardResult::to_json).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "  \"attempts\": [{}],\n",
            attempts
                .iter()
                .map(|(u, a)| format!("[{u}, {a}]"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"quarantined\": [{}]\n",
            quarantined
                .iter()
                .map(|(u, r)| format!("{{\"unit\": {u}, \"reason\": {}}}", escape(r)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("}\n");
        crate::json::write_atomic(&self.snapshot_path, &out)
            .map_err(|e| io("snapshot write", &e))?;
        self.journal
            .set_len(0)
            .map_err(|e| io("journal truncate", &e))?;
        // Everything staged is in the fsynced snapshot now.
        self.unsynced = false;
        self.appends_since_compact = 0;
        Ok(())
    }

    /// [`JobQueue::compact`] once `compact_every` appends accumulated.
    ///
    /// # Errors
    ///
    /// As for [`JobQueue::compact`].
    pub fn maybe_compact(
        &mut self,
        spec: &ServiceSpec,
        shards: &[ShardResult],
        attempts: &[(u64, usize)],
        quarantined: &[(u64, String)],
    ) -> Result<(), ModelError> {
        if self.appends_since_compact >= self.compact_every {
            self.compact(spec, shards, attempts, quarantined)?;
        }
        Ok(())
    }
}

impl Drop for JobQueue {
    /// Staged records become durable however the queue is closed.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn journal_err(e: std::io::Error) -> ModelError {
    ModelError::Service { context: "journal append".into(), reason: e.to_string() }
}

/// Reassembles state from the snapshot plus the journal. Nothing here
/// errors: a missing snapshot is a fresh run, an unreadable line is
/// counted and skipped — recovery's contract is "salvage everything
/// whose checksum proves it whole".
fn recover(snapshot_path: &Path, journal_path: &Path) -> RecoveredState {
    let mut state = RecoveredState::default();
    let mut seen_units: BTreeMap<u64, ()> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(snapshot_path) {
        if let Ok(doc) = Json::parse(&text) {
            state.spec =
                doc.get("spec").and_then(|s| ServiceSpec::parse(s).ok());
            for shard in doc
                .get("shards")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
                .filter_map(|s| ShardResult::parse(s).ok())
            {
                if seen_units.insert(shard.unit, ()).is_none() {
                    state.shards.push(shard);
                }
            }
            for pair in
                doc.get("attempts").and_then(Json::as_arr).into_iter().flatten()
            {
                if let Some([u, a]) = pair.as_arr() {
                    if let (Some(u), Some(a)) = (u.as_u64(), a.as_usize()) {
                        state.attempts.insert(u, a);
                    }
                }
            }
            for q in doc
                .get("quarantined")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
            {
                if let (Some(u), Some(r)) = (
                    q.get("unit").and_then(Json::as_u64),
                    q.get("reason").and_then(Json::as_str),
                ) {
                    state.quarantined.push((u, r.to_string()));
                }
            }
        }
    }
    let Ok(text) = std::fs::read_to_string(journal_path) else {
        return state;
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some(record) = parse_line(line) else {
            state.dropped_lines += 1;
            continue;
        };
        match record {
            JournalRecord::Init { spec } => {
                if state.spec.is_none() {
                    state.spec = Some(spec);
                }
            }
            JournalRecord::Lease { unit, attempt }
            | JournalRecord::Requeue { unit, attempt, .. } => {
                let e = state.attempts.entry(unit).or_insert(0);
                *e = (*e).max(attempt);
            }
            JournalRecord::Result { shard } => {
                if seen_units.insert(shard.unit, ()).is_none() {
                    state.attempts.remove(&shard.unit);
                    state.shards.push(shard);
                }
            }
            JournalRecord::Quarantine { unit, reason } => {
                if !state.quarantined.iter().any(|(u, _)| *u == unit) {
                    state.quarantined.push((unit, reason));
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, RunRecord, SchedulerSpec};

    fn spec() -> ServiceSpec {
        ServiceSpec {
            system: vec![("kind".into(), "campaign".into())],
            config: CampaignConfig {
                schedulers: vec![SchedulerSpec::RoundRobin],
                seed_start: 0,
                runs: 8,
                budget: 100,
                threads: 1,
            },
            unit_runs: 4,
            faults: Vec::new(),
        }
    }

    fn shard(unit: u64) -> ShardResult {
        ShardResult {
            unit,
            records: vec![(
                unit as usize * 4,
                RunRecord {
                    scheduler: "rr".into(),
                    seed: unit * 4,
                    steps: 9,
                    terminated: true,
                    violation: None,
                    error: None,
                    attempts: 1,
                    pruned: 0,
                    prefilter_hits: 0,
                    static_indep_pairs: 0,
                },
            )],
            fault_records: Vec::new(),
            fingerprints: vec![unit, unit + 100],
            degraded_runs: 0,
            cache_truncated: false,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rsim-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_records_round_trip() {
        let records = [
            JournalRecord::Init { spec: spec() },
            JournalRecord::Lease { unit: 3, attempt: 1 },
            JournalRecord::Result { shard: shard(3) },
            JournalRecord::Requeue {
                unit: 3,
                attempt: 2,
                reason: "worker exited".into(),
            },
            JournalRecord::Quarantine { unit: 3, reason: "poison".into() },
        ];
        for r in records {
            assert_eq!(JournalRecord::parse(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn recovery_replays_the_journal() {
        let dir = tmp_dir("replay");
        {
            let (mut q, recovered) = JobQueue::open(&dir, 1000).unwrap();
            assert!(recovered.spec.is_none());
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Lease { unit: 0, attempt: 1 }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.append(&JournalRecord::Lease { unit: 1, attempt: 1 }).unwrap();
            q.append(&JournalRecord::Requeue {
                unit: 1,
                attempt: 1,
                reason: "killed".into(),
            })
            .unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        assert_eq!(recovered.shards, vec![shard(0)]);
        assert_eq!(recovered.attempts.get(&1), Some(&1));
        assert!(!recovered.attempts.contains_key(&0), "completed units clear");
        assert_eq!(recovered.dropped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_later_appends_survive() {
        let dir = tmp_dir("torn");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            // Power loss mid-write of unit 0's result...
            q.torn_append(&JournalRecord::Result { shard: shard(0) }, 25).unwrap();
            // ...and the service keeps journaling afterwards: the
            // newline repair isolates the damage to the torn line.
            q.append(&JournalRecord::Result { shard: shard(1) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.dropped_lines, 1, "the torn line is seen and dropped");
        assert_eq!(recovered.shards, vec![shard(1)]);
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksums_are_dropped_not_fatal() {
        let dir = tmp_dir("cksum");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
        }
        // Flip one byte in the middle of the journal.
        let path = dir.join("journal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.dropped_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_into_snapshot_and_resets_journal() {
        let dir = tmp_dir("compact");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.compact(
                &spec(),
                &[shard(0)],
                &[(1, 2)],
                &[(2, "poison".into())],
            )
            .unwrap();
            // Post-compaction appends land in the fresh journal.
            q.append(&JournalRecord::Result { shard: shard(3) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        assert_eq!(recovered.shards, vec![shard(0), shard(3)]);
        assert_eq!(recovered.attempts.get(&1), Some(&2));
        assert_eq!(recovered.quarantined, vec![(2, "poison".to_string())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_records_recover_after_the_queue_is_dropped() {
        let dir = tmp_dir("staged");
        {
            let (mut q, _) = JobQueue::open(&dir, 100).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.stage(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.append(&JournalRecord::Lease { unit: 1, attempt: 1 }).unwrap();
            q.stage(&JournalRecord::Result { shard: shard(1) }).unwrap();
        }
        let (_, rec) = JobQueue::open(&dir, 100).unwrap();
        assert_eq!(rec.shards.iter().map(|s| s.unit).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(rec.dropped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_results_from_crash_races_dedup_on_recovery() {
        let dir = tmp_dir("dup");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
