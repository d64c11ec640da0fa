//! Portable replay bundles.
//!
//! A [`ReplayBundle`] is a self-contained JSON artifact describing one
//! counterexample: how to rebuild the system (an ordered key/value
//! description the CLI interprets), the scheduler spec and seed it was
//! found under, the fault plan, the (usually shrunk) decision trace,
//! and the expected violation — both its message and its FNV-1a
//! fingerprint. Bundles are written through the atomic writer in
//! [`crate::json::write_atomic`], so a half-written bundle is never
//! observable, and the `replay` CLI subcommand re-executes a bundle and
//! exits zero only if the violation reproduces bit-for-bit — making
//! counterexamples portable across machines and CI.

use crate::error::ModelError;
use crate::fault::FaultPlan;
use crate::json::{write_atomic, write_atomic_new, Json};
use crate::shrink::{execute, CexCheck, CexOutcome, Counterexample};
use crate::system::System;
use std::path::Path;

/// Current bundle format version.
pub const BUNDLE_VERSION: u32 = 1;

/// The tool identifier stamped into bundles this build writes.
pub fn tool_id() -> String {
    format!("rsim-smr {}", env!("CARGO_PKG_VERSION"))
}

/// A self-contained, portable counterexample artifact. See the module
/// docs for the format's role; [`ReplayBundle::to_json`] /
/// [`ReplayBundle::parse`] are exact inverses.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplayBundle {
    /// Format version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// Tool that wrote the bundle (informational, not validated).
    pub tool: String,
    /// Ordered key/value description of the system under test; the
    /// runtime treats it as opaque, the CLI interprets it (e.g.
    /// `kind=campaign`, `protocol=racing`, `procs=3`).
    pub system: Vec<(String, String)>,
    /// The scheduler spec the violation was found under (provenance;
    /// the replay itself uses the decision trace).
    pub scheduler: String,
    /// The seed the violation was found under (also seeds the factory).
    pub seed: u64,
    /// The fault plan, in its parseable syntax.
    pub plan: String,
    /// The decision trace: process indices, in scheduling order.
    pub decisions: Vec<usize>,
    /// FNV-1a fingerprint of the expected violation message.
    pub fingerprint: u64,
    /// The expected violation message (human context; the fingerprint
    /// is what replay verifies).
    pub violation: String,
}

impl ReplayBundle {
    /// A system-description field by key.
    pub fn system_field(&self, key: &str) -> Option<&str> {
        self.system
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The bundle's counterexample in replayable form.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] if the stored plan does not
    /// parse.
    pub fn counterexample(&self) -> Result<Counterexample, ModelError> {
        Ok(Counterexample {
            decisions: self
                .decisions
                .iter()
                .copied()
                .map(crate::process::ProcessId)
                .collect(),
            plan: FaultPlan::parse(&self.plan)?,
        })
    }

    /// Re-executes the bundle against a fresh system from `factory` and
    /// verifies the violation reproduces bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BundleMismatch`] when the replay produces
    /// no violation or a different one, and [`ModelError::BadSpec`]
    /// when the stored plan does not parse.
    pub fn replay(
        &self,
        factory: &dyn Fn() -> System,
        check: CexCheck,
    ) -> Result<CexOutcome, ModelError> {
        let cex = self.counterexample()?;
        let outcome = execute(factory, &cex, check);
        match outcome.fingerprint() {
            Some(fp) if fp == self.fingerprint => Ok(outcome),
            Some(fp) => Err(ModelError::BundleMismatch {
                expected: self.fingerprint,
                actual: format!(
                    "violation `{}` (fingerprint {fp})",
                    outcome.violation.as_deref().unwrap_or("")
                ),
            }),
            None => Err(ModelError::BundleMismatch {
                expected: self.fingerprint,
                actual: "no violation".into(),
            }),
        }
    }

    /// Serialises the bundle as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"tool\": {},\n", json_string(&self.tool)));
        out.push_str("  \"system\": {");
        for (i, (key, value)) in self.system.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(key), json_string(value)));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"scheduler\": {},\n",
            json_string(&self.scheduler)
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"plan\": {},\n", json_string(&self.plan)));
        out.push_str("  \"decisions\": [");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&d.to_string());
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint));
        out.push_str(&format!(
            "  \"violation\": {}\n",
            json_string(&self.violation)
        ));
        out.push_str("}\n");
        out
    }

    /// Parses a bundle from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON, missing
    /// fields, or an unsupported version.
    pub fn parse(text: &str) -> Result<ReplayBundle, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "bundle".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing `version`"))? as u32;
        if version != BUNDLE_VERSION {
            return Err(bad(&format!(
                "unsupported bundle version {version} (this tool reads \
                 version {BUNDLE_VERSION})"
            )));
        }
        let str_field = |key: &str| -> Result<String, ModelError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing `{key}`")))
        };
        let mut system = Vec::new();
        match doc.get("system") {
            Some(Json::Obj(members)) => {
                for (key, value) in members {
                    let value = value
                        .as_str()
                        .ok_or_else(|| bad("`system` values must be strings"))?;
                    system.push((key.clone(), value.to_string()));
                }
            }
            _ => return Err(bad("missing `system` object")),
        }
        let mut decisions = Vec::new();
        for d in doc
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `decisions` array"))?
        {
            decisions.push(d.as_usize().ok_or_else(|| bad("bad decision index"))?);
        }
        Ok(ReplayBundle {
            version,
            tool: str_field("tool")?,
            system,
            scheduler: str_field("scheduler")?,
            seed: doc
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `seed`"))?,
            plan: str_field("plan")?,
            decisions,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `fingerprint`"))?,
            violation: str_field("violation")?,
        })
    }

    /// Loads a bundle file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] if the file cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> Result<ReplayBundle, ModelError> {
        let text = std::fs::read_to_string(path).map_err(|e| ModelError::BadSpec {
            spec: path.display().to_string(),
            reason: format!("cannot read bundle: {e}"),
        })?;
        ReplayBundle::parse(&text)
    }

    /// Writes the bundle atomically (tmp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from the atomic writer.
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_json())
    }

    /// The canonical corpus file name for this bundle: keyed by the
    /// violation fingerprint, so the same counterexample found by any
    /// shard maps to the same path.
    pub fn corpus_file_name(&self) -> String {
        format!("cex-{:016x}.bundle.json", self.fingerprint)
    }

    /// Stores the bundle into a corpus directory, deduplicating by
    /// fingerprint: the first writer creates
    /// [`ReplayBundle::corpus_file_name`] atomically, every later
    /// writer (same process, another process, or a crashed-and-retried
    /// worker) finds the file already present and writes nothing.
    /// Returns `true` if this call created the file. A bundle already
    /// present returns `false` before anything is staged or fsynced.
    /// Two racing writers can both reach the create step, but the
    /// create itself is a hard-link publish — exactly one wins and no
    /// reader ever sees a partial bundle.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from the existence check or the atomic
    /// writer.
    pub fn store_dedup(&self, corpus_dir: &Path) -> std::io::Result<bool> {
        let path = corpus_dir.join(self.corpus_file_name());
        if path.try_exists()? {
            return Ok(false);
        }
        write_atomic_new(&path, &self.to_json())
    }
}

/// JSON string literal with escaping (the workspace-wide routine in
/// [`crate::json::escape`]).
fn json_string(s: &str) -> String {
    crate::json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::value::Value;

    fn sample() -> ReplayBundle {
        ReplayBundle {
            version: BUNDLE_VERSION,
            tool: tool_id(),
            system: vec![
                ("kind".into(), "campaign".into()),
                ("protocol".into(), "racing".into()),
                ("procs".into(), "3".into()),
            ],
            scheduler: "random".into(),
            seed: 28,
            plan: "crash@1:2".into(),
            decisions: vec![0, 1, 2, 0, 1],
            fingerprint: 0xcbf2_9ce4_8422_2325,
            violation: "consensus violated: 2 distinct outputs \"{1, 3}\"".into(),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let bundle = sample();
        let parsed = ReplayBundle::parse(&bundle.to_json()).unwrap();
        assert_eq!(parsed, bundle);
    }

    #[test]
    fn fingerprints_round_trip_losslessly_above_2_53() {
        let mut bundle = sample();
        bundle.fingerprint = u64::MAX - 1;
        let parsed = ReplayBundle::parse(&bundle.to_json()).unwrap();
        assert_eq!(parsed.fingerprint, u64::MAX - 1);
    }

    #[test]
    fn store_load_round_trips_atomically() {
        let dir = std::env::temp_dir()
            .join(format!("rsim-bundle-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.bundle.json");
        let bundle = sample();
        bundle.store(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        assert_eq!(ReplayBundle::load(&path).unwrap(), bundle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_store_dedups_racing_writers_by_fingerprint() {
        let dir = std::env::temp_dir()
            .join(format!("rsim-corpus-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bundle = sample();
        // Two "shards" racing to publish the same fingerprint many
        // times: exactly one create must win per round, and the file
        // must always parse back to the full bundle (never torn).
        let created: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut wins = 0usize;
                        for _ in 0..16 {
                            if bundle.store_dedup(&dir).unwrap() {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(created, 1, "exactly one writer may create the file");
        let path = dir.join(bundle.corpus_file_name());
        assert_eq!(ReplayBundle::load(&path).unwrap(), bundle);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != path.file_name().unwrap())
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_existing_corpus_file_is_left_untouched() {
        let dir = std::env::temp_dir()
            .join(format!("rsim-corpus-existing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bundle = sample();
        let path = dir.join(bundle.corpus_file_name());
        std::fs::write(&path, "first writer's bytes").unwrap();
        assert!(!bundle.store_dedup(&dir).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first writer's bytes");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "nothing staged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_fingerprints_get_distinct_corpus_files() {
        let dir = std::env::temp_dir()
            .join(format!("rsim-corpus-distinct-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = sample();
        let mut b = sample();
        b.fingerprint ^= 0xdead_beef;
        assert!(a.store_dedup(&dir).unwrap());
        assert!(b.store_dedup(&dir).unwrap());
        assert_ne!(a.corpus_file_name(), b.corpus_file_name());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_bundles_are_structured_errors() {
        for bad in [
            "{}",
            "{\"version\": 99}",
            "not json",
            "{\"version\": 1, \"tool\": \"x\"}",
        ] {
            assert!(
                matches!(
                    ReplayBundle::parse(bad),
                    Err(ModelError::BadSpec { .. })
                ),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn system_fields_are_ordered_and_queryable() {
        let bundle = sample();
        assert_eq!(bundle.system_field("kind"), Some("campaign"));
        assert_eq!(bundle.system_field("procs"), Some("3"));
        assert_eq!(bundle.system_field("missing"), None);
    }

    /// scan → Update(0, input) → scan → Output(view[0]).
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

    fn two_writers() -> System {
        let mk = |input| {
            Box::new(SnapshotProcess::new(
                WriteThenRead { input, wrote: false },
                ObjectId(0),
            )) as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)])
    }

    fn check(sys: &System, _crashed: &[ProcessId]) -> Option<String> {
        sys.output(ProcessId(0))
            .filter(|v| *v == Value::Int(2))
            .map(|_| "p0 observed p1's write".to_string())
    }

    fn violating_bundle() -> ReplayBundle {
        let violation = "p0 observed p1's write";
        ReplayBundle {
            version: BUNDLE_VERSION,
            tool: tool_id(),
            system: vec![("kind".into(), "test".into())],
            scheduler: "fixed".into(),
            seed: 0,
            plan: "none".into(),
            decisions: vec![0, 1, 0, 1, 0],
            fingerprint: fingerprint(violation),
            violation: violation.into(),
        }
    }

    #[test]
    fn replay_reproduces_and_verifies() {
        let bundle = violating_bundle();
        let outcome = bundle.replay(&two_writers, &|s, c| check(s, c)).unwrap();
        assert_eq!(outcome.violation.as_deref(), Some("p0 observed p1's write"));
        assert_eq!(outcome.steps, 5);
    }

    #[test]
    fn tampered_fingerprint_is_a_bundle_mismatch() {
        let mut bundle = violating_bundle();
        bundle.fingerprint ^= 1;
        let err = bundle.replay(&two_writers, &|s, c| check(s, c)).unwrap_err();
        match err {
            ModelError::BundleMismatch { expected, actual } => {
                assert_eq!(expected, bundle.fingerprint);
                assert!(actual.contains("fingerprint"), "actual: {actual}");
            }
            other => panic!("expected BundleMismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_reproducing_decisions_are_a_bundle_mismatch() {
        let mut bundle = violating_bundle();
        bundle.decisions = vec![0, 0, 0];
        let err = bundle.replay(&two_writers, &|s, c| check(s, c)).unwrap_err();
        assert!(matches!(err, ModelError::BundleMismatch { .. }));
    }
}
