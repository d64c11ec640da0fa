//! Paper-aware mutation operators over generated protocol specs.
//!
//! Each operator is tagged with the verdict the paper predicts for the
//! mutant, which is what the fuzz harness holds the pipeline to:
//!
//! | mutation          | operator                                   | paper clause                         | predicted verdict |
//! |-------------------|--------------------------------------------|--------------------------------------|-------------------|
//! | `shrink-m`        | race footprint → `n − 1` (below the bound) | Theorem 21(2) / Corollary 33         | must-violate      |
//! | `drop-helping`    | remove the commit-deference helping write  | §4 helping discussion; \[16\]/\[47\] | must-violate      |
//! | `tear-window`     | decide on the phase-1 coverage certificate (recertification pass lost) | §3 Block-Update atomicity | must-violate |
//! | `widen-m`         | race footprint → `race_m + 1`              | Theorem 21 (more space never hurts)  | must-stay-clean   |
//! | `reorder-prologue`| rotate each announce script by one         | announce order is unobserved         | must-stay-clean   |
//! | `trespass-write`  | p0 announces into p1's component           | §3 single-writer discipline          | analyzer-reject (RS-W001) |
//! | `aba-reuse`       | p0's script revisits a token (a, b, a)     | Corollary 36 ABA-freedom             | analyzer-reject (RS-W002) |
//! | `yield-leak`      | p0 writes the reserved yield symbol Y      | Theorem 20 yield condition           | analyzer-reject (RS-W005) |
//!
//! Analyzer-reject mutants must die at pre-flight — they never burn
//! search budget. Must-violate mutants must pass pre-flight, then be
//! killed by the bounded campaign search (violation found, shrunk,
//! bundled, replayed). Must-stay-clean mutants must pass pre-flight and
//! survive the same search with no violation.

use crate::value::Value;

use super::grammar::GenSpec;

/// The paper's predicted verdict for a mutant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The bounded campaign search must find a violation.
    MustViolate,
    /// The same search must find nothing.
    MustStayClean,
    /// Pre-flight analysis must reject the mutant before any search.
    AnalyzerReject,
}

impl Verdict {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::MustViolate => "must-violate",
            Verdict::MustStayClean => "must-stay-clean",
            Verdict::AnalyzerReject => "analyzer-reject",
        }
    }
}

/// A paper-aware mutation operator. See the module table for the
/// operator → paper clause mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Race footprint below the Theorem 21 / Corollary 33 bound.
    ShrinkFootprint,
    /// Remove the commit-deference helping write (rule 2b).
    DropHelping,
    /// Tear the commit window: decide on the phase-1 certificate,
    /// skipping the phase-2 recertification pass.
    TearWindow,
    /// One extra race register (benign: space above the bound).
    WidenFootprint,
    /// Rotate each announce script by one position (benign: announce
    /// order is unobserved by the agreement core).
    ReorderPrologue,
    /// p0's first announce lands in p1's single-writer component.
    TrespassWrite,
    /// p0's announce stream revisits its first token after another.
    AbaReuse,
    /// p0's first announce writes the reserved yield symbol Y = ().
    YieldLeak,
}

/// Every operator, in report order.
pub const ALL_MUTATIONS: [Mutation; 8] = [
    Mutation::ShrinkFootprint,
    Mutation::DropHelping,
    Mutation::TearWindow,
    Mutation::WidenFootprint,
    Mutation::ReorderPrologue,
    Mutation::TrespassWrite,
    Mutation::AbaReuse,
    Mutation::YieldLeak,
];

impl Mutation {
    /// Stable kebab-case name (CLI syntax `gen:SEED:<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::ShrinkFootprint => "shrink-m",
            Mutation::DropHelping => "drop-helping",
            Mutation::TearWindow => "tear-window",
            Mutation::WidenFootprint => "widen-m",
            Mutation::ReorderPrologue => "reorder-prologue",
            Mutation::TrespassWrite => "trespass-write",
            Mutation::AbaReuse => "aba-reuse",
            Mutation::YieldLeak => "yield-leak",
        }
    }

    /// Parses a stable mutation name.
    pub fn parse(name: &str) -> Option<Mutation> {
        ALL_MUTATIONS.into_iter().find(|m| m.name() == name)
    }

    /// The paper's predicted verdict for this operator.
    pub fn verdict(self) -> Verdict {
        match self {
            Mutation::ShrinkFootprint | Mutation::DropHelping | Mutation::TearWindow => {
                Verdict::MustViolate
            }
            Mutation::WidenFootprint | Mutation::ReorderPrologue => {
                Verdict::MustStayClean
            }
            Mutation::TrespassWrite | Mutation::AbaReuse | Mutation::YieldLeak => {
                Verdict::AnalyzerReject
            }
        }
    }

    /// The lint code an analyzer-reject mutant must trip (`None` for
    /// runtime-verdict mutants).
    pub fn expected_lint(self) -> Option<&'static str> {
        match self {
            Mutation::TrespassWrite => Some("RS-W001"),
            Mutation::AbaReuse => Some("RS-W002"),
            Mutation::YieldLeak => Some("RS-W005"),
            _ => None,
        }
    }

    /// Applies the operator to a base spec, producing the mutant spec.
    pub fn apply(self, base: &GenSpec) -> GenSpec {
        let mut spec = base.clone();
        spec.mutation = Some(self);
        match self {
            Mutation::ShrinkFootprint => {
                // Below the consensus bound: n processes racing over
                // n − 1 registers is exactly what Corollary 33 forbids.
                spec.race_m = base.procs - 1;
            }
            Mutation::DropHelping => spec.commit_deference = false,
            Mutation::TearWindow => spec.torn_commit = true,
            Mutation::WidenFootprint => spec.race_m = base.race_m + 1,
            Mutation::ReorderPrologue => {
                for script in &mut spec.prologue {
                    if script.len() > 1 {
                        script.rotate_left(1);
                    }
                }
            }
            Mutation::TrespassWrite => {
                // p0 announces into p1's single-writer component.
                spec.prologue[0][0].0 = 1;
            }
            Mutation::AbaReuse => {
                // p0's stream becomes a, b, a: token a reappears after
                // b on the same component.
                let (c, a) = spec.prologue[0][0].clone();
                let b = spec.prologue[0][1].1.clone();
                spec.prologue[0] = vec![(c, a.clone()), (c, b), (c, a)];
            }
            Mutation::YieldLeak => {
                spec.prologue[0][0].1 = Value::tuple(Vec::new());
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{self, AnalysisReport, LintCode, LintConfig};

    #[test]
    fn names_round_trip() {
        for mutation in ALL_MUTATIONS {
            assert_eq!(Mutation::parse(mutation.name()), Some(mutation));
        }
        assert_eq!(Mutation::parse("nope"), None);
    }

    #[test]
    fn analyzer_reject_mutants_trip_their_lint_codes() {
        let base = GenSpec::from_seed(0);
        let cases = [
            (Mutation::TrespassWrite, LintCode::SingleWriter),
            (Mutation::AbaReuse, LintCode::AbaFreedom),
            (Mutation::YieldLeak, LintCode::YieldSymbol),
        ];
        for (mutation, code) in cases {
            let spec = mutation.apply(&base);
            let findings =
                analyze::lint_system(&spec.build_system(), analyze::DEFAULT_BUDGET);
            let report = AnalysisReport::from_findings(findings, &LintConfig::default());
            assert!(
                report.has(code),
                "{} must trip {code}:\n{}",
                mutation.name(),
                report.render()
            );
        }
    }

    #[test]
    fn runtime_mutants_pass_static_lint_without_denials() {
        for seed in 0..16 {
            let base = GenSpec::from_seed(seed);
            for mutation in [
                Mutation::ShrinkFootprint,
                Mutation::DropHelping,
                Mutation::TearWindow,
                Mutation::WidenFootprint,
                Mutation::ReorderPrologue,
            ] {
                let spec = mutation.apply(&base);
                let findings =
                    analyze::lint_system(&spec.build_system(), analyze::DEFAULT_BUDGET);
                let report =
                    AnalysisReport::from_findings(findings, &LintConfig::default());
                assert_eq!(
                    report.deny_count(),
                    0,
                    "seed {seed} {} denied:\n{}",
                    mutation.name(),
                    report.render()
                );
            }
        }
    }
}
