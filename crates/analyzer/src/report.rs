//! Canonical JSON report for the analyzer suite (`BENCH_analyzer.json`).
//!
//! Follows the campaign runner's canonical-vs-timing split: everything
//! emitted here is a deterministic function of the explored
//! configurations alone — state, transition, and orbit counts, defect
//! classes, transient coverage — so CI can byte-compare the file across
//! worker counts (`--jobs 1` vs `--jobs 4`). Wall-clock figures
//! (states/sec) are nondeterministic and go to stderr, never into this
//! file.

use crate::explorer::ExploreOutcome;

/// One explored configuration's canonical row.
pub struct BenchRow {
    /// Builtin configuration name.
    pub name: &'static str,
    /// Seeded mutant name (`none` for the clean gate).
    pub mutant: &'static str,
    /// The outcome (all fields jobs-invariant).
    pub outcome: ExploreOutcome,
}

/// The raw-vs-reduced comparison on the acceptance configuration.
pub struct ReductionRow {
    /// Configuration name the comparison ran on.
    pub name: &'static str,
    /// Raw (identity-group) states visited; budget-capped searches
    /// report the cap.
    pub raw_states: usize,
    /// Whether the raw search stopped at its budget.
    pub raw_capped: bool,
    /// Canonical states under symmetry.
    pub canonical_states: usize,
    /// Raw states the quotient stands for (sum of orbit sizes).
    pub represented: u64,
    /// Reduction factor ×100 (integer fixed-point, deterministic):
    /// `represented / canonical_states` — the average orbit size over
    /// the visited canonical states. Exact for the whole graph when the
    /// quotient is exhaustive; exact over the visited region otherwise.
    pub factor_x100: u64,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the canonical report. Keys are emitted in a fixed order and
/// all values are integers or strings — no floats, no timing — so equal
/// inputs yield byte-equal output.
pub fn bench_json(rows: &[BenchRow], reductions: &[ReductionRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dvmc-analyzer-bench-v1\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let o = &row.outcome;
        let defect = o.violation.as_ref().map_or("none", |(d, _)| d.class());
        let trace_len = o.violation.as_ref().map_or(0, |(_, t)| t.len());
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"mutant\": \"{}\", \"states\": {}, \
             \"transitions\": {}, \"represented\": {}, \"hit_limit\": {}, \
             \"defect\": \"{}\", \"trace_len\": {}, \"transients\": {}}}{}\n",
            escape(row.name),
            escape(row.mutant),
            o.states,
            o.transitions,
            o.represented,
            o.hit_limit,
            defect,
            trace_len,
            o.transients.len(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"reduction\": [\n");
    for (i, r) in reductions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"raw_states\": {}, \"raw_capped\": {}, \
             \"canonical_states\": {}, \"represented\": {}, \"factor_x100\": {}}}{}\n",
            escape(r.name),
            r.raw_states,
            r.raw_capped,
            r.canonical_states,
            r.represented,
            r.factor_x100,
            if i + 1 < reductions.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn outcome() -> ExploreOutcome {
        ExploreOutcome {
            states: 10,
            transitions: 25,
            represented: 40,
            hit_limit: false,
            violation: None,
            transients: BTreeSet::from(["cache:IS_D".to_string()]),
        }
    }

    #[test]
    fn report_is_deterministic_and_parsable_shape() {
        let rows = [BenchRow {
            name: "directory_3x2",
            mutant: "none",
            outcome: outcome(),
        }];
        let reds = [ReductionRow {
            name: "directory_3x2",
            raw_states: 40,
            raw_capped: false,
            canonical_states: 10,
            represented: 40,
            factor_x100: 400,
        }];
        let a = bench_json(&rows, &reds);
        let b = bench_json(&rows, &reds);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"dvmc-analyzer-bench-v1\""));
        assert!(a.contains("\"factor_x100\": 400"));
        assert!(a.contains("\"defect\": \"none\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn violations_surface_their_class() {
        use crate::explorer::Defect;
        let mut o = outcome();
        o.violation = Some((
            Defect::Unhandled {
                message: "x".to_string(),
            },
            vec!["step".to_string()],
        ));
        let rows = [BenchRow {
            name: "c",
            mutant: "ack-panic",
            outcome: o,
        }];
        let s = bench_json(&rows, &[]);
        assert!(s.contains("\"defect\": \"unhandled\""));
        assert!(s.contains("\"trace_len\": 1"));
    }
}
