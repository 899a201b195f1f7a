//! Ordering-table linter: well-formedness checks over the consistency
//! models' ordering tables (Tables 1–4 of the paper).
//!
//! The dynamic Allowable Reordering checker trusts these tables blindly —
//! a corrupted entry silently weakens (or over-constrains) every run. The
//! linter statically asserts:
//!
//! 1. **Mask placement**: `MaskOfFirst` entries appear only in the membar
//!    row and `MaskOfSecond` entries only in the membar column — a mask
//!    anywhere else can never be supplied by the operation it indexes.
//! 2. **Membar self-ordering**: the membar/membar entry is `Always` in
//!    every model (barriers are processed in program order).
//! 3. **Strength hierarchy**: SC ⊇ TSO ⊇ PSO ⊇ RMO entry-wise — every
//!    ordering a weaker model requires, each stronger model requires too,
//!    evaluated over a concrete alphabet of operation classes including
//!    all 16 membar masks.
//! 4. **Predicate agreement**: each `Model`'s capability helpers
//!    (`loads_ordered`, `store_load_relaxed`, `store_store_relaxed`)
//!    match both its table and the architecturally expected values.

use dvmc_consistency::{MembarMask, Model, OpClass, OpKind, OrderingTable, Requirement};
use std::fmt;

/// One linter finding. `Display` renders a self-contained counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// A mask requirement sits in a row/column that can never supply it.
    MaskPlacement {
        table: &'static str,
        row: OpKind,
        col: OpKind,
        entry: Requirement,
    },
    /// The membar/membar entry is not `Always`.
    MembarNotSelfOrdered {
        table: &'static str,
        entry: Requirement,
    },
    /// A weaker model requires an ordering that a stronger model drops.
    HierarchyViolation {
        stronger: &'static str,
        weaker: &'static str,
        first: OpClass,
        second: OpClass,
    },
    /// A `Model` capability helper disagrees with its expected value.
    PredicateMismatch {
        model: &'static str,
        predicate: &'static str,
        expected: bool,
        actual: bool,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::MaskPlacement {
                table,
                row,
                col,
                entry,
            } => write!(
                f,
                "{table}: entry ({row}, {col}) is {entry:?}, but a mask can only be \
                 supplied by a membar in that position"
            ),
            LintError::MembarNotSelfOrdered { table, entry } => write!(
                f,
                "{table}: membar/membar entry is {entry:?}; barriers must always \
                 self-order (expected Always)"
            ),
            LintError::HierarchyViolation {
                stronger,
                weaker,
                first,
                second,
            } => write!(
                f,
                "hierarchy {stronger} ⊇ {weaker} broken: {weaker} orders \
                 {first} -> {second} but {stronger} does not"
            ),
            LintError::PredicateMismatch {
                model,
                predicate,
                expected,
                actual,
            } => write!(
                f,
                "{model}::{predicate}() returned {actual}, expected {expected}"
            ),
        }
    }
}

/// The concrete operation-class alphabet the relational checks quantify
/// over: plain ops, atomics, `Stbar`, and all 16 membar masks.
pub fn op_alphabet() -> Vec<OpClass> {
    let mut ops = vec![
        OpClass::Load,
        OpClass::Store,
        OpClass::Atomic,
        OpClass::Stbar,
    ];
    for bits in 0..16u8 {
        ops.push(OpClass::Membar(MembarMask::from_bits(bits)));
    }
    ops
}

/// Structural checks on a single table (mask placement, membar
/// self-ordering). Accepts arbitrary tables so tests can feed corrupted
/// ones.
pub fn lint_table(table: &OrderingTable) -> Vec<LintError> {
    let mut errors = Vec::new();
    for row in OpKind::ALL {
        for col in OpKind::ALL {
            let entry = table.entry(row, col);
            let misplaced = match entry {
                Requirement::MaskOfFirst(_) => row != OpKind::Membar,
                Requirement::MaskOfSecond(_) => col != OpKind::Membar,
                Requirement::Never | Requirement::Always => false,
            };
            if misplaced {
                errors.push(LintError::MaskPlacement {
                    table: table.name(),
                    row,
                    col,
                    entry,
                });
            }
        }
    }
    let mm = table.entry(OpKind::Membar, OpKind::Membar);
    if mm != Requirement::Always {
        errors.push(LintError::MembarNotSelfOrdered {
            table: table.name(),
            entry: mm,
        });
    }
    errors
}

/// Entry-wise strength comparison over the default alphabet
/// ([`op_alphabet`]): every ordering `weaker` requires, `stronger` must
/// require as well.
pub fn lint_hierarchy_pair(stronger: &OrderingTable, weaker: &OrderingTable) -> Vec<LintError> {
    lint_hierarchy_pair_over(&op_alphabet(), stronger, weaker)
}

/// [`lint_hierarchy_pair`] quantified over a caller-supplied alphabet.
/// An empty alphabet is vacuously clean; a restricted alphabet checks
/// the hierarchy over just those operation classes.
pub fn lint_hierarchy_pair_over(
    ops: &[OpClass],
    stronger: &OrderingTable,
    weaker: &OrderingTable,
) -> Vec<LintError> {
    let mut errors = Vec::new();
    for &first in ops {
        for &second in ops {
            if weaker.requires(first, second) && !stronger.requires(first, second) {
                errors.push(LintError::HierarchyViolation {
                    stronger: stronger.name(),
                    weaker: weaker.name(),
                    first,
                    second,
                });
            }
        }
    }
    errors
}

/// Expected capability-probe truth values per model
/// (`loads_ordered`, `store_load_relaxed`, `store_store_relaxed`).
fn expected_predicates(model: Model) -> (bool, bool, bool) {
    match model {
        Model::Sc => (true, false, false),
        Model::Tso | Model::Pc => (true, true, false),
        Model::Pso => (true, true, true),
        Model::Rmo => (false, true, true),
    }
}

/// Checks one model's capability helpers against both its table and the
/// architecturally expected values.
pub fn lint_model_predicates(model: Model) -> Vec<LintError> {
    let t = model.table();
    let (exp_lo, exp_slr, exp_ssr) = expected_predicates(model);
    let probes = [
        ("loads_ordered", model.loads_ordered(), exp_lo),
        ("store_load_relaxed", model.store_load_relaxed(), exp_slr),
        ("store_store_relaxed", model.store_store_relaxed(), exp_ssr),
    ];
    let mut errors = Vec::new();
    for (predicate, actual, expected) in probes {
        if actual != expected {
            errors.push(LintError::PredicateMismatch {
                model: model.name(),
                predicate,
                expected,
                actual,
            });
        }
    }
    // Helpers must also be consistent with the table they summarise.
    let table_probes = [
        (
            "loads_ordered (vs table)",
            model.loads_ordered(),
            t.requires(OpClass::Load, OpClass::Load),
        ),
        (
            "store_load_relaxed (vs table)",
            model.store_load_relaxed(),
            !t.requires(OpClass::Store, OpClass::Load),
        ),
        (
            "store_store_relaxed (vs table)",
            model.store_store_relaxed(),
            !t.requires(OpClass::Store, OpClass::Store),
        ),
    ];
    for (predicate, actual, expected) in table_probes {
        if actual != expected {
            errors.push(LintError::PredicateMismatch {
                model: model.name(),
                predicate,
                expected,
                actual,
            });
        }
    }
    errors
}

/// Runs every table lint: structure of all five tables, the
/// SC ⊇ TSO ⊇ PSO ⊇ RMO chain, and predicate agreement.
pub fn lint_all_models() -> Vec<LintError> {
    let mut errors = Vec::new();
    for model in Model::ALL {
        errors.extend(lint_table(model.table()));
        errors.extend(lint_model_predicates(model));
    }
    let chain = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo];
    for pair in chain.windows(2) {
        errors.extend(lint_hierarchy_pair(pair[0].table(), pair[1].table()));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use Requirement::{Always as A, Never as N};

    #[test]
    fn clean_tree_lints_clean() {
        let errors = lint_all_models();
        assert!(errors.is_empty(), "unexpected lint errors: {errors:?}");
    }

    #[test]
    fn misplaced_mask_is_caught() {
        // A mask in the Load row can never be supplied by a load.
        let bad = OrderingTable::new(
            "BAD-MASK",
            [
                [Requirement::MaskOfFirst(MembarMask::LL), A, A],
                [N, A, A],
                [A, A, A],
            ],
        );
        let errors = lint_table(&bad);
        assert!(
            errors.iter().any(|e| matches!(
                e,
                LintError::MaskPlacement {
                    row: OpKind::Load,
                    ..
                }
            )),
            "expected a MaskPlacement error, got {errors:?}"
        );
    }

    #[test]
    fn non_self_ordering_membar_is_caught() {
        let bad = OrderingTable::new("BAD-MM", [[A, A, A], [A, A, A], [A, A, N]]);
        let errors = lint_table(&bad);
        assert!(errors
            .iter()
            .any(|e| matches!(e, LintError::MembarNotSelfOrdered { .. })));
    }

    #[test]
    fn corrupted_entry_breaks_hierarchy() {
        // "TSO" that drops Load->Store, which PSO still requires.
        let corrupted_tso = OrderingTable::new("TSO-corrupt", [[A, N, A], [N, A, A], [A, A, A]]);
        let errors = lint_hierarchy_pair(&corrupted_tso, Model::Pso.table());
        assert!(
            errors.iter().any(|e| matches!(
                e,
                LintError::HierarchyViolation {
                    first: OpClass::Load,
                    second: OpClass::Store,
                    ..
                }
            )),
            "expected Load->Store hierarchy violation, got {errors:?}"
        );
    }

    #[test]
    fn real_chain_is_strictly_ordered_somewhere() {
        // Sanity: the hierarchy is not vacuous — TSO really is weaker
        // than SC on Store->Load.
        assert!(Model::Sc.table().requires(OpClass::Store, OpClass::Load));
        assert!(!Model::Tso.table().requires(OpClass::Store, OpClass::Load));
    }

    #[test]
    fn empty_alphabet_is_vacuously_clean() {
        // With nothing to quantify over, even an inverted pair (RMO
        // claimed stronger than SC) produces no findings.
        let errors = lint_hierarchy_pair_over(&[], Model::Rmo.table(), Model::Sc.table());
        assert!(errors.is_empty(), "vacuous check found {errors:?}");
    }

    #[test]
    fn every_model_is_as_strong_as_itself() {
        for model in Model::ALL {
            let errors = lint_hierarchy_pair(model.table(), model.table());
            assert!(errors.is_empty(), "{} vs itself: {errors:?}", model.name());
        }
    }

    #[test]
    fn chain_pairwise_matrix_is_clean_exactly_above_the_diagonal() {
        // The chain is strictly decreasing in strength, so comparing
        // chain[i] (claimed stronger) against chain[j] must be clean iff
        // i <= j — including non-adjacent pairs like SC vs RMO, and
        // including the inverted direction, which must always produce a
        // concrete counterexample.
        let chain = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo];
        for (i, a) in chain.iter().enumerate() {
            for (j, b) in chain.iter().enumerate() {
                let errors = lint_hierarchy_pair(a.table(), b.table());
                assert_eq!(
                    errors.is_empty(),
                    i <= j,
                    "{} vs {}: {errors:?}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn restricted_alphabet_hides_exactly_the_out_of_scope_violations() {
        // TSO relaxes only Store->Load relative to SC, so over a
        // store-free alphabet the inverted pair TSO-vs-SC is clean...
        let loads_only = [OpClass::Load];
        assert!(
            lint_hierarchy_pair_over(&loads_only, Model::Tso.table(), Model::Sc.table()).is_empty()
        );
        // ...and reappears the moment stores are in scope.
        let both = [OpClass::Load, OpClass::Store];
        let errors = lint_hierarchy_pair_over(&both, Model::Tso.table(), Model::Sc.table());
        assert!(errors.iter().any(|e| matches!(
            e,
            LintError::HierarchyViolation {
                first: OpClass::Store,
                second: OpClass::Load,
                ..
            }
        )));
    }

    #[test]
    fn predicates_agree_for_every_model_including_pc() {
        // PC sits off the SC/TSO/PSO/RMO chain; its capability helpers
        // still have to match both the expectations and its own table.
        for model in Model::ALL {
            let errors = lint_model_predicates(model);
            assert!(errors.is_empty(), "{}: {errors:?}", model.name());
        }
    }

    #[test]
    fn errors_render_counterexamples() {
        let e = LintError::HierarchyViolation {
            stronger: "TSO",
            weaker: "PSO",
            first: OpClass::Load,
            second: OpClass::Store,
        };
        let s = e.to_string();
        assert!(s.contains("TSO") && s.contains("Load") && s.contains("Store"));
    }
}
