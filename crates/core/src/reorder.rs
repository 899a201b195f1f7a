//! The Allowable Reordering checker (§4.2).
//!
//! DVMC verifies *Allowable Reordering* by checking all reorderings between
//! program order and perform order against the consistency model's ordering
//! table. Every instruction is labelled with a sequence number at decode;
//! the checker maintains a `max{OP}` counter register per operation type
//! holding the greatest sequence number of that type that has performed.
//! When an operation X of type `OPx` performs, the checker verifies
//! `seqX > max{OPy}` for every type `OPy` with an ordering constraint
//! `OPx < OPy`, then updates `max{OPx}`.
//!
//! The checker also detects **lost operations**: when a membar performs, any
//! committed-but-unperformed operation older than the membar of a
//! constrained type must have been lost in the memory system. The pipeline
//! injects artificial full-mask membars periodically (about one per 100k
//! cycles) to bound detection latency; injected membars flow through
//! [`ReorderChecker::op_committed`]/[`ReorderChecker::op_performed`] exactly
//! like program membars.
//!
//! The SPARC v9 extensions of §4.2 are implemented: per-operation dynamic
//! consistency models (runtime model switching; 32-bit code regions run
//! TSO), and membar ordering requirements computed from the 4-bit mask.

use crate::obs::{CheckerEvent, ObsRing};
use crate::violation::{LostOpViolation, ReorderViolation, Violation};
use dvmc_consistency::{Model, OpClass, OpKind, Requirement};
use std::collections::BTreeSet;

const N_KINDS: usize = 3;
const N_MODELS: usize = 5;
const N_MASK_BITS: usize = 4;

fn model_index(m: Model) -> usize {
    match m {
        Model::Sc => 0,
        Model::Tso => 1,
        Model::Pso => 2,
        Model::Rmo => 3,
        Model::Pc => 4,
    }
}

const MODELS: [Model; N_MODELS] = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo, Model::Pc];

use dvmc_types::SeqNum;

/// Per-processor Allowable Reordering checker.
///
/// Drive it with two event streams:
///
/// * [`op_committed`](Self::op_committed) when an operation commits (in
///   program order), and
/// * [`op_performed`](Self::op_performed) when it performs (in any order).
///
/// Loads under models without load ordering (RMO) perform at execution,
/// which may precede commit; the checker accepts either event order for a
/// given operation.
///
/// # Examples
///
/// ```rust
/// use dvmc_core::ReorderChecker;
/// use dvmc_consistency::{Model, OpClass};
/// use dvmc_types::SeqNum;
///
/// let mut chk = ReorderChecker::new();
/// chk.op_committed(SeqNum(0), OpClass::Load, Model::Tso);
/// chk.op_committed(SeqNum(1), OpClass::Store, Model::Tso);
/// chk.op_performed(SeqNum(0), OpClass::Load, Model::Tso).unwrap();
/// // TSO relaxes Store->Load, so the store may perform after the load.
/// chk.op_performed(SeqNum(1), OpClass::Store, Model::Tso).unwrap();
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReorderChecker {
    /// max{OP} counters, per counter class and per decode-time model.
    max_perf: [[Option<SeqNum>; N_MODELS]; N_KINDS],
    /// Greatest performed membar sequence number carrying each mask bit.
    max_membar_bit: [Option<SeqNum>; N_MASK_BITS],
    /// Committed-but-unperformed operations, per counter class.
    outstanding: [BTreeSet<SeqNum>; N_KINDS],
    /// Performed-before-commit operations (RMO loads), per counter class.
    early_performed: [BTreeSet<SeqNum>; N_KINDS],
    obs: Option<ObsRing>,
}

impl ReorderChecker {
    /// Creates a checker with empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an event ring retaining `capacity` events. Observability
    /// is off (and free) until this is called.
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs = Some(ObsRing::new(capacity));
    }

    /// The event ring, when observability is enabled.
    pub fn obs(&self) -> Option<&ObsRing> {
        self.obs.as_ref()
    }

    /// Mutable ring access (the owner stamps the current cycle each tick).
    pub fn obs_mut(&mut self) -> Option<&mut ObsRing> {
        self.obs.as_mut()
    }

    /// Records that the operation `seq` of class `class`, decoded under
    /// `model`, committed. Commits must be reported in program order.
    pub fn op_committed(&mut self, seq: SeqNum, class: OpClass, _model: Model) {
        for &kind in class.kinds() {
            let k = kind.index();
            if !self.early_performed[k].remove(&seq) {
                self.outstanding[k].insert(seq);
            }
        }
    }

    /// Records that operation `seq` performed and checks it against the
    /// ordering table.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::Reorder`] if a younger constrained operation
    /// already performed, or [`Violation::LostOp`] if `class` is a barrier
    /// and a constrained older operation committed but never performed.
    pub fn op_performed(
        &mut self,
        seq: SeqNum,
        class: OpClass,
        model: Model,
    ) -> Result<(), Violation> {
        self.check_ordering(seq, class, model)?;
        if class.is_barrier() {
            self.check_lost_ops(seq, class, model)?;
            if let Some(o) = self.obs.as_mut() {
                o.record(CheckerEvent::MembarCheck { seq });
            }
        }
        // All checks passed: update the max counters and outstanding sets.
        let mut advanced = false;
        for &kind in class.kinds() {
            let k = kind.index();
            if !self.outstanding[k].remove(&seq) {
                self.early_performed[k].insert(seq);
            }
            let slot = &mut self.max_perf[k][model_index(model)];
            if slot.is_none_or(|m| m < seq) {
                *slot = Some(seq);
                advanced = true;
            }
        }
        if advanced {
            if let Some(o) = self.obs.as_mut() {
                o.record(CheckerEvent::MaxOpUpdate { seq });
            }
        }
        let mask = class.membar_mask();
        for bit in 0..N_MASK_BITS {
            if mask.bits() & (1 << bit) != 0 {
                let slot = &mut self.max_membar_bit[bit];
                if slot.is_none_or(|m| m < seq) {
                    *slot = Some(seq);
                }
            }
        }
        Ok(())
    }

    /// The number of committed-but-unperformed operations of `kind`.
    pub fn outstanding(&self, kind: OpKind) -> usize {
        self.outstanding[kind.index()].len()
    }

    /// `seqX > max{OPy}` for all `OPy` with a constraint `OPx < OPy`.
    fn check_ordering(&self, seq: SeqNum, class: OpClass, model: Model) -> Result<(), Violation> {
        // Plain columns: Load and Store, split by the decode model of the
        // already-performed younger op (the constraint is the union of both
        // models' tables; see `dvmc_consistency::requires_between`).
        for col in [OpKind::Load, OpKind::Store] {
            for other in MODELS {
                let max = match self.max_perf[col.index()][model_index(other)] {
                    Some(m) if m > seq => m,
                    _ => continue,
                };
                let required = requires_class_before_kind(model, class, col)
                    || requires_class_before_kind(other, class, col);
                if required {
                    return Err(ReorderViolation {
                        seq,
                        class,
                        conflicting_kind: col,
                        max_performed: max,
                    }
                    .into());
                }
            }
        }
        // Membar column: the constraint depends on the younger membar's
        // mask, tracked per mask bit. The membar column masks are shared by
        // all non-SC tables; SC orders everything, so any younger membar
        // conflicts.
        let col_mask_bits: u8 = if model == Model::Sc {
            0b1111
        } else {
            let mut bits = 0u8;
            for &kind in class.kinds() {
                bits |= match kind {
                    OpKind::Load => 0b0011,   // #LL | #LS hold earlier loads
                    OpKind::Store => 0b1100,  // #SL | #SS hold earlier stores
                    OpKind::Membar => 0b1111, // membars are mutually ordered
                };
            }
            bits
        };
        for bit in 0..N_MASK_BITS {
            if col_mask_bits & (1 << bit) == 0 {
                continue;
            }
            if let Some(max) = self.max_membar_bit[bit] {
                if max > seq {
                    return Err(ReorderViolation {
                        seq,
                        class,
                        conflicting_kind: OpKind::Membar,
                        max_performed: max,
                    }
                    .into());
                }
            }
        }
        Ok(())
    }

    /// When a membar performs, all constrained older committed operations
    /// must already have performed.
    fn check_lost_ops(&self, seq: SeqNum, class: OpClass, model: Model) -> Result<(), Violation> {
        for row in [OpKind::Load, OpKind::Store] {
            let required = match model.table().entry(row, OpKind::Membar) {
                Requirement::Never => false,
                Requirement::Always => true,
                Requirement::MaskOfSecond(m) => class.membar_mask().intersects(m),
                Requirement::MaskOfFirst(_) => false,
            };
            if !required {
                continue;
            }
            if let Some(&lost) = self.outstanding[row.index()].first() {
                if lost < seq {
                    return Err(LostOpViolation {
                        membar_seq: seq,
                        kind: row,
                        lost_seq: lost,
                    }
                    .into());
                }
            }
        }
        Ok(())
    }
}

/// Does `first` (a concrete class) have an ordering constraint against a
/// *bare kind* column under `model`? Mask-of-second entries cannot fire
/// because a bare Load/Store column carries no mask.
fn requires_class_before_kind(model: Model, first: OpClass, col: OpKind) -> bool {
    let table = model.table();
    first
        .kinds()
        .iter()
        .any(|&row| match table.entry(row, col) {
            Requirement::Never => false,
            Requirement::Always => true,
            Requirement::MaskOfFirst(m) => first.membar_mask().intersects(m),
            Requirement::MaskOfSecond(_) => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_consistency::MembarMask as M;

    fn commit_all(chk: &mut ReorderChecker, ops: &[(u64, OpClass)], model: Model) {
        for &(seq, class) in ops {
            chk.op_committed(SeqNum(seq), class, model);
        }
    }

    #[test]
    fn in_order_performs_pass_under_sc() {
        let mut chk = ReorderChecker::new();
        let ops = [
            (0, OpClass::Load),
            (1, OpClass::Store),
            (2, OpClass::Load),
            (3, OpClass::Atomic),
        ];
        commit_all(&mut chk, &ops, Model::Sc);
        for (seq, class) in ops {
            chk.op_performed(SeqNum(seq), class, Model::Sc).unwrap();
        }
    }

    #[test]
    fn sc_rejects_any_reordering() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Load)],
            Model::Sc,
        );
        chk.op_performed(SeqNum(1), OpClass::Load, Model::Sc)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(0), OpClass::Store, Model::Sc)
            .unwrap_err();
        assert!(matches!(err, Violation::Reorder(_)), "{err}");
    }

    #[test]
    fn tso_allows_store_load_reordering() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Load)],
            Model::Tso,
        );
        chk.op_performed(SeqNum(1), OpClass::Load, Model::Tso)
            .unwrap();
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Tso)
            .expect("TSO permits a load to perform before an older store");
    }

    #[test]
    fn tso_rejects_store_store_reordering() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Store)],
            Model::Tso,
        );
        chk.op_performed(SeqNum(1), OpClass::Store, Model::Tso)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(0), OpClass::Store, Model::Tso)
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Reorder(ReorderViolation {
                conflicting_kind: OpKind::Store,
                ..
            })
        ));
    }

    #[test]
    fn tso_rejects_load_load_reordering() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Load), (1, OpClass::Load)],
            Model::Tso,
        );
        chk.op_performed(SeqNum(1), OpClass::Load, Model::Tso)
            .unwrap();
        assert!(chk
            .op_performed(SeqNum(0), OpClass::Load, Model::Tso)
            .is_err());
    }

    #[test]
    fn pso_allows_store_store_but_not_across_stbar() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Store)],
            Model::Pso,
        );
        chk.op_performed(SeqNum(1), OpClass::Store, Model::Pso)
            .unwrap();
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Pso)
            .expect("PSO permits store-store reordering");

        // Now: store(2), stbar(3). The stbar performing while the older
        // store is still outstanding is a lost-op violation: correct
        // hardware would have drained the store first.
        commit_all(
            &mut chk,
            &[(2, OpClass::Store), (3, OpClass::Stbar)],
            Model::Pso,
        );
        let err = chk
            .op_performed(SeqNum(3), OpClass::Stbar, Model::Pso)
            .unwrap_err();
        assert!(
            matches!(
                err,
                Violation::LostOp(LostOpViolation {
                    kind: OpKind::Store,
                    ..
                })
            ),
            "stbar must detect the outstanding older store: {err}"
        );
    }

    #[test]
    fn pso_correct_stbar_sequence_passes() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[
                (0, OpClass::Store),
                (1, OpClass::Stbar),
                (2, OpClass::Store),
            ],
            Model::Pso,
        );
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Pso)
            .unwrap();
        chk.op_performed(SeqNum(1), OpClass::Stbar, Model::Pso)
            .unwrap();
        chk.op_performed(SeqNum(2), OpClass::Store, Model::Pso)
            .unwrap();
    }

    #[test]
    fn early_performing_op_caught_by_membar_bit_counter() {
        // RMO loads perform at execution, possibly before they commit, so
        // the lost-op check at the membar cannot see them. The per-bit
        // membar counters catch a load that performs after a younger #LL
        // membar performed.
        let mut chk = ReorderChecker::new();
        chk.op_performed(SeqNum(1), OpClass::Membar(M::LL), Model::Rmo)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(0), OpClass::Load, Model::Rmo)
            .unwrap_err();
        assert!(
            matches!(
                err,
                Violation::Reorder(ReorderViolation {
                    conflicting_kind: OpKind::Membar,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn stbar_performing_before_older_store_is_reorder_violation() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Stbar), (1, OpClass::Store)],
            Model::Pso,
        );
        chk.op_performed(SeqNum(1), OpClass::Store, Model::Pso)
            .unwrap();
        // The stbar performs after a younger store it should have held back.
        let err = chk
            .op_performed(SeqNum(0), OpClass::Stbar, Model::Pso)
            .unwrap_err();
        assert!(matches!(err, Violation::Reorder(_)), "{err}");
    }

    #[test]
    fn rmo_allows_arbitrary_load_store_reordering() {
        let mut chk = ReorderChecker::new();
        let ops = [
            (0, OpClass::Load),
            (1, OpClass::Store),
            (2, OpClass::Load),
            (3, OpClass::Store),
        ];
        commit_all(&mut chk, &ops, Model::Rmo);
        for seq in [3u64, 2, 1, 0] {
            let class = ops[seq as usize].1;
            chk.op_performed(SeqNum(seq), class, Model::Rmo)
                .expect("RMO places no implicit ordering on plain accesses");
        }
    }

    #[test]
    fn rmo_membar_mask_enforced() {
        // load(0); membar #LL(1); load(2) — load 2 performing before the
        // membar violates the #LL constraint when the membar performs after.
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[
                (0, OpClass::Load),
                (1, OpClass::Membar(M::LL)),
                (2, OpClass::Load),
            ],
            Model::Rmo,
        );
        chk.op_performed(SeqNum(0), OpClass::Load, Model::Rmo)
            .unwrap();
        chk.op_performed(SeqNum(2), OpClass::Load, Model::Rmo)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(1), OpClass::Membar(M::LL), Model::Rmo)
            .unwrap_err();
        assert!(matches!(err, Violation::Reorder(_)));
    }

    #[test]
    fn rmo_load_after_membar_checked_via_bit_counters() {
        // store(0); membar #SS(1); store(2): if store 0 performs after the
        // membar performed, the membar bit counter catches it.
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[
                (0, OpClass::Store),
                (1, OpClass::Membar(M::SS)),
                (2, OpClass::Store),
            ],
            Model::Rmo,
        );
        // Hardware loses track: membar performs although store 0 is
        // outstanding -> lost-op check fires first.
        let err = chk
            .op_performed(SeqNum(1), OpClass::Membar(M::SS), Model::Rmo)
            .unwrap_err();
        assert!(matches!(err, Violation::LostOp(_)));
    }

    #[test]
    fn rmo_unrelated_membar_mask_ignores_stores() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Membar(M::LL))],
            Model::Rmo,
        );
        // #LoadLoad does not order stores: membar may perform while the
        // store is outstanding, and the store may perform after it.
        chk.op_performed(SeqNum(1), OpClass::Membar(M::LL), Model::Rmo)
            .unwrap();
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Rmo)
            .unwrap();
    }

    #[test]
    fn atomic_checked_as_load_and_store() {
        // Under TSO, an atomic performing after a younger load performed is
        // a violation through its store half... and through its load half.
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Atomic), (1, OpClass::Load)],
            Model::Tso,
        );
        chk.op_performed(SeqNum(1), OpClass::Load, Model::Tso)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(0), OpClass::Atomic, Model::Tso)
            .unwrap_err();
        assert!(matches!(err, Violation::Reorder(_)));
    }

    #[test]
    fn injected_membar_detects_lost_store() {
        let mut chk = ReorderChecker::new();
        commit_all(&mut chk, &[(0, OpClass::Store)], Model::Tso);
        // The store is dropped by the (faulty) write buffer and never
        // performs. An injected full-mask membar commits later and performs.
        chk.op_committed(SeqNum(100), OpClass::Membar(M::ALL), Model::Tso);
        let err = chk
            .op_performed(SeqNum(100), OpClass::Membar(M::ALL), Model::Tso)
            .unwrap_err();
        assert!(
            matches!(
                err,
                Violation::LostOp(LostOpViolation {
                    lost_seq: SeqNum(0),
                    kind: OpKind::Store,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn injected_membar_passes_when_nothing_outstanding() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Load)],
            Model::Tso,
        );
        chk.op_performed(SeqNum(1), OpClass::Load, Model::Tso)
            .unwrap();
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Tso)
            .unwrap();
        chk.op_committed(SeqNum(2), OpClass::Membar(M::ALL), Model::Tso);
        chk.op_performed(SeqNum(2), OpClass::Membar(M::ALL), Model::Tso)
            .unwrap();
        assert_eq!(chk.outstanding(OpKind::Store), 0);
    }

    #[test]
    fn perform_before_commit_is_accepted_for_rmo_loads() {
        let mut chk = ReorderChecker::new();
        // RMO load performs at execution, before commit.
        chk.op_performed(SeqNum(0), OpClass::Load, Model::Rmo)
            .unwrap();
        chk.op_committed(SeqNum(0), OpClass::Load, Model::Rmo);
        assert_eq!(chk.outstanding(OpKind::Load), 0);
    }

    #[test]
    fn cross_model_region_enforced_conservatively() {
        // A store decoded in a 32-bit TSO region performs; a younger store
        // decoded under RMO performed first. TSO's table requires
        // Store->Store, so this is a violation even though RMO would allow
        // it.
        let mut chk = ReorderChecker::new();
        chk.op_committed(SeqNum(0), OpClass::Store, Model::Tso);
        chk.op_committed(SeqNum(1), OpClass::Store, Model::Rmo);
        chk.op_performed(SeqNum(1), OpClass::Store, Model::Rmo)
            .unwrap();
        let err = chk
            .op_performed(SeqNum(0), OpClass::Store, Model::Tso)
            .unwrap_err();
        assert!(matches!(err, Violation::Reorder(_)));
    }

    #[test]
    fn obs_records_counter_updates_and_membar_checks() {
        let mut chk = ReorderChecker::new();
        chk.enable_obs(16);
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Membar(M::ALL))],
            Model::Tso,
        );
        chk.op_performed(SeqNum(0), OpClass::Store, Model::Tso)
            .unwrap();
        chk.op_performed(SeqNum(1), OpClass::Membar(M::ALL), Model::Tso)
            .unwrap();
        let m = chk.obs().unwrap().metrics();
        assert_eq!(
            m.max_op_updates, 2,
            "store and membar both advanced a counter"
        );
        assert_eq!(m.membar_checks, 1);
    }

    #[test]
    fn outstanding_counts_track_commit_and_perform() {
        let mut chk = ReorderChecker::new();
        commit_all(
            &mut chk,
            &[(0, OpClass::Store), (1, OpClass::Store), (2, OpClass::Load)],
            Model::Pso,
        );
        assert_eq!(chk.outstanding(OpKind::Store), 2);
        assert_eq!(chk.outstanding(OpKind::Load), 1);
        chk.op_performed(SeqNum(1), OpClass::Store, Model::Pso)
            .unwrap();
        assert_eq!(chk.outstanding(OpKind::Store), 1);
    }
}
