//! Ordering tables for the supported consistency models (Tables 1–4).

use crate::membar::MembarMask;
use crate::op::{OpClass, OpKind};
use std::fmt;

/// One entry of an ordering table: does an ordering constraint exist
/// between a *first* operation type (row) and a *second* operation type
/// (column)?
///
/// Entries involving membars hold masks rather than booleans (§4); the
/// constraint holds when the relevant instruction's mask ANDed with the
/// table mask is non-zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Requirement {
    /// No ordering constraint.
    Never,
    /// Unconditional ordering constraint.
    Always,
    /// Constraint iff the *first* operation (a membar) carries a mask bit
    /// in this set.
    MaskOfFirst(MembarMask),
    /// Constraint iff the *second* operation (a membar) carries a mask bit
    /// in this set.
    MaskOfSecond(MembarMask),
}

impl Requirement {
    /// Evaluates the entry for a concrete pair of operations.
    fn holds(self, first: OpClass, second: OpClass) -> bool {
        match self {
            Requirement::Never => false,
            Requirement::Always => true,
            Requirement::MaskOfFirst(m) => first.membar_mask().intersects(m),
            Requirement::MaskOfSecond(m) => second.membar_mask().intersects(m),
        }
    }
}

/// A consistency model's ordering table (§2.2).
///
/// 3×3 over the counter classes (`Load`, `Store`, `Membar`); `Stbar` and
/// atomics are resolved through [`OpClass::kinds`] /
/// [`OpClass::membar_mask`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrderingTable {
    name: &'static str,
    entries: [[Requirement; 3]; 3],
}

impl OrderingTable {
    /// Builds a table from a name and its 3×3 entries (row-major,
    /// `[Load, Store, Membar]` order).
    pub const fn new(name: &'static str, entries: [[Requirement; 3]; 3]) -> Self {
        OrderingTable { name, entries }
    }

    /// The model name this table belongs to.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The raw entry for a (row, column) pair of counter classes.
    pub fn entry(&self, first: OpKind, second: OpKind) -> Requirement {
        self.entries[first.index()][second.index()]
    }

    /// Whether an ordering constraint exists between a concrete pair of
    /// operation classes: if `X` (class `first`) precedes `Y` (class
    /// `second`) in program order, must `X` perform before `Y`?
    ///
    /// Atomics satisfy the union of their load and store constraints (§4).
    pub fn requires(&self, first: OpClass, second: OpClass) -> bool {
        first.kinds().iter().any(|&kf| {
            second
                .kinds()
                .iter()
                .any(|&ks| self.entry(kf, ks).holds(first, second))
        })
    }
}

impl fmt::Display for OrderingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ordering table:", self.name)?;
        writeln!(
            f,
            "{:>8} | {:^18} {:^18} {:^18}",
            "1st\\2nd", "Load", "Store", "Membar"
        )?;
        for kf in OpKind::ALL {
            write!(f, "{:>8} |", format!("{kf}"))?;
            for ks in OpKind::ALL {
                write!(f, " {:^18}", format!("{:?}", self.entry(kf, ks)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The consistency models the SPARC v9 implementation supports (§4), plus
/// Processor Consistency (Table 1) for completeness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Model {
    /// Sequential consistency.
    Sc,
    /// Total Store Order (Table 2) — a variant of Processor Consistency.
    Tso,
    /// Partial Store Order (Table 3).
    Pso,
    /// Relaxed Memory Order (Table 4) — a variant of Weak Consistency.
    Rmo,
    /// Processor Consistency (Table 1).
    Pc,
}

use Requirement::{Always as A, Never as N};

// Loads before a membar are held by #LoadLoad or #LoadStore; stores by
// #StoreLoad or #StoreStore. Loads after a membar wait on #LoadLoad or
// #StoreLoad; stores on #LoadStore or #StoreStore.
const MEMBAR_COL_LOAD: Requirement =
    Requirement::MaskOfSecond(MembarMask::LL.union(MembarMask::LS));
const MEMBAR_COL_STORE: Requirement =
    Requirement::MaskOfSecond(MembarMask::SL.union(MembarMask::SS));
const MEMBAR_ROW_LOAD: Requirement = Requirement::MaskOfFirst(MembarMask::LL.union(MembarMask::SL));
const MEMBAR_ROW_STORE: Requirement =
    Requirement::MaskOfFirst(MembarMask::LS.union(MembarMask::SS));

/// Membar rows/columns are mask-resolved in every model; membar-membar
/// pairs are always ordered (barriers are processed in program order).
const fn with_membar(name: &'static str, two_by_two: [[Requirement; 2]; 2]) -> OrderingTable {
    OrderingTable::new(
        name,
        [
            [two_by_two[0][0], two_by_two[0][1], MEMBAR_COL_LOAD],
            [two_by_two[1][0], two_by_two[1][1], MEMBAR_COL_STORE],
            [MEMBAR_ROW_LOAD, MEMBAR_ROW_STORE, A],
        ],
    )
}

static SC_TABLE: OrderingTable = OrderingTable::new("SC", [[A, A, A], [A, A, A], [A, A, A]]);
static TSO_TABLE: OrderingTable = with_membar("TSO", [[A, A], [N, A]]);
static PSO_TABLE: OrderingTable = with_membar("PSO", [[A, A], [N, N]]);
static RMO_TABLE: OrderingTable = with_membar("RMO", [[N, N], [N, N]]);
static PC_TABLE: OrderingTable = with_membar("PC", [[A, A], [N, A]]);

impl Model {
    /// All supported models.
    pub const ALL: [Model; 5] = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo, Model::Pc];

    /// The models evaluated in the paper's experiments.
    pub const EVALUATED: [Model; 4] = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo];

    /// This model's ordering table.
    pub fn table(self) -> &'static OrderingTable {
        match self {
            Model::Sc => &SC_TABLE,
            Model::Tso => &TSO_TABLE,
            Model::Pso => &PSO_TABLE,
            Model::Rmo => &RMO_TABLE,
            Model::Pc => &PC_TABLE,
        }
    }

    /// Whether the model requires loads to appear to perform in program
    /// order. Models with load ordering use load-order speculation and
    /// consider loads to perform at verification; RMO considers loads to
    /// perform at execution (§4.1).
    pub fn loads_ordered(self) -> bool {
        self.table().requires(OpClass::Load, OpClass::Load)
    }

    /// Whether a store may be buffered past subsequent loads (i.e., the
    /// Store→Load entry is relaxed), enabling a write buffer.
    pub fn store_load_relaxed(self) -> bool {
        !self.table().requires(OpClass::Store, OpClass::Load)
    }

    /// Whether stores may drain out of program order (Store→Store relaxed).
    pub fn store_store_relaxed(self) -> bool {
        !self.table().requires(OpClass::Store, OpClass::Store)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        self.table().name()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ordering requirement between operations possibly decoded under
/// *different* models (SPARC v9 switches models at runtime; 32-bit code
/// regions run TSO, §5). We enforce the union of both models' tables,
/// which is conservative and therefore sound.
pub fn requires_between(
    first_model: Model,
    first: OpClass,
    second_model: Model,
    second: OpClass,
) -> bool {
    first_model.table().requires(first, second) || second_model.table().requires(first, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membar::MembarMask as M;

    #[test]
    fn table_1_and_2_processor_consistency_and_tso() {
        for model in [Model::Pc, Model::Tso] {
            let t = model.table();
            assert!(t.requires(OpClass::Load, OpClass::Load));
            assert!(t.requires(OpClass::Load, OpClass::Store));
            assert!(!t.requires(OpClass::Store, OpClass::Load));
            assert!(t.requires(OpClass::Store, OpClass::Store));
        }
    }

    #[test]
    fn sc_orders_everything() {
        let t = Model::Sc.table();
        for a in [OpClass::Load, OpClass::Store, OpClass::Atomic] {
            for b in [OpClass::Load, OpClass::Store, OpClass::Atomic] {
                assert!(t.requires(a, b), "{a} -> {b} must be ordered under SC");
            }
        }
    }

    #[test]
    fn table_3_pso() {
        let t = Model::Pso.table();
        assert!(t.requires(OpClass::Load, OpClass::Load));
        assert!(t.requires(OpClass::Load, OpClass::Store));
        assert!(!t.requires(OpClass::Store, OpClass::Load));
        assert!(!t.requires(OpClass::Store, OpClass::Store));
        // Stbar row/column (Table 3): Load-Stbar false, Store-Stbar true,
        // Stbar-Load false, Stbar-Store true.
        assert!(!t.requires(OpClass::Load, OpClass::Stbar));
        assert!(t.requires(OpClass::Store, OpClass::Stbar));
        assert!(!t.requires(OpClass::Stbar, OpClass::Load));
        assert!(t.requires(OpClass::Stbar, OpClass::Store));
    }

    #[test]
    fn table_4_rmo_membar_masks() {
        let t = Model::Rmo.table();
        // No implicit ordering between plain accesses.
        assert!(!t.requires(OpClass::Load, OpClass::Load));
        assert!(!t.requires(OpClass::Store, OpClass::Store));
        assert!(!t.requires(OpClass::Load, OpClass::Store));
        assert!(!t.requires(OpClass::Store, OpClass::Load));
        // Membar column: loads are held by #LL or #LS membars.
        assert!(t.requires(OpClass::Load, OpClass::Membar(M::LL)));
        assert!(t.requires(OpClass::Load, OpClass::Membar(M::LS)));
        assert!(!t.requires(OpClass::Load, OpClass::Membar(M::SL)));
        assert!(!t.requires(OpClass::Load, OpClass::Membar(M::SS)));
        // Stores are held by #SL or #SS membars.
        assert!(t.requires(OpClass::Store, OpClass::Membar(M::SL)));
        assert!(t.requires(OpClass::Store, OpClass::Membar(M::SS)));
        assert!(!t.requires(OpClass::Store, OpClass::Membar(M::LL)));
        // Membar row: later loads wait on #LL or #SL, later stores on #LS or #SS.
        assert!(t.requires(OpClass::Membar(M::LL), OpClass::Load));
        assert!(t.requires(OpClass::Membar(M::SL), OpClass::Load));
        assert!(!t.requires(OpClass::Membar(M::SS), OpClass::Load));
        assert!(t.requires(OpClass::Membar(M::SS), OpClass::Store));
        assert!(t.requires(OpClass::Membar(M::LS), OpClass::Store));
        assert!(!t.requires(OpClass::Membar(M::LL), OpClass::Store));
        // Membars are mutually ordered.
        assert!(t.requires(OpClass::Membar(M::LL), OpClass::Membar(M::SS)));
    }

    #[test]
    fn atomics_take_union_of_load_and_store_rows() {
        let t = Model::Tso.table();
        // Atomic before load: load half gives Load->Load = true.
        assert!(t.requires(OpClass::Atomic, OpClass::Load));
        // Store before atomic: Store->Load is false but Store->Store is
        // true, so the constraint holds through the store half.
        assert!(t.requires(OpClass::Store, OpClass::Atomic));
        // Under RMO an atomic has no implicit ordering with plain accesses.
        assert!(!Model::Rmo.table().requires(OpClass::Atomic, OpClass::Load));
    }

    #[test]
    fn empty_membar_orders_nothing_in_rmo() {
        let t = Model::Rmo.table();
        let nop = OpClass::Membar(M::NONE);
        assert!(!t.requires(OpClass::Load, nop));
        assert!(!t.requires(nop, OpClass::Store));
    }

    #[test]
    fn stbar_under_pso_equals_membar_ss() {
        let t = Model::Pso.table();
        for other in [OpClass::Load, OpClass::Store] {
            assert_eq!(
                t.requires(OpClass::Stbar, other),
                t.requires(OpClass::Membar(M::SS), other)
            );
            assert_eq!(
                t.requires(other, OpClass::Stbar),
                t.requires(other, OpClass::Membar(M::SS))
            );
        }
    }

    #[test]
    fn cross_model_union_is_conservative() {
        // A store decoded under TSO followed by a store decoded under RMO:
        // TSO's table requires Store->Store, so the union requires it.
        assert!(requires_between(
            Model::Tso,
            OpClass::Store,
            Model::Rmo,
            OpClass::Store
        ));
        assert!(!requires_between(
            Model::Rmo,
            OpClass::Store,
            Model::Rmo,
            OpClass::Store
        ));
    }

    #[test]
    fn model_capability_probes() {
        assert!(Model::Sc.loads_ordered());
        assert!(!Model::Sc.store_load_relaxed());
        assert!(Model::Tso.loads_ordered());
        assert!(Model::Tso.store_load_relaxed());
        assert!(!Model::Tso.store_store_relaxed());
        assert!(Model::Pso.store_store_relaxed());
        assert!(!Model::Rmo.loads_ordered());
        assert_eq!(Model::Rmo.name(), "RMO");
    }

    #[test]
    fn display_renders_all_tables() {
        for model in Model::ALL {
            let rendered = format!("{}", model.table());
            assert!(rendered.contains(model.name()));
            assert!(rendered.contains("1st\\2nd"));
        }
    }
}
