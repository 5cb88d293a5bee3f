//! Interned branch storage: [`BranchCatalog`] and [`FlatBranchSet`].
//!
//! [`BranchMultiset`] is the faithful construction-time representation of
//! `B_G`, but comparing two multisets walks `Vec<Branch>` objects whose
//! heap-allocated edge-label lists defeat cache locality. This module interns
//! every distinct [`Branch`] once into a [`BranchCatalog`] (a dense `u32` id
//! per branch) and re-expresses each multiset as a [`FlatBranchSet`]: sorted
//! `(id, count)` runs over plain integers. The GBD merge of Definition 4 then
//! becomes a branchless two-pointer walk over two integer slices — the same
//! `O(nd)` asymptotics as before, with a far smaller constant.
//!
//! Query graphs may contain branches the catalog has never seen. A read-only
//! lookup maps those to the sentinel [`UNKNOWN_BRANCH_ID`], which matches
//! *nothing* during a merge (an unknown branch cannot be isomorphic to any
//! catalogued branch). Comparing two flat sets that both carry unknowns is
//! therefore conservative; within the engine this never happens, because the
//! database side is always fully interned.

use std::collections::HashMap;

use crate::branch::{Branch, BranchMultiset};
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Sentinel id assigned by [`BranchCatalog::flatten_lookup`] to branches that
/// are absent from the catalog. Runs with this id never match during a merge.
pub const UNKNOWN_BRANCH_ID: u32 = u32::MAX;

/// One run of a [`FlatBranchSet`]: `count` copies of the branch interned at
/// `id` in the owning [`BranchCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRun {
    /// Dense catalog id of the branch (or [`UNKNOWN_BRANCH_ID`]).
    pub id: u32,
    /// Multiplicity of the branch in the multiset.
    pub count: u32,
}

/// Interns every distinct [`Branch`] to a dense `u32` id.
///
/// Ids are assigned in first-seen order and are stable for the lifetime of
/// the catalog; `branch(id)` recovers the original branch.
#[derive(Debug, Clone, Default)]
pub struct BranchCatalog {
    ids: HashMap<Branch, u32>,
    branches: Vec<Branch>,
}

impl BranchCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        BranchCatalog::default()
    }

    /// Rebuilds a catalog from its id-ordered branch list (the storage-engine
    /// load path: ids are assigned by position, `branches[i]` gets id `i`).
    ///
    /// # Errors
    /// Returns [`GraphError::Parse`] when the list contains duplicate
    /// branches (two ids for one branch would corrupt every flat set) or
    /// exhausts the id space.
    pub fn from_branches(branches: Vec<Branch>) -> Result<Self> {
        if branches.len() >= UNKNOWN_BRANCH_ID as usize {
            return Err(GraphError::Parse(
                "catalog exceeds the branch id space".into(),
            ));
        }
        let mut ids = HashMap::with_capacity(branches.len());
        for (id, branch) in branches.iter().enumerate() {
            if ids.insert(branch.clone(), id as u32).is_some() {
                return Err(GraphError::Parse(format!(
                    "duplicate branch at catalog id {id}"
                )));
            }
        }
        Ok(BranchCatalog { ids, branches })
    }

    /// The interned branches in id order (`branches()[i]` has id `i`).
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// Number of distinct branches interned so far.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Returns `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The id of `branch`, if it has been interned.
    pub fn id_of(&self, branch: &Branch) -> Option<u32> {
        self.ids.get(branch).copied()
    }

    /// The branch interned at `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this catalog.
    pub fn branch(&self, id: u32) -> &Branch {
        &self.branches[id as usize]
    }

    /// Interns `branch`, returning its dense id (existing or fresh).
    pub fn intern(&mut self, branch: Branch) -> u32 {
        if let Some(&id) = self.ids.get(&branch) {
            return id;
        }
        let id = u32::try_from(self.branches.len()).expect("fewer than 2^32 distinct branches");
        assert!(id != UNKNOWN_BRANCH_ID, "catalog exhausted the id space");
        self.branches.push(branch.clone());
        self.ids.insert(branch, id);
        id
    }

    /// Converts a multiset to its flat form, interning unseen branches.
    ///
    /// Used while building a database: after every stored graph has been
    /// flattened, the catalog holds exactly the branch vocabulary of the
    /// database.
    pub fn flatten(&mut self, multiset: &BranchMultiset) -> FlatBranchSet {
        flatten_runs(multiset, |branch| Some(self.intern(branch.clone())))
    }

    /// Converts a multiset to its flat form **without** mutating the catalog.
    ///
    /// Branches absent from the catalog collapse into a single
    /// [`UNKNOWN_BRANCH_ID`] run; they can never match a catalogued branch,
    /// so a merge against a fully interned set stays exact. This is the
    /// query-side conversion: it is lock-free and shareable across threads.
    pub fn flatten_lookup(&self, multiset: &BranchMultiset) -> FlatBranchSet {
        self.flatten_lookup_with(multiset, |_| None)
    }

    /// [`Self::flatten_lookup`] over this catalog extended by a vocabulary
    /// `overlay`: a branch absent from the catalog is resolved through
    /// `overlay` (whose ids continue past [`Self::len`]), and only what both
    /// miss collapses into the [`UNKNOWN_BRANCH_ID`] run. The catalog itself
    /// stays immutable, so it can be shared while the overlay grows.
    pub fn flatten_lookup_with(
        &self,
        multiset: &BranchMultiset,
        mut overlay: impl FnMut(&Branch) -> Option<u32>,
    ) -> FlatBranchSet {
        flatten_runs(multiset, |branch| {
            self.id_of(branch).or_else(|| overlay(branch))
        })
    }

    /// Flattens the branch multiset of `graph` without mutating the catalog.
    pub fn flatten_graph(&self, graph: &Graph) -> FlatBranchSet {
        self.flatten_lookup(&BranchMultiset::from_graph(graph))
    }
}

/// Run-length-encodes a sorted multiset into id-sorted runs. Branches for
/// which `id_for` returns `None` accumulate into one trailing
/// [`UNKNOWN_BRANCH_ID`] run.
fn flatten_runs(
    multiset: &BranchMultiset,
    mut id_for: impl FnMut(&Branch) -> Option<u32>,
) -> FlatBranchSet {
    let branches = multiset.branches();
    let mut runs: Vec<BranchRun> = Vec::new();
    let mut unknown = 0u32;
    let mut i = 0;
    while i < branches.len() {
        let mut j = i + 1;
        while j < branches.len() && branches[j] == branches[i] {
            j += 1;
        }
        let count = (j - i) as u32;
        match id_for(&branches[i]) {
            Some(id) => runs.push(BranchRun { id, count }),
            None => unknown += count,
        }
        i = j;
    }
    runs.sort_unstable_by_key(|run| run.id);
    if unknown > 0 {
        runs.push(BranchRun {
            id: UNKNOWN_BRANCH_ID,
            count: unknown,
        });
    }
    FlatBranchSet {
        runs,
        total: branches.len(),
    }
}

/// A branch multiset in flat interned form: sorted `(id, count)` runs.
///
/// Equality of ids replaces branch isomorphism, so the multiset intersection
/// of Definition 4 is a merge over two integer slices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatBranchSet {
    runs: Vec<BranchRun>,
    total: usize,
}

impl FlatBranchSet {
    /// Builds a flat set directly from runs (used by arena-backed storage).
    ///
    /// `runs` must be sorted by id with distinct ids; `total` is the number
    /// of branches, i.e. the vertex count of the source graph.
    pub fn from_runs(runs: Vec<BranchRun>, total: usize) -> Self {
        debug_assert!(runs.windows(2).all(|w| w[0].id < w[1].id));
        debug_assert_eq!(runs.iter().map(|r| r.count as usize).sum::<usize>(), total);
        FlatBranchSet { runs, total }
    }

    /// The sorted `(id, count)` runs.
    pub fn runs(&self) -> &[BranchRun] {
        &self.runs
    }

    /// Number of branches in the multiset (vertex count of the source graph).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` for the empty multiset.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// A borrowed view, the form the arena-backed database hands out.
    pub fn as_view(&self) -> FlatBranchView<'_> {
        FlatBranchView {
            runs: &self.runs,
            total: self.total,
        }
    }

    /// Number of branches with a catalogued id (total minus the unknown run).
    pub fn known_len(&self) -> usize {
        self.as_view().known_len()
    }

    /// The runs with catalogued ids (the unknown-sentinel run stripped).
    pub fn known_runs(&self) -> &[BranchRun] {
        self.as_view().known_runs()
    }

    /// Largest multiplicity among the catalogued runs (0 when there are none).
    pub fn max_known_run_count(&self) -> u32 {
        self.as_view().max_known_run_count()
    }

    /// Multiset intersection size against another flat set.
    pub fn intersection_size(&self, other: &FlatBranchSet) -> usize {
        self.as_view().intersection_size(other.as_view())
    }

    /// Graph Branch Distance (Definition 4) against another flat set.
    pub fn gbd(&self, other: &FlatBranchSet) -> usize {
        self.as_view().gbd(other.as_view())
    }

    /// Weighted GBD of Equation 26 against another flat set.
    pub fn weighted_gbd(&self, other: &FlatBranchSet, w: f64) -> f64 {
        self.as_view().weighted_gbd(other.as_view(), w)
    }
}

/// A borrowed [`FlatBranchSet`]: runs slice plus the source vertex count.
///
/// This is what an arena-backed database returns without copying.
#[derive(Debug, Clone, Copy)]
pub struct FlatBranchView<'a> {
    runs: &'a [BranchRun],
    total: usize,
}

impl<'a> FlatBranchView<'a> {
    /// Builds a view over externally stored runs.
    ///
    /// Same preconditions as [`FlatBranchSet::from_runs`].
    pub fn new(runs: &'a [BranchRun], total: usize) -> Self {
        FlatBranchView { runs, total }
    }

    /// The sorted `(id, count)` runs.
    pub fn runs(self) -> &'a [BranchRun] {
        self.runs
    }

    /// Number of branches in the multiset.
    pub fn len(self) -> usize {
        self.total
    }

    /// Returns `true` for the empty multiset.
    pub fn is_empty(self) -> bool {
        self.total == 0
    }

    /// Number of branches with a catalogued id (total minus the unknown run).
    ///
    /// Only catalogued branches can contribute to an intersection, so this is
    /// the tightest multiset-level upper bound on `|B_Q ∩ B_G|` that needs no
    /// per-pair work: `|B_Q ∩ B_G| ≤ min(known_len(Q), known_len(G))`.
    pub fn known_len(self) -> usize {
        self.total - self.unknown_count()
    }

    /// Multiplicity of the trailing [`UNKNOWN_BRANCH_ID`] run (0 without one).
    pub fn unknown_count(self) -> usize {
        match self.runs.last() {
            Some(run) if run.id == UNKNOWN_BRANCH_ID => run.count as usize,
            _ => 0,
        }
    }

    /// The runs with catalogued ids (the unknown-sentinel run stripped).
    pub fn known_runs(self) -> &'a [BranchRun] {
        match self.runs.last() {
            Some(run) if run.id == UNKNOWN_BRANCH_ID => &self.runs[..self.runs.len() - 1],
            _ => self.runs,
        }
    }

    /// Largest multiplicity among the catalogued runs (0 when there are
    /// none). Each of the ≤ `min(d_Q, d_G)` common distinct branches
    /// contributes at most `min` of the two multiplicities, so
    /// `|B_Q ∩ B_G| ≤ min(d_Q, d_G) · min(max_run(Q), max_run(G))`.
    pub fn max_known_run_count(self) -> u32 {
        self.known_runs()
            .iter()
            .map(|run| run.count)
            .max()
            .unwrap_or(0)
    }

    /// Multiset intersection size `|B_G1 ∩ B_G2|` as a merge over integer
    /// runs. Runs tagged [`UNKNOWN_BRANCH_ID`] never match.
    pub fn intersection_size(self, other: FlatBranchView<'_>) -> usize {
        intersection_size(self.runs, other.runs)
    }

    /// Graph Branch Distance (Definition 4).
    pub fn gbd(self, other: FlatBranchView<'_>) -> usize {
        self.total.max(other.total) - self.intersection_size(other)
    }

    /// Weighted GBD of Equation 26:
    /// `VGBD = max{|V1|, |V2|} − w · |B_G1 ∩ B_G2|`.
    pub fn weighted_gbd(self, other: FlatBranchView<'_>, w: f64) -> f64 {
        self.total.max(other.total) as f64 - w * self.intersection_size(other) as f64
    }
}

/// Merge-based multiset intersection size over sorted `(id, count)` runs.
///
/// Runs tagged [`UNKNOWN_BRANCH_ID`] contribute nothing: an uncatalogued
/// branch is never isomorphic to a catalogued one, and two unknowns from
/// different graphs are not comparable by id.
pub fn intersection_size(a: &[BranchRun], b: &[BranchRun]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < a.len() && j < b.len() {
        let (ra, rb) = (a[i], b[j]);
        if ra.id == UNKNOWN_BRANCH_ID || rb.id == UNKNOWN_BRANCH_ID {
            break; // unknowns sort last and match nothing
        }
        match ra.id.cmp(&rb.id) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += ra.count.min(rb.count) as usize;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::paper_examples::{figure1_g1, figure1_g2};

    fn branch(v: u32, edges: &[u32]) -> Branch {
        Branch::new(
            Label::new(v),
            edges.iter().map(|&e| Label::new(e)).collect(),
        )
    }

    #[test]
    fn intern_assigns_dense_stable_ids() {
        let mut catalog = BranchCatalog::new();
        let a = catalog.intern(branch(0, &[1, 2]));
        let b = catalog.intern(branch(1, &[]));
        let a_again = catalog.intern(branch(0, &[2, 1])); // same after sorting
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a_again);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.branch(a), &branch(0, &[1, 2]));
        assert_eq!(catalog.id_of(&branch(1, &[])), Some(1));
        assert_eq!(catalog.id_of(&branch(9, &[])), None);
    }

    #[test]
    fn flat_gbd_matches_multiset_gbd_on_paper_example() {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        let m1 = BranchMultiset::from_graph(&g1);
        let m2 = BranchMultiset::from_graph(&g2);
        let mut catalog = BranchCatalog::new();
        let f1 = catalog.flatten(&m1);
        let f2 = catalog.flatten(&m2);
        assert_eq!(f1.len(), 3);
        assert_eq!(f2.len(), 4);
        assert_eq!(f1.intersection_size(&f2), m1.intersection_size(&m2));
        assert_eq!(f1.gbd(&f2), m1.gbd(&m2));
        assert_eq!(f1.gbd(&f2), 3); // Example 2
        assert_eq!(f2.gbd(&f1), 3); // symmetric
    }

    #[test]
    fn flat_weighted_gbd_matches_equation_26() {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        let m1 = BranchMultiset::from_graph(&g1);
        let m2 = BranchMultiset::from_graph(&g2);
        let mut catalog = BranchCatalog::new();
        let f1 = catalog.flatten(&m1);
        let f2 = catalog.flatten(&m2);
        for w in [0.0, 0.1, 0.5, 1.0] {
            assert_eq!(f1.weighted_gbd(&f2, w), m1.weighted_gbd(&m2, w));
        }
    }

    #[test]
    fn runs_respect_multiplicity() {
        let mut catalog = BranchCatalog::new();
        let multiset =
            BranchMultiset::from_branches(vec![branch(0, &[1]), branch(0, &[1]), branch(2, &[3])]);
        let flat = catalog.flatten(&multiset);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.runs().len(), 2);
        let other = catalog.flatten(&BranchMultiset::from_branches(vec![
            branch(0, &[1]),
            branch(2, &[3]),
            branch(2, &[3]),
        ]));
        assert_eq!(flat.intersection_size(&other), 2);
        assert_eq!(flat.gbd(&other), 1);
    }

    #[test]
    fn lookup_maps_unseen_branches_to_the_sentinel() {
        let (g1, _) = figure1_g1();
        let mut catalog = BranchCatalog::new();
        let db_side = catalog.flatten(&BranchMultiset::from_graph(&g1));
        // A query whose branches are partly unknown to the catalog.
        let query = BranchMultiset::from_branches(vec![
            branch(1000, &[1]),
            branch(1000, &[1]),
            branch(1001, &[]),
        ]);
        let flat = catalog.flatten_lookup(&query);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.runs().len(), 1);
        assert_eq!(flat.runs()[0].id, UNKNOWN_BRANCH_ID);
        assert_eq!(flat.runs()[0].count, 3);
        // Unknown branches match nothing on the catalogued side.
        assert_eq!(flat.intersection_size(&db_side), 0);
        assert_eq!(flat.gbd(&db_side), 3);
        assert_eq!(catalog.id_of(&branch(1000, &[1])), None, "lookup is pure");
    }

    #[test]
    fn overlay_resolves_only_what_the_catalog_lacks() {
        let mut catalog = BranchCatalog::new();
        catalog.intern(branch(0, &[1]));
        let query = BranchMultiset::from_branches(vec![
            branch(0, &[1]),
            branch(7, &[]),
            branch(7, &[]),
            branch(8, &[]),
        ]);
        let mut asked = Vec::new();
        let flat = catalog.flatten_lookup_with(&query, |b| {
            asked.push(b.clone());
            (*b == branch(7, &[])).then_some(1)
        });
        // The catalogued branch never reaches the overlay; the overlay's id
        // lands in sorted position; what both miss is the unknown run.
        assert_eq!(asked, vec![branch(7, &[]), branch(8, &[])]);
        let runs: Vec<(u32, u32)> = flat.runs().iter().map(|r| (r.id, r.count)).collect();
        assert_eq!(runs, vec![(0, 1), (1, 2), (UNKNOWN_BRANCH_ID, 1)]);
        assert_eq!(catalog.len(), 1, "the catalog itself never grows");
    }

    #[test]
    fn lookup_is_exact_for_catalogued_queries() {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        let m1 = BranchMultiset::from_graph(&g1);
        let m2 = BranchMultiset::from_graph(&g2);
        let mut catalog = BranchCatalog::new();
        let f1 = catalog.flatten(&m1);
        let f2 = catalog.flatten(&m2);
        // Query-side lookup against the populated catalog is exact.
        let q1 = catalog.flatten_lookup(&m1);
        let q2 = catalog.flatten_graph(&g2);
        assert_eq!(q1.gbd(&f2), m1.gbd(&m2));
        assert_eq!(q2.gbd(&f1), m2.gbd(&m1));
        assert_eq!(q1, f1);
        assert_eq!(q2, f2);
    }

    #[test]
    fn views_borrow_arena_storage() {
        let mut catalog = BranchCatalog::new();
        let m = BranchMultiset::from_branches(vec![branch(0, &[1]), branch(0, &[1])]);
        let flat = catalog.flatten(&m);
        // Simulate an arena: copy the runs into contiguous storage.
        let arena: Vec<BranchRun> = flat.runs().to_vec();
        let view = FlatBranchView::new(&arena, flat.len());
        assert_eq!(view.gbd(flat.as_view()), 0);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
    }

    #[test]
    fn aggregates_split_known_and_unknown_runs() {
        let mut catalog = BranchCatalog::new();
        // Intern two branches so they are "known" to the catalog.
        catalog.intern(branch(0, &[1]));
        catalog.intern(branch(2, &[3]));
        let multiset = BranchMultiset::from_branches(vec![
            branch(0, &[1]),
            branch(0, &[1]),
            branch(0, &[1]),
            branch(2, &[3]),
            branch(99, &[]), // unknown to the catalog
            branch(98, &[]), // unknown to the catalog
        ]);
        let flat = catalog.flatten_lookup(&multiset);
        assert_eq!(flat.len(), 6);
        assert_eq!(flat.known_len(), 4);
        assert_eq!(flat.as_view().unknown_count(), 2);
        assert_eq!(flat.known_runs().len(), 2);
        assert_eq!(flat.max_known_run_count(), 3);
        // A fully interned set has no unknown run to strip.
        let fully = catalog.flatten(&BranchMultiset::from_branches(vec![branch(0, &[1])]));
        assert_eq!(fully.known_len(), 1);
        assert_eq!(fully.known_runs(), fully.runs());
        assert_eq!(fully.max_known_run_count(), 1);
        // Empty sets report zero everywhere.
        let empty = catalog.flatten_lookup(&BranchMultiset::default());
        assert_eq!(empty.known_len(), 0);
        assert_eq!(empty.max_known_run_count(), 0);
        assert!(empty.known_runs().is_empty());
    }

    #[test]
    fn from_branches_round_trips_a_catalog() {
        let mut catalog = BranchCatalog::new();
        catalog.intern(branch(0, &[1, 2]));
        catalog.intern(branch(1, &[]));
        catalog.intern(branch(2, &[3, 3]));
        let rebuilt = BranchCatalog::from_branches(catalog.branches().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), catalog.len());
        for id in 0..catalog.len() as u32 {
            assert_eq!(rebuilt.branch(id), catalog.branch(id));
            assert_eq!(rebuilt.id_of(catalog.branch(id)), Some(id));
        }
    }

    #[test]
    fn from_branches_rejects_duplicates() {
        let dup = vec![branch(0, &[1]), branch(0, &[1])];
        assert!(BranchCatalog::from_branches(dup).is_err());
    }

    #[test]
    fn empty_sets_are_well_defined() {
        let catalog = BranchCatalog::new();
        let empty = catalog.flatten_lookup(&BranchMultiset::default());
        assert!(empty.is_empty());
        assert_eq!(empty.gbd(&empty), 0);
        assert!(catalog.is_empty());
    }
}
