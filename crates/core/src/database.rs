//! The graph database `D` with pre-computed branch storage.
//!
//! Section III assumes the auxiliary structures of every method (branch
//! multisets here, cost matrices for LSAP, adjacency matrices for seriation)
//! are pre-computed and stored with the graphs; [`GraphDatabase`] does exactly
//! that for GBDA so the online stage only pays the `O(nd)` merge per pair.
//!
//! Branches are stored twice, serving different stages:
//!
//! * one [`BranchMultiset`] per graph — the faithful construction-time form,
//!   still used by diagnostics and by code that inspects actual branches;
//! * a workspace-wide [`BranchCatalog`] plus one **flat branch set** per
//!   graph, all runs packed into a single contiguous arena. The hot GBD path
//!   is a branchless merge over `(u32 id, u32 count)` slices of that arena —
//!   no pointer chasing through per-branch edge-label vectors.
//!
//! On top of the arena the database pre-computes what the filter cascade of
//! [`crate::filter`] needs to skip most of those merges:
//!
//! * **per-graph aggregates** — vertex count, distinct-run count and largest
//!   run multiplicity, each in its own flat array so the scan touches a
//!   couple of integers instead of a `Graph`;
//! * **size buckets** — every graph is assigned the index of its vertex
//!   count within [`GraphDatabase::distinct_sizes`], so per-size decisions (posterior
//!   thresholds) are computed once per bucket and shared by every graph in
//!   it;
//! * a CSR-style **inverted branch index** mapping branch id →
//!   [`Posting`] list of `(graph, count)`, sorted by graph index. Walking
//!   the query's runs over these postings yields the *exact* multiset
//!   intersection with every database graph without merging any runs.

use std::sync::Arc;

use gbd_graph::{
    Branch, BranchCatalog, BranchMultiset, BranchRun, DatasetStats, FlatBranchView, Graph,
    LabelAlphabets,
};

use crate::error::{EngineError, EngineResult};

/// One entry of the inverted branch index: graph `graph` contains `count`
/// copies of the branch whose postings list this entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Database index of the graph.
    pub graph: u32,
    /// Multiplicity of the branch in that graph.
    pub count: u32,
}

/// The per-graph scan aggregates, packed into one 16-byte record so the
/// bound stages of the filter cascade read a single cache line per four
/// graphs instead of striding four parallel arrays.
///
/// Everything stage 1 and stage 2 of [`crate::FilterCascade`] need about a
/// graph lives here; the kernel's chunked classification loop walks a
/// `&[GraphAggregate]` slice sequentially and never touches the `Graph`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct GraphAggregate {
    /// Vertex count (`|G|`, equal to the total branch count).
    pub size: u32,
    /// Index of `size` in the segment's distinct-size table — the graph's
    /// *size bucket*, which keys every per-size decision table.
    pub bucket: u32,
    /// Number of distinct branch runs (`d_G`).
    pub runs: u32,
    /// Largest run multiplicity (`maxrun_G`, 0 for an empty graph).
    pub max_run: u32,
}

/// One maximal run of consecutive graphs sharing a size bucket: the graphs
/// from the previous run's `end` (or 0) up to `end` all live in `bucket`.
///
/// Databases built from generators or real datasets are usually stored
/// grouped by size, so a segment decomposes into a handful of long runs —
/// and the scan kernel's stage-1 sweep classifies each run with *one* plan
/// lookup and a couple of mask operations instead of one lookup per graph.
/// A pathologically interleaved segment degrades to length-1 runs, which
/// costs no more than the per-graph sweep it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRun {
    /// One-past-the-end segment index of the run.
    pub end: u32,
    /// The size bucket shared by every graph in the run.
    pub bucket: u32,
}

/// Compresses per-graph bucket assignments into maximal [`BucketRun`]s.
pub(crate) fn compress_bucket_runs(aggregates: &[GraphAggregate]) -> Vec<BucketRun> {
    let mut runs: Vec<BucketRun> = Vec::new();
    for (i, agg) in aggregates.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if run.bucket == agg.bucket => run.end = i as u32 + 1,
            _ => runs.push(BucketRun {
                end: i as u32 + 1,
                bucket: agg.bucket,
            }),
        }
    }
    runs
}

/// A graph database with pre-computed branch multisets, an arena of flat
/// interned branch sets, per-graph aggregates and an inverted branch index.
#[derive(Debug, Clone)]
pub struct GraphDatabase {
    graphs: Vec<Graph>,
    branches: Vec<BranchMultiset>,
    /// Interned branch vocabulary of the whole database. Sealed with the
    /// database and behind an [`Arc`], so cloning a database (or wrapping it
    /// in the dynamic layer) never copies the vocabulary.
    catalog: Arc<BranchCatalog>,
    /// All flat runs, one contiguous allocation for cache locality.
    arena: Vec<BranchRun>,
    /// `spans[i]` is the arena range holding graph `i`'s runs.
    spans: Vec<(u32, u32)>,
    alphabets: LabelAlphabets,
    max_vertices: usize,
    /// Sorted distinct vertex counts, used to bound posterior memoization.
    distinct_sizes: Vec<usize>,
    /// `aggregates[i]` packs graph `i`'s size, size bucket, distinct-run
    /// count and largest run multiplicity into one cache-friendly record.
    aggregates: Vec<GraphAggregate>,
    /// Maximal constant-bucket index intervals over `aggregates`, for the
    /// scan kernel's interval-based stage-1 sweep.
    bucket_runs: Vec<BucketRun>,
    /// CSR offsets: branch id `b`'s postings live at
    /// `postings[posting_offsets[b]..posting_offsets[b + 1]]`.
    posting_offsets: Vec<u32>,
    /// All postings, grouped by branch id, sorted by graph index within
    /// each group.
    postings: Vec<Posting>,
}

/// Builds the CSR inverted index from the per-graph arena spans with two
/// counting passes (no sorting): postings inherit the ascending graph order.
fn build_inverted_index(
    branch_count: usize,
    spans: &[(u32, u32)],
    arena: &[BranchRun],
) -> (Vec<u32>, Vec<Posting>) {
    let mut offsets = vec![0u32; branch_count + 1];
    for run in arena {
        offsets[run.id as usize + 1] += 1;
    }
    for b in 0..branch_count {
        offsets[b + 1] += offsets[b];
    }
    let mut cursors: Vec<u32> = offsets[..branch_count].to_vec();
    let mut postings = vec![Posting { graph: 0, count: 0 }; arena.len()];
    for (graph, &(start, len)) in spans.iter().enumerate() {
        for run in &arena[start as usize..(start + len) as usize] {
            let slot = cursors[run.id as usize];
            postings[slot as usize] = Posting {
                graph: graph as u32,
                count: run.count,
            };
            cursors[run.id as usize] = slot + 1;
        }
    }
    (offsets, postings)
}

impl GraphDatabase {
    /// Builds a database from graphs, deriving the label alphabets from the
    /// graphs themselves.
    pub fn from_graphs(graphs: Vec<Graph>) -> Self {
        let stats = DatasetStats::compute(graphs.iter());
        let alphabets = LabelAlphabets::new(stats.vertex_label_count, stats.edge_label_count);
        Self::with_alphabets(graphs, alphabets)
    }

    /// Builds a database from graphs with explicitly provided label alphabet
    /// sizes (e.g. the domain alphabet of a dataset profile, which is what
    /// the probabilistic model should use even if a small database happens to
    /// exercise only part of it).
    pub fn with_alphabets(graphs: Vec<Graph>, alphabets: LabelAlphabets) -> Self {
        let branches: Vec<BranchMultiset> = graphs.iter().map(BranchMultiset::from_graph).collect();
        let mut catalog = BranchCatalog::new();
        let mut arena = Vec::new();
        let mut spans = Vec::with_capacity(branches.len());
        for multiset in &branches {
            let flat = catalog.flatten(multiset);
            let start =
                u32::try_from(arena.len()).expect("fewer than 2^32 branch runs in the arena");
            arena.extend_from_slice(flat.runs());
            spans.push((start, flat.runs().len() as u32));
        }
        let max_vertices = graphs.iter().map(Graph::vertex_count).max().unwrap_or(0);
        let mut distinct_sizes: Vec<usize> = graphs.iter().map(Graph::vertex_count).collect();
        distinct_sizes.sort_unstable();
        distinct_sizes.dedup();
        let aggregates: Vec<GraphAggregate> = graphs
            .iter()
            .zip(&spans)
            .map(|(g, &(start, len))| {
                let size = g.vertex_count();
                let bucket = distinct_sizes
                    .binary_search(&size)
                    .expect("every vertex count is in distinct_sizes");
                let max_run = arena[start as usize..(start + len) as usize]
                    .iter()
                    .map(|run| run.count)
                    .max()
                    .unwrap_or(0);
                GraphAggregate {
                    size: size as u32,
                    bucket: bucket as u32,
                    runs: len,
                    max_run,
                }
            })
            .collect();
        let (posting_offsets, postings) = build_inverted_index(catalog.len(), &spans, &arena);
        let bucket_runs = compress_bucket_runs(&aggregates);
        GraphDatabase {
            graphs,
            branches,
            catalog: Arc::new(catalog),
            arena,
            spans,
            alphabets,
            max_vertices,
            distinct_sizes,
            aggregates,
            bucket_runs,
            posting_offsets,
            postings,
        }
    }

    /// Number of graphs `|D|`.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Returns `true` for an empty database.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The `i`-th graph.
    pub fn graph(&self, i: usize) -> &Graph {
        &self.graphs[i]
    }

    /// All graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// The pre-computed branch multiset of the `i`-th graph.
    pub fn branches(&self, i: usize) -> &BranchMultiset {
        &self.branches[i]
    }

    /// The interned branch vocabulary of the database.
    pub fn catalog(&self) -> &BranchCatalog {
        &self.catalog
    }

    /// The flat branch set of the `i`-th graph, borrowed from the arena.
    pub fn flat(&self, i: usize) -> FlatBranchView<'_> {
        let (start, len) = self.spans[i];
        FlatBranchView::new(
            &self.arena[start as usize..(start + len) as usize],
            self.graphs[i].vertex_count(),
        )
    }

    /// Total number of `(id, count)` runs stored in the arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Label alphabet sizes used by the probabilistic model.
    pub fn alphabets(&self) -> LabelAlphabets {
        self.alphabets
    }

    /// Largest vertex count in the database.
    pub fn max_vertices(&self) -> usize {
        self.max_vertices
    }

    /// Sorted distinct vertex counts across the database. The posterior of
    /// Algorithm 1 depends on the pair only through `(|V'1|, ϕ)`, so this
    /// bounds how many distinct posteriors a whole scan can evaluate.
    pub fn distinct_sizes(&self) -> &[usize] {
        &self.distinct_sizes
    }

    /// The packed per-graph scan aggregates, one [`GraphAggregate`] per
    /// graph — what the kernel's chunked bound stages iterate.
    pub fn aggregates(&self) -> &[GraphAggregate] {
        &self.aggregates
    }

    /// The maximal constant-bucket index intervals over [`Self::aggregates`]
    /// — what the kernel's stage-1 sweep classifies interval-at-a-time.
    pub fn bucket_runs(&self) -> &[BucketRun] {
        &self.bucket_runs
    }

    /// Vertex count of the `i`-th graph, read from the packed aggregate
    /// record (no `Graph` pointer chase on the scan hot path).
    pub fn size_of(&self, i: usize) -> usize {
        self.aggregates[i].size as usize
    }

    /// Index of the `i`-th graph's vertex count in [`Self::distinct_sizes`] —
    /// its *size bucket*. Per-size threshold decisions are computed once per
    /// bucket and shared by every graph in it.
    pub fn bucket_of(&self, i: usize) -> usize {
        self.aggregates[i].bucket as usize
    }

    /// Number of distinct branch runs of the `i`-th graph.
    pub fn distinct_runs(&self, i: usize) -> usize {
        self.aggregates[i].runs as usize
    }

    /// Largest run multiplicity of the `i`-th graph (0 for an empty graph).
    pub fn max_run_count(&self, i: usize) -> u32 {
        self.aggregates[i].max_run
    }

    /// The postings list of one catalogued branch id: every `(graph, count)`
    /// pair with that branch, sorted by graph index.
    ///
    /// # Panics
    /// Panics if `branch_id` was not produced by [`Self::catalog`].
    pub fn postings(&self, branch_id: u32) -> &[Posting] {
        let start = self.posting_offsets[branch_id as usize] as usize;
        let end = self.posting_offsets[branch_id as usize + 1] as usize;
        &self.postings[start..end]
    }

    /// Total number of postings in the inverted index (equals
    /// [`Self::arena_len`]: one posting per stored run).
    pub fn postings_len(&self) -> usize {
        self.postings.len()
    }

    /// Rebuilds the inverted index from the stored arena spans and returns
    /// it. Diagnostic / benchmarking hook: the constructor already built and
    /// stored an identical index.
    pub fn rebuild_inverted_index(&self) -> (Vec<u32>, Vec<Posting>) {
        build_inverted_index(self.catalog.len(), &self.spans, &self.arena)
    }

    /// GBD between two database graphs over the flat arena storage.
    pub fn gbd_between(&self, i: usize, j: usize) -> usize {
        self.flat(i).gbd(self.flat(j))
    }

    /// GBD between an external (query) branch multiset and the `i`-th graph.
    pub fn gbd_to(&self, query: &BranchMultiset, i: usize) -> usize {
        query.gbd(&self.branches[i])
    }

    /// GBD between a query flattened against [`Self::catalog`] and the `i`-th
    /// graph — the hot-path variant of [`Self::gbd_to`].
    pub fn gbd_to_flat(&self, query: FlatBranchView<'_>, i: usize) -> usize {
        query.gbd(self.flat(i))
    }

    /// Clones this database's raw parts — the serialisable form a storage
    /// engine persists. Branch multisets are *not* part of the export: they
    /// are fully derivable from the catalog and the arena, and
    /// [`Self::from_parts`] reconstructs them without re-extracting a single
    /// branch from a graph.
    pub fn to_parts(&self) -> DatabaseParts {
        DatabaseParts {
            graphs: self.graphs.clone(),
            branches: self.catalog.branches().to_vec(),
            arena: self.arena.clone(),
            spans: self.spans.clone(),
            alphabets: self.alphabets,
            distinct_sizes: self.distinct_sizes.clone(),
            sizes: self.aggregates.iter().map(|a| a.size).collect(),
            buckets: self.aggregates.iter().map(|a| a.bucket).collect(),
            run_counts: self.aggregates.iter().map(|a| a.runs).collect(),
            max_run_counts: self.aggregates.iter().map(|a| a.max_run).collect(),
            posting_offsets: self.posting_offsets.clone(),
            postings: self.postings.clone(),
        }
    }

    /// Rebuilds a database from exported (or deserialised) parts without
    /// recomputing the catalog, the aggregates or the inverted index.
    ///
    /// Every cross-structure invariant the scan relies on is validated, so a
    /// corrupted export yields [`EngineError::CorruptDatabase`] here rather
    /// than a panic (or a wrong answer) during a later query. The per-graph
    /// branch multisets are reconstructed from the catalog by expanding each
    /// graph's runs in sorted branch order — a clone per branch instead of
    /// the extraction, comparison sort and interning hash of
    /// [`Self::from_graphs`].
    pub fn from_parts(parts: DatabaseParts) -> EngineResult<Self> {
        let corrupt = |reason: String| EngineError::CorruptDatabase { reason };
        let DatabaseParts {
            graphs,
            branches,
            arena,
            spans,
            alphabets,
            distinct_sizes,
            sizes,
            buckets,
            run_counts,
            max_run_counts,
            posting_offsets,
            postings,
        } = parts;
        let n = graphs.len();
        for (name, len) in [
            ("spans", spans.len()),
            ("sizes", sizes.len()),
            ("buckets", buckets.len()),
            ("run_counts", run_counts.len()),
            ("max_run_counts", max_run_counts.len()),
        ] {
            if len != n {
                return Err(corrupt(format!("{name} has {len} entries for {n} graphs")));
            }
        }
        let catalog =
            BranchCatalog::from_branches(branches).map_err(|e| corrupt(format!("catalog: {e}")))?;

        // Spans must tile the arena contiguously and every run must be a
        // valid, id-sorted reference into the catalog.
        let mut expected_start = 0u32;
        for (i, &(start, len)) in spans.iter().enumerate() {
            if start != expected_start {
                return Err(corrupt(format!(
                    "span {i} does not start at {expected_start}"
                )));
            }
            let end = (start as usize)
                .checked_add(len as usize)
                .filter(|&end| end <= arena.len())
                .ok_or_else(|| corrupt(format!("span {i} exceeds the arena")))?;
            expected_start = end as u32;
            let runs = &arena[start as usize..end];
            let mut total = 0usize;
            for (k, run) in runs.iter().enumerate() {
                if run.id as usize >= catalog.len() {
                    return Err(corrupt(format!(
                        "graph {i} run {k} has unknown id {}",
                        run.id
                    )));
                }
                if k > 0 && runs[k - 1].id >= run.id {
                    return Err(corrupt(format!("graph {i} runs are not id-sorted")));
                }
                if run.count == 0 {
                    return Err(corrupt(format!("graph {i} run {k} has count 0")));
                }
                total += run.count as usize;
            }
            if graphs[i].vertex_count() != sizes[i] as usize {
                return Err(corrupt(format!(
                    "graph {i} size disagrees with its aggregate"
                )));
            }
            if total != sizes[i] as usize {
                return Err(corrupt(format!(
                    "graph {i} runs sum to {total}, size is {}",
                    sizes[i]
                )));
            }
            if run_counts[i] != len {
                return Err(corrupt(format!(
                    "graph {i} run count disagrees with its span"
                )));
            }
            let max_run = runs.iter().map(|r| r.count).max().unwrap_or(0);
            if max_run_counts[i] != max_run {
                return Err(corrupt(format!("graph {i} max run count is stale")));
            }
        }
        if expected_start as usize != arena.len() {
            return Err(corrupt("spans do not cover the whole arena".into()));
        }

        // The size-bucket table: sorted, duplicate-free, exactly the sizes
        // that occur (a phantom bucket would leak into posterior decisions).
        if !distinct_sizes.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("distinct_sizes is not strictly ascending".into()));
        }
        let mut seen = vec![false; distinct_sizes.len()];
        for (i, (&size, &bucket)) in sizes.iter().zip(&buckets).enumerate() {
            match distinct_sizes.get(bucket as usize) {
                Some(&expected) if expected == size as usize => seen[bucket as usize] = true,
                _ => return Err(corrupt(format!("graph {i} has a stale size bucket"))),
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(corrupt("distinct_sizes lists a size no graph has".into()));
        }
        let max_vertices = distinct_sizes.last().copied().unwrap_or(0);

        // Postings: structurally safe CSR over the same graphs. Deep
        // agreement with the arena is covered by the caller's checksum (and
        // by [`Self::verify_postings`] where callers want the full audit).
        if posting_offsets.len() != catalog.len() + 1 {
            return Err(corrupt(format!(
                "posting offsets have {} entries for {} branches",
                posting_offsets.len(),
                catalog.len()
            )));
        }
        if posting_offsets.first().copied().unwrap_or(0) != 0
            || !posting_offsets.windows(2).all(|w| w[0] <= w[1])
            || posting_offsets.last().copied().unwrap_or(0) as usize != postings.len()
        {
            return Err(corrupt("posting offsets are not a monotone cover".into()));
        }
        if postings.len() != arena.len() {
            return Err(corrupt(format!(
                "{} postings for {} arena runs",
                postings.len(),
                arena.len()
            )));
        }
        for window in posting_offsets.windows(2) {
            let list = &postings[window[0] as usize..window[1] as usize];
            for (k, posting) in list.iter().enumerate() {
                if posting.graph as usize >= n {
                    return Err(corrupt(format!(
                        "posting references graph {}",
                        posting.graph
                    )));
                }
                if k > 0 && list[k - 1].graph >= posting.graph {
                    return Err(corrupt("a postings list is not graph-sorted".into()));
                }
            }
        }

        // Reconstruct the branch multisets: expand each graph's runs in
        // sorted branch order (rank table computed once for the catalog).
        let mut order: Vec<u32> = (0..catalog.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| catalog.branch(a).cmp(catalog.branch(b)));
        let mut rank = vec![0u32; catalog.len()];
        for (position, &id) in order.iter().enumerate() {
            rank[id as usize] = position as u32;
        }
        let branches: Vec<BranchMultiset> = spans
            .iter()
            .map(|&(start, len)| {
                let mut runs: Vec<&BranchRun> = arena[start as usize..(start + len) as usize]
                    .iter()
                    .collect();
                runs.sort_unstable_by_key(|run| rank[run.id as usize]);
                let mut expanded = Vec::with_capacity(runs.iter().map(|r| r.count as usize).sum());
                for run in runs {
                    for _ in 0..run.count {
                        expanded.push(catalog.branch(run.id).clone());
                    }
                }
                BranchMultiset::from_sorted_branches(expanded)
            })
            .collect();

        // Pack the four validated parallel arrays into the SoA aggregate
        // layout the scan kernel iterates.
        let aggregates: Vec<GraphAggregate> = (0..n)
            .map(|i| GraphAggregate {
                size: sizes[i],
                bucket: buckets[i],
                runs: run_counts[i],
                max_run: max_run_counts[i],
            })
            .collect();

        Ok(GraphDatabase {
            graphs,
            branches,
            catalog: Arc::new(catalog),
            arena,
            spans,
            alphabets,
            max_vertices,
            distinct_sizes,
            bucket_runs: compress_bucket_runs(&aggregates),
            aggregates,
            posting_offsets,
            postings,
        })
    }

    /// Audits the stored inverted index against a fresh rebuild from the
    /// arena — the deep consistency check [`Self::from_parts`] leaves to the
    /// storage layer's checksum. Linear in the arena; used by equivalence
    /// tests and the `bench_store --check` smoke.
    pub fn verify_postings(&self) -> bool {
        let (offsets, postings) = self.rebuild_inverted_index();
        offsets == self.posting_offsets && postings == self.postings
    }
}

/// The raw, serialisable parts of a [`GraphDatabase`]: what
/// [`GraphDatabase::to_parts`] exports and a snapshot file stores. All fields
/// are plain data; [`GraphDatabase::from_parts`] revalidates every
/// cross-structure invariant before a database is rebuilt around them.
#[derive(Debug, Clone)]
pub struct DatabaseParts {
    /// The graphs, in database order.
    pub graphs: Vec<Graph>,
    /// The interned branch vocabulary in id order (`branches[i]` has id `i`).
    pub branches: Vec<Branch>,
    /// All flat branch runs, concatenated per graph.
    pub arena: Vec<BranchRun>,
    /// `spans[i]` is the `(start, len)` arena range of graph `i`.
    pub spans: Vec<(u32, u32)>,
    /// Label alphabet sizes used by the probabilistic model.
    pub alphabets: LabelAlphabets,
    /// Sorted distinct vertex counts.
    pub distinct_sizes: Vec<usize>,
    /// Per-graph vertex counts.
    pub sizes: Vec<u32>,
    /// Per-graph size-bucket indices into `distinct_sizes`.
    pub buckets: Vec<u32>,
    /// Per-graph distinct-run counts.
    pub run_counts: Vec<u32>,
    /// Per-graph largest run multiplicities.
    pub max_run_counts: Vec<u32>,
    /// CSR offsets of the inverted branch index.
    pub posting_offsets: Vec<u32>,
    /// CSR postings of the inverted branch index.
    pub postings: Vec<Posting>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_graph::paper_examples::{figure1_g1, figure1_g2};

    fn db() -> GraphDatabase {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        GraphDatabase::from_graphs(vec![g1, g2])
    }

    #[test]
    fn precomputes_branches_and_stats() {
        let db = db();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.max_vertices(), 4);
        assert_eq!(db.branches(0).len(), 3);
        assert_eq!(db.branches(1).len(), 4);
        // Figure 1 alphabets: A, B, C vertices and x, y, z edges.
        assert_eq!(db.alphabets().vertex_labels, 3);
        assert_eq!(db.alphabets().edge_labels, 3);
    }

    #[test]
    fn gbd_between_matches_example_2() {
        let db = db();
        assert_eq!(db.gbd_between(0, 1), 3);
        assert_eq!(db.gbd_between(0, 0), 0);
    }

    #[test]
    fn gbd_to_external_query() {
        let db = db();
        let (q, _) = figure1_g1();
        let query = BranchMultiset::from_graph(&q);
        assert_eq!(db.gbd_to(&query, 0), 0);
        assert_eq!(db.gbd_to(&query, 1), 3);
        let flat = db.catalog().flatten_lookup(&query);
        assert_eq!(db.gbd_to_flat(flat.as_view(), 0), 0);
        assert_eq!(db.gbd_to_flat(flat.as_view(), 1), 3);
    }

    #[test]
    fn flat_storage_agrees_with_multisets() {
        let db = db();
        for i in 0..db.len() {
            assert_eq!(db.flat(i).len(), db.branches(i).len());
            for j in 0..db.len() {
                assert_eq!(
                    db.flat(i).gbd(db.flat(j)),
                    db.branches(i).gbd(db.branches(j)),
                    "flat and multiset GBD disagree on pair ({i}, {j})"
                );
            }
        }
        assert!(!db.catalog().is_empty());
        assert_eq!(
            db.arena_len(),
            db.flat(0).runs().len() + db.flat(1).runs().len()
        );
    }

    #[test]
    fn distinct_sizes_are_sorted_and_deduplicated() {
        let db = db();
        assert_eq!(db.distinct_sizes(), &[3, 4]);
    }

    #[test]
    fn aggregates_mirror_the_flat_sets() {
        let db = db();
        for i in 0..db.len() {
            assert_eq!(db.size_of(i), db.graph(i).vertex_count());
            assert_eq!(db.distinct_sizes()[db.bucket_of(i)], db.size_of(i));
            assert_eq!(db.distinct_runs(i), db.flat(i).runs().len());
            assert_eq!(
                db.max_run_count(i),
                db.flat(i).runs().iter().map(|r| r.count).max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn inverted_index_reconstructs_every_flat_set() {
        let db = db();
        // Collect (graph, id, count) triples back out of the postings.
        let mut from_postings: Vec<Vec<(u32, u32)>> = vec![Vec::new(); db.len()];
        let mut total = 0usize;
        for id in 0..db.catalog().len() as u32 {
            let postings = db.postings(id);
            // Sorted by graph index within each list.
            assert!(postings.windows(2).all(|w| w[0].graph < w[1].graph));
            for p in postings {
                from_postings[p.graph as usize].push((id, p.count));
                total += 1;
            }
        }
        assert_eq!(total, db.postings_len());
        assert_eq!(db.postings_len(), db.arena_len());
        for (i, gathered) in from_postings.iter().enumerate() {
            let runs: Vec<(u32, u32)> = db.flat(i).runs().iter().map(|r| (r.id, r.count)).collect();
            // Postings were gathered in ascending id order, runs are sorted
            // by id, so the two sequences must be identical.
            assert_eq!(gathered, &runs, "postings diverge for graph {i}");
        }
    }

    #[test]
    fn rebuild_inverted_index_matches_the_stored_index() {
        let db = db();
        let (offsets, postings) = db.rebuild_inverted_index();
        assert_eq!(offsets.len(), db.catalog().len() + 1);
        assert_eq!(postings.len(), db.postings_len());
        for id in 0..db.catalog().len() as u32 {
            let rebuilt =
                &postings[offsets[id as usize] as usize..offsets[id as usize + 1] as usize];
            assert_eq!(rebuilt, db.postings(id));
        }
    }

    #[test]
    fn bucket_runs_are_maximal_and_cover_every_graph() {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        // g1 has 4 vertices, g2 has 4 — an interleaving with a 2-vertex graph
        // forces several runs.
        let mut small = Graph::new();
        small.add_vertex(gbd_graph::Label::new(0));
        small.add_vertex(gbd_graph::Label::new(1));
        let db = GraphDatabase::from_graphs(vec![g1.clone(), g2, small, g1]);
        let runs = db.bucket_runs();
        // Coverage: runs partition 0..len in ascending order.
        let mut start = 0u32;
        for run in runs {
            assert!(run.end > start, "runs must be non-empty and ascending");
            for i in start..run.end {
                assert_eq!(db.bucket_of(i as usize) as u32, run.bucket);
            }
            start = run.end;
        }
        assert_eq!(start as usize, db.len());
        // Maximality: adjacent runs differ in bucket.
        assert!(runs.windows(2).all(|w| w[0].bucket != w[1].bucket));
        // Every adjacent pair lands in a different bucket → four runs.
        assert_eq!(runs.len(), 4);
        // An empty database has no runs.
        assert!(GraphDatabase::from_graphs(Vec::new())
            .bucket_runs()
            .is_empty());
    }

    #[test]
    fn explicit_alphabets_are_preserved() {
        let (g1, _) = figure1_g1();
        let db = GraphDatabase::with_alphabets(vec![g1], LabelAlphabets::new(20, 5));
        assert_eq!(db.alphabets().vertex_labels, 20);
        assert_eq!(db.alphabets().edge_labels, 5);
    }

    #[test]
    fn empty_database_is_well_defined() {
        let db = GraphDatabase::from_graphs(Vec::new());
        assert!(db.is_empty());
        assert_eq!(db.max_vertices(), 0);
        assert_eq!(db.arena_len(), 0);
        assert!(db.distinct_sizes().is_empty());
    }

    /// Aggregates and the inverted index stay well-defined on the degenerate
    /// databases the multi-graph tests never build.
    #[test]
    fn single_graph_database_aggregates_are_consistent() {
        let (g1, _) = figure1_g1();
        let db = GraphDatabase::from_graphs(vec![g1.clone()]);
        assert_eq!(db.len(), 1);
        assert_eq!(db.distinct_sizes(), &[g1.vertex_count()]);
        assert_eq!(db.bucket_of(0), 0);
        assert_eq!(db.size_of(0), g1.vertex_count());
        assert_eq!(db.distinct_runs(0), db.flat(0).runs().len());
        assert_eq!(db.postings_len(), db.arena_len());
        assert_eq!(db.gbd_between(0, 0), 0);
        assert!(db.verify_postings());
        // A graph with no edges still catalogues one branch per vertex.
        let mut lonely = Graph::new();
        lonely.add_vertex(gbd_graph::Label::new(0));
        let db = GraphDatabase::from_graphs(vec![lonely]);
        assert_eq!(db.size_of(0), 1);
        assert_eq!(db.distinct_runs(0), 1);
        assert_eq!(db.max_run_count(0), 1);
    }

    #[test]
    fn empty_database_postings_and_parts_are_consistent() {
        let db = GraphDatabase::from_graphs(Vec::new());
        assert!(db.verify_postings());
        let rebuilt = GraphDatabase::from_parts(db.to_parts()).unwrap();
        assert!(rebuilt.is_empty());
        assert_eq!(rebuilt.arena_len(), 0);
        assert!(rebuilt.catalog().is_empty());
    }

    fn parts_db() -> GraphDatabase {
        let (g1, _) = figure1_g1();
        let (g2, _) = figure1_g2();
        let mut named = g1.clone();
        named.set_name("named-one");
        GraphDatabase::from_graphs(vec![named, g2, g1])
    }

    #[test]
    fn parts_round_trip_reconstructs_an_identical_database() {
        let db = parts_db();
        let rebuilt = GraphDatabase::from_parts(db.to_parts()).unwrap();
        assert_eq!(rebuilt.len(), db.len());
        assert_eq!(rebuilt.alphabets(), db.alphabets());
        assert_eq!(rebuilt.max_vertices(), db.max_vertices());
        assert_eq!(rebuilt.distinct_sizes(), db.distinct_sizes());
        assert_eq!(rebuilt.arena_len(), db.arena_len());
        assert_eq!(rebuilt.postings_len(), db.postings_len());
        for i in 0..db.len() {
            assert_eq!(rebuilt.graph(i).name(), db.graph(i).name());
            assert_eq!(rebuilt.flat(i).runs(), db.flat(i).runs());
            assert_eq!(rebuilt.size_of(i), db.size_of(i));
            assert_eq!(rebuilt.bucket_of(i), db.bucket_of(i));
            assert_eq!(rebuilt.distinct_runs(i), db.distinct_runs(i));
            assert_eq!(rebuilt.max_run_count(i), db.max_run_count(i));
            // The reconstructed multisets are the real thing: same branches,
            // same order, same GBD.
            assert_eq!(rebuilt.branches(i), db.branches(i));
            for j in 0..db.len() {
                assert_eq!(rebuilt.gbd_between(i, j), db.gbd_between(i, j));
            }
        }
        for id in 0..db.catalog().len() as u32 {
            assert_eq!(rebuilt.catalog().branch(id), db.catalog().branch(id));
            assert_eq!(rebuilt.postings(id), db.postings(id));
        }
        assert!(rebuilt.verify_postings());
    }

    #[test]
    fn corrupted_parts_are_rejected_not_panicked_on() {
        let db = parts_db();
        let corrupt = |mutate: &dyn Fn(&mut DatabaseParts)| {
            let mut parts = db.to_parts();
            mutate(&mut parts);
            GraphDatabase::from_parts(parts).unwrap_err()
        };
        type Mutation = Box<dyn Fn(&mut DatabaseParts)>;
        let cases: Vec<(&str, Mutation)> = vec![
            (
                "missing span",
                Box::new(|p| {
                    p.spans.pop();
                }),
            ),
            ("size mismatch", Box::new(|p| p.sizes[0] += 1)),
            ("stale bucket", Box::new(|p| p.buckets[0] = 1)),
            ("bucket out of range", Box::new(|p| p.buckets[0] = 99)),
            ("stale run count", Box::new(|p| p.run_counts[1] += 1)),
            ("stale max run", Box::new(|p| p.max_run_counts[1] += 1)),
            (
                "unsorted distinct sizes",
                Box::new(|p| p.distinct_sizes.reverse()),
            ),
            (
                "phantom distinct size",
                Box::new(|p| {
                    p.distinct_sizes.push(1000);
                }),
            ),
            (
                "duplicate catalog branch",
                Box::new(|p| p.branches[1] = p.branches[0].clone()),
            ),
            ("arena id out of range", Box::new(|p| p.arena[0].id = 9999)),
            ("zero-count run", Box::new(|p| p.arena[0].count = 0)),
            ("span overflow", Box::new(|p| p.spans[0].1 += 1)),
            (
                "offsets truncated",
                Box::new(|p| {
                    p.posting_offsets.pop();
                }),
            ),
            (
                "offsets not monotone",
                Box::new(|p| {
                    let last = p.posting_offsets.len() - 1;
                    p.posting_offsets[last] = 0;
                }),
            ),
            (
                "posting graph out of range",
                Box::new(|p| p.postings[0].graph = 99),
            ),
            (
                "postings dropped",
                Box::new(|p| {
                    p.postings.pop();
                }),
            ),
        ];
        for (name, mutate) in cases {
            let err = corrupt(&*mutate);
            assert!(
                matches!(err, EngineError::CorruptDatabase { .. }),
                "{name}: expected CorruptDatabase, got {err}"
            );
        }
    }
}
