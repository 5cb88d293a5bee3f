//! The per-query stage planner: a small cost model that decides, before
//! each segment scan, which cascade stages are worth running.
//!
//! The fixed pipeline (stage 1 → stage 2 → count filter) is optimal only
//! when the bound stages actually decide a useful fraction of the database.
//! Three situations make parts of it pure overhead:
//!
//! - **Tiny candidate sets** — compiling per-bucket plans and sweeping bound
//!   words costs more than just resolving every graph exactly when a segment
//!   holds a handful of graphs (a small delta segment, a small database).
//! - **A useless stage 2** — when the distinct-run refinement almost never
//!   decides a graph that stage 1 left open, its per-chunk sweep is wasted
//!   work on every scan.
//! - **Weak bounds** — when the bounds decide almost nothing, the lazy
//!   "accumulate postings only for chunks with undecided graphs" check never
//!   saves an accumulation; going postings-first streams the postings
//!   eagerly instead.
//!
//! [`Planner`] owns a running profile of per-stage selectivities harvested
//! from [`SearchStats`] ([`Planner::observe`]) and answers
//! [`Planner::plan_for`] with a [`QueryPlan`]. Before enough queries have
//! been observed it falls back to static priors chosen to reproduce the
//! fixed pipeline on bound-friendly workloads. Every decision is
//! *result-neutral* by construction: skipping a bound stage only moves
//! graphs from a conservative early decision to the exact count filter, and
//! postings-first vs. bound-first only changes *when* the identical `u32`
//! accumulation runs — so matches, posteriors and ranked outputs are
//! bit-identical to the fixed pipeline (property-tested across threshold,
//! top-k, dynamic and streaming paths). The
//! [`GbdaConfig::force_fixed_pipeline`] escape hatch bypasses the planner
//! entirely.
//!
//! [`GbdaConfig::force_fixed_pipeline`]: crate::GbdaConfig::force_fixed_pipeline

use gbd_graph::FlatBranchSet;
use parking_lot::Mutex;

use crate::filter::SegmentIndex;
use crate::search::SearchStats;

/// Segments smaller than this skip the bound stages outright: compiling
/// bucket plans and sweeping bound words costs more than resolving this few
/// graphs through the count filter.
pub const DIRECT_THRESHOLD: usize = 16;

/// How many queries the profile must have observed before its measured
/// selectivities override the static priors.
const MIN_OBSERVED_QUERIES: usize = 8;

/// Prior fraction of graphs decided by the bound stages (stages 1 + 2 or
/// the rank bound) before any stats exist — matches the committed synthetic
/// benches, where roughly half the database dies at stage 1.
const PRIOR_BOUND_SELECTIVITY: f64 = 0.4;

/// Prior fraction of graphs decided *specifically* by stage 2.
const PRIOR_STAGE2_SELECTIVITY: f64 = 0.05;

/// Stage 2 pays when its marginal selectivity clears this: the branchless
/// per-graph sweep costs ~1 unit, an exact resolution (postings + posterior
/// lookup) ~50, so anything above 1/50 wins.
const STAGE2_MIN_SELECTIVITY: f64 = 0.02;

/// Below this bound selectivity the lazy per-chunk accumulation check never
/// skips work, so stage 3 goes postings-first.
const POSTINGS_FIRST_BELOW: f64 = 0.15;

/// A query whose total postings are fewer than `candidates /
/// SPARSE_POSTINGS_DIVISOR` intersects so little of the segment that eager
/// accumulation is essentially free — postings-first regardless of bound
/// selectivity.
const SPARSE_POSTINGS_DIVISOR: usize = 8;

/// The stage schedule of one segment scan, chosen per query by [`Planner`]
/// (or pinned to [`QueryPlan::fixed`] under `force_fixed_pipeline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// Run the stage-1/stage-2 bound sweep at all. When `false` every live
    /// graph goes straight to the exact count filter.
    pub use_bounds: bool,
    /// Run the stage-2 distinct-run refinement inside the bound sweep.
    /// Ignored when `use_bounds` is `false`.
    pub use_stage2: bool,
    /// Accumulate the stage-3 postings eagerly for every chunk
    /// (postings-first) instead of only for chunks the bounds left
    /// undecided (bound-first).
    pub postings_first: bool,
}

impl QueryPlan {
    /// The fixed stage-1 → stage-2 → count-filter pipeline: all bound
    /// stages on, bound-first stage 3.
    pub fn fixed() -> Self {
        QueryPlan {
            use_bounds: true,
            use_stage2: true,
            postings_first: false,
        }
    }
}

/// The running selectivity profile, summed over every observed query.
#[derive(Debug, Clone, Copy, Default)]
struct Profile {
    queries: usize,
    evaluated: usize,
    bound_decided: usize,
    stage2_decided: usize,
}

/// The stats-driven per-query stage planner. One lives in each engine's scan
/// driver; it is fed every finished search ([`Planner::observe`]) and
/// consulted before every segment scan ([`Planner::plan_for`]).
#[derive(Debug, Default)]
pub struct Planner {
    profile: Mutex<Profile>,
}

impl Planner {
    /// A planner with no observations — decisions start from the static
    /// priors.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Folds one finished search's counters into the running profile.
    pub fn observe(&self, stats: &SearchStats) {
        let mut profile = self.profile.lock();
        profile.queries += 1;
        profile.evaluated += stats.evaluated;
        profile.bound_decided += stats.bound_rejected + stats.bound_accepted + stats.rank_rejected;
        profile.stage2_decided += stats.stage2_decided;
    }

    /// The observed (bound, stage-2) selectivities, or the static priors
    /// when fewer than [`MIN_OBSERVED_QUERIES`] queries have been seen.
    fn selectivities(&self) -> (f64, f64) {
        let profile = *self.profile.lock();
        if profile.queries >= MIN_OBSERVED_QUERIES && profile.evaluated > 0 {
            (
                profile.bound_decided as f64 / profile.evaluated as f64,
                profile.stage2_decided as f64 / profile.evaluated as f64,
            )
        } else {
            (PRIOR_BOUND_SELECTIVITY, PRIOR_STAGE2_SELECTIVITY)
        }
    }

    /// Chooses the stage schedule for one query against one segment.
    ///
    /// - `candidates < DIRECT_THRESHOLD` → skip the bound stages, resolve
    ///   everything exactly (the per-bucket plan compilation would dominate).
    /// - stage 2 runs only while its marginal selectivity (observed or
    ///   prior) clears `STAGE2_MIN_SELECTIVITY`.
    /// - stage 3 goes postings-first when the bounds decide too little of
    ///   the segment (`POSTINGS_FIRST_BELOW`) or the query's postings are
    ///   sparse enough that eager accumulation is free.
    pub fn plan_for<S: SegmentIndex>(&self, segment: &S, query: &FlatBranchSet) -> QueryPlan {
        let candidates = segment.segment_len();
        if candidates < DIRECT_THRESHOLD {
            return QueryPlan {
                use_bounds: false,
                use_stage2: false,
                postings_first: true,
            };
        }
        let (bound_selectivity, stage2_selectivity) = self.selectivities();
        let postings: usize = query
            .runs()
            .iter()
            .map(|run| segment.postings_of(run.id).len())
            .sum();
        QueryPlan {
            use_bounds: true,
            use_stage2: stage2_selectivity >= STAGE2_MIN_SELECTIVITY,
            postings_first: bound_selectivity < POSTINGS_FIRST_BELOW
                || postings < candidates / SPARSE_POSTINGS_DIVISOR,
        }
    }

    /// Books one planned segment scan's choices into `stats` (the scan's
    /// own counters; absorbed into batch totals like every other counter).
    pub fn book(plan: QueryPlan, stats: &mut SearchStats) {
        stats.planned_scans += 1;
        if !plan.use_bounds {
            stats.plan_skipped_bounds += 1;
        } else if !plan.use_stage2 {
            stats.plan_skipped_stage2 += 1;
        }
        if plan.postings_first {
            stats.plan_postings_first += 1;
        }
        // The planner's aggregate skip/reorder counters reach the metrics
        // registry via the per-search flush; with traces armed, each
        // individual decision is also visible in the trace ring.
        if gbd_telemetry::traces_enabled() {
            gbd_telemetry::trace_event("planner.plan", "use_bounds", plan.use_bounds as u64);
            gbd_telemetry::trace_event("planner.plan", "use_stage2", plan.use_stage2 as u64);
            gbd_telemetry::trace_event(
                "planner.plan",
                "postings_first",
                plan.postings_first as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_plan_runs_everything_bound_first() {
        let plan = QueryPlan::fixed();
        assert!(plan.use_bounds && plan.use_stage2 && !plan.postings_first);
    }

    #[test]
    fn priors_hold_until_enough_queries_are_observed() {
        let planner = Planner::new();
        let (bound, stage2) = planner.selectivities();
        assert_eq!(bound, PRIOR_BOUND_SELECTIVITY);
        assert_eq!(stage2, PRIOR_STAGE2_SELECTIVITY);
        // Feed stats that would flip both decisions, but only a few times.
        let stats = SearchStats {
            evaluated: 1000,
            bound_rejected: 10,
            stage2_decided: 0,
            ..SearchStats::default()
        };
        for _ in 0..MIN_OBSERVED_QUERIES - 1 {
            planner.observe(&stats);
        }
        assert_eq!(
            planner.selectivities(),
            (PRIOR_BOUND_SELECTIVITY, PRIOR_STAGE2_SELECTIVITY)
        );
        planner.observe(&stats);
        let (bound, stage2) = planner.selectivities();
        assert!(bound < POSTINGS_FIRST_BELOW);
        assert!(stage2 < STAGE2_MIN_SELECTIVITY);
    }

    #[test]
    fn booking_tallies_each_decision_once() {
        let mut stats = SearchStats::default();
        Planner::book(QueryPlan::fixed(), &mut stats);
        assert_eq!(stats.planned_scans, 1);
        assert_eq!(stats.plan_skipped_bounds, 0);
        assert_eq!(stats.plan_skipped_stage2, 0);
        assert_eq!(stats.plan_postings_first, 0);
        Planner::book(
            QueryPlan {
                use_bounds: false,
                use_stage2: false,
                postings_first: true,
            },
            &mut stats,
        );
        assert_eq!(stats.planned_scans, 2);
        assert_eq!(stats.plan_skipped_bounds, 1);
        assert_eq!(stats.plan_postings_first, 1);
    }
}
