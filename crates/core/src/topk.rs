//! Ranked (top-k) query primitives: the bounded heap, the ranking order and
//! the sort-truncate reference.
//!
//! A ranked query asks for the `k` database graphs with the **highest**
//! posterior `Φ = Pr[GED ≤ τ̂ | GBD = ϕ]`. The subsystem is built on one
//! total order, [`rank_order`]: higher posterior first (compared bitwise via
//! [`f64::total_cmp`] so results are reproducible), ties broken by
//! **ascending graph id**. Every ranked path in the workspace — the bounded
//! heap of a scan, the sort-truncate reference of [`rank_by_posterior`] —
//! uses this order and nothing else, which is what makes static, dynamic
//! and pinned top-k bit-identical to "scan everything, sort, truncate".
//!
//! [`TopKHeap`] keeps the `k` best hits seen so far; once full, its worst
//! kept posterior is the *running rank bound* the engines feed back into the
//! filter cascade (see [`crate::filter::RankDecision`]) so that ever more
//! graphs are rejected from ϕ lower bounds alone as better candidates
//! accumulate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::search::SearchStats;

/// Result of one ranked query over a static [`crate::GraphDatabase`].
#[derive(Debug, Clone, Default)]
pub struct TopKOutcome {
    /// The `k` best-ranked graphs (database indices), best first under
    /// [`rank_order`]; shorter only when the database has fewer than `k`
    /// graphs.
    pub hits: Vec<RankedHit>,
    /// Wall-clock seconds of the ranked scan.
    pub seconds: f64,
    /// Per-stage counters; ranked scans fill
    /// [`SearchStats::rank_rejected`] and [`SearchStats::heap_inserts`].
    pub stats: SearchStats,
}

/// Result of one ranked query over a [`crate::DynamicDatabase`]: like
/// [`TopKOutcome`], but hits carry stable `u64` graph ids.
#[derive(Debug, Clone, Default)]
pub struct DynamicTopKOutcome {
    /// The `k` best-ranked live graphs (stable ids), best first under
    /// [`rank_order`].
    pub hits: Vec<RankedHit<u64>>,
    /// Wall-clock seconds of the ranked scan.
    pub seconds: f64,
    /// Per-stage counters, directly comparable with a static engine's.
    pub stats: SearchStats,
}

/// One ranked result: a graph identifier plus its posterior.
///
/// `I` is the identifier type — `usize` database indices for
/// [`crate::QueryEngine`], stable `u64` ids for [`crate::DynamicEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedHit<I = usize> {
    /// The graph's identifier.
    pub id: I,
    /// The posterior `Φ = Pr[GED ≤ τ̂ | GBD = ϕ]` of the graph.
    pub posterior: f64,
}

/// The workspace-wide ranking order: descending posterior (bitwise, via
/// [`f64::total_cmp`]), then **ascending id** — so `Less` means "`a` ranks
/// strictly before `b`". Equal posteriors are therefore always ordered by
/// ascending graph id, the documented determinism guarantee of every
/// `search_top_k` API.
pub fn rank_order<I: Ord>(a: &RankedHit<I>, b: &RankedHit<I>) -> Ordering {
    b.posterior
        .total_cmp(&a.posterior)
        .then_with(|| a.id.cmp(&b.id))
}

/// The sort-truncate reference: ranks a full posterior array (indexed by
/// graph position) under [`rank_order`] and keeps the best `k`.
///
/// This is the definitional answer a ranked query must reproduce — the
/// equivalence proptests and `bench_topk --check` compare every engine path
/// against it bit-for-bit.
pub fn rank_by_posterior(posteriors: &[f64], k: usize) -> Vec<RankedHit> {
    let mut hits: Vec<RankedHit> = posteriors
        .iter()
        .enumerate()
        .map(|(id, &posterior)| RankedHit { id, posterior })
        .collect();
    hits.sort_by(rank_order);
    hits.truncate(k);
    hits
}

/// Heap wrapper whose `Ord` makes the **worst-ranked** hit the maximum, so a
/// `BinaryHeap` peeks at the eviction candidate in `O(1)`.
#[derive(Debug, Clone, Copy)]
struct WorstFirst<I>(RankedHit<I>);

impl<I: Ord> PartialEq for WorstFirst<I> {
    fn eq(&self, other: &Self) -> bool {
        rank_order(&self.0, &other.0) == Ordering::Equal
    }
}

impl<I: Ord> Eq for WorstFirst<I> {}

impl<I: Ord> PartialOrd for WorstFirst<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: Ord> Ord for WorstFirst<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Under `rank_order` a worse hit compares `Greater` (it sorts
        // later), which is exactly what makes it the `BinaryHeap` maximum.
        rank_order(&self.0, &other.0)
    }
}

/// A bounded heap keeping the `k` best [`RankedHit`]s under [`rank_order`].
///
/// Admission compares against the currently-worst kept hit with the full
/// ranking order (posterior, then id), so the kept set equals the first `k`
/// entries of the sorted input regardless of push order. [`Self::threshold`]
/// exposes the worst kept posterior once the heap is full — the tightening
/// bound ranked scans feed back into the filter cascade.
#[derive(Debug, Clone)]
pub struct TopKHeap<I = usize> {
    k: usize,
    heap: BinaryHeap<WorstFirst<I>>,
}

impl<I: Ord + Copy> TopKHeap<I> {
    /// An empty heap that will keep at most `k` hits.
    pub fn new(k: usize) -> Self {
        TopKHeap {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 16)),
        }
    }

    /// The capacity `k` this heap was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of hits currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no hit is kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The worst kept posterior once the heap holds `k` hits, `None` while
    /// it is still filling (no bound can be derived yet).
    ///
    /// When the heap is full, a *later* candidate (larger id) can only enter
    /// with a posterior **strictly** above this bound: an equal posterior
    /// loses the ascending-id tie-break against every kept hit, whose ids
    /// are all smaller in an ascending-id scan. That strictness is what lets
    /// [`crate::filter::RankDecision::rejects_from`] prune on `≤`.
    pub fn threshold(&self) -> Option<f64> {
        if self.k > 0 && self.heap.len() == self.k {
            self.heap.peek().map(|worst| worst.0.posterior)
        } else {
            None
        }
    }

    /// Offers one hit; returns `true` when it was kept (possibly evicting
    /// the previously-worst hit).
    pub fn push(&mut self, hit: RankedHit<I>) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
            return true;
        }
        let worst = self.heap.peek().expect("full heap has a worst element");
        if rank_order(&hit, &worst.0) == Ordering::Less {
            self.heap.pop();
            self.heap.push(WorstFirst(hit));
            true
        } else {
            false
        }
    }

    /// Consumes the heap and returns the kept hits best-first (sorted by
    /// [`rank_order`]).
    pub fn into_sorted_hits(self) -> Vec<RankedHit<I>> {
        let mut hits: Vec<RankedHit<I>> = self.heap.into_iter().map(|w| w.0).collect();
        hits.sort_by(rank_order);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: usize, posterior: f64) -> RankedHit {
        RankedHit { id, posterior }
    }

    #[test]
    fn rank_order_prefers_high_posterior_then_low_id() {
        assert_eq!(rank_order(&hit(5, 0.9), &hit(1, 0.2)), Ordering::Less);
        assert_eq!(rank_order(&hit(1, 0.2), &hit(5, 0.9)), Ordering::Greater);
        assert_eq!(rank_order(&hit(1, 0.5), &hit(2, 0.5)), Ordering::Less);
        assert_eq!(rank_order(&hit(2, 0.5), &hit(1, 0.5)), Ordering::Greater);
        assert_eq!(rank_order(&hit(3, 0.5), &hit(3, 0.5)), Ordering::Equal);
        // total_cmp distinguishes -0.0 from 0.0 deterministically.
        assert_eq!(rank_order(&hit(0, 0.0), &hit(1, -0.0)), Ordering::Less);
    }

    #[test]
    fn heap_keeps_the_k_best_regardless_of_push_order() {
        let posteriors = [0.3, 0.9, 0.1, 0.9, 0.5, 0.7, 0.2];
        let mut heap = TopKHeap::new(3);
        for (id, &p) in posteriors.iter().enumerate() {
            heap.push(hit(id, p));
        }
        assert_eq!(heap.len(), 3);
        let kept = heap.into_sorted_hits();
        assert_eq!(kept, rank_by_posterior(&posteriors, 3));
        // Ties at 0.9 resolve by ascending id: 1 before 3.
        assert_eq!(kept[0].id, 1);
        assert_eq!(kept[1].id, 3);
        assert_eq!(kept[2].id, 5);
    }

    #[test]
    fn threshold_appears_only_when_full_and_tightens() {
        let mut heap = TopKHeap::new(2);
        assert_eq!(heap.threshold(), None);
        heap.push(hit(0, 0.4));
        assert_eq!(heap.threshold(), None, "filling heap has no bound");
        heap.push(hit(1, 0.8));
        assert_eq!(heap.threshold(), Some(0.4));
        // A better hit evicts the worst and tightens the bound.
        assert!(heap.push(hit(2, 0.6)));
        assert_eq!(heap.threshold(), Some(0.6));
        // An equal-posterior later id is rejected (ascending-id tie-break).
        assert!(!heap.push(hit(3, 0.6)));
        // A strictly worse hit is rejected.
        assert!(!heap.push(hit(4, 0.5)));
        assert_eq!(heap.threshold(), Some(0.6));
    }

    #[test]
    fn zero_capacity_heap_keeps_nothing() {
        let mut heap = TopKHeap::new(0);
        assert!(!heap.push(hit(0, 1.0)));
        assert!(heap.is_empty());
        assert_eq!(heap.threshold(), None);
        assert_eq!(heap.k(), 0);
        assert!(heap.into_sorted_hits().is_empty());
    }

    #[test]
    fn oversized_k_keeps_everything() {
        let posteriors = [0.1, 0.5, 0.3];
        let mut heap = TopKHeap::new(10);
        for (id, &p) in posteriors.iter().enumerate() {
            assert!(heap.push(hit(id, p)));
        }
        assert_eq!(heap.threshold(), None, "never full, never a bound");
        assert_eq!(heap.into_sorted_hits(), rank_by_posterior(&posteriors, 10));
    }

    #[test]
    fn reference_truncates_and_orders_ties_by_id() {
        let hits = rank_by_posterior(&[0.5, 0.5, 0.9, 0.5], 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 0);
        assert_eq!(hits[2].id, 1);
        assert!(rank_by_posterior(&[], 4).is_empty());
        assert_eq!(rank_by_posterior(&[0.3, 0.1], 0), Vec::new());
    }
}
