//! Publishing a generation is `O(1)` in the delta length and in the catalog
//! size — asserted deterministically, by counting allocations rather than
//! by timing: what one [`ConcurrentEngine::insert`] allocates at delta
//! length 200 exceeds what it allocates at delta length 1 by at most a small
//! constant, even though every inserted graph brings new vocabulary.
//!
//! This file holds exactly one test: the counters are process-wide, and a
//! second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gbda::prelude::*;
use rand::SeedableRng;

struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` requested while `work` ran.
fn allocated_by(work: impl FnOnce()) -> (usize, usize) {
    let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    work();
    (
        CALLS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn insert_allocations_do_not_grow_with_the_delta_or_the_catalog() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let base = GeneratorConfig::new(10, 2.2)
        .with_alphabets(LabelAlphabets::new(12, 4))
        .generate_many(400, &mut rng)
        .unwrap();
    // A label alphabet this wide makes every inserted graph intern branches
    // nobody has seen: the case that used to copy the whole catalog.
    let fresh = GeneratorConfig::new(10, 2.2)
        .with_alphabets(LabelAlphabets::new(20_000, 4))
        .generate_many(208, &mut rng)
        .unwrap();
    let database = GraphDatabase::from_graphs(base);
    let config = GbdaConfig::new(3, 0.7).with_sample_pairs(100);
    let index = OfflineIndex::build(&database, &config).unwrap();
    let engine = ConcurrentEngine::new(DynamicDatabase::new(database), index, config);

    let first = engine.pin();
    let mut costs = Vec::new();
    for graph in fresh {
        let vocabulary = engine.pin().view_catalog().len();
        costs.push(allocated_by(|| {
            engine.insert(graph);
        }));
        assert!(engine.pin().view_catalog().len() > vocabulary);
    }
    let last = engine.pin();
    assert_eq!(last.view_delta().len(), 208);
    assert!(
        std::ptr::eq(first.view_base().catalog(), last.view_base().catalog()),
        "the base catalog is shared, never copied"
    );

    // The cheapest of eight consecutive inserts: what an insert inherently
    // allocates, without the amortized doublings of the log's vectors and
    // maps (which are the insert's own cost, not the publication's).
    let cheapest = |window: &[(usize, usize)]| {
        let calls = window.iter().map(|&(calls, _)| calls).min().unwrap();
        let bytes = window.iter().map(|&(_, bytes)| bytes).min().unwrap();
        (calls, bytes)
    };
    let (early_calls, early_bytes) = cheapest(&costs[1..9]);
    let (late_calls, late_bytes) = cheapest(&costs[200..208]);
    assert!(
        late_calls <= early_calls + 4 && late_bytes <= early_bytes + 512,
        "insert + publish at delta 200 allocates {late_calls} times / {late_bytes} B, \
         at delta 1 {early_calls} times / {early_bytes} B"
    );
}
