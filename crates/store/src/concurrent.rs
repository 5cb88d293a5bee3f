//! Snapshot-isolated serving over a **durable** dynamic database: the
//! store-side twin of `gbda_core::ConcurrentEngine`.
//!
//! [`ConcurrentDurable`] pairs a [`gbda_core::SnapshotReader`] with a
//! mutex-guarded [`DurableDatabase`] so concurrent readers pin immutable
//! [`gbda_core::Generation`]s while writers append to the write-ahead log.
//! The ordering contract is the whole point of this wrapper:
//!
//! > **A generation is published only after the mutation it contains has
//! > been acknowledged by the WAL.**
//!
//! [`ConcurrentDurable::insert`] and [`ConcurrentDurable::remove`] first
//! run the durable *log-then-apply* path — the record is appended (and,
//! with [`gbda_core::DurabilityConfig::sync_acks`], synced) before the
//! in-memory state changes — and publish the new generation strictly
//! afterwards. A failed append therefore never becomes visible to any
//! reader: the previously published generation keeps serving, bit-identical,
//! and recovery after a crash restores a state at least as new as anything
//! a reader ever observed.

use std::sync::{Arc, Mutex};

use gbd_graph::Graph;
use gbda_core::{
    DynamicOutcome, DynamicTopKOutcome, GbdaConfig, Generation, OfflineIndex, SearchStats,
    SnapshotReader,
};

use crate::durable::DurableDatabase;
use crate::error::StoreResult;
use crate::vfs::Vfs;

/// A crash-safe [`DurableDatabase`] served through snapshot-isolated
/// generations: readers pin with one `Arc` clone and never wait for a WAL
/// append or a capture; every published generation corresponds to a
/// WAL-acknowledged state.
///
/// Mutations are serialized through an internal mutex (the WAL is a single
/// append stream anyway); queries go through the embedded
/// [`gbda_core::SnapshotReader`] and never take that mutex.
pub struct ConcurrentDurable<V: Vfs> {
    reader: SnapshotReader,
    writer: Mutex<DurableDatabase<V>>,
}

impl<V: Vfs> ConcurrentDurable<V> {
    /// Wraps an already-created (or recovered) durable database, publishing
    /// its current state as the first visible generation.
    pub fn new(database: DurableDatabase<V>, index: OfflineIndex, config: GbdaConfig) -> Self {
        let reader = SnapshotReader::new(database.database(), index, config);
        ConcurrentDurable {
            reader,
            writer: Mutex::new(database),
        }
    }

    /// The embedded snapshot reader (for pinned multi-query sessions).
    pub fn reader(&self) -> &SnapshotReader {
        &self.reader
    }

    /// Pins the latest published (WAL-acknowledged) generation.
    pub fn pin(&self) -> Arc<Generation> {
        self.reader.pin()
    }

    /// The epoch of the latest published generation.
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Live graphs in the latest published generation.
    pub fn len(&self) -> usize {
        self.reader.pin().len()
    }

    /// Whether the latest published generation has no live graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durably inserts `graph`: WAL append + ack first, generation
    /// publication strictly after. Returns the assigned id.
    ///
    /// # Errors
    /// Propagates the WAL/auto-compaction errors of
    /// [`DurableDatabase::insert`]; on error **no** new generation is
    /// published and readers keep the previous state.
    pub fn insert(&self, graph: Graph) -> StoreResult<u64> {
        let mut db = self.writer.lock().expect("durable writer mutex poisoned");
        let id = db.insert(graph)?;
        self.reader.publish(db.database());
        Ok(id)
    }

    /// Durably removes `id`: WAL append + ack first, generation publication
    /// strictly after. Returns the epoch of the generation it published —
    /// the first one that lacks `id`.
    ///
    /// # Errors
    /// Propagates the errors of [`DurableDatabase::remove`] (unknown id,
    /// WAL failures); on error no new generation is published.
    pub fn remove(&self, id: u64) -> StoreResult<u64> {
        let mut db = self.writer.lock().expect("durable writer mutex poisoned");
        db.remove(id)?;
        Ok(self.reader.publish(db.database()))
    }

    /// Rotates to a compacted snapshot generation and publishes the
    /// compacted state. Returns the number of live graphs.
    ///
    /// # Errors
    /// Propagates the errors of [`DurableDatabase::compact`]. Compaction
    /// never changes the live set, so on error readers simply keep serving
    /// the pre-compaction generation — still correct.
    pub fn compact(&self) -> StoreResult<usize> {
        let mut db = self.writer.lock().expect("durable writer mutex poisoned");
        let live = db.compact()?;
        self.reader.publish(db.database());
        Ok(live)
    }

    /// Syncs the WAL (for batched, non-`sync_acks` configurations).
    ///
    /// # Errors
    /// Propagates the I/O errors of [`DurableDatabase::sync`].
    pub fn sync(&self) -> StoreResult<()> {
        self.writer
            .lock()
            .expect("durable writer mutex poisoned")
            .sync()
    }

    /// Takes the first deferred auto-compaction error, resetting the
    /// failure counter (see [`DurableDatabase::take_auto_compact_error`]).
    pub fn take_auto_compact_error(&self) -> Option<crate::StoreError> {
        self.writer
            .lock()
            .expect("durable writer mutex poisoned")
            .take_auto_compact_error()
    }

    /// Failed deferred auto-compaction attempts since the last take.
    pub fn auto_compact_failures(&self) -> u64 {
        self.writer
            .lock()
            .expect("durable writer mutex poisoned")
            .auto_compact_failures()
    }

    /// Threshold search over the latest published generation.
    pub fn search(&self, query: &Graph) -> DynamicOutcome {
        self.reader.search(query)
    }

    /// Ranked top-`k` search over the latest published generation.
    pub fn search_top_k(&self, query: &Graph, k: usize) -> DynamicTopKOutcome {
        self.reader.search_top_k(query, k)
    }

    /// Streaming search over the latest published generation.
    pub fn search_streaming<F>(&self, query: &Graph, on_match: F) -> SearchStats
    where
        F: FnMut(u64, Option<f64>),
    {
        self.reader.search_streaming(query, on_match)
    }

    /// Tears the wrapper down, returning the durable database (e.g. to
    /// close or inspect it after the serving phase).
    pub fn into_inner(self) -> DurableDatabase<V> {
        self.writer
            .into_inner()
            .expect("durable writer mutex poisoned")
    }
}

// The wrapper is shared across serving threads by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentDurable<crate::StdVfs>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultSchedule, FaultVfs};
    use gbd_graph::{GeneratorConfig, LabelAlphabets};
    use gbda_core::{DurabilityConfig, GraphDatabase};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs(count: usize, seed: u64) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        GeneratorConfig::new(8, 2.0)
            .with_alphabets(LabelAlphabets::new(4, 2))
            .generate_many(count, &mut rng)
            .unwrap()
    }

    fn engine_over(vfs: FaultVfs, seed: u64) -> ConcurrentDurable<FaultVfs> {
        let base = GraphDatabase::from_graphs(sample_graphs(6, seed));
        let config = GbdaConfig::new(2, 0.5).with_sample_pairs(60);
        let index = OfflineIndex::build(&base, &config).unwrap();
        let db = DurableDatabase::create(vfs, "db", base, DurabilityConfig::default()).unwrap();
        ConcurrentDurable::new(db, index, config)
    }

    #[test]
    fn mutations_publish_only_after_wal_ack() {
        let vfs = FaultVfs::new();
        let engine = engine_over(vfs.clone(), 31);
        assert_eq!(engine.epoch(), 0);
        let extra = sample_graphs(2, 32);
        let id = engine.insert(extra[0].clone()).unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.len(), 7);

        // Everything acked so far survives a power cycle, and the recovered
        // state matches what readers were being served.
        let pinned = engine.pin();
        let served = pinned.live_ids();
        let db = engine.into_inner();
        drop(db);
        vfs.power_cycle();
        let recovered = DurableDatabase::open(vfs, "db", DurabilityConfig::default()).unwrap();
        let recovered_ids = recovered.database().live_ids();
        assert_eq!(recovered_ids, served);
        assert!(recovered_ids.contains(&id));
    }

    #[test]
    fn failed_wal_append_publishes_no_generation() {
        let vfs = FaultVfs::new();
        let engine = engine_over(vfs.clone(), 33);
        let extra = sample_graphs(3, 34);
        engine.insert(extra[0].clone()).unwrap();
        let epoch_before = engine.epoch();
        let before = engine.pin();
        let ids_before = before.live_ids();

        // Cut the disk: the very next write crashes, so the insert's WAL
        // append fails before any acknowledgment.
        vfs.arm(FaultSchedule::crash_after(0));
        let err = engine.insert(extra[1].clone());
        assert!(err.is_err(), "append must fail under the injected crash");

        // No new generation became visible; readers still serve the exact
        // pre-failure state.
        assert_eq!(engine.epoch(), epoch_before);
        let after = engine.pin();
        assert_eq!(after.epoch(), before.epoch());
        let ids_after = after.live_ids();
        assert_eq!(ids_after, ids_before);

        // The WAL writer seals itself after a failed append; even with the
        // disk healed, further mutations fail — and still publish nothing.
        vfs.arm(FaultSchedule::default());
        assert!(engine.insert(extra[2].clone()).is_err());
        assert_eq!(engine.epoch(), epoch_before);

        // The recovery path: reopen the database, which serves exactly the
        // acknowledged prefix readers were pinned to.
        drop(engine.into_inner());
        vfs.power_cycle();
        let recovered = DurableDatabase::open(vfs, "db", DurabilityConfig::default()).unwrap();
        assert_eq!(recovered.database().live_ids(), ids_before);
    }

    #[test]
    fn queries_serve_the_published_generation() {
        let vfs = FaultVfs::new();
        let engine = engine_over(vfs, 35);
        let query = sample_graphs(1, 36).pop().unwrap();
        let outcome = engine.search(&query);
        let pinned = engine.pin();
        let replay = engine.reader().search_pinned(&pinned, &query);
        assert_eq!(outcome.matches, replay.matches);
        let ranked = engine.search_top_k(&query, 3);
        assert!(ranked.hits.len() <= 3);
    }
}
