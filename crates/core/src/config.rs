//! Configuration of the GBDA search engine.

use gbd_prob::GmmConfig;
pub use gbd_telemetry::TelemetryLevel;

/// Which flavour of the GBDA estimator to run (Section VII-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GbdaVariant {
    /// The standard GBDA of Algorithm 1: `|V'1| = max(|V_Q|, |V_G|)` per pair
    /// and the plain GBD of Definition 4.
    Standard,
    /// GBDA-V1: use the *average* number of vertices over a sample of `α`
    /// database graphs as `|V'1|` in `Λ1` and `Λ3`, instead of the pair's own
    /// extended size.
    AverageExtendedSize {
        /// Number of sampled graphs `α`.
        sample_graphs: usize,
    },
    /// GBDA-V2: replace the GBD by the weighted variant
    /// `VGBD = max{|V1|, |V2|} − w · |B_G1 ∩ B_G2|` (Equation 26).
    WeightedGbd {
        /// The user-defined weight `w`.
        weight: f64,
    },
}

/// Parameters of the GBDA search (Algorithm 1 inputs plus the offline knobs).
#[derive(Debug, Clone)]
pub struct GbdaConfig {
    /// Similarity threshold `τ̂`.
    pub tau_hat: u64,
    /// Probability threshold `γ`.
    pub gamma: f64,
    /// Number of graph pairs `N` sampled for the GBD prior (Section V-B).
    pub sample_pairs: usize,
    /// Gaussian-mixture configuration for the GBD prior.
    pub gmm: GmmConfig,
    /// RNG seed used for pair sampling (reproducible offline stage).
    pub seed: u64,
    /// Which estimator variant to run.
    pub variant: GbdaVariant,
    /// Whether [`crate::SearchOutcome::posteriors`] is filled for every
    /// database graph. Off by default: Algorithm 1 returns ids, so a
    /// threshold scan answers most graphs from the per-size accept/reject
    /// regions of the posterior without resolving it. Turn it on to get one
    /// posterior per scanned graph, at the cost of resolving every one.
    pub record_posteriors: bool,
    /// Whether scans run the candidate-pruning cascade of [`crate::filter`]:
    /// monotone GBD bounds plus the inverted-index count filter, resolving
    /// most graphs without merging their branch runs. Results are
    /// bit-identical with the cascade on or off; disabling it forces the
    /// exact flat merge for every graph (the pre-cascade scan).
    pub filter_cascade: bool,
    /// Escape hatch for the per-query stage planner of
    /// [`crate::filter::planner`]. By default (`false`) every scan asks the
    /// planner which cascade stages to run — whether the bound stages pay at
    /// all, whether the stage-2 refinement pays, and whether stage 3 goes
    /// postings-first or bound-first — based on collected [`SearchStats`]
    /// selectivities (static priors before enough queries were observed).
    /// Setting it to `true` pins the fixed stage-1 → stage-2 → count-filter
    /// pipeline. Results are bit-identical either way: planner decisions
    /// only move graphs between a conservative bound stage and the exact
    /// count filter.
    ///
    /// [`SearchStats`]: crate::SearchStats
    pub force_fixed_pipeline: bool,
    /// The telemetry level this engine *requires* of the process-wide
    /// layer (see the `gbd-telemetry` crate). Engine construction applies
    /// it via `gbd_telemetry::escalate_level` — monotone: it can raise the
    /// global level but never lowers it, so building an engine with a
    /// quieter configuration cannot silently stop recording for other
    /// engines in the same process. Lowering the level (e.g. for an
    /// overhead benchmark) is an explicit `gbd_telemetry::set_level` call.
    /// [`TelemetryLevel::Off`] reduces every instrumentation site to one
    /// relaxed load, the default [`TelemetryLevel::Metrics`] records
    /// counters/gauges/histograms, and [`TelemetryLevel::MetricsAndTraces`]
    /// additionally arms spans. Results are bit-identical at every level.
    pub telemetry: TelemetryLevel,
}

impl Default for GbdaConfig {
    fn default() -> Self {
        GbdaConfig {
            tau_hat: 5,
            gamma: 0.9,
            sample_pairs: 10_000,
            gmm: GmmConfig::default(),
            seed: 0x6BDA,
            variant: GbdaVariant::Standard,
            record_posteriors: false,
            filter_cascade: true,
            force_fixed_pipeline: false,
            telemetry: TelemetryLevel::Metrics,
        }
    }
}

impl GbdaConfig {
    /// Creates a configuration with the given thresholds and defaults for the
    /// offline stage.
    pub fn new(tau_hat: u64, gamma: f64) -> Self {
        GbdaConfig {
            tau_hat,
            gamma,
            ..GbdaConfig::default()
        }
    }

    /// Overrides the number of sampled pairs used to fit the GBD prior.
    pub fn with_sample_pairs(mut self, sample_pairs: usize) -> Self {
        self.sample_pairs = sample_pairs;
        self
    }

    /// Overrides the estimator variant.
    pub fn with_variant(mut self, variant: GbdaVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides whether per-graph posteriors are recorded in outcomes.
    pub fn with_record_posteriors(mut self, record: bool) -> Self {
        self.record_posteriors = record;
        self
    }

    /// Overrides whether scans run the filter cascade of [`crate::filter`].
    pub fn with_filter_cascade(mut self, enabled: bool) -> Self {
        self.filter_cascade = enabled;
        self
    }

    /// Overrides the planner escape hatch: `true` pins the fixed
    /// stage-1 → stage-2 → count-filter pipeline instead of letting the
    /// per-query planner skip or reorder stages.
    pub fn with_force_fixed_pipeline(mut self, force: bool) -> Self {
        self.force_fixed_pipeline = force;
        self
    }

    /// Overrides the process-wide [`TelemetryLevel`] applied when an
    /// engine is built from this configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryLevel) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Durability knobs of the crash-safe dynamic layer (the `gbd-store`
/// crate's `DurableDatabase` reads these; the query path ignores them).
///
/// The write path is a length-prefixed, checksummed, sequence-numbered
/// write-ahead log paired with a base snapshot generation under a tiny
/// manifest. These knobs trade acknowledgment latency against the
/// crash-consistency window — correctness (prefix consistency on recovery)
/// holds for every setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Whether every mutation syncs the log before it is acknowledged.
    /// With `true` (the default) an acknowledged insert/remove is durable:
    /// it survives any crash. With `false` acknowledgments only promise
    /// prefix consistency — a crash may roll back a suffix of acknowledged
    /// mutations that were never explicitly synced.
    pub sync_acks: bool,
    /// When set, a mutation that grows the log past this many bytes
    /// triggers an automatic compaction checkpoint (new snapshot
    /// generation, fresh log). `None` (the default) leaves checkpointing
    /// entirely to explicit `compact()` calls.
    pub auto_compact_wal_bytes: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_acks: true,
            auto_compact_wal_bytes: None,
        }
    }
}

impl DurabilityConfig {
    /// Overrides whether acknowledgments sync the log first.
    pub fn with_sync_acks(mut self, sync_acks: bool) -> Self {
        self.sync_acks = sync_acks;
        self
    }

    /// Overrides the automatic-checkpoint threshold (log bytes).
    pub fn with_auto_compact_wal_bytes(mut self, bytes: Option<u64>) -> Self {
        self.auto_compact_wal_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_defaults_are_sync_on_ack_without_auto_compaction() {
        let d = DurabilityConfig::default();
        assert!(d.sync_acks);
        assert_eq!(d.auto_compact_wal_bytes, None);
        let d = d
            .with_sync_acks(false)
            .with_auto_compact_wal_bytes(Some(4096));
        assert!(!d.sync_acks);
        assert_eq!(d.auto_compact_wal_bytes, Some(4096));
    }

    #[test]
    fn defaults_match_the_papers_common_settings() {
        let c = GbdaConfig::default();
        assert_eq!(c.tau_hat, 5);
        assert!((c.gamma - 0.9).abs() < 1e-12);
        assert_eq!(c.variant, GbdaVariant::Standard);
        assert!(!c.record_posteriors, "threshold search returns ids only");
        assert!(c.filter_cascade);
        assert!(!c.force_fixed_pipeline, "the planner is on by default");
        assert_eq!(
            c.telemetry,
            TelemetryLevel::Metrics,
            "metrics are on by default"
        );
    }

    #[test]
    fn telemetry_level_is_overridable() {
        let c = GbdaConfig::default().with_telemetry(TelemetryLevel::Off);
        assert_eq!(c.telemetry, TelemetryLevel::Off);
        let c = c.with_telemetry(TelemetryLevel::MetricsAndTraces);
        assert_eq!(c.telemetry, TelemetryLevel::MetricsAndTraces);
    }

    #[test]
    fn planner_escape_hatch_pins_the_fixed_pipeline() {
        let c = GbdaConfig::default().with_force_fixed_pipeline(true);
        assert!(c.force_fixed_pipeline);
    }

    #[test]
    fn filter_cascade_can_be_disabled() {
        let c = GbdaConfig::default().with_filter_cascade(false);
        assert!(!c.filter_cascade);
    }

    #[test]
    fn builders_override_fields() {
        let c = GbdaConfig::new(10, 0.7)
            .with_sample_pairs(500)
            .with_seed(7)
            .with_variant(GbdaVariant::WeightedGbd { weight: 0.5 });
        assert_eq!(c.tau_hat, 10);
        assert_eq!(c.sample_pairs, 500);
        assert_eq!(c.seed, 7);
        assert_eq!(c.variant, GbdaVariant::WeightedGbd { weight: 0.5 });
    }
}
