//! Physical and logical plan optimization options.
//!
//! These are exactly the knobs the paper's demonstrator exposes (Appendix A,
//! Fig. 10): select-join composition on/off, the join/selection buffer size
//! (1 = unbuffered, 64, 512, 2048), and the maximum multi-way/star join
//! width (2-way … multi-way). Two extra switches cover §2.2's index choice
//! (KISS vs. prefix tree) and §4.1's set-operator selection strategy.
//!
//! On top of the paper's knobs sit the **parallel execution** knobs consumed
//! by the `qppt-par` subsystem: worker count ([`PlanOptions::parallelism`])
//! and morsel granularity ([`PlanOptions::morsel_bits`]). They default to
//! `parallelism = 1`, i.e. the paper's single-threaded execution model, so
//! existing callers are unaffected unless they opt in.

/// Plan options for the QPPT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Compose selections with the successive join (§4.3). When off, every
    /// selection materializes an intermediate indexed table first.
    pub select_join: bool,
    /// Join/selection buffer size in tuples; enables the batched index
    /// lookups and inserts of §2.3. `1` disables buffering; at most
    /// [`MAX_BUFFER_ROWS`](Self::MAX_BUFFER_ROWS).
    pub join_buffer: usize,
    /// Maximum number of tables one composed join operator may touch
    /// (2 = traditional binary joins, 5 = SSB's widest star join).
    pub max_join_ways: usize,
    /// Use the KISS-Tree for 32-bit key domains (§2.2). When off, every
    /// index is a `k′ = 4` prefix tree.
    pub prefer_kiss: bool,
    /// Process multi-predicate selections as per-predicate rid-set
    /// selections combined with set operators (§4.1's intersect path)
    /// instead of index-scan + residual filtering.
    pub selection_via_set_ops: bool,
    /// Use multidimensional (multi-column) base indexes for eligible
    /// conjunctive selections (§4.1: "the selection operator prefers to
    /// operate on a multidimensional index as input"). Eligible = equality
    /// predicates on all leading columns, at most a range on the last.
    pub multidim_selections: bool,
    /// Worker count for the morsel-driven parallel executor (`qppt-par`),
    /// an upper bound: the pool grants a query at most the cores its load
    /// leaves free, so a lone query runs this wide (up to the pool's size)
    /// while under concurrent load each query runs on its calling thread
    /// alone. `1` (the default) is sequential execution — every operator
    /// class (selections, synchronous scans, composed joins) runs on the
    /// calling thread; `QpptEngine::run` ignores this knob entirely — only
    /// `qppt_par::PooledEngine` consults it.
    pub parallelism: usize,
    /// Morsel granularity: the key domain of the stage-1 join attribute is
    /// split on its top `morsel_bits` bits, i.e. into up to
    /// `2^morsel_bits` top-level prefix ranges. More morsels give better
    /// load balancing (workers steal whole morsels) at slightly higher
    /// scheduling overhead. Must be in `1..=16`; the default of 6 yields up
    /// to 64 morsels.
    pub morsel_bits: u8,
    /// Run each base-index build's passes — keys, bucket sorts, payload
    /// gather beside the tree fill — on as many threads as the worker pool
    /// has (`qppt_par::prepare_indexes_pooled`). Off by default (the serial
    /// hook); the resulting indexes are bit-identical either way (so the
    /// knob is **excluded** from the cache fingerprints), and
    /// [`prepare_indexes`](crate::plan::prepare_indexes) ignores the switch
    /// entirely (it has no pool).
    pub par_index_build: bool,
}

/// Has no behaviour: kept only so the frozen benchmark's `layers.rs`
/// builds (it passes [`PlanOptions::batch_mode`] to
/// `PooledEngine::run_prepared_agg`). Delete it, with that call, as soon as
/// the benchmark may be edited.
#[derive(Debug, Clone, Copy)]
pub struct BatchMode;

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            select_join: true,
            join_buffer: 512,
            max_join_ways: 5,
            prefer_kiss: true,
            selection_via_set_ops: false,
            multidim_selections: false,
            parallelism: 1,
            morsel_bits: 6,
            par_index_build: false,
        }
    }
}

impl PlanOptions {
    /// The demonstrator's buffer-size choices.
    pub const JOIN_BUFFER_CHOICES: [usize; 4] = [1, 64, 512, 2048];

    /// Upper bound of [`join_buffer`](Self::join_buffer), in rows. The join
    /// buffer is sized per worker and the size arrives from the wire, so
    /// the bound is what keeps a request's memory finite; it is 512× the
    /// largest buffer the paper measures.
    pub const MAX_BUFFER_ROWS: usize = 1 << 20;

    /// Validates option invariants.
    pub fn validate(&self) -> Result<(), crate::QpptError> {
        if self.join_buffer == 0 || self.join_buffer > Self::MAX_BUFFER_ROWS {
            return Err(crate::QpptError::InvalidOptions(format!(
                "join_buffer must be in 1..={}",
                Self::MAX_BUFFER_ROWS
            )));
        }
        if self.max_join_ways < 2 {
            return Err(crate::QpptError::InvalidOptions(
                "max_join_ways must be >= 2".into(),
            ));
        }
        if self.parallelism == 0 {
            return Err(crate::QpptError::InvalidOptions(
                "parallelism must be >= 1".into(),
            ));
        }
        if self.morsel_bits == 0 || self.morsel_bits > 16 {
            return Err(crate::QpptError::InvalidOptions(
                "morsel_bits must be in 1..=16".into(),
            ));
        }
        Ok(())
    }

    /// Has no behaviour: kept only so the frozen benchmark's `layers.rs`
    /// builds; to be deleted with [`BatchMode`].
    pub fn batch_mode(&self) -> BatchMode {
        BatchMode
    }

    /// Builder-style setter.
    pub fn with_select_join(mut self, on: bool) -> Self {
        self.select_join = on;
        self
    }

    /// Builder-style setter.
    pub fn with_join_buffer(mut self, size: usize) -> Self {
        self.join_buffer = size;
        self
    }

    /// Builder-style setter.
    pub fn with_max_join_ways(mut self, ways: usize) -> Self {
        self.max_join_ways = ways;
        self
    }

    /// Builder-style setter.
    pub fn with_prefer_kiss(mut self, on: bool) -> Self {
        self.prefer_kiss = on;
        self
    }

    /// Builder-style setter.
    pub fn with_set_ops(mut self, on: bool) -> Self {
        self.selection_via_set_ops = on;
        self
    }

    /// Builder-style setter.
    pub fn with_multidim(mut self, on: bool) -> Self {
        self.multidim_selections = on;
        self
    }

    /// Builder-style setter for the parallel worker count.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Builder-style setter for the morsel granularity.
    pub fn with_morsel_bits(mut self, bits: u8) -> Self {
        self.morsel_bits = bits;
        self
    }

    /// Builder-style setter for the parallel index-build switch.
    pub fn with_par_index_build(mut self, on: bool) -> Self {
        self.par_index_build = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_defaults() {
        let o = PlanOptions::default();
        assert!(o.select_join);
        assert_eq!(o.join_buffer, 512);
        assert_eq!(o.max_join_ways, 5);
        assert!(o.prefer_kiss);
        assert!(!o.selection_via_set_ops);
        assert!(!o.multidim_selections);
        assert_eq!(o.parallelism, 1);
        assert_eq!(o.morsel_bits, 6);
        assert!(!o.par_index_build);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn invalid_options_rejected() {
        assert!(PlanOptions::default()
            .with_join_buffer(0)
            .validate()
            .is_err());
        assert!(PlanOptions::default()
            .with_max_join_ways(1)
            .validate()
            .is_err());
        assert!(PlanOptions::default()
            .with_parallelism(0)
            .validate()
            .is_err());
        assert!(PlanOptions::default()
            .with_morsel_bits(0)
            .validate()
            .is_err());
        assert!(PlanOptions::default()
            .with_morsel_bits(17)
            .validate()
            .is_err());
        // The buffer size is bounded above: it sizes allocations.
        let max = PlanOptions::MAX_BUFFER_ROWS;
        for rows in [max + 1, 1 << 40, usize::MAX] {
            assert!(PlanOptions::default()
                .with_join_buffer(rows)
                .validate()
                .is_err());
        }
        assert!(PlanOptions::default()
            .with_join_buffer(max)
            .validate()
            .is_ok());
        assert!(PlanOptions::default()
            .with_parallelism(8)
            .with_morsel_bits(16)
            .validate()
            .is_ok());
    }

    #[test]
    fn builders_chain() {
        let o = PlanOptions::default()
            .with_select_join(false)
            .with_join_buffer(64)
            .with_max_join_ways(2)
            .with_prefer_kiss(false)
            .with_set_ops(true)
            .with_multidim(true)
            .with_parallelism(4)
            .with_morsel_bits(8)
            .with_par_index_build(true);
        assert!(o.par_index_build);
        assert!(!o.select_join);
        assert!(o.multidim_selections);
        assert_eq!(o.join_buffer, 64);
        assert_eq!(o.max_join_ways, 2);
        assert!(!o.prefer_kiss);
        assert!(o.selection_via_set_ops);
        assert_eq!(o.parallelism, 4);
        assert_eq!(o.morsel_bits, 8);
    }
}
