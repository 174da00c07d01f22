//! Batch candidate evaluation — N sibling configurations analyzed in one
//! data-parallel pass ([`Evaluator::evaluate_batch`]).
//!
//! # The shared-prefix / divergent-tail model
//!
//! Search loops fan out *sibling* candidates: N configurations that each
//! differ from one common base by a single move. Their delta cones share
//! almost everything — the base's converged fixed point — and diverge only
//! in the per-candidate dirty tail. The batch evaluator exploits exactly
//! that split:
//!
//! 1. **Shared prefix, once.** The base configuration's converged analysis
//!    state (the primary evaluator's memo slots — each outer iteration's
//!    schedule and its timing — and release maps) is the prefix every
//!    candidate's replay starts from. It is
//!    computed once — by whatever evaluation anchored the primary — and
//!    distributed to the lanes by an allocation-reusing state copy, never
//!    re-derived per candidate.
//! 2. **Divergent tails, one worker each.** Each candidate's dirty-cone
//!    replay (the restricted RTA passes of [`crate::delta`]) runs in a
//!    *lane*: a private evaluator over the dense structure-of-array entity
//!    tables. There is one lane per rayon worker, not one per candidate:
//!    each lane claims the next unclaimed candidate from a shared counter,
//!    mirrors the base state if the candidate takes the delta path, and
//!    evaluates it, until no candidate is left. Candidates differ
//!    several-fold in cost, so claiming them one at a time keeps the
//!    workers busy to the end of the batch.
//!
//! [`BatchScratch`] holds the lanes. Like the evaluator's own `Scratch`,
//! lanes are **reused, not reallocated** between batches: the first batch
//! pays the allocation, every later batch reuses the same fixed-point
//! vectors, and a batch never builds more lanes than there are workers.
//!
//! # Determinism: bit-identical to sequential delta evaluation
//!
//! The contract — CI-enforced by the `batch_equivalence` suite like every
//! prior layer — is that `evaluate_batch` returns **bit-identical** results
//! to N sequential [`Evaluator::evaluate_delta`] calls made from the same
//! base state: same summaries (δΓ, `s_total`, convergence metadata) and
//! same infeasibility verdicts. This holds because a lane evaluates each
//! delta candidate against the same base fixed point a sequential call
//! would extend, the delta path itself is bit-identical to the full fixed
//! point, and a full evaluation depends on its configuration alone. So no
//! result depends on which lane ran the candidate or what that lane ran
//! before. Results are returned in request order, independent of worker
//! scheduling.
//!
//! # When batching degrades to sequential work
//!
//! A candidate whose seeds are structural (TDMA changes), whose priorities
//! are not a per-resource permutation of the base's, or that arrives while
//! the primary has no successful analysis to diff against, takes the full
//! evaluation path inside its lane — correct by the same argument, just
//! without prefix reuse. A batch of such candidates (e.g. OS's slot scans)
//! is still evaluated in parallel across lanes, but each lane performs the
//! full fixed point: the win is then core-level parallelism, not shared
//! work. With one lane (width 1, or `RAYON_NUM_THREADS=1`) one evaluator
//! runs every candidate in request order.

use mcs_model::SystemConfig;

use crate::context::Evaluator;
use crate::delta::DeltaSeeds;

/// One candidate of a batch evaluation: the configuration to analyze and a
/// seed set over-approximating its difference to the batch base (the
/// primary evaluator's last successful analysis), exactly as
/// [`Evaluator::evaluate_delta`] expects.
#[derive(Clone, Debug, Default)]
pub struct BatchRequest {
    /// The candidate configuration ψ.
    pub config: SystemConfig,
    /// Delta seeds relative to the primary evaluator's last completed
    /// analysis. [`DeltaSeeds::structural`] forces the full path for this
    /// candidate (the right call for TDMA moves).
    pub seeds: DeltaSeeds,
}

/// The reusable lane state of [`Evaluator::evaluate_batch`]: one private
/// evaluator (own scratch and memo slots, each with its schedule and
/// timing) per worker thread, reused — not reallocated — across batches
/// (see the module docs above).
///
/// A `BatchScratch` is bound to the system and analysis parameters of the
/// evaluator that uses it; passing it to an evaluator of a different system
/// or with different parameters transparently rebuilds the lanes.
#[derive(Default)]
pub struct BatchScratch<'s> {
    pub(crate) lanes: Vec<Evaluator<'s>>,
}

impl<'s> std::fmt::Debug for BatchScratch<'s> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScratch").finish_non_exhaustive()
    }
}

impl<'s> BatchScratch<'s> {
    /// Creates an empty scratch; lanes are built lazily on first use.
    pub fn new() -> Self {
        BatchScratch { lanes: Vec::new() }
    }

    /// Number of lanes currently allocated: the widest batch seen, capped
    /// at the worker count.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }
}
