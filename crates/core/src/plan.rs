//! The run plan: the one place a run's shape is derived.
//!
//! Every device of a run works from the same shape — how many clusters and
//! measures it encodes, how its fixed-point values are packed into lanes,
//! how many noise shares it splits the Laplace noise into — and the driver
//! works from the same gossip budget, contribution size and weight seed.
//! [`RunPlan::new`] derives all of it once, when the `DistributedRun` is
//! constructed and before any key generation, and rejects as a
//! [`ConfigError`] every configuration the run cannot execute.  The driver,
//! both executors and every node actor read the plan; none re-derives it.
//!
//! [`DevicePlan`] is the half of the plan a device needs.  The coordinator
//! ships it to each node actor in the `Hello` event as it stands, and
//! [`DevicePlan::packer`] is the one function that turns it into a planned
//! [`PackedEncoder`], on the coordinator and on every node alike.

use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder, PackingError};
use chiaroscuro_dp::laplace::{LaplaceMechanism, Sensitivity};
use chiaroscuro_dp::noise_share::NoiseShareGenerator;
use chiaroscuro_timeseries::TimeSeriesSet;

use crate::config::{ChiaroscuroParams, ConfigError};

/// What a device needs to know of the run to build its contribution, and
/// what the `Hello` event carries (field by field, in this order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DevicePlan {
    /// Clusters `k`.
    pub(crate) k: usize,
    /// Measures `n` per series.
    pub(crate) series_length: usize,
    /// Decimal digits of the fixed-point encoding.
    pub(crate) encoding_digits: u32,
    /// Expected noise contributors `nν`.
    pub(crate) num_noise_shares: usize,
    /// Plaintext bits available to lane packing, before key generation
    /// ([`ChiaroscuroParams::packing_capacity_bits`]).
    pub(crate) capacity_bits: u64,
    /// The additive capacity one lane must absorb (see [`RunPlan::new`]).
    pub(crate) budget: LaneBudget,
}

impl DevicePlan {
    /// Coordinates of one perturbed vector: `k` dimension-wise sums of
    /// length `n`, then `k` counts.
    pub(crate) fn coordinates(&self) -> usize {
        self.k * (self.series_length + 1)
    }

    /// Plans the lane layout.  It is a pure function of the plan, so a node
    /// that plans from the shipped plan holds the coordinator's exact
    /// layout.
    pub(crate) fn packer(&self) -> Result<PackedEncoder, PackingError> {
        PackedEncoder::plan(self.capacity_bits, &FixedPointEncoder::new(self.encoding_digits), &self.budget)
    }
}

/// The shape of one run, derived once from its parameters and dataset.
#[derive(Debug, Clone)]
pub(crate) struct RunPlan {
    /// The device half, shipped to node actors as it stands.
    pub(crate) device: DevicePlan,
    /// The lane layout, planned from [`Self::device`].
    pub(crate) packer: PackedEncoder,
    /// Gossip budget of every phase, in rounds (or exchange periods).
    pub(crate) exchanges: u32,
    /// Units of one perturbed vector: `⌈k·(n+1)/L⌉` for `L` lanes.
    pub(crate) means_units: usize,
    /// Units in one contribution vector, i.e. in one epidemic-sum message:
    /// `2·⌈k·(n+1)/L⌉ + 1` (means, noise shares, counter).
    pub(crate) contribution_units: usize,
    /// The node that seeds the EESum weight with 1: the lowest-indexed
    /// honest one.  A byzantine seed would have most of its exchanges voided
    /// and could starve the epidemic of its only weight.
    pub(crate) weight_seed: usize,
}

impl RunPlan {
    /// Plans the run of `params` over `data`.
    ///
    /// The lane budget covers the population, the worst per-iteration noise
    /// scale of the ε schedule (64 Laplace e-folds of tail headroom per
    /// share), and an epidemic doubling allowance of `8·exchanges + 32`: the
    /// EESum exchange counter cascades within a round (sequential exchanges
    /// reuse freshly bumped states), growing by ~5–6 per round empirically —
    /// the gossip crate pins that law for both engines with its own
    /// regression tests — so 8 per round plus slack leaves a wide margin.
    /// Should a freak schedule ever exceed it anyway, the decode-time guard
    /// in `PackedEncoder::unpack` fails loudly instead of corrupting lanes.
    /// A layout may hold a single lane: one coordinate per unit plus the
    /// counter.
    ///
    /// # Errors
    /// Every [`ChiaroscuroParams::validate_for_population`] error;
    /// [`ConfigError::NoEpsilon`] when the schedule grants no iteration any
    /// ε; [`ConfigError::LanesDoNotFit`] when no lane layout fits the key;
    /// [`ConfigError::NoHonestNode`] when every node is byzantine.
    ///
    /// # Panics
    /// Panics if [`ChiaroscuroParams::validate`] fails.
    pub(crate) fn new(params: &ChiaroscuroParams, data: &TimeSeriesSet) -> Result<Self, ConfigError> {
        let (population, n) = (data.len(), data.series_length());
        params.validate_for_population(population)?;
        let exchanges = params.effective_exchanges(population, n);
        // The largest noise scales of the whole run come from the leanest
        // per-iteration budget of the schedule.
        let schedule = params.budget_schedule();
        let min_epsilon = (0..params.max_iterations)
            .map(|i| schedule.epsilon_for_iteration(i))
            .filter(|&e| e > 0.0)
            .fold(f64::INFINITY, f64::min);
        if !min_epsilon.is_finite() {
            return Err(ConfigError::NoEpsilon);
        }
        let range = data.range();
        let mechanism = LaplaceMechanism::new(Sensitivity::from_range(n, range.min, range.max), min_epsilon)
            .with_gossip_error_bound(params.gossip_error_bound);
        let noise_bound = |scale| NoiseShareGenerator::new(params.num_noise_shares, scale).magnitude_bound();
        let device = DevicePlan {
            k: params.k,
            series_length: n,
            encoding_digits: params.encoding_digits,
            num_noise_shares: params.num_noise_shares,
            capacity_bits: params.packing_capacity_bits(),
            budget: LaneBudget {
                contributors: population,
                doubling_budget: 8 * exchanges + 32,
                max_abs_value: range.min.abs().max(range.max.abs()).max(1.0).max(
                    noise_bound(mechanism.sum_scale()).max(noise_bound(mechanism.count_scale())),
                ),
                biased_vectors: 2, // the means vector plus the noise-share vector
            },
        };
        let packer = device
            .packer()
            .map_err(|cause| ConfigError::LanesDoNotFit { key_bits: params.key_bits, exchanges, cause })?;
        // `is_byzantine` is a pure hash (no RNG) and false for every node
        // under an inactive adversary, so honest runs seed at node 0.
        let weight_seed =
            (0..population).find(|&node| !params.adversary.is_byzantine(node)).ok_or(ConfigError::NoHonestNode)?;
        let means_units = packer.ciphertexts_for(device.coordinates());
        Ok(Self { device, packer, exchanges, means_units, contribution_units: 2 * means_units + 1, weight_seed })
    }
}
