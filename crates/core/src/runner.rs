//! The end-to-end distributed execution sequence (Algorithms 1 and 3).
//!
//! [`DistributedRun`] describes a run over a population of personal
//! devices, one per time-series.  The sequence itself is written once, in
//! the crate-private iteration driver; this module holds its *in-process
//! executor* (the whole population simulated in one address space, on the
//! gossip engines; each `gossip(Phase)` call is one `run_phase` over the
//! store that phase lives in), and [`crate::cluster`] holds the other one
//! (node actors behind transport links).  Either way one iteration is:
//!
//! 1. **Assignment step** — each participant assigns its series to the
//!    closest cleartext (differentially-private) centroid and initialises
//!    its encrypted means (Diptych);
//! 2. **Computation step** —
//!    a. the encrypted means and the encrypted noise shares are summed by
//!    the EESum gossip protocol (Algorithm 2), together with a counter unit
//!    encrypting 1 per contribution,
//!    b. the reference node's counter unit is threshold-decrypted to count
//!    the contributors, and the noise surplus correction is agreed upon by
//!    min-identifier epidemic dissemination,
//!    c. the perturbed encrypted means are threshold-decrypted with τ
//!    distinct key-shares and smoothed;
//! 3. **Convergence step** — the new perturbed centroids replace the old
//!    ones until they converge or the iteration/budget limit is reached.
//!
//! Only quantities that are encrypted, differentially private, or
//! data-independent ever cross a participant boundary; the [`crate::audit`]
//! log records every transfer so tests can verify requirement R2.
//!
//! One deliberate simplification (box 2c of `docs/ARCHITECTURE.md`, "One
//! `DistributedRun` iteration"): the noise
//! surplus correction is applied to the decrypted perturbed sums rather than
//! homomorphically before decryption.  The correction is data- and
//! noise-independent cleartext, so the security argument (Lemma 3) is
//! unchanged; only the ordering differs.
//!
//! # Cipher backends
//!
//! The run is generic over a [`CipherBackend`] owning every ciphertext
//! operation.  [`DistributedRun::new`] uses the real [`DamgardJurik`]
//! scheme and is **bit-identical** to the historical hard-wired runner from
//! the same seed (the backend delegates every call in the same order with
//! the same RNG draws).  [`DistributedRun::with_backend`] accepts any
//! backend — in particular
//! [`PlaintextSurrogate`](chiaroscuro_crypto::backend::PlaintextSurrogate),
//! which carries the exact plaintext lane integers instead of ciphertexts
//! so the full protocol (gossip, EESum, churn, dissemination, noise shares,
//! surplus correction) can run at 100k–10M participants.  Backend setup
//! preserves RNG parity (see `chiaroscuro_crypto::backend`), so a surrogate
//! run decodes the *same* centroids as a crypto run from the same seed —
//! asserted by the scenario matrix and the backend-equivalence proptests.
//!
//! The audit log records the protection class each transfer has **in the
//! deployed protocol**: under a plaintext backend the "encrypted" channels
//! carry stand-in plaintexts, so requirement R2 is a property the simulated
//! design retains, not a property of the simulation's wire content.
//!
//! # Scale path: the lane arena
//!
//! Storage and engine are independent choices: either engine (lockstep
//! rounds, event-driven async) drives any node store, and consumes identical
//! RNG draws over each, so a store changes memory behaviour only — never a
//! decoded bit (asserted by the backend-equivalence proptests, which compare
//! the arena path against the crypto path from the same seed under both
//! engines).  The executor's one policy is which store `contribute` fills,
//! and it follows the unit kind alone: a plaintext backend's units are plain
//! lane integers, so its EESum phase runs on the row-slab
//! [`EesUnitArena`] on every engine (the entire population's lane-packed
//! state lives in one flat allocation and each exchange is one sweep over
//! two contiguous rows); an encrypted backend's units are
//! ciphertexts only the backend can combine, so it keeps per-node vectors.
//! The correction dissemination always runs on a [`MinIdArena`], which
//! holds the proposals from `propose` to `read_out` and no rows between.
//!
//! # Network models
//!
//! Both gossip phases (EESum means/noise sum, correction dissemination)
//! dispatch on [`ChiaroscuroParams::network`]: the
//! round-based engine (the default — the dispatcher consumes exactly the
//! RNG draws the engine would directly, so the knob never moves a
//! round-based schedule) or the deterministic event-driven asynchronous simulator
//! (`chiaroscuro_gossip::sim`) with per-edge latency, message loss and
//! crash/rejoin schedules.  Asynchronous iterations additionally report
//! wall-clock latency in [`IterationNetworkStats::gossip_sim_time`] and
//! [`IterationNetworkStats::peak_messages_in_flight`]; either way the run
//! stays a pure function of the seed.  There is one asynchronous engine:
//! each phase draws one run seed from the master RNG, and
//! `AsyncNetworkConfig::sim_shards` only sets how many workers simulate it
//! (results are bit-identical for every value).
//!
//! # Parallel execution
//!
//! The two crypto hot spots — the per-participant Diptych/noise encryption
//! (every participant's work is independent) and the `⌈k·(n+1)/L⌉ + 1`
//! threshold decryptions (every ciphertext's τ partial decryptions +
//! combine are independent) — run on a scoped thread pool sized by
//! [`ChiaroscuroParams::pool_threads`].  Determinism is preserved by
//! construction: every participant encrypts under its own RNG stream whose
//! seed is drawn from the master RNG *before* dispatch, and decryption
//! consumes no randomness, so the same seed produces bit-identical outputs
//! whatever the thread count (the scenario matrix asserts this).
//!
//! # Lane packing
//!
//! The hot spots run over lane-packed ciphertexts
//! (`chiaroscuro_crypto::packing`), the run's one encoding: each
//! participant encrypts `2·⌈k·(n+1)/L⌉ + 1` units (means, noise shares and
//! the bias counter), gossip messages carry that many, and
//! `⌈k·(n+1)/L⌉ + 1` threshold decryptions recover all perturbed values.
//! The lane layout is part of the run's plan (`crate::plan`): it is derived
//! once, with the gossip budget, the contribution size and the weight seed,
//! when the run is constructed and before key generation, and the driver,
//! both executors and every node actor work from that one plan.  A
//! configuration the run cannot execute — a worst-case lane sum that cannot
//! fit the key among them — is rejected there, by [`DistributedRun::new`],
//! with its [`ConfigError`](crate::config::ConfigError).  Per-lane biases
//! are also what represent negative noise shares without modular
//! arithmetic, which lets the plaintext surrogate carry the same units.

use std::marker::PhantomData;

use rand::Rng;

use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena, MinIdLayout};
use chiaroscuro_gossip::eesum::{initial_states_seeded_at as eesum_states_seeded_at, EesState, EesSumProtocol};
use chiaroscuro_gossip::sim::arena::EesUnitArena;
use chiaroscuro_gossip::sim::{run_phase, AdversaryState, FaultStats, PhaseOpts, PhaseStats};
use chiaroscuro_kmeans::report::RunReport;
use chiaroscuro_node::Phase;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::audit::SecurityAudit;
use crate::config::ChiaroscuroParams;
use crate::evalue::BackendVector;
use crate::iteration::{device_contribution, drive, Executor, RunContext};
use crate::noise::NoiseCorrection;
use crate::plan::RunPlan;

/// Network-level statistics of one distributed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationNetworkStats {
    /// Iteration index.
    pub iteration: usize,
    /// Average number of messages per participant spent on the epidemic
    /// sums (means, noise shares and counter unit, in one vector).
    pub sum_messages_per_node: f64,
    /// Average number of messages per participant spent on the correction
    /// dissemination.
    pub dissemination_messages_per_node: f64,
    /// Gossip exchanges (rounds) executed by the epidemic sums.
    pub sum_rounds: u32,
    /// Whether the correction dissemination reached full agreement within
    /// its round budget (under heavy churn it may not; the runner then uses
    /// the global minimum-identifier proposal, which is the value the
    /// population is converging to).
    pub dissemination_converged: bool,
    /// Contributors the reference node was short of the expected `nν` noise
    /// shares (0 when the population met or exceeded the expectation).  A
    /// persistent non-zero deficit means the aggregated Laplace noise is
    /// below its calibrated scale for this iteration.
    pub noise_share_deficit: usize,
    /// Payload units carried by one epidemic-sum gossip message (the whole
    /// contribution vector): `2·⌈k·(n+1)/L⌉ + 1` for `L` lanes per unit —
    /// the means and noise-share units plus the bias counter.
    pub sum_payload_ciphertexts: usize,
    /// Bytes of one epidemic-sum gossip payload under the run's cipher
    /// backend: `sum_payload_ciphertexts` × the backend's honest per-unit
    /// wire size — full ciphertext expansion for Damgård–Jurik, the packed
    /// *plaintext* size for the scalability surrogate, which never pays the
    /// ciphertext blow-up and must not report it.
    pub sum_payload_bytes: usize,
    /// Simulated wall-clock time consumed by this iteration's gossip phases
    /// (epidemic sums + dissemination) under the asynchronous
    /// network model, in exchange periods.  `0.0` under the round-based
    /// model, which has no clock.
    pub gossip_sim_time: f64,
    /// Peak number of gossip requests simultaneously in transit across the
    /// asynchronous phases (`0` under the round-based model).
    pub peak_messages_in_flight: usize,
    /// Byzantine faults injected/detected/absorbed during this iteration's
    /// gossip phases, per fault class.  All-zero unless
    /// [`ChiaroscuroParams::adversary`] is active.
    pub faults: FaultStats,
}

/// The outcome of a distributed Chiaroscuro run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Quality report (same shape as the centralized surrogates, so the
    /// figures can overlay both).
    pub report: RunReport,
    /// Security audit of everything that left a participant.
    pub audit: SecurityAudit,
    /// Per-iteration network statistics.
    pub network: Vec<IterationNetworkStats>,
}

impl RunOutcome {
    /// The final centroids.
    pub fn centroids(&self) -> &[TimeSeries] {
        &self.report.final_centroids
    }

    /// The first field in which `self` and `other` differ, or `None` when
    /// the two outcomes are bit-identical: every report row, every audit
    /// event and fault counter, every [`IterationNetworkStats`] field and,
    /// last because they are the end product of everything before, the
    /// final centroid values — floats by bit pattern.  `payload_delta` is
    /// the constant by which `self`'s per-message `sum_payload_bytes` is
    /// expected to exceed `other`'s (a socket run's frame overhead; `0`
    /// between in-memory runs).  The bit-parity contracts (monolith ≡
    /// actors, shard-count invariance, pool-size invariance) assert this is
    /// `None`, so a broken one names where the runs part.
    pub fn first_divergence(&self, other: &RunOutcome, payload_delta: usize) -> Option<String> {
        let (ours, theirs) = (self.projection(0), other.projection(payload_delta));
        ours.iter().zip(&theirs).find(|(a, b)| a != b).map(|(a, b)| format!("{a} != {b}"))
    }

    /// The outcome as `field = value` lines in a fixed order, floats with
    /// their bit pattern, `payload_delta` added to each `sum_payload_bytes`.
    /// Every list is preceded by its length, so two projections of unequal
    /// length already differ in a line they both have.
    fn projection(&self, payload_delta: usize) -> Vec<String> {
        let bits = |v: f64| format!("{v:?} ({:#018x})", v.to_bits());
        let mut out = Vec::new();
        macro_rules! row {
            ($($field:tt)+) => { out.push(format!($($field)+)) };
        }
        let report = &self.report;
        row!("report.iterations.len() = {}", report.iterations.len());
        for (i, x) in report.iterations.iter().enumerate() {
            row!("report.iterations[{i}].iteration = {}", x.iteration);
            row!("report.iterations[{i}].epsilon = {}", bits(x.epsilon));
            row!("report.iterations[{i}].pre_inertia = {}", bits(x.pre_inertia));
            row!("report.iterations[{i}].post_inertia = {}", bits(x.post_inertia));
            row!("report.iterations[{i}].surviving_centroids = {}", x.surviving_centroids);
            row!("report.iterations[{i}].participating_series = {}", x.participating_series);
        }
        row!("report.converged = {}", report.converged);
        row!("report.dataset_inertia = {}", bits(report.dataset_inertia));
        row!("audit.events().len() = {}", self.audit.events().len());
        for (i, event) in self.audit.events().iter().enumerate() {
            row!("audit.events()[{i}] = {event:?}");
        }
        row!("audit.fault_stats() = {:?}", self.audit.fault_stats());
        row!("network.len() = {}", self.network.len());
        for (i, stats) in self.network.iter().enumerate() {
            // Destructured in full: a new field must be projected here.
            let IterationNetworkStats {
                iteration,
                sum_messages_per_node,
                dissemination_messages_per_node,
                sum_rounds,
                dissemination_converged,
                noise_share_deficit,
                sum_payload_ciphertexts,
                sum_payload_bytes,
                gossip_sim_time,
                peak_messages_in_flight,
                faults,
            } = *stats;
            row!("network[{i}].iteration = {iteration}");
            row!("network[{i}].sum_messages_per_node = {}", bits(sum_messages_per_node));
            row!("network[{i}].dissemination_messages_per_node = {}", bits(dissemination_messages_per_node));
            row!("network[{i}].sum_rounds = {sum_rounds}");
            row!("network[{i}].dissemination_converged = {dissemination_converged}");
            row!("network[{i}].noise_share_deficit = {noise_share_deficit}");
            row!("network[{i}].sum_payload_ciphertexts = {sum_payload_ciphertexts}");
            row!("network[{i}].sum_payload_bytes = {}", sum_payload_bytes + payload_delta);
            row!("network[{i}].gossip_sim_time = {}", bits(gossip_sim_time));
            row!("network[{i}].peak_messages_in_flight = {peak_messages_in_flight}");
            row!("network[{i}].faults = {faults:?}");
        }
        row!("centroids().len() = {}", self.centroids().len());
        for (c, centroid) in self.centroids().iter().enumerate() {
            row!("centroids()[{c}].len() = {}", centroid.len());
            for (j, &v) in centroid.values().iter().enumerate() {
                row!("centroids()[{c}][{j}] = {}", bits(v));
            }
        }
        out
    }
}

/// A fully-distributed Chiaroscuro execution over a simulated population
/// (one participant per series of the dataset), generic over the cipher
/// backend `B` (the real Damgård–Jurik scheme by default).
#[derive(Debug, Clone)]
pub struct DistributedRun<'a, B: CipherBackend = DamgardJurik> {
    pub(crate) params: ChiaroscuroParams,
    pub(crate) data: &'a TimeSeriesSet,
    pub(crate) plan: RunPlan,
    pub(crate) initial_centroids: Option<Vec<TimeSeries>>,
    _backend: PhantomData<B>,
}

impl<'a> DistributedRun<'a> {
    /// Creates a run over `data` (one participant per series) under the
    /// default Damgård–Jurik backend.
    ///
    /// # Panics
    /// Panics if the population is smaller than 2, than the key-share
    /// threshold, or than the expected number of noise shares `nν` (see
    /// [`ChiaroscuroParams::validate_for_population`]), or if the run
    /// cannot execute its configuration (see [`Self::with_backend`]).
    pub fn new(params: ChiaroscuroParams, data: &'a TimeSeriesSet) -> Self {
        Self::with_backend(params, data)
    }
}

impl<'a, B: CipherBackend> DistributedRun<'a, B> {
    /// Creates a run over `data` under an explicit cipher backend, and
    /// plans its shape (the crate-private `RunPlan`) once, before any key
    /// generation.
    ///
    /// # Panics
    /// Panics under the population conditions of [`DistributedRun::new`],
    /// and with the [`ConfigError`] of any configuration the run cannot
    /// execute: a budget schedule that grants no ε, a worst-case lane sum
    /// that cannot fit the key (the epidemic doubling allowance grows with
    /// the exchange count, so a 256-bit key over 16 participants plans up
    /// to 24 exchanges and rejects 25), or a population with no honest node
    /// to seed the epidemic weights.
    ///
    /// [`ConfigError`]: crate::config::ConfigError
    pub fn with_backend(params: ChiaroscuroParams, data: &'a TimeSeriesSet) -> Self {
        assert!(data.len() >= 2, "Chiaroscuro needs at least two participants");
        assert!(
            params.key_share_threshold <= data.len(),
            "the key-share threshold cannot exceed the population"
        );
        let plan = RunPlan::new(&params, data).unwrap_or_else(|e| panic!("{e}"));
        Self { params, data, plan, initial_centroids: None, _backend: PhantomData }
    }

    /// Provides explicit initial centroids (otherwise `k` series are drawn
    /// at random from the dataset, which the paper only does for synthetic
    /// data).
    pub fn with_initial_centroids(mut self, centroids: Vec<TimeSeries>) -> Self {
        assert_eq!(centroids.len(), self.params.k, "need exactly k initial centroids");
        for c in &centroids {
            assert_eq!(c.len(), self.data.series_length());
        }
        self.initial_centroids = Some(centroids);
        self
    }

    /// Executes the run with a seed-derived RNG.
    pub fn execute(&self, seed: u64) -> RunOutcome {
        let mut rng = crate::seedmix::run_rng(seed);
        self.execute_with_rng(&mut rng)
    }

    /// Executes the run with the provided RNG: the one iteration driver
    /// (`crate::iteration`) on the in-process executor.
    pub fn execute_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> RunOutcome {
        let corrections = no_corrections();
        drive(self, &mut InProcessExecutor { means: MeansStore::default(), corrections }, rng)
    }
}

/// The epidemic-sum state of the population in the storage its unit kind
/// calls for, whichever engine runs the phase.
enum MeansStore<B: CipherBackend> {
    /// Per-node vectors of backend units: encrypted backends, whose
    /// ciphertexts only the backend itself can scale and add.
    PerNode(Vec<EesState<BackendVector<B>>>),
    /// The row-slab lane arena: plaintext backends, whose units are
    /// the lane integers themselves — every surrogate run, from the
    /// 2 000-node quality sweeps to 10M-node scale runs.
    Arena(EesUnitArena),
}

/// The simulated population, in process: per-node state lives here, and a
/// gossip phase is one `run_phase` call over whichever store holds it, on
/// the engine [`ChiaroscuroParams::network`] selects.
struct InProcessExecutor<B: CipherBackend> {
    means: MeansStore<B>,
    /// The correction proposals, from `propose` to `read_out`.
    corrections: MinIdArena,
}

impl<B: CipherBackend> Default for MeansStore<B> {
    fn default() -> Self {
        MeansStore::PerNode(Vec::new())
    }
}

impl<B: CipherBackend> Executor<B> for InProcessExecutor<B> {
    fn contribute(
        &mut self,
        ctx: &RunContext<'_, B>,
        centroids: &[TimeSeries],
        participant_seeds: &[u64],
        sum_scale: f64,
        count_scale: f64,
    ) -> Vec<usize> {
        let series_all = ctx.run.data.series();
        let device = |i: usize, series: &TimeSeries| {
            device_contribution(&ctx.kit, centroids, series, participant_seeds[i], sum_scale, count_scale)
        };
        if B::ENCRYPTED {
            let (labels, units): (Vec<usize>, Vec<_>) = ctx.pool.map(series_all, device).into_iter().unzip();
            let backend_vector = |units| BackendVector::new(ctx.kit.backend.clone(), units);
            let vectors = units.into_iter().map(backend_vector).collect();
            self.means = MeansStore::PerNode(eesum_states_seeded_at(vectors, ctx.run.plan.weight_seed));
            return labels;
        }
        let layout = ctx.kit.packer.layout();
        let limbs_per_unit = (layout.lanes as u64 * layout.lane_bits).div_ceil(64) as usize + 1;
        let RunPlan { contribution_units, weight_seed, .. } = ctx.run.plan;
        let mut arena = EesUnitArena::seeded_at(series_all.len(), contribution_units, limbs_per_unit, weight_seed);
        // Each worker writes a device's units straight into its row and
        // drops them: no boxed contribution outlives its device.
        let rows = arena.layout().clone();
        let labels = arena.fill_rows(&ctx.pool, |node, row| {
            let (assigned, units) = device(node, &series_all[node]);
            for (u, unit) in units.iter().enumerate() {
                rows.set_unit_from_digits(row, u, ctx.kit.backend.plaintext_of(unit).iter_u64_digits());
            }
            assigned
        });
        self.means = MeansStore::Arena(arena);
        labels
    }

    fn gossip<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        phase: Phase,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats {
        let (network, churn, budget) = (&ctx.run.params.network, ctx.churn, ctx.run.plan.exchanges);
        let stats;
        match phase {
            Phase::Means => {
                (self.means, stats) = match std::mem::take(&mut self.means) {
                    MeansStore::Arena(arena) => {
                        let opts = PhaseOpts { until: None, adversary };
                        let (arena, stats) = run_phase(network, arena, churn, &EesSumProtocol, budget, rng, opts);
                        (MeansStore::Arena(arena), stats)
                    }
                    MeansStore::PerNode(nodes) => {
                        let opts = PhaseOpts { until: None, adversary };
                        let (nodes, stats) = run_phase(network, nodes, churn, &EesSumProtocol, budget, rng, opts);
                        (MeansStore::PerNode(nodes), stats)
                    }
                };
            }
            Phase::Correction => {
                let arena = std::mem::replace(&mut self.corrections, no_corrections());
                let opts = PhaseOpts { until: Some(&mut MinIdArena::converged), adversary };
                (self.corrections, stats) =
                    run_phase(network, arena, churn, &DisseminationProtocol, budget, rng, opts);
            }
        }
        stats
    }

    /// Read in place, node by node: no population-sized buffer sits beside
    /// the stores.
    fn views(&mut self, ctx: &RunContext<'_, B>) -> impl Iterator<Item = f64> {
        let means = &self.means;
        (0..ctx.run.data.len()).map(move |node| match means {
            MeansStore::PerNode(nodes) => nodes[node].weight,
            MeansStore::Arena(arena) => arena.weight(node),
        })
    }

    /// The means store is released here, before the dissemination store is
    /// built, so the two never coexist.
    fn units(&mut self, ctx: &RunContext<'_, B>, reference: usize) -> Vec<B::Unit> {
        match std::mem::take(&mut self.means) {
            MeansStore::PerNode(nodes) => nodes[reference].value.units().to_vec(),
            // The arena carries the plaintext lane integers a plaintext
            // backend's units are; its own codec turns them back into units.
            MeansStore::Arena(arena) => (0..arena.units_per_node())
                .map(|u| {
                    let bytes: Vec<u8> =
                        arena.unit_limbs(reference, u).iter().rev().flat_map(|limb| limb.to_be_bytes()).collect();
                    ctx.kit.backend.unit_from_bytes(&bytes).expect("a plaintext unit is any integer")
                })
                .collect(),
        }
    }

    /// Slab dissemination on every engine: one flat `[id, payload…]` row
    /// per node instead of per-node boxed proposals.
    fn propose(&mut self, _ctx: &RunContext<'_, B>, proposals: Vec<NoiseCorrection>) {
        let width = proposals[0].payload().count();
        self.corrections = MinIdArena::build(proposals.len(), width, |node, row| {
            let c = &proposals[node];
            row.iter_mut().zip(c.payload()).for_each(|(cell, value)| *cell = value);
            c.id
        });
    }

    fn read_out(&mut self, ctx: &RunContext<'_, B>) -> Vec<f64> {
        let arena = std::mem::replace(&mut self.corrections, no_corrections());
        let winner = arena.winning_node();
        // A row is the identifier and its payload: whoever holds the winning
        // identifier must hold the winner's row, bit for bit.
        assert!(
            (0..ctx.run.data.len())
                .all(|node| arena.id(node) != arena.id(winner) || arena.row(node) == arena.row(winner)),
            "every node holding the winning identifier must carry the same payload"
        );
        arena.payload(winner)
    }
}

/// The dissemination store between iterations: no rows.
pub(crate) fn no_corrections() -> MinIdArena {
    MinIdArena::zeroed(MinIdLayout, 1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::DataClass;
    use crate::config::ChiaroscuroParams;
    use chiaroscuro_crypto::backend::PlaintextSurrogate;
    use chiaroscuro_dp::budget::BudgetStrategy;
    use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
    use chiaroscuro_timeseries::ValueRange;

    fn tiny_dataset(population: usize) -> TimeSeriesSet {
        // Two well-separated constant profiles so clustering is unambiguous.
        let series = (0..population)
            .map(|i| {
                if i % 2 == 0 {
                    TimeSeries::constant(4, 10.0)
                } else {
                    TimeSeries::constant(4, 70.0)
                }
            })
            .collect();
        TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
    }

    fn tiny_params(k: usize, iterations: usize) -> ChiaroscuroParams {
        ChiaroscuroParams::builder()
            .k(k)
            .max_iterations(iterations)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(12)
            .exchanges(12)
            .strategy(BudgetStrategy::UniformFast { max_iterations: iterations })
            .epsilon(50.0) // large ε so the tiny population is not drowned in noise
            .build()
    }

    #[test]
    fn end_to_end_distributed_run_recovers_cluster_structure() {
        let data = tiny_dataset(16);
        let params = tiny_params(2, 2);
        let outcome = DistributedRun::new(params, &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(7);
        assert_eq!(outcome.report.num_iterations(), 2);
        // With a generous ε the two centroids must stay near 10 and 70.
        let centroids = outcome.centroids();
        let mut means: Vec<f64> = centroids.iter().map(|c| c.mean()).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 10.0).abs() < 8.0, "low centroid at {}", means[0]);
        assert!((means[1] - 70.0).abs() < 8.0, "high centroid at {}", means[1]);
        // Both clusters survived.
        assert_eq!(outcome.report.iterations.last().unwrap().surviving_centroids, 2);
    }

    #[test]
    fn audit_never_contains_raw_personal_data() {
        let data = tiny_dataset(12);
        let params = tiny_params(2, 1);
        let outcome = DistributedRun::new(params, &data).execute(3);
        assert!(!outcome.audit.leaked_raw_data());
        assert!(outcome.audit.count(DataClass::Encrypted) > 0);
        assert!(outcome.audit.count(DataClass::DifferentiallyPrivate) > 0);
        assert!(outcome.audit.count(DataClass::DataIndependent) > 0);
    }

    #[test]
    fn network_stats_are_recorded_per_iteration() {
        let data = tiny_dataset(12);
        let params = tiny_params(2, 2);
        let outcome = DistributedRun::new(params, &data).execute(11);
        assert_eq!(outcome.network.len(), outcome.report.num_iterations());
        for stats in &outcome.network {
            assert!(stats.sum_messages_per_node > 0.0);
            assert!(stats.sum_rounds > 0);
            assert!(stats.sum_payload_bytes > 0, "the payload byte model must be populated");
            assert_eq!(stats.sum_payload_bytes % stats.sum_payload_ciphertexts, 0);
        }
    }

    #[test]
    fn budget_is_never_exceeded() {
        let data = tiny_dataset(12);
        let mut params = tiny_params(2, 3);
        params.epsilon = 1.0;
        let outcome = DistributedRun::new(params, &data).execute(5);
        assert!(outcome.report.total_epsilon() <= 1.0 + 1e-9);
    }

    #[test]
    fn runs_on_generated_cer_profiles() {
        let data = CerLikeGenerator::new(3).generate(20);
        let params = ChiaroscuroParams::builder()
            .k(3)
            .max_iterations(1)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(20)
            .exchanges(10)
            .epsilon(100.0)
            .build();
        let outcome = DistributedRun::new(params, &data).execute(13);
        assert_eq!(outcome.report.num_iterations(), 1);
        assert!(outcome.report.iterations[0].pre_inertia <= outcome.report.dataset_inertia);
    }

    #[test]
    fn explicit_exchange_override_below_the_clamp_band_is_used_verbatim() {
        // Regression: `.exchanges(6)` used to be silently clamped up to 8.
        let data = tiny_dataset(12);
        let mut params = tiny_params(2, 1);
        params.exchanges_override = Some(6);
        let outcome = DistributedRun::new(params, &data).execute(5);
        assert_eq!(outcome.network[0].sum_rounds, 6, "the explicit override must be honored");
    }

    #[test]
    fn round_based_runs_report_no_wall_clock() {
        // The default network model has no clock: the new latency fields
        // must stay at zero so legacy consumers see unchanged semantics.
        let data = tiny_dataset(12);
        let outcome = DistributedRun::new(tiny_params(2, 1), &data).execute(17);
        for stats in &outcome.network {
            assert_eq!(stats.gossip_sim_time, 0.0);
            assert_eq!(stats.peak_messages_in_flight, 0);
        }
    }

    #[test]
    fn async_network_run_is_deterministic_and_reports_latency() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
        // The asynchronous model must (a) complete the full pipeline under
        // latency + loss, (b) be bit-reproducible from the seed, and (c)
        // surface wall-clock latency stats the round engine cannot produce.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.network = NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 })
                    .with_loss(0.05),
            );
            params
        };
        let a = DistributedRun::new(make_params(), &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(43);
        let b = DistributedRun::new(make_params(), &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(43);
        assert_eq!(a.first_divergence(&b, 0), None, "async runs must be bit-reproducible from the seed");
        for stats in &a.network {
            assert!(stats.gossip_sim_time > 0.0, "async phases consume simulated time");
            assert!(stats.peak_messages_in_flight > 0, "requests must have been in flight");
            assert!(stats.sum_messages_per_node > 0.0);
        }
        // The clustering still recovers the two well-separated profiles.
        let mut means: Vec<f64> = a.centroids().iter().map(|c| c.mean()).collect();
        means.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((means[0] - 10.0).abs() < 8.0, "low centroid at {}", means[0]);
        assert!((means[1] - 70.0).abs() < 8.0, "high centroid at {}", means[1]);
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_exact() {
        // The determinism contract: same seed, any pool size -> identical
        // ciphertext randomness, hence identical decrypted centroids, audit
        // trail and network stats.
        let data = tiny_dataset(16);
        let serial = {
            let mut params = tiny_params(2, 2);
            params.pool_threads = 1;
            DistributedRun::new(params, &data).execute(23)
        };
        let parallel = {
            let mut params = tiny_params(2, 2);
            params.pool_threads = 4;
            DistributedRun::new(params, &data).execute(23)
        };
        assert_eq!(serial.first_divergence(&parallel, 0), None, "pool size must not change the outcome");
    }

    #[test]
    fn first_divergence_names_the_first_differing_field() {
        let data = tiny_dataset(16);
        let run = DistributedRun::new(tiny_params(2, 2), &data).execute(23);
        assert_eq!(run.first_divergence(&run, 0), None);

        // The constant per-message payload delta, and nothing else.
        let mut framed = run.clone();
        for stats in &mut framed.network {
            stats.sum_payload_bytes += 37;
        }
        assert_eq!(framed.first_divergence(&run, 37), None);
        let named = framed.first_divergence(&run, 0).expect("the payload sizes differ");
        assert!(named.starts_with("network[0].sum_payload_bytes"), "{named}");

        // Floats by bit pattern: `==` cannot tell these two rows apart.
        let mut signed = run.clone();
        signed.network[1].gossip_sim_time = -0.0;
        assert_eq!(signed.network, run.network);
        let named = signed.first_divergence(&run, 0).expect("the sign bit differs");
        assert!(named.starts_with("network[1].gossip_sim_time"), "{named}");

        // An earlier report row wins over the final centroids it produced.
        let mut moved = run.clone();
        moved.report.final_centroids[0] = TimeSeries::constant(4, 1.0);
        assert!(moved.first_divergence(&run, 0).expect("a centroid moved").starts_with("centroids()[0][0]"));
        moved.report.iterations[1].post_inertia += 1.0;
        let named = moved.first_divergence(&run, 0).expect("a report row moved");
        assert!(named.starts_with("report.iterations[1].post_inertia"), "{named}");
    }

    /// FNV-1a over `run`'s outcome projection, then over the master RNG's
    /// next `u64` after the run.  `actor_parity` compares two executors of
    /// one build; this digest also sees a draw-order change both executors
    /// would share, such as proposals drawn after they are installed.
    fn driver_digest<B: CipherBackend>(run: &DistributedRun<'_, B>, seed: u64) -> u64 {
        let mut rng = crate::seedmix::run_rng(seed);
        let outcome = run.execute_with_rng(&mut rng);
        let mut bytes: Vec<u8> = outcome.projection(0).join("\n").into_bytes();
        bytes.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
    }

    /// The driver's draw order, audit trail and arithmetic, pinned as
    /// digests: Damgård–Jurik on the round engine with churn and a surplus
    /// correction (8 expected noise shares among 16 devices), and the
    /// surrogate on the sharded, lossy event-driven network with a crash
    /// window and a byzantine quarter.
    #[test]
    fn the_driver_reproduces_its_pinned_digests() {
        use chiaroscuro_gossip::sim::{
            AdversaryModel, AsyncNetworkConfig, CrashSchedule, CrashWindow, LatencyModel, NetworkModel,
        };
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 2);
        params.churn = 0.1;
        params.num_noise_shares = 8;
        let crypto = DistributedRun::new(params, &data);
        assert!(crypto.execute(31).network.iter().all(|s| s.noise_share_deficit == 0));
        assert_eq!(driver_digest(&crypto, 31), 0x7A45_86D3_1048_C483);

        let mut params = tiny_params(2, 2);
        let crash = CrashSchedule::new(vec![CrashWindow { node: 5, crash_at: 1.0, rejoin_at: 3.5 }]);
        params.network = NetworkModel::Async(
            AsyncNetworkConfig::default()
                .with_latency(LatencyModel::LogNormal { median: 0.25, sigma: 0.5 })
                .with_loss(0.05)
                .with_sim_shards(2)
                .with_crash(crash),
        );
        params.adversary = AdversaryModel::mixed(0.25, 1);
        let surrogate = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data);
        assert_eq!(driver_digest(&surrogate, 13), 0x2EDE_740A_0178_754C);
    }

    /// Centroid bit patterns as `f64::to_bits`, cluster by cluster.
    fn centroid_bits(outcome: &RunOutcome) -> Vec<Vec<u64>> {
        outcome.centroids().iter().map(|c| c.values().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// One iteration with as many expected noise shares as devices decodes
    /// fixed bits: everything it decodes is drawn before the correction
    /// phase, and no contributor count can exceed the population, so the
    /// surplus is 0 however the count is estimated.  Damgård–Jurik on the
    /// round engine with churn, and the surrogate on the sharded, lossy
    /// event-driven network.
    #[test]
    fn one_iteration_at_full_noise_shares_decodes_its_pinned_bits() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
        const ROUNDS: [[u64; 4]; 2] = [
            [0x4021_fbf0_2db6_3fef, 0x4022_1a28_0ac0_c6c7, 0x4023_4a19_6d7c_33ed, 0x4022_e4e4_d665_4ca4],
            [0x4051_7ab0_c928_bf4e, 0x4051_6869_d8ad_0c25, 0x4051_6e95_8045_b411, 0x4051_6912_1986_354b],
        ];
        const ASYNC: [[u64; 4]; 2] = [
            [0x4024_07ba_3d8d_87a9, 0x4023_d359_688f_e724, 0x4023_d7d5_f992_4318, 0x4023_d88b_6bf4_0124],
            [0x4051_83ec_213e_9f78, 0x4051_843c_8b6d_7d9d, 0x4051_7f95_4dd2_2e46, 0x4051_8473_9510_3fa1],
        ];
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 1);
        params.churn = 0.1;
        params.num_noise_shares = 16;
        let initial = || vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)];
        let crypto = DistributedRun::new(params, &data).with_initial_centroids(initial()).execute(59);
        assert_eq!(crypto.network[0].noise_share_deficit, 0);
        assert_eq!(centroid_bits(&crypto), ROUNDS);

        let data = tiny_dataset(200);
        let mut params = tiny_params(2, 1);
        params.num_noise_shares = 200;
        params.network = NetworkModel::Async(
            AsyncNetworkConfig::default()
                .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 })
                .with_loss(0.05)
                .with_sim_shards(2),
        );
        let surrogate = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data)
            .with_initial_centroids(initial())
            .execute(61);
        assert_eq!(centroid_bits(&surrogate), ASYNC);
    }

    #[test]
    fn lane_packed_and_legacy_runs_are_bit_exact() {
        // The packing contract: packing changes how many ciphertexts carry
        // the data, never a single decoded bit.  The expected bits are this
        // seed's two-lane run; that the packed encoding decodes what the
        // per-coordinate one would is pinned bit for bit by the crypto
        // proptest `packing_matches_the_per_coordinate_encoding_bit_for_bit`.
        const PINNED: [[u64; 4]; 2] = [
            [0x4044_7fe2_24db_5237, 0x4044_a9b1_712c_445b, 0x4044_8c32_85be_b3d9, 0x4044_95d8_032d_985d],
            [0x41ac_9c38_0000_0000; 4],
        ];
        let data = tiny_dataset(16);
        // 8 exchanges keep the epidemic doubling allowance small enough for
        // the 256-bit test key to fit two lanes per plaintext.
        let mut params = tiny_params(2, 2);
        params.exchanges_override = Some(8);
        let packed = DistributedRun::new(params, &data).execute(29);
        assert_eq!(centroid_bits(&packed), PINNED, "lane packing must not change any decoded value");
        assert_eq!(packed.network[0].sum_payload_ciphertexts, 2 * 5 + 1, "two lanes: 2·⌈k·(n+1)/2⌉ + 1");
    }

    #[test]
    fn lane_packing_composes_with_the_thread_pool() {
        // packing + pool_threads together must still be bit-identical to
        // the serial packed run (the per-participant RNG stream discipline
        // covers both knobs at once).
        let data = tiny_dataset(16);
        let run = |pool_threads: usize| {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.pool_threads = pool_threads;
            DistributedRun::new(params, &data).execute(31)
        };
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial.first_divergence(&pooled, 0), None);
    }

    #[test]
    fn lane_packing_survives_churn_deterministically() {
        // Churn only removes exchanges from gossip rounds (the doubling
        // budget's worst case is churn-free), but the packed decode path
        // must still hold under it: the run completes, stays deterministic,
        // and keeps its payload advantage.
        let data = tiny_dataset(16);
        let run = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.churn = 0.3;
            DistributedRun::new(params, &data).execute(37)
        };
        let a = run();
        let b = run();
        assert_eq!(a.first_divergence(&b, 0), None, "packed churny runs must stay deterministic");
        assert!(a.network[0].sum_payload_ciphertexts < 2 * 2 * (4 + 1));
    }

    #[test]
    fn surrogate_backend_decodes_the_same_centroids_as_the_crypto_backend() {
        // The tentpole contract: the plaintext surrogate replays the crypto
        // run's RNG draws and carries the exact plaintext sums, so from the
        // same seed the decoded centroids are bit-identical and every
        // message/exchange statistic matches; only the payload *bytes*
        // differ (the surrogate reports the honest plaintext size).
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params
        };
        let crypto = DistributedRun::new(make_params(), &data).execute(47);
        let surrogate =
            DistributedRun::<PlaintextSurrogate>::with_backend(make_params(), &data).execute(47);
        let crypto_values: Vec<Vec<f64>> =
            crypto.centroids().iter().map(|c| c.values().to_vec()).collect();
        let surrogate_values: Vec<Vec<f64>> =
            surrogate.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(crypto_values, surrogate_values, "backends must decode identical centroids");
        assert_eq!(crypto.report.num_iterations(), surrogate.report.num_iterations());
        assert_eq!(crypto.audit.events().len(), surrogate.audit.events().len());
        for (c, s) in crypto.network.iter().zip(surrogate.network.iter()) {
            assert_eq!(c.sum_messages_per_node, s.sum_messages_per_node);
            assert_eq!(c.sum_rounds, s.sum_rounds);
            assert_eq!(c.sum_payload_ciphertexts, s.sum_payload_ciphertexts);
            assert!(
                s.sum_payload_bytes < c.sum_payload_bytes,
                "the surrogate must report the smaller, honest plaintext payload \
                 ({} vs {} bytes)",
                s.sum_payload_bytes,
                c.sum_payload_bytes
            );
        }
    }

    #[test]
    fn surrogate_arena_path_matches_the_crypto_backend_under_async_delivery() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
        // Under the async model the surrogate's EESum runs on the
        // row-slab lane arena; the crypto run uses per-node
        // ciphertext vectors.  Identical RNG streams + exact limb
        // arithmetic => bit-identical centroids and network accounting.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.network = NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 }),
            );
            params
        };
        let crypto = DistributedRun::new(make_params(), &data).execute(53);
        let surrogate =
            DistributedRun::<PlaintextSurrogate>::with_backend(make_params(), &data).execute(53);
        let crypto_values: Vec<Vec<f64>> =
            crypto.centroids().iter().map(|c| c.values().to_vec()).collect();
        let surrogate_values: Vec<Vec<f64>> =
            surrogate.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(crypto_values, surrogate_values, "the arena path must not change a bit");
        for (c, s) in crypto.network.iter().zip(surrogate.network.iter()) {
            assert_eq!(c.sum_messages_per_node, s.sum_messages_per_node);
            assert_eq!(c.gossip_sim_time, s.gossip_sim_time);
            assert_eq!(c.peak_messages_in_flight, s.peak_messages_in_flight);
        }
    }

    #[test]
    fn arena_rounds_stay_in_lockstep_with_per_node_surrogate_vectors() {
        use chiaroscuro_gossip::churn::ChurnModel;
        use chiaroscuro_gossip::eesum::initial_states;
        use chiaroscuro_gossip::engine::GossipEngine;
        use chiaroscuro_gossip::sim::AdversaryModel;
        use rand::SeedableRng;
        // What moving plaintext round-based runs onto the slab rests on: at
        // the lane layout of a 2 000-device, k = 4, n = 8, 14-exchange run
        // (17 units of 14 value limbs plus the head-room limb), churny
        // adversarial rounds leave the arena and the boxed surrogate vectors
        // it replaced bit-identical.
        let series = (0..2_000).map(|i| TimeSeries::constant(8, f64::from(i % 4) * 20.0 + 10.0)).collect();
        let data = TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0));
        let params = ChiaroscuroParams::builder()
            .k(4)
            .max_iterations(2)
            .key_bits(1024)
            .key_share_threshold(4)
            .num_noise_shares(2_000)
            .exchanges(14)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
            .epsilon(40.0)
            .build();
        let RunPlan { packer, contribution_units: units, .. } =
            DistributedRun::<PlaintextSurrogate>::with_backend(params, &data).plan;
        let value_bits = packer.layout().lanes as u64 * packer.layout().lane_bits;
        let limbs_per_unit = value_bits.div_ceil(64) as usize + 1;
        assert_eq!((units, limbs_per_unit), (17, 15));

        let population = 96;
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let backend = std::sync::Arc::new(
            PlaintextSurrogate::import_public(&value_bits.to_be_bytes()).expect("eight bytes"),
        );
        let mut arena = EesUnitArena::new(population, units, limbs_per_unit);
        let vectors = (0..population)
            .map(|node| {
                let mut coordinates = || (0..36).map(|_| rng.gen_range(0.0..80.0)).collect::<Vec<f64>>();
                let mut contribution = packer.pack(&coordinates());
                contribution.extend(packer.pack(&coordinates()));
                contribution.push(packer.counter_plaintext());
                for (u, unit) in contribution.iter().enumerate() {
                    arena.set_unit_from_digits(node, u, unit.iter_u64_digits());
                }
                BackendVector::new(backend.clone(), contribution)
            })
            .collect();

        let churn = ChurnModel::new(0.25);
        let faults = || AdversaryState::new(AdversaryModel::mixed(0.10, 5), 67);
        let (mut arena_faults, mut boxed_faults) = (faults(), faults());
        let mut arena_engine = GossipEngine::new(arena, churn);
        let mut boxed_engine = GossipEngine::new(initial_states(vectors), churn);
        let mut boxed_rng = rng.clone();
        arena_engine.run_until(&EesSumProtocol, 14, &mut rng, |_| false, Some(&mut arena_faults));
        boxed_engine.run_until(&EesSumProtocol, 14, &mut boxed_rng, |_| false, Some(&mut boxed_faults));

        assert_eq!(arena_engine.metrics(), boxed_engine.metrics());
        assert_eq!(arena_faults.stats(), boxed_faults.stats());
        assert!(arena_faults.stats().injected_total() > 0, "the adversary must have voided exchanges");
        let arena = arena_engine.nodes();
        for (node, state) in boxed_engine.nodes().iter().enumerate() {
            assert_eq!(arena.weight(node).to_bits(), state.weight.to_bits(), "weight of node {node}");
            assert_eq!(arena.exchange_counter(node), state.exchanges, "counter of node {node}");
            for (u, unit) in state.value.units().iter().enumerate() {
                let mut limbs: Vec<u64> = unit.iter_u64_digits().collect();
                limbs.resize(limbs_per_unit, 0);
                assert_eq!(arena.unit_limbs(node, u), limbs, "unit {u} of node {node}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot pack")]
    fn overflowing_lane_configuration_is_rejected_at_validation() {
        // A 64-bit key cannot absorb the worst-case lane accumulation: the
        // run must refuse at construction (before any key generation or
        // encryption), not corrupt lanes silently mid-run.
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 1);
        params.key_bits = 64;
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    fn single_lane_configuration_runs_and_decodes() {
        // 12 exchanges at a 256-bit key leave room for exactly one lane: one
        // coordinate per unit plus the counter.  The run decodes this seed's
        // pinned centroids.
        const PINNED: [[u64; 4]; 2] = [
            [0x4022_87be_fe08_68d0, 0x4023_9dc7_271a_7e59, 0x4023_5784_9f93_58db, 0x4024_5b95_8f36_80b8],
            [0x4051_421a_6661_2837, 0x4051_3cb4_6eb1_8de5, 0x4051_6e92_d088_e243, 0x4051_3fa5_ab8b_6889],
        ];
        let data = tiny_dataset(16);
        let run = DistributedRun::new(tiny_params(2, 2), &data) // .exchanges(12)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)]);
        assert_eq!(run.plan.packer.lanes(), 1);
        let outcome = run.execute(7);
        assert_eq!(centroid_bits(&outcome), PINNED);
        assert_eq!(outcome.network[0].sum_payload_ciphertexts, 2 * 2 * (4 + 1) + 1);
    }

    #[test]
    #[should_panic(expected = "a 256-bit key cannot pack 25 gossip exchanges")]
    fn a_256_bit_key_plans_24_exchanges_and_rejects_25() {
        // The doubling allowance is 8·exchanges + 32 bits: 24 exchanges
        // still leave one lane in the 254 packable bits, 25 leave none, and
        // the run refuses before any key generation.
        let data = tiny_dataset(16);
        let with_exchanges = |exchanges| {
            let mut params = tiny_params(2, 1);
            params.exchanges_override = Some(exchanges);
            params
        };
        assert_eq!(DistributedRun::new(with_exchanges(24), &data).plan.packer.lanes(), 1);
        let _ = DistributedRun::new(with_exchanges(25), &data);
    }

    #[test]
    fn heavy_churn_run_reports_dissemination_and_deficit_state() {
        // Under 50% churn with few exchanges the correction dissemination
        // can fail to converge and the contributor count can undershoot nν;
        // both conditions must be surfaced, and the run must still complete
        // deterministically (using the global min-id proposal).
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.num_noise_shares = 16;
            params.churn = 0.5;
            params.exchanges_override = Some(5);
            params
        };
        let a = DistributedRun::new(make_params(), &data).execute(41);
        let b = DistributedRun::new(make_params(), &data).execute(41);
        assert_eq!(a.report.num_iterations(), b.report.num_iterations());
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "non-converged runs must still be deterministic");
        assert!(
            a.network.iter().any(|s| !s.dissemination_converged),
            "5 exchanges at 50% churn should leave at least one iteration unconverged"
        );
        assert!(
            a.network.iter().any(|s| s.noise_share_deficit > 0),
            "the contributor count should undershoot nν = population at this churn level"
        );
    }

    #[test]
    fn adversarial_run_counts_faults_and_stays_deterministic() {
        use chiaroscuro_gossip::sim::AdversaryModel;
        // A 25% byzantine population degrades mixing but must leave the run
        // a pure function of the seed, with every injected fault accounted
        // as either detected or absorbed, per iteration and in the audit.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.adversary = AdversaryModel::mixed(0.25, 7);
            params
        };
        let a = DistributedRun::new(make_params(), &data).execute(19);
        let b = DistributedRun::new(make_params(), &data).execute(19);
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "adversarial runs must stay seed-deterministic");
        assert_eq!(a.network, b.network);
        let total = a.audit.fault_stats();
        assert!(total.injected_total() > 0, "a quarter of 16 nodes must inject faults");
        assert_eq!(
            total.injected_total(),
            total.detected_total() + total.absorbed_total(),
            "every injected fault is either detected or absorbed"
        );
        let mut merged = FaultStats::ZERO;
        for stats in &a.network {
            merged.merge(&stats.faults);
        }
        assert_eq!(merged, total, "per-iteration counters must sum to the audit total");
        assert!(!a.audit.leaked_raw_data(), "R2 holds under byzantine pressure");
    }

    #[test]
    fn inactive_adversary_model_is_bit_identical_to_the_honest_run() {
        use chiaroscuro_gossip::sim::AdversaryModel;
        // Fraction 0 + eclipse 0 is inactive whatever the class mix: no
        // extra RNG draw, no code-path change, bit-for-bit the honest run.
        let data = tiny_dataset(16);
        let honest = DistributedRun::new(tiny_params(2, 2), &data).execute(19);
        let mut params = tiny_params(2, 2);
        params.adversary = AdversaryModel {
            fraction: 0.0,
            malformed: 0.9,
            replay: 0.05,
            duplicate: 0.02,
            drop_reply: 0.02,
            eclipse: 0.0,
            salt: 3,
        };
        let zeroed = DistributedRun::new(params, &data).execute(19);
        let honest_bits: Vec<Vec<u64>> = honest
            .centroids()
            .iter()
            .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
            .collect();
        let zeroed_bits: Vec<Vec<u64>> = zeroed
            .centroids()
            .iter()
            .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(honest_bits, zeroed_bits, "an inactive model must not move a single bit");
        assert_eq!(honest.network, zeroed.network);
        assert_eq!(honest.audit.events(), zeroed.audit.events());
        assert_eq!(zeroed.audit.fault_stats(), FaultStats::ZERO);
    }

    /// At salt 27 every node of a four-device, half-byzantine population is
    /// byzantine, so no node can seed the epidemic weights.
    fn all_byzantine_params() -> ChiaroscuroParams {
        use chiaroscuro_gossip::sim::AdversaryModel;
        let mut params = tiny_params(2, 1);
        params.num_noise_shares = 4;
        params.adversary = AdversaryModel::mixed(0.5, 27);
        assert!((0..4).all(|node| params.adversary.is_byzantine(node)));
        params
    }

    #[test]
    fn a_population_with_no_honest_node_is_a_config_error() {
        let error = RunPlan::new(&all_byzantine_params(), &tiny_dataset(4)).unwrap_err();
        assert_eq!(error, crate::config::ConfigError::NoHonestNode);
    }

    #[test]
    #[should_panic(expected = "the epidemic weights need an honest node to seed them")]
    fn a_population_with_no_honest_node_is_rejected_at_construction() {
        // Construction generates no key: the run refuses before any.
        let _ = DistributedRun::new(all_byzantine_params(), &tiny_dataset(4));
    }

    #[test]
    #[should_panic(expected = "num_noise_shares")]
    fn population_below_noise_share_expectation_rejected() {
        // Fewer devices than expected noise contributors is a standing
        // noise deficit; the run must refuse to start.
        let data = tiny_dataset(8);
        let params = tiny_params(2, 1); // expects nν = 12 > 8 participants
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    #[should_panic(expected = "at least two participants")]
    fn single_participant_rejected() {
        let series = vec![TimeSeries::constant(4, 1.0)];
        let data = TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0));
        let params = tiny_params(1, 1);
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed")]
    fn threshold_larger_than_population_rejected() {
        let data = tiny_dataset(4);
        let params = ChiaroscuroParams::builder().k(2).key_share_threshold(10).build();
        let _ = DistributedRun::new(params, &data);
    }

    /// The arena fill as it was before contributions were written in
    /// place: devices in pool batches of 512 as boxed unit vectors, then a
    /// serial copy of each unit's digits into the arena.  The reference the
    /// in-place fill must reproduce bit for bit.
    fn batched_fill<B: CipherBackend>(
        ctx: &RunContext<'_, B>,
        centroids: &[TimeSeries],
        seeds: &[u64],
        scales: (f64, f64),
    ) -> (Vec<usize>, EesUnitArena) {
        const BATCH: usize = 512;
        let series_all = ctx.run.data.series();
        let population = series_all.len();
        let layout = ctx.kit.packer.layout();
        let limbs_per_unit = (layout.lanes as u64 * layout.lane_bits).div_ceil(64) as usize + 1;
        let RunPlan { contribution_units, weight_seed, .. } = ctx.run.plan;
        let mut arena = EesUnitArena::seeded_at(population, contribution_units, limbs_per_unit, weight_seed);
        let mut labels = Vec::with_capacity(population);
        for start in (0..population).step_by(BATCH) {
            let end = (start + BATCH).min(population);
            let batch = ctx.pool.map(&series_all[start..end], |offset, series| {
                device_contribution(&ctx.kit, centroids, series, seeds[start + offset], scales.0, scales.1)
            });
            for (offset, (assigned, units)) in batch.into_iter().enumerate() {
                labels.push(assigned);
                for (u, unit) in units.iter().enumerate() {
                    let digits = ctx.kit.backend.plaintext_of(unit).iter_u64_digits();
                    arena.set_unit_from_digits(start + offset, u, digits);
                }
            }
        }
        (labels, arena)
    }

    #[test]
    fn contributions_written_in_place_fill_the_arena_as_the_batched_copy_did() {
        use crate::iteration::DeviceKit;
        use chiaroscuro_crypto::backend::BackendSetup;
        use chiaroscuro_gossip::churn::ChurnModel;
        use rand::SeedableRng;
        use std::sync::Arc;
        // 1 100 nodes: four full 256-row fill blocks and a ragged fifth, and
        // two full 512-device batches and a ragged third.
        let data = CerLikeGenerator::new(3).generate(1_100);
        let params = ChiaroscuroParams::builder().k(3).num_noise_shares(1_100).epsilon(2.0).build();
        let run = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data);
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let setup = BackendSetup {
            key_bits: run.params.key_bits,
            damgard_jurik_s: run.params.damgard_jurik_s,
            population: data.len(),
            key_share_threshold: run.params.key_share_threshold,
            packed_layout: Some(run.plan.packer.layout()),
        };
        let backend = Arc::new(PlaintextSurrogate::setup(&setup, &mut rng));
        let seeds: Vec<u64> = (0..data.len()).map(|_| rng.gen()).collect();
        let centroids = data.series()[..3].to_vec();
        for (threads, weight_seed) in [(1, 0), (2, 0), (3, 0), (1, 417), (2, 1_099), (3, 256)] {
            let mut run = run.clone();
            run.plan.weight_seed = weight_seed;
            let ctx = RunContext {
                run: &run,
                kit: DeviceKit { backend: backend.clone(), plan: run.plan.device, packer: run.plan.packer.clone() },
                pool: rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap(),
                churn: ChurnModel::NONE,
            };
            let (expected_labels, expected) = batched_fill(&ctx, &centroids, &seeds, (3.5, 0.75));
            let (means, corrections) = (MeansStore::default(), no_corrections());
            let mut exec = InProcessExecutor::<PlaintextSurrogate> { means, corrections };
            let labels = exec.contribute(&ctx, &centroids, &seeds, 3.5, 0.75);
            let MeansStore::Arena(arena) = exec.means else { panic!("a plaintext backend fills the arena") };
            assert_eq!(labels, expected_labels, "{threads} threads, weight seed {weight_seed}");
            assert!(arena == expected, "{threads} threads, weight seed {weight_seed}: the cells differ");
        }
    }
}
