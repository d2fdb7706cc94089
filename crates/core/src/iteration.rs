//! The distributed half of Algorithms 1 and 3 and the seam its two
//! executors implement.
//!
//! Algorithm 1's loop — ε schedule, exact means and PRE inertia, perturbed
//! means with the aberrant sentinel and smoothing, POST inertia, report,
//! convergence test — is `chiaroscuro_kmeans`'s
//! [`PerturbedKMeans::run_with_step`](chiaroscuro_kmeans::perturbed::PerturbedKMeans::run_with_step),
//! the same code the centralized quality surrogate runs.  [`drive`] is the
//! bootstrap plus that loop over this module's `DistributedStep`, which
//! produces one iteration's perturbed sums and counts: assign → epidemic
//! sums → contributor count → surplus-correction dissemination → threshold
//! decryption.  The step owns every master-RNG draw that is not a gossip
//! schedule, every audit record, the reference-node choice and the surplus
//! arithmetic, the decryption and the network statistics; the draw order is
//! tabulated once, in `docs/ARCHITECTURE.md` ("Master-RNG draw order").
//! What differs between deployment shapes — where per-node state lives —
//! sits behind [`Executor`]: the in-process executor of [`crate::runner`]
//! (per-node `Vec`s or the arenas) and the link executor of
//! [`crate::cluster`] (node actors behind transport links).  The seam has
//! one method per kind of work, not one per phase: `gossip(Phase)` runs the
//! means or the correction phase, `views` reads every node's epidemic
//! weight, `units` hands back the reference node's perturbed vector and
//! `propose` installs the correction proposals.  The winning correction is
//! the driver's own: min-id dissemination only ever copies a smaller
//! identifier over a larger one, so whatever the schedule it settles on the
//! smallest identifier drawn (ties to the lower node,
//! [`winning_index`]), and the step takes that proposal's payload before
//! handing the proposals over.  The correction phase is still gossiped, for
//! its message count, its stop rule and its convergence flag.  *How* one
//! gossip phase is carried out is not the executors' to decide: each names
//! its node store and hands it to the gossip crate's engines, so both run
//! the one engine loop — schedule draws, fault schedule and accounting
//! included — and are bit-identical from one seed.
//!
//! [`device_contribution`] is likewise the only copy of what one device
//! computes per iteration; the in-process executor maps it over the
//! population and each node actor calls it for itself.
//!
//! A contribution carries the protocol's two halves — the encrypted means
//! and the encrypted noise shares, in the same lane layout — and the counter
//! unit.  The driver uses the halves exactly once, added together before
//! threshold decryption, and EESum's scale and add are linear, so the
//! pairwise sum of two accumulated halves equals the accumulated pairwise
//! sum.  [`fold_contribution`] is that one fold rule: the simulator applies
//! it where a contribution enters its own state (the in-process executor, as
//! soon as a device returns one, so each simulated node holds
//! `⌈k·(n+1)/L⌉ + 1` units instead of `2·⌈k·(n+1)/L⌉ + 1`) or where it reads
//! the reference's state back (the link executor, whose node actors carry
//! both halves).  [`Executor::units`] therefore hands the driver the
//! reference's perturbed vector, then the counter.  The wire, the node
//! actors and the message accounting keep the protocol's two halves: every
//! device still encrypts both, every message is charged
//! `2·⌈k·(n+1)/L⌉ + 1` units.  The fold is a saving of the simulator's
//! memory and arithmetic, not of a participant's.
//!
//! Neither the driver nor an executor derives the run's shape: the gossip
//! budget, the contribution size, the weight seed and the lane layout are
//! the run's plan (`crate::plan`), fixed when the run was constructed.  The
//! bootstrap only adds what needs the master RNG or the key: the backend,
//! the initial centroids and the adversary seed.

use std::borrow::Cow;
use std::sync::Arc;

use num_bigint::BigUint;
use rand::Rng;

use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend};
use chiaroscuro_crypto::packing::PackedEncoder;
use chiaroscuro_dp::laplace::LaplaceMechanism;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::dissemination::winning_index;
use chiaroscuro_gossip::sim::{AdversaryState, FaultStats, PhaseStats};
use chiaroscuro_kmeans::perturbed::{AggregateStep, Aggregates};
use chiaroscuro_node::Phase;
use chiaroscuro_timeseries::inertia::Assignment;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::audit::{DataClass, SecurityAudit};
use crate::diptych::PackedMeans;
use crate::noise::{NoiseCorrection, NoiseShareVector};
use crate::plan::{DevicePlan, RunPlan};
use crate::runner::{DistributedRun, IterationNetworkStats, RunOutcome};

/// What a device holds, beyond its own series, to build its contribution:
/// the cipher backend (public material suffices), the device half of the
/// run's plan and the lane layout planned from it.  A node actor builds its
/// kit from the [`DevicePlan`] its `Hello` carries; the driver builds the
/// coordinator's from the run's plan, whose layout is already planned.
#[derive(Debug)]
pub(crate) struct DeviceKit<B: CipherBackend> {
    pub(crate) backend: Arc<B>,
    pub(crate) plan: DevicePlan,
    pub(crate) packer: PackedEncoder,
}

/// One device's assignment step: the label of its closest centroid and its
/// flat contribution vector — `⌈k·(n+1)/L⌉` means units, as many
/// noise-share units (same lane layout, so [`fold_contribution`] can add
/// them pairwise), and one shared counter unit for the accumulated bias.
///
/// The device stream comes off `participant_seed` and is split into a noise
/// sub-stream and an encryption sub-stream (`crate::seedmix::device_streams`).
pub(crate) fn device_contribution<B: CipherBackend>(
    kit: &DeviceKit<B>,
    centroids: &[TimeSeries],
    series: &TimeSeries,
    participant_seed: u64,
    sum_scale: f64,
    count_scale: f64,
) -> (usize, Vec<B::Unit>) {
    let (k, n) = (centroids.len(), series.len());
    let DeviceKit { backend, plan, packer } = kit;
    let mut streams = crate::seedmix::device_streams(participant_seed);
    let noise = NoiseShareVector::generate(k, n, sum_scale, count_scale, plan.num_noise_shares, &mut streams.noise);
    let mut device_rng = streams.encryption;
    let (means, assigned) =
        PackedMeans::initialise(centroids, series, backend.as_ref(), packer, &mut device_rng);
    let mut flat = means.units;
    let noise_then_counter = packer.pack(&noise.flatten()).into_iter().chain([packer.counter_plaintext()]);
    flat.extend(noise_then_counter.map(|m| backend.encrypt(&m, &mut device_rng)));
    (assigned, flat)
}

/// Folds a [`device_contribution`] (or an EESum state accumulated from
/// them): noise unit `i` is added into means unit `i` with
/// [`CipherBackend::add_assign`] and the noise half is dropped, leaving the
/// perturbed vector's `means_units` units, then the counter.  Summing before
/// or after any exchange schedule gives the same units, since EESum only
/// scales and adds.
pub(crate) fn fold_contribution<B: CipherBackend>(backend: &B, mut units: Vec<B::Unit>, means_units: usize) -> Vec<B::Unit> {
    assert_eq!(units.len(), 2 * means_units + 1, "a contribution is two halves and a counter");
    let (means, noise) = units.split_at_mut(means_units);
    backend.add_assign(means, &noise[..means_units]);
    units.drain(means_units..2 * means_units);
    units
}

/// What the bootstrap adds to the run for its whole duration, handed to
/// each executor call.  The run's shape — gossip budget, contribution size,
/// weight seed, lane layout — is not here: it is the run's plan
/// (`ctx.run.plan`), derived once when the run was constructed.
pub(crate) struct RunContext<'a, B: CipherBackend> {
    /// The run's parameters, dataset and plan.
    pub(crate) run: &'a DistributedRun<'a, B>,
    /// The dealer-side backend (it holds the key shares) and the device
    /// half of the plan.
    pub(crate) kit: DeviceKit<B>,
    pub(crate) pool: rayon::ThreadPool,
    pub(crate) churn: ChurnModel,
}

/// Where per-node state lives and how a gossip phase is carried out: one
/// method per kind of work, the phase a parameter.  Per iteration the
/// driver calls [`Self::contribute`], [`Self::gossip`] for
/// [`Phase::Means`], [`Self::views`], [`Self::units`], [`Self::propose`]
/// and [`Self::gossip`] for [`Phase::Correction`], in that order
/// ([`Self::provision`] once per run, first).  Every `rng` is
/// the run's master RNG, to be consumed exactly as the round or
/// event-driven engine would consume it for that phase's schedule.
pub(crate) trait Executor<B: CipherBackend> {
    /// Hands the nodes whatever they need before the first iteration.
    fn provision(&mut self, _ctx: &RunContext<'_, B>) {}

    /// Has every device build its contribution from its seed
    /// ([`device_contribution`]) and returns the labels they assigned
    /// themselves.
    fn contribute(
        &mut self,
        ctx: &RunContext<'_, B>,
        centroids: &[TimeSeries],
        participant_seeds: &[u64],
        sum_scale: f64,
        count_scale: f64,
    ) -> Vec<usize>;

    /// Runs one gossip phase: EESum over the contributions, or the
    /// min-identifier dissemination of the installed proposals, which stops
    /// on agreement or at the budget and spends them.
    fn gossip<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        phase: Phase,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats;

    /// Each node's epidemic weight after the means phase, in node order.
    fn views(&mut self, ctx: &RunContext<'_, B>) -> impl Iterator<Item = f64>;

    /// The reference's perturbed vector, then the counter: the
    /// `means_units + 1` units of the contribution state `reference` holds
    /// after the means phase, folded by [`fold_contribution`] (wherever the
    /// executor folds it).  The iteration's means state is spent afterwards.
    fn units(&mut self, ctx: &RunContext<'_, B>, reference: usize) -> Vec<B::Unit>;

    /// Installs one correction proposal per node, in node order.
    fn propose(&mut self, ctx: &RunContext<'_, B>, proposals: Vec<NoiseCorrection>);
}

/// Executes `run` on `exec`: bootstrap (backend key material, initial
/// centroids by the run's [`InitialCentroids`], adversary seed — in that
/// master-RNG order), then the one Algorithm-1 loop of `chiaroscuro_kmeans`
/// over the [`DistributedStep`].
///
/// [`InitialCentroids`]: chiaroscuro_kmeans::init::InitialCentroids
pub(crate) fn drive<B, X, R>(run: &DistributedRun<'_, B>, exec: &mut X, rng: &mut R) -> RunOutcome
where
    B: CipherBackend,
    X: Executor<B>,
    R: Rng + ?Sized,
{
    let params = &run.params;
    let data = run.data;
    let packer = &run.plan.packer;

    let setup = BackendSetup {
        key_bits: params.key_bits,
        damgard_jurik_s: params.damgard_jurik_s,
        population: data.len(),
        key_share_threshold: params.key_share_threshold,
        packed_layout: Some(packer.layout()),
    };
    let backend = Arc::new(B::setup(&setup, rng));
    // Pay for derived lookup state (Montgomery contexts) up front,
    // outside the per-iteration accounting.
    backend.precompute();
    if let Some(capacity) = backend.plaintext_capacity_bits() {
        // The layout was planned from the pre-keygen capacity bound;
        // re-check it against the modulus actually generated so a packed
        // plaintext can never reach n^s (belt and braces — the conservative
        // bound already covers every possible key).
        let layout = packer.layout();
        assert!(
            layout.lanes as u64 * layout.lane_bits <= capacity,
            "planned lane layout exceeds the generated key's plaintext capacity"
        );
    }
    let centroids = run.initial_centroids.materialize(data, rng);
    // Byzantine adversary: the fault schedule runs on a dedicated
    // seed-derived RNG sub-stream.  An inactive model draws NOTHING here and
    // is never materialised, so honest runs stay bit-identical to every
    // historical baseline seed.
    let adversary =
        params.adversary.is_active().then(|| AdversaryState::new(params.adversary, rng.gen()));

    let ctx = RunContext {
        run,
        kit: DeviceKit { backend, plan: run.plan.device, packer: packer.clone() },
        pool: rayon::ThreadPoolBuilder::new()
            .num_threads(params.pool_threads)
            .build()
            .expect("the offline pool cannot fail to build"),
        churn: ChurnModel::new(params.churn),
    };
    exec.provision(&ctx);

    let mut step = DistributedStep {
        ctx: &ctx,
        exec,
        rng,
        adversary,
        audit: SecurityAudit::new(),
        network: Vec::new(),
    };
    let report = params.perturbed_kmeans(0.0).run_with_step(data, centroids, &mut step);
    RunOutcome { report, audit: step.audit, network: step.network }
}

/// The distributed [`AggregateStep`]: one iteration's perturbed sums and
/// counts out of the population — participant seeds → contributions →
/// epidemic sums → reference readout → contributor count from the counter
/// unit → winning correction → surplus-correction dissemination →
/// threshold decryption → correction subtracted.  It owns every
/// per-iteration master-RNG draw (the numbered table in
/// `docs/ARCHITECTURE.md`), every audit record and every
/// [`IterationNetworkStats`] row.
struct DistributedStep<'a, B: CipherBackend, X, R: ?Sized> {
    ctx: &'a RunContext<'a, B>,
    exec: &'a mut X,
    rng: &'a mut R,
    adversary: Option<AdversaryState>,
    audit: SecurityAudit,
    network: Vec<IterationNetworkStats>,
}

impl<B, X, R> AggregateStep for DistributedStep<'_, B, X, R>
where
    B: CipherBackend,
    X: Executor<B>,
    R: Rng + ?Sized,
{
    fn aggregate<'d>(
        &mut self,
        data: &'d TimeSeriesSet,
        iteration: usize,
        mechanism: &LaplaceMechanism,
        centroids: &[TimeSeries],
    ) -> Aggregates<'d> {
        let Self { ctx, exec, rng, adversary, audit, network } = self;
        let ctx = *ctx;
        let params = &ctx.run.params;
        let RunPlan { device, ref packer, means_units: blocks, contribution_units, .. } = ctx.run.plan;
        let backend = &ctx.kit.backend;
        let population = data.len();
        let (k, n) = (device.k, device.series_length);
        let sum_scale = mechanism.sum_scale();
        let count_scale = mechanism.count_scale();

        // --- Assignment step: local, per participant. ---
        // Each device's seed comes off the master RNG before dispatch, so
        // its ciphertext randomness is identical wherever and on however
        // many threads it runs.
        let participant_seeds: Vec<u64> = (0..population).map(|_| rng.gen()).collect();
        let labels = exec.contribute(ctx, centroids, &participant_seeds, sum_scale, count_scale);

        // --- Computation step (a): epidemic encrypted sums. ---
        let sum_stats = exec.gossip(ctx, Phase::Means, rng, adversary.as_mut());
        audit.record_n(iteration, "encrypted means contribution", DataClass::Encrypted, population);
        audit.record_n(iteration, "encrypted noise shares", DataClass::Encrypted, population);
        audit.record_n(
            iteration,
            "epidemic weight and exchange counter",
            DataClass::DataIndependent,
            population,
        );

        // Reference participant: the single node that reads out the
        // aggregates.  Its counter unit and its perturbed sums travelled in
        // one vector, so the contributor count and the sums it sizes the
        // correction for are one node's view.  Byzantine nodes are never
        // trusted as the reference: `is_byzantine` is a pure hash (no RNG),
        // and with an inactive adversary it is false for every node, so
        // honest runs pick the same reference as ever.
        let (reference, weight) = exec.views(ctx).enumerate()
            .find(|&(i, weight)| !params.adversary.is_byzantine(i) && weight > 0.0)
            .expect("after the epidemic sums at least one honest node holds the weight");
        let cts = exec.units(ctx, reference);

        // --- Computation step (b): noise surplus correction. ---
        // Every contribution carries a counter unit encrypting 1, so the
        // reference's decrypted counter is the coefficient mass C of the
        // contributions it accumulated, and C / weight its estimate of the
        // contributor count.  More contributors than the expected nν means
        // surplus noise to subtract; fewer means a deficit — there is
        // nothing to subtract, and the shortfall is surfaced in the
        // iteration's stats rather than silently mapped to zero.  No run can
        // have more contributors than devices, so the estimate is clamped
        // to the population rather than over-correcting by a physically
        // impossible surplus.
        let counter = backend.threshold_decrypt(&cts[blocks]);
        let mass = counter.to_u64_digits().iter().rev().fold(0.0, |acc, &d| acc * 2f64.powi(64) + d as f64);
        let contributors = ((mass / weight).round() as i64).min(population as i64);
        let expected_shares = params.num_noise_shares as i64;
        let surplus = (contributors - expected_shares).max(0) as usize;
        let noise_share_deficit = (expected_shares - contributors).max(0) as usize;
        // Proposals are always generated in node order from the run RNG,
        // whatever storage the dissemination runs on, so the draw sequence
        // (and hence the whole run) is executor-independent.  The flat row
        // (all sum corrections, then all count corrections) of the smallest
        // identifier is the value dissemination settles on, whatever the
        // phase then reaches.
        let proposals: Vec<NoiseCorrection> = (0..population)
            .map(|_| {
                NoiseCorrection::generate(surplus, k, n, sum_scale, count_scale, params.num_noise_shares, rng)
            })
            .collect();
        let correction: Vec<f64> = proposals[winning_index(proposals.iter().map(|c| c.id))].payload().collect();
        exec.propose(ctx, proposals);
        let dissemination_stats = exec.gossip(ctx, Phase::Correction, rng, adversary.as_mut());
        audit.record_n(iteration, "noise correction proposal", DataClass::DataIndependent, population);

        // --- Computation step (c): perturbation and threshold decryption. ---
        // Each unit of the perturbed vector (means and noise shares already
        // folded, see `fold_contribution`) is one threshold decryption; the
        // counter recovers the accumulated bias (2·B·C: means and noise are
        // both biased) and feeds the overflow guard.  No randomness is
        // involved, so the parallel map is trivially deterministic.
        let plaintexts: Vec<BigUint> = ctx.pool.map_range(blocks, |i| backend.threshold_decrypt(&cts[i]));
        let mut decrypted: Vec<f64> =
            packer.unpack(&plaintexts, device.coordinates(), &counter, 2).iter().map(|v| v / weight).collect();
        audit.record(iteration, "partial decryptions of perturbed means", DataClass::DifferentiallyPrivate);

        // The correction is laid out like the decrypted vector: k·n sums,
        // then k counts.
        if surplus > 0 {
            for (value, c) in decrypted.iter_mut().zip(&correction) {
                *value -= c;
            }
        }
        let counts = decrypted.split_off(k * n);
        audit.record(iteration, "perturbed cleartext centroids", DataClass::DifferentiallyPrivate);

        // Snapshot this iteration's fault counters (honest runs never
        // materialise a state and report the zero statistics) and fold them
        // into the security audit's running totals.
        let faults = match adversary.as_mut() {
            Some(state) => {
                let faults = state.take_stats();
                audit.record_faults(&faults);
                faults
            }
            None => FaultStats::ZERO,
        };
        network.push(IterationNetworkStats {
            iteration,
            sum_messages_per_node: sum_stats.metrics.messages_per_node(population),
            dissemination_messages_per_node: dissemination_stats.metrics.messages_per_node(population),
            sum_rounds: sum_stats.metrics.rounds(),
            dissemination_converged: dissemination_stats.converged,
            noise_share_deficit,
            sum_payload_ciphertexts: contribution_units,
            // One gossip message carries one whole contribution vector; its
            // byte size follows the backend's honest unit size.
            sum_payload_bytes: contribution_units * backend.unit_bytes(),
            gossip_sim_time: sum_stats.sim_time + dissemination_stats.sim_time,
            peak_messages_in_flight: sum_stats.peak_in_flight.max(dissemination_stats.peak_in_flight),
            faults,
        });

        Aggregates {
            participants: Cow::Borrowed(data),
            assignment: Assignment::from_labels(labels, k),
            sums: decrypted,
            counts,
        }
    }
}
