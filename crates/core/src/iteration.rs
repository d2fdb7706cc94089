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
//! sums → surplus-correction dissemination → threshold decryption.  The
//! step owns every master-RNG draw that is not a gossip schedule, every
//! audit record, the reference-node choice and the surplus arithmetic, the
//! decryption and the network statistics; the draw order is tabulated once,
//! in `docs/ARCHITECTURE.md` ("Master-RNG draw order").  What differs
//! between deployment shapes — where per-node state lives — sits behind
//! [`Executor`]: the in-process executor of [`crate::runner`] (per-node
//! `Vec`s or the arenas) and the link executor of [`crate::cluster`] (node
//! actors behind transport links).  *How* one gossip phase is carried out
//! is not theirs to decide: each names its node store and hands it to the
//! gossip crate's engines, so under the round model both run the one round
//! loop — schedule draws, fault schedule and accounting included — and are
//! bit-identical from one seed.
//!
//! [`device_contribution`] is likewise the only copy of what one device
//! computes per iteration; the in-process executor maps it over the
//! population and each node actor calls it for itself.

use std::borrow::Cow;
use std::sync::Arc;

use num_bigint::BigUint;
use rand::Rng;

use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend};
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::PackedEncoder;
use chiaroscuro_dp::laplace::LaplaceMechanism;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::sim::{AdversaryState, FaultStats, PhaseStats};
use chiaroscuro_kmeans::perturbed::{AggregateStep, Aggregates};
use chiaroscuro_timeseries::inertia::Assignment;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::audit::{DataClass, SecurityAudit};
use crate::diptych::{Diptych, PackedMeans};
use crate::noise::{NoiseCorrection, NoiseShareVector};
use crate::runner::{DistributedRun, IterationNetworkStats, RunOutcome};

/// What a device holds, beyond its own series, to build its contribution:
/// the cipher backend (public material suffices) and the encoding plan.
#[derive(Debug)]
pub(crate) struct DeviceKit<B: CipherBackend> {
    pub(crate) backend: Arc<B>,
    pub(crate) encoder: FixedPointEncoder,
    /// The lane-packed encoder, or `None` on the legacy
    /// one-unit-per-coordinate path.
    pub(crate) packer: Option<PackedEncoder>,
    pub(crate) num_noise_shares: usize,
}

/// One device's assignment step: the label of its closest centroid and its
/// flat contribution vector.
///
/// The device stream comes off `participant_seed` and is split into a noise
/// sub-stream and an encryption sub-stream, so noise draws are identical
/// whichever encoding path runs (the packed path encrypts fewer units;
/// interleaving noise with encryption would desynchronise the two
/// pipelines and break their bit-equality).
pub(crate) fn device_contribution<B: CipherBackend>(
    kit: &DeviceKit<B>,
    centroids: &[TimeSeries],
    series: &TimeSeries,
    participant_seed: u64,
    sum_scale: f64,
    count_scale: f64,
) -> (usize, Vec<B::Unit>) {
    let (k, n) = (centroids.len(), series.len());
    let backend: &B = &kit.backend;
    let mut streams = crate::seedmix::device_streams(participant_seed);
    let noise =
        NoiseShareVector::generate(k, n, sum_scale, count_scale, kit.num_noise_shares, &mut streams.noise);
    let mut device_rng = streams.encryption;
    if let Some(packer) = &kit.packer {
        // Lane-packed contribution: ⌈k·(n+1)/L⌉ means units, as many
        // noise-share units (same lane layout, so the driver can add them
        // pairwise before decryption), and one shared counter unit for the
        // accumulated bias.
        let (means, assigned) =
            PackedMeans::initialise(centroids, series, backend, packer, &mut device_rng);
        let mut flat = means.units;
        flat.reserve(flat.len() + 1);
        for m in packer.pack(&noise.flatten()) {
            flat.push(backend.encrypt(&m, &mut device_rng));
        }
        flat.push(backend.encrypt(&packer.counter_plaintext(), &mut device_rng));
        (assigned, flat)
    } else {
        let (diptych, assigned) =
            Diptych::initialise(centroids, series, backend, &kit.encoder, &mut device_rng);
        // Flatten: all sum units (cluster-major), then all counts, then the
        // device's encrypted noise shares in the same layout.
        let mut flat: Vec<B::Unit> = Vec::with_capacity(2 * k * (n + 1));
        for mean in &diptych.means {
            flat.extend(mean.sums.iter().cloned());
        }
        for mean in &diptych.means {
            flat.push(mean.count.clone());
        }
        for share in noise.flatten() {
            flat.push(backend.encrypt(&backend.encode(&kit.encoder, share), &mut device_rng));
        }
        (assigned, flat)
    }
}

/// Everything the bootstrap fixes for the whole run, handed to each
/// executor call.
pub(crate) struct RunContext<'a, B: CipherBackend> {
    /// The run's parameters and dataset.
    pub(crate) run: &'a DistributedRun<'a, B>,
    /// The dealer-side backend (it holds the key shares) and encoding plan.
    pub(crate) kit: DeviceKit<B>,
    /// Units in one contribution vector, i.e. in one epidemic-sum message:
    /// `2·k·(n+1)` on the legacy path; lane packing divides the data part
    /// by the lane count and adds one counter unit.
    pub(crate) contribution_units: usize,
    pub(crate) pool: rayon::ThreadPool,
    pub(crate) churn: ChurnModel,
    /// Gossip budget of every phase, in rounds (or exchange periods).
    pub(crate) exchanges: u32,
    /// The node that seeds both epidemic weights (EESum and the push-pull
    /// counter) with 1: the lowest-indexed honest one.  A byzantine seed
    /// would have most of its exchanges voided and could starve the epidemic
    /// of its only weight.
    pub(crate) weight_seed: usize,
}

/// Where per-node state lives and how a gossip phase is carried out.  The
/// methods are called once per iteration, in declaration order
/// ([`Self::provision`] once per run, first).  Every `rng` is the run's
/// master RNG, to be consumed exactly as the round or event-driven engine
/// would consume it for that phase's schedule.
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

    /// Runs the EESum phase over the contributions.
    fn means_phase<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats;

    /// Runs the cleartext push-pull contributor counter (every device
    /// contributes 1).
    fn counter_phase<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats;

    /// The node's epidemic weight after the means phase.
    fn weight(&self, node: usize) -> f64;

    /// The node's contributor-count estimate after the counter phase.
    fn counter_estimate(&self, node: usize) -> Option<f64>;

    /// Installs one correction proposal per node (in node order), runs the
    /// min-identifier dissemination until agreement or the budget, and
    /// returns the flat row (all sum corrections, then all count
    /// corrections) of the proposal with the globally smallest identifier —
    /// the value dissemination converges to, not whatever one node happens
    /// to hold — plus the accumulated contribution vector `reference` holds.
    fn settle<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        proposals: Vec<NoiseCorrection>,
        reference: usize,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> (Vec<f64>, PhaseStats, Vec<B::Unit>);
}

/// Executes `run` on `exec`: bootstrap (backend key material, initial
/// centroids, adversary seed — in that master-RNG order), then the one
/// Algorithm-1 loop of `chiaroscuro_kmeans` over the [`DistributedStep`].
pub(crate) fn drive<B, X, R>(run: &DistributedRun<'_, B>, exec: &mut X, rng: &mut R) -> RunOutcome
where
    B: CipherBackend,
    X: Executor<B>,
    R: Rng + ?Sized,
{
    let params = &run.params;
    let data = run.data;
    let population = data.len();
    let n = data.series_length();
    let k = params.k;
    let packer = run.plan_packing();

    let setup = BackendSetup {
        key_bits: params.key_bits,
        damgard_jurik_s: params.damgard_jurik_s,
        population,
        key_share_threshold: params.key_share_threshold,
        packed_layout: packer.as_ref().map(|p| p.layout()),
    };
    let backend = Arc::new(B::setup(&setup, rng));
    // Pay for derived lookup state (Montgomery contexts) up front,
    // outside the per-iteration accounting.
    backend.precompute();
    if let (Some(packer), Some(capacity)) = (&packer, backend.plaintext_capacity_bits()) {
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
    let centroids = match &run.initial_centroids {
        Some(c) => c.clone(),
        None => {
            use rand::seq::SliceRandom;
            data.series().choose_multiple(rng, k).cloned().collect()
        }
    };
    assert_eq!(centroids.len(), k, "k must not exceed the population when sampling initial centroids");
    // Byzantine adversary: the fault schedule runs on a dedicated
    // seed-derived RNG sub-stream.  An inactive model draws NOTHING here and
    // is never materialised, so honest runs stay bit-identical to every
    // historical baseline seed.
    let adversary =
        params.adversary.is_active().then(|| AdversaryState::new(params.adversary, rng.gen()));

    // Coordinates of one perturbed-values vector: k dimension-wise sums of
    // length n plus k counts.
    let entries = k * (n + 1);
    let ctx = RunContext {
        run,
        contribution_units: match &packer {
            Some(packer) => 2 * packer.ciphertexts_for(entries) + 1,
            None => 2 * entries,
        },
        kit: DeviceKit {
            backend,
            encoder: FixedPointEncoder::new(params.encoding_digits),
            packer,
            num_noise_shares: params.num_noise_shares,
        },
        pool: rayon::ThreadPoolBuilder::new()
            .num_threads(params.pool_threads)
            .build()
            .expect("the offline pool cannot fail to build"),
        churn: ChurnModel::new(params.churn),
        exchanges: params.effective_exchanges(population, n),
        // `is_byzantine` is a pure hash (no RNG) and false for every node
        // under an inactive adversary, so honest runs seed at node 0 as ever.
        weight_seed: (0..population)
            .find(|&node| !params.adversary.is_byzantine(node))
            .expect("the epidemic weights need an honest node to seed them"),
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
/// epidemic sums and counter → reference readout → surplus-correction
/// dissemination → threshold decryption → correction subtracted.  It owns
/// every per-iteration master-RNG draw (the numbered table in
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
        let DeviceKit { backend, encoder, packer, .. } = &ctx.kit;
        let population = data.len();
        let n = data.series_length();
        let k = params.k;
        let entries = k * (n + 1);
        let sum_scale = mechanism.sum_scale();
        let count_scale = mechanism.count_scale();

        // --- Assignment step: local, per participant. ---
        // Each device's seed comes off the master RNG before dispatch, so
        // its ciphertext randomness is identical wherever and on however
        // many threads it runs.
        let participant_seeds: Vec<u64> = (0..population).map(|_| rng.gen()).collect();
        let labels = exec.contribute(ctx, centroids, &participant_seeds, sum_scale, count_scale);

        // --- Computation step (a): epidemic encrypted sums + counter. ---
        let sum_stats = exec.means_phase(ctx, rng, adversary.as_mut());
        audit.record_n(iteration, "encrypted means contribution", DataClass::Encrypted, population);
        audit.record_n(iteration, "encrypted noise shares", DataClass::Encrypted, population);
        audit.record_n(
            iteration,
            "epidemic weight and exchange counter",
            DataClass::DataIndependent,
            population,
        );
        let counter_stats = exec.counter_phase(ctx, rng, adversary.as_mut());
        audit.record(iteration, "cleartext contributor counter", DataClass::DataIndependent);

        // Reference participant: the single node that reads out the
        // aggregates.  Counter estimate and perturbed sums MUST come from
        // the same device — mixing two nodes' views can pair a counter that
        // saw the weight with sums that did not (or vice versa) and mis-size
        // the surplus correction.  Byzantine nodes are never trusted as the
        // reference: `is_byzantine` is a pure hash (no RNG), and with an
        // inactive adversary it is false for every node, so honest runs
        // pick the same reference as ever.
        let (reference, counter_estimate) = (0..population)
            .filter(|&i| !params.adversary.is_byzantine(i) && exec.weight(i) > 0.0)
            .find_map(|i| Some((i, exec.counter_estimate(i)?)))
            .expect("after the epidemic sums at least one honest node holds both weights");
        let weight = exec.weight(reference);

        // --- Computation step (b): noise surplus correction. ---
        // More contributors than the expected nν means surplus noise to
        // subtract; fewer means a deficit — there is nothing to subtract,
        // and the shortfall is surfaced in the iteration's stats rather
        // than silently mapped to zero.  The push-pull counter is only an
        // estimate of the contributor count; before full mixing it can
        // transiently overshoot the population by orders of magnitude, and
        // no run can have more contributors than devices, so the estimate
        // is clamped to the population rather than over-correcting by a
        // physically impossible surplus.
        let contributors = (counter_estimate.round() as i64).min(population as i64);
        let expected_shares = params.num_noise_shares as i64;
        let surplus = (contributors - expected_shares).max(0) as usize;
        let noise_share_deficit = (expected_shares - contributors).max(0) as usize;
        // Proposals are always generated in node order from the run RNG,
        // whatever storage the dissemination runs on, so the draw sequence
        // (and hence the whole run) is executor-independent.
        let proposals: Vec<NoiseCorrection> = (0..population)
            .map(|_| {
                NoiseCorrection::generate(surplus, k, n, sum_scale, count_scale, params.num_noise_shares, rng)
            })
            .collect();
        let (correction, dissemination_stats, cts) =
            exec.settle(ctx, proposals, reference, rng, adversary.as_mut());
        audit.record_n(iteration, "noise correction proposal", DataClass::DataIndependent, population);

        // --- Computation step (c): perturbation and threshold decryption. ---
        // Each unit is independent: one homomorphic add of the means part
        // and the noise part (same epidemic scaling because they travelled
        // in the same vector), then one threshold decryption.  No
        // randomness is involved, so the parallel map is trivially
        // deterministic.
        let mut decrypted: Vec<f64> = match packer {
            Some(packer) => {
                // Packed: ⌈entries/L⌉ perturbed data units plus the counter
                // — an ~L× cut in threshold decryptions.  The counter
                // recovers the accumulated bias (2·B·C: means and noise are
                // both biased) and feeds the overflow guard.
                let blocks = packer.ciphertexts_for(entries);
                let plaintexts: Vec<BigUint> = ctx.pool.map_range(blocks + 1, |i| {
                    if i < blocks {
                        backend.threshold_decrypt(&backend.add(&cts[i], &cts[blocks + i]))
                    } else {
                        backend.threshold_decrypt(&cts[2 * blocks])
                    }
                });
                let counter = &plaintexts[blocks];
                packer.unpack(&plaintexts[..blocks], entries, counter, 2).iter().map(|v| v / weight).collect()
            }
            None => ctx.pool.map_range(entries, |i| {
                let perturbed = backend.add(&cts[i], &cts[entries + i]);
                backend.decode(encoder, &backend.threshold_decrypt(&perturbed)) / weight
            }),
        };
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
            sum_messages_per_node: sum_stats.metrics.messages_per_node(population)
                + counter_stats.metrics.messages_per_node(population),
            dissemination_messages_per_node: dissemination_stats.metrics.messages_per_node(population),
            sum_rounds: sum_stats.metrics.rounds(),
            dissemination_converged: dissemination_stats.converged,
            noise_share_deficit,
            sum_payload_ciphertexts: ctx.contribution_units,
            // One gossip message carries one whole contribution vector
            // (where lane packing's saving is visible); its byte size
            // follows the backend's honest unit size.
            sum_payload_bytes: ctx.contribution_units * backend.unit_bytes(),
            gossip_sim_time: sum_stats.sim_time + counter_stats.sim_time + dissemination_stats.sim_time,
            peak_messages_in_flight: sum_stats
                .peak_in_flight
                .max(counter_stats.peak_in_flight)
                .max(dissemination_stats.peak_in_flight),
            faults,
        });

        Aggregates {
            participants: Cow::Borrowed(data),
            assignment: assignment_from_labels(labels, k),
            sums: decrypted,
            counts,
        }
    }
}

/// Builds an [`Assignment`] from per-participant labels.
fn assignment_from_labels(labels: Vec<usize>, k: usize) -> Assignment {
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    Assignment { labels, sizes }
}
