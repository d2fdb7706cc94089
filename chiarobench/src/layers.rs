//! The per-layer probes: every layer's public functions timed from outside,
//! single-threaded unless the name says otherwise, at the traced workload's
//! own shapes (k, n, key size, lane layout, noise scales), so that the
//! ledger can multiply a probe's unit cost by the run's operation counts.
//!
//! Shapes the issue pins stay pinned: the bigint operand sizes, the 10 000
//! series of the k-means probes, the frame sizes of the node probes.  The
//! gossip probes run the workload's population held within 1 000 to 20 000
//! nodes (the issue's 100 000 do not fit a traced run inside the time cap,
//! and a rate measured far from the run's working set explains nothing in
//! its ledger) and the crypto probes deal at most 64 shares
//! (Δ = ℓ! makes a partial decryption at 2 000 shares a 19 000-bit
//! exponentiation, which no surrogate run ever performs).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use chiaroscuro_core::diptych::closest_centroid;
use chiaroscuro_core::noise::{NoiseCorrection, NoiseShareVector};
use chiaroscuro_core::prelude::*;
use chiaroscuro_core::seedmix::run_rng;
use chiaroscuro_core::PackedMeans;
use chiaroscuro_crypto::backend::BackendSetup;
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::keys::KeyPair;
use chiaroscuro_crypto::threshold::{combine_with, PartialDecryption, ThresholdDealer};
use chiaroscuro_crypto::wire::{deserialize_public_key, serialize_public_key};
use chiaroscuro_dp::budget::BudgetSchedule;
use chiaroscuro_dp::gamma::Gamma;
use chiaroscuro_dp::laplace::Laplace;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::eesum::{initial_states, EesSumProtocol};
use chiaroscuro_gossip::engine::{plan_round_with_mask, GossipEngine};
use chiaroscuro_gossip::sim::{AsyncGossipEngine, EesUnitArena, ShardedAsyncEngine, SimMetrics};
use chiaroscuro_gossip::ExchangeMetrics;
use chiaroscuro_kmeans::{
    InitialCentroids, KMeans, KMeansConfig, PerturbedKMeans, PerturbedKMeansConfig,
};
use chiaroscuro_node::{
    serve_guarded, Actor, Frame, FrameGuard, FramedSocketTransport, InMemoryTransport, NodeEvent,
    NodeId, Phase, Transport, COORDINATOR,
};
use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::{BigUint, RandBigInt};
use rand::rngs::StdRng;
use rand::Rng;

use crate::stats::{collect, sample, time, Metric, Samples, Slice, Statistic};
use crate::trace::Recorder;
use crate::workloads::{inputs, mix, Spec};

/// The gossip probes run the workload's population, held within these limits.
const GOSSIP_NODES: (usize, usize) = (1_000, 20_000);
/// Budget rounds (or simulated periods) of the gossip probes.
const GOSSIP_ROUNDS: u32 = 8;
/// Series of the k-means probes at full size.
const KMEANS_SERIES: usize = 10_000;
/// Most key-shares the crypto probes deal.
const CRYPTO_SHARES: usize = 64;

struct Probes<'a> {
    spec: &'a Spec,
    rec: &'a mut Recorder,
    parent: usize,
    /// Sampling allowance of one ordinary probe.
    slice: Slice,
    /// Whether to shrink the pinned shapes too (`--smoke`).
    smoke: bool,
    out: Vec<Metric>,
}

impl Probes<'_> {
    /// Metric names start with their layer.
    fn layer_of(name: &'static str) -> &'static str {
        name.split('.').next().unwrap_or(name)
    }

    fn push(&mut self, name: &'static str, unit: &'static str, samples: Samples, noisy: bool) {
        self.out.push(Metric {
            name,
            unit,
            samples,
            statistic: Statistic::Median,
            noisy,
        });
    }

    /// Times `op` and reports `factor` × its per-call seconds, inside a span.
    fn timed(
        &mut self,
        name: &'static str,
        unit: &'static str,
        factor: f64,
        batch: usize,
        op: impl FnMut(),
    ) {
        self.timed_in(self.slice, name, unit, factor, batch, op);
    }

    fn timed_in(
        &mut self,
        slice: Slice,
        name: &'static str,
        unit: &'static str,
        factor: f64,
        batch: usize,
        op: impl FnMut(),
    ) {
        let id = self.rec.open(Some(self.parent), name, Self::layer_of(name));
        let samples = sample(slice, batch, op).scaled(factor);
        self.rec.close(id, (samples.n() * batch) as u64);
        self.push(name, unit, samples, false);
    }

    /// Reports values the caller measured itself (rates, ratios).
    fn measured(
        &mut self,
        name: &'static str,
        unit: &'static str,
        noisy: bool,
        f: impl FnOnce(Slice) -> Samples,
    ) {
        let id = self.rec.open(Some(self.parent), name, Self::layer_of(name));
        let samples = f(self.slice);
        self.rec.close(id, samples.n() as u64);
        self.push(name, unit, samples, noisy);
    }

    fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric::single(name, unit, value));
    }

    /// A slice `times` as long, for operations of a millisecond and more.
    fn long(&self, times: u32) -> Slice {
        Slice {
            budget: self.slice.budget * times,
            ..self.slice
        }
    }

    fn rng(&self, seed: u64, salt: u64) -> StdRng {
        run_rng(mix(seed, 1_000 + salt))
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Runs every probe for `spec`.  `scale` stretches the sampling allowances
/// (1.0 fits a 25 s traced run); `smoke` also shrinks the pinned shapes.
pub fn probe_all(
    spec: &Spec,
    seed: u64,
    scale: f64,
    smoke: bool,
    rec: &mut Recorder,
    parent: usize,
) -> Vec<Metric> {
    let slice = Slice {
        budget: Duration::from_secs_f64(0.08 * scale),
        min_samples: 3,
    };
    let mut p = Probes {
        spec,
        rec,
        parent,
        slice,
        smoke,
        out: Vec::new(),
    };
    bigint(&mut p, seed);
    crypto(&mut p, seed);
    dp(&mut p, seed);
    gossip(&mut p, seed);
    node(&mut p);
    core_kmeans_timeseries(&mut p, seed);
    p.out
}

fn odd_modulus(bits: u64, rng: &mut StdRng) -> BigUint {
    let mut m = rng.gen_biguint(bits);
    m.set_bit(bits - 1, true);
    m.set_bit(0, true);
    m
}

fn bigint(p: &mut Probes<'_>, seed: u64) {
    let mut rng = p.rng(seed, 1);
    for (bits, mul, sqr) in [
        (1024, "bigint.mont_mul_ns_1024", None),
        (
            2048,
            "bigint.mont_mul_ns_2048",
            Some("bigint.mont_sqr_ns_2048"),
        ),
        (3072, "bigint.mont_mul_ns_3072", None),
    ] {
        let ctx = MontgomeryCtx::new(&odd_modulus(bits, &mut rng)).expect("the modulus is odd");
        let a = ctx.to_mont(&rng.gen_biguint(bits));
        let b = ctx.to_mont(&rng.gen_biguint(bits));
        p.timed(mul, "ns", NS, 64, || {
            black_box(ctx.mont_mul(black_box(&a), black_box(&b)));
        });
        if let Some(sqr) = sqr {
            p.timed(sqr, "ns", NS, 64, || {
                black_box(ctx.mont_sqr(black_box(&a)));
            });
        }
    }

    let m1024 = odd_modulus(1024, &mut rng);
    let (b1024, e512) = (rng.gen_biguint(1024), rng.gen_biguint(512));
    p.timed("bigint.modpow_us_1024x512", "us", US, 1, || {
        black_box(black_box(&b1024).modpow(&e512, &m1024));
    });
    let m2048 = odd_modulus(2048, &mut rng);
    let (b2048, e1024) = (rng.gen_biguint(2048), rng.gen_biguint(1024));
    p.timed("bigint.modpow_us_2048x1024", "us", US, 1, || {
        black_box(black_box(&b2048).modpow(&e1024, &m2048));
    });
    // Both paths by direct call: the process-global switch is never touched.
    let fast = p.out.last().expect("just pushed").samples.median();
    p.measured("bigint.schoolbook_ratio_2048", "ratio", false, |slice| {
        sample(slice, 1, || {
            black_box(black_box(&b2048).modpow_schoolbook(&e1024, &m2048));
        })
        .scaled(US / fast)
    });

    let wide = rng.gen_biguint(4096);
    p.timed("bigint.divrem_ns_4096by2048", "ns", NS, 16, || {
        black_box(black_box(&wide) % &m2048);
    });
    let (x, y) = (rng.gen_biguint(1000), rng.gen_biguint(1000));
    p.timed("bigint.add_shl_ns_1000", "ns", NS, 64, || {
        black_box((black_box(&x) << 3u32) + black_box(&y));
    });
}

/// Random coordinates a contribution could carry: values inside the range.
fn coordinates(spec: &Spec, rng: &mut StdRng) -> Vec<f64> {
    (0..spec.entries())
        .map(|_| rng.gen_range(0.0..80.0))
        .collect()
}

fn crypto(p: &mut Probes<'_>, seed: u64) {
    let spec = *p.spec;
    let mut rng = p.rng(seed, 2);
    let shares = spec.population.min(CRYPTO_SHARES);
    let packer = spec.packer();
    let entries = spec.entries();
    let blocks = packer.ciphertexts_for(entries);

    let keygen_slice = p.long(6);
    p.timed_in(keygen_slice, "crypto.keygen_ms_1024", "ms", MS, 1, || {
        black_box(KeyPair::generate(spec.key_bits, 1, &mut rng));
    });
    let keypair = KeyPair::generate(spec.key_bits, 1, &mut rng);
    let pk = &keypair.public;
    let dealer = ThresholdDealer::new(&keypair, shares, spec.tau);
    p.timed(
        "crypto.deal_us_per_share",
        "us",
        US / shares as f64,
        1,
        || {
            black_box(dealer.deal(&mut rng));
        },
    );
    let key_shares = dealer.deal(&mut rng);
    let pk_bytes = serialize_public_key(pk);
    p.timed("crypto.precompute_ms", "ms", MS, 1, || {
        // A key fresh off the wire has empty caches, so every sample pays.
        deserialize_public_key(&pk_bytes)
            .expect("round trip")
            .precompute();
    });

    // The dealer-side backend exactly as a run builds it, and the
    // participant-side one a node actor gets: public material only.
    let setup = BackendSetup {
        population: shares,
        ..spec.backend_setup()
    };
    let dealer_side = DamgardJurik::setup(&setup, &mut rng);
    dealer_side.precompute();
    let node_side = DamgardJurik::from_public_key(pk.clone());
    node_side.precompute();
    let crt = keypair
        .secret
        .crt_context(pk)
        .expect("a generated key has two distinct primes");

    let values = coordinates(&spec, &mut rng);
    let plaintext = packer.pack(&values).swap_remove(0);
    p.timed("crypto.encrypt_crt_us", "us", US, 1, || {
        black_box(dealer_side.encrypt(&plaintext, &mut rng));
    });
    p.timed("crypto.encrypt_pk_us", "us", US, 1, || {
        black_box(node_side.encrypt(&plaintext, &mut rng));
    });
    let (a, b) = (
        node_side.encrypt(&plaintext, &mut rng),
        node_side.encrypt(&plaintext, &mut rng),
    );
    p.timed("crypto.add_us", "us", US, 16, || {
        black_box(node_side.add(black_box(&a), black_box(&b)));
    });
    p.timed("crypto.scale_pow2_us", "us", US, 4, || {
        black_box(node_side.scale_pow2(black_box(&a), 1));
    });

    let heavy = p.long(3);
    p.timed_in(heavy, "crypto.partial_decrypt_pk_us", "us", US, 1, || {
        black_box(key_shares[0].partial_decrypt_with(pk, &a, None));
    });
    p.timed("crypto.partial_decrypt_crt_us", "us", US, 1, || {
        black_box(key_shares[0].partial_decrypt_with(pk, &a, Some(&crt)));
    });
    let partials: Vec<PartialDecryption> = key_shares[..spec.tau]
        .iter()
        .map(|s| s.partial_decrypt_with(pk, &a, Some(&crt)))
        .collect();
    p.timed("crypto.combine_us", "us", US, 1, || {
        black_box(combine_with(pk, &partials, spec.tau, shares, Some(&crt)).expect("tau partials"));
    });
    let dealer_ct = dealer_side.encrypt(&plaintext, &mut rng);
    p.timed("crypto.threshold_decrypt_crt_us", "us", US, 1, || {
        black_box(dealer_side.threshold_decrypt(&dealer_ct));
    });

    p.timed("crypto.pack_us_per_vector", "us", US, 4, || {
        black_box(packer.pack(black_box(&values)));
    });
    let noise: Vec<f64> = (0..entries).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let perturbed: Vec<BigUint> = packer
        .pack(&values)
        .iter()
        .zip(packer.pack(&noise))
        .map(|(m, v)| m + v)
        .collect();
    let counter = packer.counter_plaintext();
    p.timed("crypto.unpack_us_per_vector", "us", US, 4, || {
        black_box(packer.unpack(black_box(&perturbed), entries, &counter, 2));
    });
    let surrogate = surrogate_backend(&spec);
    p.timed("crypto.surrogate_add_ns", "ns", NS, 64, || {
        black_box(surrogate.add(black_box(&perturbed[0]), black_box(&plaintext)));
    });
    p.timed("crypto.unit_to_bytes_ns", "ns", NS, 64, || {
        black_box(node_side.unit_to_bytes(black_box(&a)));
    });
    let bytes = node_side.unit_to_bytes(&a);
    p.timed("crypto.unit_from_bytes_ns", "ns", NS, 64, || {
        black_box(node_side.unit_from_bytes(black_box(&bytes)));
    });

    p.exact(
        "crypto.cts_per_contribution_packed",
        "count",
        (2 * blocks + 1) as f64,
    );
    p.exact(
        "crypto.cts_per_contribution_legacy",
        "count",
        (2 * entries) as f64,
    );

    // One device's whole contribution, dealer-side as the monolith does it.
    let data = inputs(&spec, seed);
    let series = &data.data.series()[0];
    let mechanism = spec.mechanism(spec.epsilon / spec.iterations as f64);
    let draw_noise = |rng: &mut StdRng| {
        NoiseShareVector::generate(
            spec.k,
            spec.n,
            mechanism.sum_scale(),
            mechanism.count_scale(),
            spec.population,
            rng,
        )
        .flatten()
    };
    let contribution = p.long(3);
    p.timed_in(
        contribution,
        "crypto.contribution_packed_ms",
        "ms",
        MS,
        1,
        || {
            let (means, _) = PackedMeans::initialise(
                &data.initial_centroids,
                series,
                &dealer_side,
                &packer,
                &mut rng,
            );
            let mut units = means.units;
            for m in packer.pack(&draw_noise(&mut rng)) {
                units.push(dealer_side.encrypt(&m, &mut rng));
            }
            units.push(dealer_side.encrypt(&packer.counter_plaintext(), &mut rng));
            black_box(units);
        },
    );
    let encoder = FixedPointEncoder::new(spec.params().encoding_digits);
    p.timed_in(
        contribution,
        "crypto.contribution_legacy_ms",
        "ms",
        MS,
        1,
        || {
            let (diptych, _) = Diptych::initialise(
                &data.initial_centroids,
                series,
                &dealer_side,
                &encoder,
                &mut rng,
            );
            let shares: Vec<_> = draw_noise(&mut rng)
                .into_iter()
                .map(|v| dealer_side.encrypt(&dealer_side.encode(&encoder, v), &mut rng))
                .collect();
            black_box((diptych, shares));
        },
    );

    // The pool runs the same encryption on one and on two workers.
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("offline pool")
    };
    let (one, two) = (pool(1), pool(2));
    p.timed("pool.map_overhead_us", "us", US, 1, || {
        black_box(two.map_range(2, |i| i));
    });
    p.measured("pool.encrypt_speedup_2t", "ratio", true, |slice| {
        let encrypt_16 = |pool: &rayon::ThreadPool| {
            time(|| {
                black_box(pool.map_range(16, |i| {
                    dealer_side.encrypt(&plaintext, &mut run_rng(i as u64))
                }))
            })
            .1
        };
        collect(slice, || encrypt_16(&one) / encrypt_16(&two))
    });
}

/// A surrogate backend whose unit size is the workload's lane payload.
fn surrogate_backend(spec: &Spec) -> PlaintextSurrogate {
    let layout = spec.packer().layout().clone();
    let payload_bits = layout.lanes as u64 * layout.lane_bits;
    PlaintextSurrogate::import_public(&payload_bits.to_be_bytes()).expect("eight bytes")
}

fn dp(p: &mut Probes<'_>, seed: u64) {
    let spec = *p.spec;
    let mut rng = p.rng(seed, 3);
    let mechanism = spec.mechanism(spec.epsilon / spec.iterations as f64);
    let (sum_scale, count_scale) = (mechanism.sum_scale(), mechanism.count_scale());
    p.timed("dp.noise_vector_us", "us", US, 4, || {
        black_box(NoiseShareVector::generate(
            spec.k,
            spec.n,
            sum_scale,
            count_scale,
            spec.population,
            &mut rng,
        ));
    });
    // The runs meet their expected contributor count, so their corrections
    // are the surplus-free ones.
    p.timed("dp.correction_us", "us", US, 4, || {
        black_box(NoiseCorrection::generate(
            0,
            spec.k,
            spec.n,
            sum_scale,
            count_scale,
            spec.population,
            &mut rng,
        ));
    });
    let gamma = Gamma::new(1.0 / spec.population as f64, sum_scale);
    p.timed("dp.gamma_draw_ns", "ns", NS, 64, || {
        black_box(gamma.sample(&mut rng));
    });
    let laplace = Laplace::new(sum_scale);
    p.timed("dp.laplace_draw_ns", "ns", NS, 64, || {
        black_box(laplace.sample(&mut rng));
    });
}

fn gossip(p: &mut Probes<'_>, seed: u64) {
    let spec = *p.spec;
    let nodes = if p.smoke {
        64
    } else {
        spec.population.clamp(GOSSIP_NODES.0, GOSSIP_NODES.1)
    };
    let packer = spec.packer();
    let blocks = packer.ciphertexts_for(spec.entries());
    let units = 2 * blocks + 1;
    let layout = packer.layout().clone();
    let limbs = (layout.lanes as u64 * layout.lane_bits).div_ceil(64) as usize + 1;

    // Every node's contribution: packed means, packed noise, the counter.
    let mut rng = p.rng(seed, 4);
    let contributions: Vec<Vec<BigUint>> = (0..nodes)
        .map(|_| {
            let mut c = packer.pack(&coordinates(&spec, &mut rng));
            c.extend(packer.pack(&coordinates(&spec, &mut rng)));
            c.push(packer.counter_plaintext());
            c
        })
        .collect();
    let fill = |arena: &mut EesUnitArena| {
        for (node, c) in contributions.iter().enumerate() {
            for (u, unit) in c.iter().enumerate() {
                arena.set_unit_from_digits(node, u, unit.iter_u64_digits());
            }
        }
    };
    let arena = || {
        let mut arena = EesUnitArena::new(nodes, units, limbs);
        fill(&mut arena);
        arena
    };
    let phase = p.long(4);
    let churn = ChurnModel::new(0.0);
    let config = |shards| match spec.params().network {
        NetworkModel::Async(config) => config.with_sim_shards(shards),
        // Rounds workloads probe the event engines at sim_sharded's network.
        NetworkModel::Rounds => AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal {
                median: 0.25,
                sigma: 0.5,
            })
            .with_convergence_check_period(1.0)
            .with_sim_shards(shards),
    };
    let rate = |metrics: &ExchangeMetrics, seconds: f64| metrics.exchanges() as f64 / seconds;

    let surrogate = Arc::new(surrogate_backend(&spec));
    p.measured("gossip.rounds_exchanges_per_s", "1/s", false, |_| {
        collect(phase, || {
            let vectors = contributions
                .iter()
                .map(|c| BackendVector::new(surrogate.clone(), c.clone()))
                .collect();
            let mut engine = GossipEngine::new(initial_states(vectors), churn);
            let mut rng = run_rng(mix(seed, 5));
            let (_, s) = time(|| engine.run_rounds(&EesSumProtocol, GOSSIP_ROUNDS, &mut rng));
            rate(engine.metrics(), s)
        })
    });
    p.measured("gossip.serial_exchanges_per_s", "1/s", false, |_| {
        collect(phase, || {
            let mut engine = AsyncGossipEngine::new(arena(), config(1), churn);
            let mut rng = run_rng(mix(seed, 5));
            let (_, s) =
                time(|| engine.run_for(&EesSumProtocol, f64::from(GOSSIP_ROUNDS), &mut rng));
            rate(engine.metrics(), s)
        })
    });
    let mut last: Option<(ExchangeMetrics, SimMetrics, f64, f64)> = None;
    for (shards, name) in [
        (1, "gossip.sharded1_exchanges_per_s"),
        (2, "gossip.sharded2_exchanges_per_s"),
    ] {
        p.measured(name, "1/s", false, |_| {
            collect(phase, || {
                let mut engine = ShardedAsyncEngine::new(arena(), config(shards), churn);
                let mut rng = run_rng(mix(seed, 5));
                let (_, s) =
                    time(|| engine.run_for(&EesSumProtocol, f64::from(GOSSIP_ROUNDS), &mut rng));
                let out = rate(engine.metrics(), s);
                let sim_time = engine.now();
                let (arena, metrics, sim) = engine.into_parts();
                last = Some((
                    metrics,
                    sim,
                    sim_time,
                    counter_error(&arena, units - 1, nodes),
                ));
                out
            })
        });
    }
    // Exact counts of the two-shard phase: a pure function of the seed.
    let (metrics, sim, sim_time, rel_error) = last.expect("the sharded probes ran");
    p.exact("gossip.exchanges", "count", metrics.exchanges() as f64);
    p.exact("gossip.msgs_sent", "count", sim.messages_sent as f64);
    p.exact("gossip.msgs_lost", "count", sim.messages_lost as f64);
    p.exact("gossip.peak_in_flight", "count", sim.peak_in_flight as f64);
    p.exact("gossip.sim_time_periods", "periods", sim_time);
    p.exact("gossip.eesum_rel_error", "ratio", rel_error);

    let online = vec![true; nodes];
    p.timed(
        "gossip.plan_round_ns_per_node",
        "ns",
        NS / nodes as f64,
        1,
        || {
            black_box(plan_round_with_mask(nodes, &online, &mut rng));
        },
    );
    let mut target = EesUnitArena::new(nodes, units, limbs);
    p.timed(
        "gossip.arena_fill_ns_per_node",
        "ns",
        NS / nodes as f64,
        1,
        || fill(&mut target),
    );
}

/// Relative error of the first weighted node's estimate of the counter sum
/// (every node contributed 1, so the exact sum is the population).
fn counter_error(arena: &EesUnitArena, counter_unit: usize, nodes: usize) -> f64 {
    let node = (0..nodes)
        .find(|&i| arena.weight(i) > 0.0)
        .expect("node 0 seeds the weight");
    let value = arena
        .unit_limbs(node, counter_unit)
        .iter()
        .rev()
        .fold(0.0f64, |acc, &limb| acc * 2f64.powi(64) + limb as f64);
    (value / arena.weight(node) - nodes as f64).abs() / nodes as f64
}

/// Echoes exchange requests as replies, through the real serve loop.
struct Echo;

impl Actor for Echo {
    fn on_event(&mut self, from: NodeId, event: NodeEvent) -> Vec<(NodeId, NodeEvent)> {
        match event {
            NodeEvent::ExchangeRequest { phase, state } => {
                vec![(from, NodeEvent::ExchangeReply { phase, state })]
            }
            _ => Vec::new(),
        }
    }
}

fn request(bytes: usize) -> Frame {
    NodeEvent::ExchangeRequest {
        phase: Phase::Means,
        state: vec![0xA5; bytes],
    }
    .into_frame(COORDINATOR, 0)
}

/// Round trips per second of `frame` against an echo peer on its own thread.
fn round_trips<T: Transport>(slice: Slice, link: &mut T, frame: &Frame) -> Samples {
    const BATCH: usize = 32;
    sample(slice, BATCH, || {
        link.send(frame).expect("echo send");
        black_box(link.recv().expect("echo reply"));
    })
    .rates()
}

/// Serves `far` with the echo actor until shutdown; returns the frames its
/// guard rejected.
fn spawn_echo<T: Transport + Send + 'static>(mut far: T) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut guard = FrameGuard::new(0);
        serve_guarded(&mut far, &mut Echo, &mut guard).expect("the echo loop ends on shutdown");
        guard.rejected().total()
    })
}

fn node(p: &mut Probes<'_>) {
    let frame = request(4096);
    p.timed("node.frame_encode_ns_4k", "ns", NS, 64, || {
        black_box(black_box(&frame).encode());
    });
    let encoded = frame.encode();
    p.timed("node.frame_decode_ns_4k", "ns", NS, 64, || {
        black_box(Frame::decode(black_box(&encoded)).expect("well-formed"));
    });
    p.timed("node.event_codec_ns", "ns", NS, 64, || {
        let event = NodeEvent::from_frame(black_box(&frame)).expect("well-formed");
        black_box(event.into_frame(0, COORDINATOR));
    });

    let shutdown = NodeEvent::Shutdown.into_frame(COORDINATOR, 0);
    let mut rejected = 0;
    #[cfg(unix)]
    {
        let (near, far) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let mut link = FramedSocketTransport::new(near);
        let echo = spawn_echo(FramedSocketTransport::new(far));
        p.measured("node.uds_roundtrips_per_s_0b", "1/s", true, |s| {
            round_trips(s, &mut link, &request(0))
        });
        p.measured("node.uds_roundtrips_per_s_4k", "1/s", true, |s| {
            round_trips(s, &mut link, &frame)
        });
        let big = request(128 << 10);
        let megabytes = 2.0 * big.encoded_len() as f64 / 1e6;
        p.measured("node.uds_mb_per_s_128k", "MB/s", true, |s| {
            round_trips(s, &mut link, &big).scaled(megabytes)
        });
        link.send(&shutdown).expect("shutdown frame");
        rejected += echo.join().expect("echo thread");
    }
    let (mut link, far) = InMemoryTransport::pair();
    let echo = spawn_echo(far);
    p.measured("node.mem_roundtrips_per_s_4k", "1/s", true, |s| {
        round_trips(s, &mut link, &frame)
    });
    link.send(&shutdown).expect("shutdown frame");
    rejected += echo.join().expect("echo thread");
    p.exact("node.rejected_frames", "count", rejected as f64);
}

fn core_kmeans_timeseries(p: &mut Probes<'_>, seed: u64) {
    let spec = *p.spec;
    let data = inputs(&spec, seed);
    let series = &data.data.series()[spec.population / 2];
    p.timed("core.closest_centroid_ns", "ns", NS, 64, || {
        black_box(closest_centroid(
            black_box(&data.initial_centroids),
            black_box(series),
        ));
    });
    p.timed(
        "timeseries.generate_us_per_series",
        "us",
        US / spec.population as f64,
        1,
        || {
            black_box(inputs(&spec, seed));
        },
    );

    // The figure-2 quality path: one centralised iteration over 10 000 series.
    let many = Spec {
        population: if p.smoke { 200 } else { KMEANS_SERIES },
        ..spec
    };
    let set = inputs(&many, seed);
    let init = InitialCentroids::Provided(set.initial_centroids.clone());
    let mut rng = p.rng(seed, 6);
    let schedule = BudgetSchedule::new(spec.params().strategy, spec.epsilon, spec.iterations);
    let perturbed = PerturbedKMeans::new(PerturbedKMeansConfig::new(schedule, 1));
    p.timed("kmeans.perturbed_iter_ms_10k", "ms", MS, 1, || {
        black_box(perturbed.run(&set.data, &init, &mut rng));
    });
    let lloyd = KMeans::new(KMeansConfig {
        max_iterations: 1,
        ..KMeansConfig::default()
    });
    p.timed("kmeans.lloyd_iter_ms_10k", "ms", MS, 1, || {
        black_box(lloyd.run(&set.data, &init, &mut rng));
    });
}
