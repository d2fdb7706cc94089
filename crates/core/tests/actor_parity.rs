//! The actor-path determinism contract: a pinned scenario driven through
//! per-node actors (`DistributedRun::via_actors`) reproduces the monolithic
//! `DistributedRun::execute` **bit for bit** from the same seed — identical
//! centroid values, identical per-iteration network statistics, identical
//! audit events — under both transports and under every encoding path
//! (lane-packed Damgård–Jurik, legacy Damgård–Jurik, plaintext surrogate).
//! Both paths are executors of one iteration driver; these tests pin that
//! the two executors consume the master RNG identically, to the last draw.

use chiaroscuro_core::prelude::*;
use chiaroscuro_core::seedmix::run_rng;
use chiaroscuro_core::{ChiaroscuroNodeActor, MEANS_FRAME_OVERHEAD_BYTES};
use chiaroscuro_node::LocalBus;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};

/// A `population`-device dataset of two well-separated constant profiles.
fn dataset(population: usize) -> TimeSeriesSet {
    let series = (0..population)
        .map(|i| {
            if i % 2 == 0 {
                TimeSeries::constant(4, 12.0)
            } else {
                TimeSeries::constant(4, 68.0)
            }
        })
        .collect();
    TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
}

fn params(lane_packing: bool, churn: f64) -> ChiaroscuroParams {
    ChiaroscuroParams::builder()
        .k(2)
        .max_iterations(2)
        .key_bits(256)
        .key_share_threshold(3)
        .num_noise_shares(10)
        .exchanges(8)
        .churn(churn)
        .epsilon(40.0)
        .lane_packing(lane_packing)
        .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
        .build()
}

/// Runs `params` over `data` through the in-process executor and through
/// node actors on a `LocalBus`, each from a clone of one master stream, and
/// asserts identical outcomes **and** identical RNG end states — a trailing
/// draw-order slip moves no outcome bit, only the stream.  Returns the
/// (shared) outcome for case-specific assertions.
fn assert_localbus_parity<B: CipherBackend>(
    params: ChiaroscuroParams,
    data: &TimeSeriesSet,
    seed: u64,
) -> RunOutcome {
    let run = DistributedRun::<B>::with_backend(params, data);
    let mut monolith_rng = run_rng(seed);
    let mut actors_rng = monolith_rng.clone();
    let monolith = run.execute_with_rng(&mut monolith_rng);
    let mut bus = LocalBus::spawn(
        (0..data.len()).map(|_| ChiaroscuroNodeActor::<B>::new()).collect(),
    );
    let actors = run.execute_via_links(bus.links_mut(), 0, &mut actors_rng);
    bus.shutdown().expect("the node actors must shut down cleanly");
    assert_eq!(actors.first_divergence(&monolith, 0), None);
    assert_eq!(actors_rng, monolith_rng, "both executors must leave the master RNG in one state");
    // `execute` / `via_actors` are those two calls behind `run_rng(seed)`.
    assert_eq!(run.via_actors(seed).first_divergence(&monolith, 0), None);
    monolith
}

#[test]
fn localbus_actors_reproduce_the_packed_crypto_monolith_bit_for_bit() {
    assert_localbus_parity::<DamgardJurik>(params(true, 0.25), &dataset(14), 42);
}

#[test]
fn localbus_actors_reproduce_the_legacy_crypto_monolith_bit_for_bit() {
    assert_localbus_parity::<DamgardJurik>(params(false, 0.0), &dataset(12), 7);
}

#[test]
fn localbus_actors_reproduce_the_surrogate_monolith_bit_for_bit() {
    assert_localbus_parity::<PlaintextSurrogate>(params(true, 0.25), &dataset(16), 9);
}

/// A convergence threshold no displacement can exceed: both executors must
/// take the convergence break at iteration 0, leaving no draw behind it.
#[test]
fn both_executors_break_at_the_same_early_convergence() {
    let early = ChiaroscuroParams { convergence_threshold: f64::MAX, ..params(true, 0.25) };
    let outcome = assert_localbus_parity::<DamgardJurik>(early, &dataset(14), 5);
    assert!(outcome.report.converged);
    assert_eq!(outcome.report.iterations.len(), 1);
}

/// The ε schedule (two uniform iterations) runs out before `max_iterations`:
/// both executors must stop on the exhausted budget, unconverged.
#[test]
fn both_executors_stop_when_the_budget_is_exhausted() {
    let starved = ChiaroscuroParams { max_iterations: 4, ..params(false, 0.25) };
    let outcome = assert_localbus_parity::<DamgardJurik>(starved, &dataset(12), 13);
    assert!(!outcome.report.converged);
    assert_eq!(outcome.report.iterations.len(), 2);
}

/// Schedule-level faults run through the deployed path: the link executor
/// runs the round engine itself, so the seeded fault schedule voids the same
/// exchanges on both executors (a voided exchange is never relayed) and the
/// per-class counters in `IterationNetworkStats::faults` and the audit agree.
/// Salt 1 keeps node 0 honest.
#[test]
fn adversary_byzantine_mix_is_bit_identical_across_executors() {
    let byzantine =
        ChiaroscuroParams { adversary: AdversaryModel::mixed(0.25, 1), ..params(true, 0.25) };
    let data = dataset(16);
    assert!(!byzantine.adversary.is_byzantine(0) && (0..16).any(|i| byzantine.adversary.is_byzantine(i)));
    let outcome = assert_localbus_parity::<DamgardJurik>(byzantine, &data, 21);
    assert!(outcome.audit.fault_stats().injected_total() > 0, "a quarter of 16 nodes must inject");
}

/// Under these five salts the membership hash marks node 0 byzantine.  Both
/// epidemic weights are seeded at the lowest-indexed *honest* node, on the
/// links as in process, so the run completes (a byzantine seed has most of
/// its exchanges voided and could starve the epidemic of its only weight) and
/// every injected fault is accounted for.
#[test]
fn adversary_with_a_byzantine_node_zero_is_bit_identical_across_executors() {
    let data = dataset(16);
    for salt in [0, 3, 7, 10, 11] {
        let adversary = AdversaryModel::mixed(0.25, salt);
        assert!(adversary.is_byzantine(0), "salt {salt} must mark node 0");
        let byzantine = ChiaroscuroParams { adversary, ..params(true, 0.25) };
        let faults =
            assert_localbus_parity::<PlaintextSurrogate>(byzantine, &data, 21 + salt).audit.fault_stats();
        assert!(faults.injected_total() > 0, "salt {salt}: a quarter of 16 nodes must inject");
        assert_eq!(faults.injected_total(), faults.detected_total() + faults.absorbed_total(), "salt {salt}");
    }
}

/// Eclipse bias voids honest-to-honest exchanges, on the links as in process.
#[test]
fn adversary_eclipse_is_bit_identical_across_executors() {
    let eclipsed = ChiaroscuroParams {
        adversary: AdversaryModel { eclipse: 0.3, ..AdversaryModel::NONE },
        ..params(true, 0.25)
    };
    let outcome = assert_localbus_parity::<PlaintextSurrogate>(eclipsed, &dataset(16), 9);
    let faults = outcome.audit.fault_stats();
    assert!(faults.eclipsed.injected > 0 && faults.injected_total() == faults.eclipsed.injected);
}

/// The socket transport must change nothing but the *reported* payload
/// size, which grows by exactly the frame overhead actually transmitted
/// per protocol message.
#[cfg(unix)]
#[test]
fn socket_actors_match_the_monolith_and_report_the_frame_overhead() {
    let data = dataset(12);
    let monolith = DistributedRun::new(params(true, 0.0), &data).execute(11);
    let socket_params = ChiaroscuroParams { transport: TransportKind::UnixSocket, ..params(true, 0.0) };
    let actors = DistributedRun::new(socket_params, &data).via_actors(11);
    assert_eq!(actors.first_divergence(&monolith, MEANS_FRAME_OVERHEAD_BYTES), None);
}

/// The two actor transports must agree with *each other* bit for bit too
/// (same protocol bytes through channels or through socketpair streams).
#[cfg(unix)]
#[test]
fn in_memory_and_socket_transports_agree() {
    let data = dataset(12);
    let in_memory = DistributedRun::new(params(false, 0.25), &data).via_actors(3);
    let socket_params =
        ChiaroscuroParams { transport: TransportKind::UnixSocket, ..params(false, 0.25) };
    let socket = DistributedRun::new(socket_params, &data).via_actors(3);
    assert_eq!(socket.first_divergence(&in_memory, MEANS_FRAME_OVERHEAD_BYTES), None);
}
