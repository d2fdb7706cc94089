//! Clustering quality versus byzantine adversary fraction.
//!
//! The paper argues (§5) that Chiaroscuro's gossip phases tolerate
//! faulty participants because every exchange is independently verified
//! and a corrupted contribution is rejected rather than folded into the
//! epidemic sums.  This bin measures that claim end to end: it runs the
//! full distributed pipeline on the plaintext-surrogate backend over the
//! asynchronous network while the seeded fault-injection subsystem
//! ([`AdversaryModel::mixed`]) marks a growing fraction of nodes
//! byzantine — sending malformed and replayed ciphertexts, duplicating
//! exchanges, dropping replies — and reports, per fraction, the
//! per-class fault counters (injected / detected / absorbed) next to the
//! clustering-quality metrics, into a table and `BENCH_adversary.json`.
//!
//! The sweep is deterministic: the byzantine set is a pure hash of
//! `(salt, node)` and every fault draw comes from a dedicated
//! seed-derived RNG sub-stream, so a row reruns bit-identically and the
//! fraction-0 row is bit-identical to a run with no adversary at all
//! (CI asserts its injected counter is zero and that injected totals
//! are monotone in the fraction).
//!
//! Usage:
//!   adversary_sweep [--population 2000] [--k 2] [--iterations 2]
//!                   [--exchanges 20] [--key-bits 1024] [--epsilon 30]
//!                   [--seed 1] [--salt 2898] [--sim-shards 4]
//!                   [--fractions 0,0.05,0.1,0.2,0.3]
//!                   [--json-out BENCH_adversary.json]

use std::time::Instant;

use chiaroscuro_bench::workloads::{constant_profile_dataset, profile_levels, SWEEP_SERIES_LEN};
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_core::prelude::*;
use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
use chiaroscuro_timeseries::TimeSeries;

struct SweepRow {
    fraction: f64,
    byzantine_nodes: usize,
    wall_secs: f64,
    iterations: usize,
    faults: FaultStats,
    sum_messages_per_node: f64,
    dissemination_messages_per_node: f64,
    epsilon_spent: f64,
    max_level_error: f64,
    converged_clusters: usize,
}

fn main() {
    let args = Args::from_env();
    let population = args.get("population", 2_000usize);
    let k = args.get("k", 2usize);
    let iterations = args.get("iterations", 2usize);
    let exchanges = args.get("exchanges", 20u32);
    let key_bits = args.get("key-bits", 1_024u64);
    let epsilon = args.get("epsilon", 30.0f64);
    let seed = args.get("seed", 1u64);
    let salt = args.get("salt", 0xB52u64);
    let sim_shards = args.get("sim-shards", 4usize);
    let json_out = args.get_str("json-out", "BENCH_adversary.json");
    let fractions: Vec<f64> = args
        .get_str("fractions", "0,0.05,0.1,0.2,0.3")
        .split(',')
        .map(|s| s.trim().parse().expect("--fractions takes a comma-separated list in [0,1)"))
        .collect();

    let mut rows = Vec::new();
    for &fraction in &fractions {
        println!("running {population} nodes at adversary fraction {fraction}...");
        rows.push(run_fraction(
            fraction, salt, population, sim_shards, k, iterations, exchanges, key_bits, epsilon,
            seed,
        ));
    }

    print_table(&rows);
    let doc = render_json(
        &rows, population, sim_shards, k, iterations, exchanges, key_bits, epsilon, seed, salt,
    );
    std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
    println!("\nwrote {json_out}");
}

#[allow(clippy::too_many_arguments, reason = "one sweep point: the parsed CLI flags, passed through flat")]
fn run_fraction(
    fraction: f64,
    salt: u64,
    population: usize,
    sim_shards: usize,
    k: usize,
    iterations: usize,
    exchanges: u32,
    key_bits: u64,
    epsilon: f64,
    seed: u64,
) -> SweepRow {
    let data = constant_profile_dataset(population, k);
    let levels = profile_levels(k);
    let init: Vec<TimeSeries> = levels
        .iter()
        .enumerate()
        .map(|(c, &level)| {
            let offset = if c % 2 == 0 { 6.0 } else { -6.0 };
            TimeSeries::constant(SWEEP_SERIES_LEN, level + offset)
        })
        .collect();
    let adversary = AdversaryModel::mixed(fraction, salt);
    let byzantine_nodes = (0..population).filter(|&i| adversary.is_byzantine(i)).count();
    let params = ChiaroscuroParams::builder()
        .k(k)
        .epsilon(epsilon)
        .strategy(BudgetStrategy::UniformFast { max_iterations: iterations })
        .max_iterations(iterations)
        .key_bits(key_bits)
        .key_share_threshold(3)
        .num_noise_shares(population)
        .exchanges(exchanges)
        .lane_packing(true)
        .pool_threads(0)
        .network(NetworkModel::Async(
            AsyncNetworkConfig::default()
                .with_latency(LatencyModel::LogNormal { median: 0.25, sigma: 0.5 })
                .with_convergence_check_period(1.0),
        ))
        .sim_shards(sim_shards)
        .adversary(adversary)
        .build();

    let start = Instant::now();
    let outcome = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data)
        .with_initial_centroids(init)
        .execute(seed);
    let wall_secs = start.elapsed().as_secs_f64();

    let ran_iterations = outcome.report.num_iterations();
    let mut sorted_levels = levels;
    sorted_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut means: Vec<f64> = outcome.centroids().iter().map(|c| c.mean()).collect();
    means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let max_level_error = means
        .iter()
        .zip(sorted_levels.iter())
        .map(|(m, l)| (m - l).abs())
        .fold(0.0f64, f64::max);
    let last = outcome.network.last().expect("at least one iteration ran");

    SweepRow {
        fraction,
        byzantine_nodes,
        wall_secs,
        iterations: ran_iterations,
        faults: outcome.audit.fault_stats(),
        sum_messages_per_node: last.sum_messages_per_node,
        dissemination_messages_per_node: last.dissemination_messages_per_node,
        epsilon_spent: outcome.report.total_epsilon(),
        max_level_error,
        converged_clusters: outcome
            .report
            .iterations
            .last()
            .map(|i| i.surviving_centroids)
            .unwrap_or(0),
    }
}

fn print_table(rows: &[SweepRow]) {
    let mut table = Table::new(
        "Adversary sweep — clustering quality vs byzantine fraction (surrogate backend, async network)",
        &[
            "fraction",
            "byz nodes",
            "wall s",
            "injected",
            "detected",
            "absorbed",
            "msgs/node",
            "max |err|",
            "clusters",
            "eps",
        ],
    );
    for r in rows {
        table.row(&[
            format!("{:.2}", r.fraction),
            r.byzantine_nodes.to_string(),
            format!("{:.1}", r.wall_secs),
            r.faults.injected_total().to_string(),
            r.faults.detected_total().to_string(),
            r.faults.absorbed_total().to_string(),
            format!("{:.1}", r.sum_messages_per_node + r.dissemination_messages_per_node),
            format!("{:.2}", r.max_level_error),
            r.converged_clusters.to_string(),
            format!("{:.2}", r.epsilon_spent),
        ]);
    }
    table.print();
}

fn counters_json(c: &chiaroscuro_gossip::sim::FaultCounters) -> Json {
    Json::object()
        .set("injected", c.injected)
        .set("detected", c.detected)
        .set("absorbed", c.absorbed)
}

fn faults_json(f: &FaultStats) -> Json {
    Json::object()
        .set("malformed", counters_json(&f.malformed))
        .set("replayed", counters_json(&f.replayed))
        .set("duplicated", counters_json(&f.duplicated))
        .set("dropped_replies", counters_json(&f.dropped_replies))
        .set("eclipsed", counters_json(&f.eclipsed))
        .set("injected_total", f.injected_total())
        .set("detected_total", f.detected_total())
        .set("absorbed_total", f.absorbed_total())
}

#[allow(clippy::too_many_arguments, reason = "echoes every parsed CLI flag into the JSON header")]
fn render_json(
    rows: &[SweepRow],
    population: usize,
    sim_shards: usize,
    k: usize,
    iterations: usize,
    exchanges: u32,
    key_bits: u64,
    epsilon: f64,
    seed: u64,
    salt: u64,
) -> Json {
    let fractions: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .set("fraction", r.fraction)
                .set("byzantine_nodes", r.byzantine_nodes)
                .set("iterations", r.iterations)
                .set("wall_secs", r.wall_secs)
                .set("faults", faults_json(&r.faults))
                .set(
                    "network",
                    Json::object()
                        .set("sum_messages_per_node", r.sum_messages_per_node)
                        .set(
                            "dissemination_messages_per_node",
                            r.dissemination_messages_per_node,
                        ),
                )
                .set(
                    "quality",
                    Json::object()
                        .set("max_level_abs_error", r.max_level_error)
                        .set("surviving_clusters", r.converged_clusters)
                        .set("epsilon_spent", r.epsilon_spent),
                )
        })
        .collect();
    Json::object()
        .set("bench", "adversary_sweep")
        .set(
            "config",
            Json::object()
                .set("backend", "plaintext-surrogate")
                .set("adversary_profile", "mixed")
                .set("population", population)
                .set("sim_shards", sim_shards)
                .set("k", k)
                .set("series_length", SWEEP_SERIES_LEN)
                .set("max_iterations", iterations)
                .set("exchanges", exchanges)
                .set("key_bits", key_bits)
                .set("epsilon", epsilon)
                .set("latency_model", "log-normal")
                .set("seed", seed)
                .set("salt", salt),
        )
        .set("fractions", fractions)
}
