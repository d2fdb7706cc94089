//! Population sweep of the full protocol at paper scale (1k → 1M devices).
//!
//! The paper evaluates clustering quality with a centralized perturbed
//! k-means surrogate because it cannot run millions of real devices
//! (§6.1).  With the pluggable cipher backend the repo no longer has that
//! limitation for *protocol* questions: this bin runs the complete
//! distributed pipeline — Diptych assignment, lane-packed EESum on the
//! row-slab arena, cleartext counter, noise-surplus dissemination,
//! packed decode, ε accounting — on the plaintext-surrogate backend over
//! the event-driven asynchronous network, sweeping the population by
//! decades and reporting throughput (node-iterations/sec), peak RSS, network load
//! and convergence, into both a human-readable table and a
//! machine-readable `BENCH_scale.json` artifact.
//!
//! The surrogate backend decodes bit-identically to the Damgård–Jurik
//! backend from the same seed (pinned by the scenario matrix and the
//! backend-equivalence proptests), so every quality/ε number below is what
//! the crypto run would have produced — only the modular arithmetic is
//! skipped.
//!
//! Usage:
//!   scale_sweep [--min-population 1000] [--max-population 1000000]
//!               [--k 2] [--iterations 2] [--exchanges 20] [--key-bits 1024]
//!               [--epsilon 30] [--seed 1] [--median 0.25] [--sigma 0.5]
//!               [--shard-counts 1] [--json-out BENCH_scale.json]
//!
//! `--shard-counts` takes a comma-separated list of simulator shard counts
//! (the one windowed engine on that many workers, `1` included); every
//! population is run once per count, so the artifact reports
//! node-iterations/sec per worker count.  Results are bit-identical for
//! every count by construction, but throughput is not — that is the point
//! of the sweep.

use std::time::Instant;

use chiaroscuro_bench::workloads::{constant_profile_dataset, profile_levels, SWEEP_SERIES_LEN};
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_core::prelude::*;
use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
use chiaroscuro_timeseries::TimeSeries;

struct SweepRow {
    population: usize,
    /// Simulator shard (= worker) count the row ran with.
    sim_shards: usize,
    wall_secs: f64,
    /// Device-iterations processed per wall-clock second (population ×
    /// iterations ÷ wall time): the honest throughput unit, since every
    /// iteration re-runs the full per-device pipeline.
    node_iterations_per_sec: f64,
    peak_rss_mb: Option<f64>,
    sum_messages_per_node: f64,
    dissemination_messages_per_node: f64,
    payload_units: usize,
    payload_bytes: usize,
    gossip_sim_time: f64,
    peak_in_flight: usize,
    iterations: usize,
    epsilon_spent: f64,
    max_level_error: f64,
    converged_clusters: usize,
}

fn main() {
    let args = Args::from_env();
    let min_population = args.get("min-population", 1_000usize);
    let max_population = args.get("max-population", 1_000_000usize);
    let k = args.get("k", 2usize);
    let iterations = args.get("iterations", 2usize);
    let exchanges = args.get("exchanges", 20u32);
    let key_bits = args.get("key-bits", 1_024u64);
    let epsilon = args.get("epsilon", 30.0f64);
    let seed = args.get("seed", 1u64);
    let median = args.get("median", 0.25f64);
    let sigma = args.get("sigma", 0.5f64);
    let json_out = args.get_str("json-out", "BENCH_scale.json");
    let shard_counts: Vec<usize> = args
        .get_str("shard-counts", "1")
        .split(',')
        .map(|s| s.trim().parse().expect("--shard-counts takes a comma-separated list of counts"))
        .collect();

    let mut rows = Vec::new();
    let mut population = min_population;
    while population <= max_population {
        for &sim_shards in &shard_counts {
            println!("running {population} nodes with {sim_shards} shard(s)...");
            rows.push(run_population(
                population, sim_shards, k, iterations, exchanges, key_bits, epsilon, seed, median,
                sigma,
            ));
        }
        population = population.saturating_mul(10);
    }

    print_table(&rows);
    let doc = render_json(&rows, k, iterations, exchanges, key_bits, epsilon, seed, median, sigma);
    std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
    println!("\nwrote {json_out}");
}

#[allow(clippy::too_many_arguments, reason = "one sweep point: the parsed CLI flags, passed through flat")]
fn run_population(
    population: usize,
    sim_shards: usize,
    k: usize,
    iterations: usize,
    exchanges: u32,
    key_bits: u64,
    epsilon: f64,
    seed: u64,
    median: f64,
    sigma: f64,
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
                .with_latency(LatencyModel::LogNormal { median, sigma })
                // Whole-population predicates are O(population) per check:
                // once per simulated period keeps the dissemination phase
                // O(population · periods) instead of O(population²).
                .with_convergence_check_period(1.0),
        ))
        .sim_shards(sim_shards)
        .build();

    let start = Instant::now();
    let outcome = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data)
        .with_initial_centroids(init)
        .execute(seed.wrapping_add(population as u64));
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
        population,
        sim_shards,
        wall_secs,
        node_iterations_per_sec: (population * ran_iterations) as f64 / wall_secs,
        peak_rss_mb: peak_rss_kb().map(|kb| kb as f64 / 1024.0),
        sum_messages_per_node: last.sum_messages_per_node,
        dissemination_messages_per_node: last.dissemination_messages_per_node,
        payload_units: last.sum_payload_ciphertexts,
        payload_bytes: last.sum_payload_bytes,
        gossip_sim_time: outcome.network.iter().map(|s| s.gossip_sim_time).sum(),
        peak_in_flight: outcome.network.iter().map(|s| s.peak_messages_in_flight).max().unwrap_or(0),
        iterations: ran_iterations,
        epsilon_spent: outcome.report.total_epsilon(),
        max_level_error,
        converged_clusters: outcome.report.iterations.last().map(|i| i.surviving_centroids).unwrap_or(0),
    }
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.  Note the sweep runs every
/// population in one process, so the value is the high-water mark *up to*
/// each row — the last row owns the honest per-population figure.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

fn print_table(rows: &[SweepRow]) {
    let mut table = Table::new(
        "Population sweep — full protocol on the plaintext-surrogate backend (async network)",
        &[
            "population",
            "shards",
            "wall s",
            "node-iters/s",
            "peak RSS MB",
            "msgs/node",
            "payload units",
            "payload kB",
            "sim time",
            "max |err|",
            "clusters",
            "eps",
        ],
    );
    for r in rows {
        table.row(&[
            r.population.to_string(),
            r.sim_shards.to_string(),
            format!("{:.1}", r.wall_secs),
            format!("{:.0}", r.node_iterations_per_sec),
            r.peak_rss_mb.map(|m| format!("{m:.0}")).unwrap_or_else(|| "-".into()),
            format!("{:.1}", r.sum_messages_per_node + r.dissemination_messages_per_node),
            r.payload_units.to_string(),
            format!("{:.2}", r.payload_bytes as f64 / 1_000.0),
            format!("{:.1}", r.gossip_sim_time),
            format!("{:.2}", r.max_level_error),
            r.converged_clusters.to_string(),
            format!("{:.2}", r.epsilon_spent),
        ]);
    }
    table.print();
}

#[allow(clippy::too_many_arguments, reason = "echoes every parsed CLI flag into the JSON header")]
fn render_json(
    rows: &[SweepRow],
    k: usize,
    iterations: usize,
    exchanges: u32,
    key_bits: u64,
    epsilon: f64,
    seed: u64,
    median: f64,
    sigma: f64,
) -> Json {
    let populations: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .set("population", r.population)
                .set("sim_shards", r.sim_shards)
                .set("iterations", r.iterations)
                .set("wall_secs", r.wall_secs)
                .set("node_iterations_per_sec", r.node_iterations_per_sec)
                .set("peak_rss_mb", r.peak_rss_mb)
                .set(
                    "network",
                    Json::object()
                        .set("sum_messages_per_node", r.sum_messages_per_node)
                        .set("dissemination_messages_per_node", r.dissemination_messages_per_node)
                        .set("sum_payload_units", r.payload_units)
                        .set("sum_payload_bytes", r.payload_bytes)
                        .set("gossip_sim_time", r.gossip_sim_time)
                        .set("peak_messages_in_flight", r.peak_in_flight),
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
        .set("bench", "scale_sweep")
        .set(
            "config",
            Json::object()
                .set("backend", "plaintext-surrogate")
                .set("k", k)
                .set("series_length", SWEEP_SERIES_LEN)
                .set("max_iterations", iterations)
                .set("exchanges", exchanges)
                .set("key_bits", key_bits)
                .set("epsilon", epsilon)
                .set("latency_model", "log-normal")
                .set("median", median)
                .set("sigma", sigma)
                .set("seed", seed),
        )
        .set("populations", populations)
}
