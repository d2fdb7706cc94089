//! Population sweep of the full protocol at paper scale (1k → 1M devices).
//!
//! The paper evaluates clustering quality with a centralized perturbed
//! k-means surrogate because it cannot run millions of real devices
//! (§6.1).  With the pluggable cipher backend the repo no longer has that
//! limitation for *protocol* questions: this bin runs the complete
//! distributed pipeline — Diptych assignment, lane-packed EESum on the
//! row-slab arena, the contributor count, noise-surplus dissemination,
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

use chiaroscuro_bench::workloads::{SweepPoint, SweepRun, SWEEP_SERIES_LEN};
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_core::prelude::*;

struct SweepRow {
    point: SweepPoint,
    population: usize,
    /// Simulator shard (= worker) count the row ran with.
    sim_shards: usize,
    peak_rss_mb: Option<f64>,
}

impl SweepRow {
    /// Device-iterations processed per wall-clock second (population ×
    /// iterations ÷ wall time): the honest throughput unit, since every
    /// iteration re-runs the full per-device pipeline.
    fn node_iterations_per_sec(&self) -> f64 {
        (self.population * self.point.iterations()) as f64 / self.point.wall_secs
    }

    /// Simulated gossip time summed over the iterations.
    fn gossip_sim_time(&self) -> f64 {
        self.point.outcome.network.iter().map(|s| s.gossip_sim_time).sum()
    }

    /// Largest in-flight count any iteration reached.
    fn peak_in_flight(&self) -> usize {
        self.point.outcome.network.iter().map(|s| s.peak_messages_in_flight).max().unwrap_or(0)
    }
}

fn main() {
    let args = Args::from_env();
    let min_population = args.get("min-population", 1_000usize);
    let max_population = args.get("max-population", 1_000_000usize);
    let shard_counts: Vec<usize> = args.get_list("shard-counts", "1");
    let json_out = args.get_str("json-out", "BENCH_scale.json");
    let mut sweep = SweepRun {
        population: 0,
        k: args.get("k", 2usize),
        iterations: args.get("iterations", 2usize),
        exchanges: args.get("exchanges", 20u32),
        key_bits: args.get("key-bits", 1_024u64),
        epsilon: args.get("epsilon", 30.0f64),
        median: args.get("median", 0.25f64),
        sigma: args.get("sigma", 0.5f64),
        sim_shards: 1,
        adversary: AdversaryModel::NONE,
        seed: 0,
    };
    let seed = args.get("seed", 1u64);

    let mut rows = Vec::new();
    let mut population = min_population;
    while population <= max_population {
        for &sim_shards in &shard_counts {
            println!("running {population} nodes with {sim_shards} shard(s)...");
            sweep.population = population;
            sweep.sim_shards = sim_shards;
            sweep.seed = seed.wrapping_add(population as u64);
            let point = sweep.run();
            rows.push(SweepRow {
                point,
                population,
                sim_shards,
                peak_rss_mb: peak_rss_kb().map(|kb| kb as f64 / 1024.0),
            });
        }
        population = population.saturating_mul(10);
    }

    print_table(&rows);
    let doc = render_json(&rows, &sweep, seed);
    std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
    println!("\nwrote {json_out}");
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
        let last = r.point.last_network();
        table.row(&[
            r.population.to_string(),
            r.sim_shards.to_string(),
            format!("{:.1}", r.point.wall_secs),
            format!("{:.0}", r.node_iterations_per_sec()),
            r.peak_rss_mb.map(|m| format!("{m:.0}")).unwrap_or_else(|| "-".into()),
            format!("{:.1}", last.sum_messages_per_node + last.dissemination_messages_per_node),
            last.sum_payload_ciphertexts.to_string(),
            format!("{:.2}", last.sum_payload_bytes as f64 / 1_000.0),
            format!("{:.1}", r.gossip_sim_time()),
            format!("{:.2}", r.point.max_level_error),
            r.point.surviving_clusters().to_string(),
            format!("{:.2}", r.point.epsilon_spent()),
        ]);
    }
    table.print();
}

/// The artifact: the flags in `config`, then one object per row.
fn render_json(rows: &[SweepRow], sweep: &SweepRun, seed: u64) -> Json {
    let populations: Vec<Json> = rows
        .iter()
        .map(|r| {
            let last = r.point.last_network();
            Json::object()
                .set("population", r.population)
                .set("sim_shards", r.sim_shards)
                .set("iterations", r.point.iterations())
                .set("wall_secs", r.point.wall_secs)
                .set("node_iterations_per_sec", r.node_iterations_per_sec())
                .set("peak_rss_mb", r.peak_rss_mb)
                .set(
                    "network",
                    r.point
                        .network_json()
                        .set("sum_payload_units", last.sum_payload_ciphertexts)
                        .set("sum_payload_bytes", last.sum_payload_bytes)
                        .set("gossip_sim_time", r.gossip_sim_time())
                        .set("peak_messages_in_flight", r.peak_in_flight()),
                )
                .set("quality", r.point.quality_json())
        })
        .collect();
    Json::object()
        .set("bench", "scale_sweep")
        .set(
            "config",
            Json::object()
                .set("backend", "plaintext-surrogate")
                .set("k", sweep.k)
                .set("series_length", SWEEP_SERIES_LEN)
                .set("max_iterations", sweep.iterations)
                .set("exchanges", sweep.exchanges)
                .set("key_bits", sweep.key_bits)
                .set("epsilon", sweep.epsilon)
                .set("latency_model", "log-normal")
                .set("median", sweep.median)
                .set("sigma", sweep.sigma)
                .set("seed", seed),
        )
        .set("populations", populations)
}
