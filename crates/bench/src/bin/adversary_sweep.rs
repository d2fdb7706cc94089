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

use chiaroscuro_bench::workloads::{SweepPoint, SweepRun, SWEEP_SERIES_LEN};
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_core::prelude::*;
use chiaroscuro_gossip::sim::FaultCounters;

struct SweepRow {
    point: SweepPoint,
    fraction: f64,
    byzantine_nodes: usize,
}

fn main() {
    let args = Args::from_env();
    let salt = args.get("salt", 0xB52u64);
    let json_out = args.get_str("json-out", "BENCH_adversary.json");
    let fractions: Vec<f64> = args.get_list("fractions", "0,0.05,0.1,0.2,0.3");
    let mut sweep = SweepRun {
        population: args.get("population", 2_000usize),
        k: args.get("k", 2usize),
        iterations: args.get("iterations", 2usize),
        exchanges: args.get("exchanges", 20u32),
        key_bits: args.get("key-bits", 1_024u64),
        epsilon: args.get("epsilon", 30.0f64),
        median: 0.25,
        sigma: 0.5,
        sim_shards: args.get("sim-shards", 4usize),
        adversary: AdversaryModel::NONE,
        seed: args.get("seed", 1u64),
    };

    let mut rows = Vec::new();
    for &fraction in &fractions {
        println!("running {} nodes at adversary fraction {fraction}...", sweep.population);
        sweep.adversary = AdversaryModel::mixed(fraction, salt);
        let byzantine_nodes = (0..sweep.population).filter(|&i| sweep.adversary.is_byzantine(i)).count();
        rows.push(SweepRow { point: sweep.run(), fraction, byzantine_nodes });
    }

    print_table(&rows);
    let doc = render_json(&rows, &sweep, salt);
    std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
    println!("\nwrote {json_out}");
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
        let faults = r.point.faults();
        let last = r.point.last_network();
        table.row(&[
            format!("{:.2}", r.fraction),
            r.byzantine_nodes.to_string(),
            format!("{:.1}", r.point.wall_secs),
            faults.injected_total().to_string(),
            faults.detected_total().to_string(),
            faults.absorbed_total().to_string(),
            format!("{:.1}", last.sum_messages_per_node + last.dissemination_messages_per_node),
            format!("{:.2}", r.point.max_level_error),
            r.point.surviving_clusters().to_string(),
            format!("{:.2}", r.point.epsilon_spent()),
        ]);
    }
    table.print();
}

fn counters_json(c: &FaultCounters) -> Json {
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

/// The artifact: the flags in `config`, then one object per fraction.
fn render_json(rows: &[SweepRow], sweep: &SweepRun, salt: u64) -> Json {
    let fractions: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .set("fraction", r.fraction)
                .set("byzantine_nodes", r.byzantine_nodes)
                .set("iterations", r.point.iterations())
                .set("wall_secs", r.point.wall_secs)
                .set("faults", faults_json(&r.point.faults()))
                .set("network", r.point.network_json())
                .set("quality", r.point.quality_json())
        })
        .collect();
    Json::object()
        .set("bench", "adversary_sweep")
        .set(
            "config",
            Json::object()
                .set("backend", "plaintext-surrogate")
                .set("adversary_profile", "mixed")
                .set("population", sweep.population)
                .set("sim_shards", sweep.sim_shards)
                .set("k", sweep.k)
                .set("series_length", SWEEP_SERIES_LEN)
                .set("max_iterations", sweep.iterations)
                .set("exchanges", sweep.exchanges)
                .set("key_bits", sweep.key_bits)
                .set("epsilon", sweep.epsilon)
                .set("latency_model", "log-normal")
                .set("seed", sweep.seed)
                .set("salt", salt),
        )
        .set("fractions", fractions)
}
