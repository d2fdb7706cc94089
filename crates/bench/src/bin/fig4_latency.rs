//! Figure 4 — internal latencies of the computation step.
//!
//! * 4(a): average number of messages per participant for the epidemic
//!   encrypted sum to reach a target absolute approximation error
//!   (±0.001 … ±1; EESum's rule, Algorithm 2, over its plaintext mirror),
//!   plus the latency of the min-id dissemination, for populations from 1K
//!   to 1M;
//! * 4(b): average number of messages per peer for the epidemic decryption
//!   as a function of the key-share threshold (fraction of the population);
//! * `--part iteration-model`: the §6.3.2 composition of per-ciphertext
//!   local costs and message counts into an iteration duration;
//!   `--lanes L` models the lane-packed encoding (⌈k·(n+1)/L⌉ + 1
//!   ciphertexts per set instead of one per coordinate).
//!
//! Usage:
//!   fig4_latency [--part sum|decryption|iteration-model|all]
//!                [--max-population 1000000] [--seed 1]
//!                [--lanes 1] [--set-kb 130]
//!                [--json-out PATH]   (machine-readable 4(a) rows)

use chiaroscuro_bench::args::usage_error;
use chiaroscuro_bench::cost_model::iteration_estimate;
use chiaroscuro_bench::workloads::FirstHits;
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::decryption::simulate_decryption;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena};
use chiaroscuro_gossip::engine::GossipEngine;
use chiaroscuro_gossip::eesum::{convergence_report, initial_states, EesSumProtocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::from_env();
    let part = args.get_choice("part", "all", &["sum", "decryption", "iteration-model", "all"]);
    let json_out = args.get_str("json-out", "");
    if !json_out.is_empty() && !matches!(part, "sum" | "all") {
        usage_error(&format!(
            "--json-out captures the 4(a) sum rows; run with --part sum or --part all \
             (got --part {part}, which would write an empty artifact)"
        ));
    }
    let sum_rows = if matches!(part, "sum" | "all") { sum_part(&args) } else { Vec::new() };
    if part == "decryption" || part == "all" {
        decryption_part(&args);
    }
    if part == "iteration-model" || part == "all" {
        iteration_model_part(&args);
    }
    // Machine-readable artifact (same row content as the 4(a) table), so
    // the round-based latency figures accumulate alongside the async
    // bench's BENCH_latency.json.
    if !json_out.is_empty() {
        let doc = Json::object().set("bench", "fig4_latency").set("sum", Json::Array(sum_rows));
        std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
        println!("\nwrote {json_out}");
    }
}

/// Figure 4(a): epidemic sum + dissemination latency.  Returns one JSON row
/// per population for the optional `--json-out` artifact.
fn sum_part(args: &Args) -> Vec<Json> {
    let max_population = args.get("max-population", 100_000usize);
    let seed = args.get("seed", 1u64);
    let errors = [1e-3, 1e-2, 1e-1, 1.0];

    let mut table = Table::new(
        "Fig 4(a) — messages per node for the epidemic sum (per target absolute error) and dissemination",
        &["population", "err 0.001", "err 0.01", "err 0.1", "err 1", "dissemination"],
    );
    let mut rows = Vec::new();
    let mut population = 1_000usize;
    while population <= max_population {
        let mut cells = vec![population.to_string()];
        // Sum: run round by round until each target error is met.
        let mut rng = StdRng::seed_from_u64(seed + population as u64);
        let states = initial_states(vec![1.0; population]);
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        // Run rounds once and record the message count at which each target
        // absolute error is first satisfied.
        let mut hits = FirstHits::new(&errors);
        for _ in 0..200 {
            engine.run_round(&EesSumProtocol, &mut rng);
            let report = convergence_report(engine.nodes(), population as f64);
            if hits.record(&report, engine.metrics().messages_per_node(population)) {
                break;
            }
        }
        // Report tightest-to-loosest in the paper's order (0.001 first).
        for (_, result) in hits.hits() {
            cells.push(result.map(|m| format!("{m:.0}")).unwrap_or_else(|| ">400".into()));
        }
        // Dissemination latency.
        let mut rng = StdRng::seed_from_u64(seed + 7 + population as u64);
        let arena = MinIdArena::build(population, 1, |_, payload| {
            let id = rng.gen();
            payload[0] = f64::from_bits(rng.gen());
            id
        });
        let mut dis_engine = GossipEngine::new(arena, ChurnModel::NONE);
        dis_engine.run_until(&DisseminationProtocol, 100, &mut rng, MinIdArena::converged, None);
        cells.push(format!("{:.0}", dis_engine.metrics().messages_per_node(population)));
        table.row(&cells);
        let targets: Vec<Json> = hits
            .hits()
            .iter()
            .map(|&(target, result)| {
                Json::object().set("abs_error", target).set("messages_per_node", result)
            })
            .collect();
        rows.push(
            Json::object()
                .set("population", population)
                .set("targets", targets)
                .set("dissemination_messages_per_node", dis_engine.metrics().messages_per_node(population)),
        );
        population *= 10;
    }
    table.print();
    rows
}

/// Figure 4(b): epidemic decryption latency vs key-share threshold.
fn decryption_part(args: &Args) {
    let max_population = args.get("max-population", 100_000usize);
    let seed = args.get("seed", 1u64);
    let fractions = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

    let mut table = Table::new(
        "Fig 4(b) — messages per peer for the epidemic decryption vs key-share threshold",
        &["population", "1e-5", "1e-4", "1e-3", "1e-2", "1e-1"],
    );
    let mut population = 1_000usize;
    while population <= max_population {
        let mut cells = vec![population.to_string()];
        for fraction in fractions {
            let threshold = ((population as f64 * fraction).round() as usize).max(1);
            // Mirror the paper's platform limit: skip combinations whose
            // state would not fit in memory (they report the same limit).
            if population * threshold > 50_000_000 {
                cells.push("platform limit".to_string());
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed + population as u64 + threshold as u64);
            let report = simulate_decryption(population, threshold, ChurnModel::NONE, 2_000, &mut rng);
            cells.push(format!("{:.0}", report.messages_per_node));
        }
        table.row(&cells);
        population *= 10;
    }
    table.print();
}

/// §6.3.2: iteration latency model (per-ciphertext costs, parameterised on
/// the ciphertexts-per-set shape so the `--lanes` knob models lane packing).
fn iteration_model_part(args: &Args) {
    let lanes = args.get("lanes", 1usize).max(1);
    let set_kilobytes = args.get("set-kb", 130.0f64);
    let mut table = Table::new(
        "§6.3.2 — modelled iteration duration (1M participants, 1 Mb/s links)",
        &["iteration", "surviving centroids", "ciphertexts/set", "estimated minutes"],
    );
    for (iteration, surviving_fraction) in [(1usize, 1.0f64), (5, 0.4)] {
        let (ciphertexts, minutes) = iteration_estimate(lanes, set_kilobytes, surviving_fraction);
        table.row(&[
            iteration.to_string(),
            format!("{:.0}%", surviving_fraction * 100.0),
            ciphertexts.to_string(),
            format!("{minutes:.1}"),
        ]);
    }
    table.print();
}
