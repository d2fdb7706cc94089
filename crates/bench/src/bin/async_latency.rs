//! Figure 4(a) under realistic latencies — the asynchronous epidemic sum
//! (EESum, Algorithm 2, over its plaintext mirror).
//!
//! The round-based `fig4_latency` harness reports latency as message
//! counts; this bin replays the same experiment on the event-driven
//! simulator (`chiaroscuro_gossip::sim`) with log-normal per-edge delays
//! and message loss, so latency comes out in *simulated wall-clock time*:
//! the time at which each target absolute error is first met, plus
//! per-node convergence-time percentiles (p50/p90/p99, read at the
//! exchange-period barriers) and network-load figures (peak/mean messages
//! in flight) the round engine cannot express.
//!
//! Alongside the human-readable tables the bin writes a machine-readable
//! artifact (default `BENCH_latency.json`) so the perf trajectory
//! accumulates across PRs.
//!
//! Usage:
//!   async_latency [--max-population 10000] [--horizon 60] [--seed 1]
//!                 [--median 0.25] [--sigma 0.5] [--loss 0.01]
//!                 [--edge-spread 0.3] [--target 0.001]
//!                 [--json-out BENCH_latency.json]

use chiaroscuro_bench::workloads::FirstHits;
use chiaroscuro_bench::{Args, Json, Table};
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::sim::{
    AsyncNetworkConfig, ConvergenceTimes, LatencyModel, ShardedAsyncEngine,
};
use chiaroscuro_gossip::eesum::{convergence_report, initial_states, EesSumProtocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One population's measurements.
struct PopulationResult {
    population: usize,
    /// Per target absolute error, the first `(sim-time, messages/node)`
    /// at which it held.
    targets: FirstHits<(f64, f64)>,
    /// Convergence-time percentiles for the tightest target.
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
    converged_fraction: f64,
    peak_in_flight: usize,
    mean_in_flight: f64,
    messages_sent: u64,
    messages_lost: u64,
}

fn main() {
    let args = Args::from_env();
    let max_population = args.get("max-population", 10_000usize);
    let horizon = args.get("horizon", 60u32);
    let seed = args.get("seed", 1u64);
    let median = args.get("median", 0.25f64);
    let sigma = args.get("sigma", 0.5f64);
    let loss = args.get("loss", 0.01f64);
    let edge_spread = args.get("edge-spread", 0.3f64);
    let tightest = args.get("target", 0.001f64);
    let json_out = args.get_str("json-out", "BENCH_latency.json");

    let config = AsyncNetworkConfig::default()
        .with_latency(LatencyModel::LogNormal { median, sigma })
        .with_loss(loss)
        .with_edge_spread(edge_spread);
    let error_targets = [tightest, 0.01, 0.1, 1.0];

    let mut results = Vec::new();
    let mut population = 1_000usize;
    while population <= max_population {
        results.push(measure(population, &config, &error_targets, horizon, seed));
        population *= 10;
    }

    print_tables(&results, &error_targets, horizon);
    let doc = render_json(&results, &config, median, sigma, horizon, seed);
    std::fs::write(&json_out, doc.render()).expect("writing the bench artifact");
    println!("\nwrote {json_out}");
}

/// Runs the epidemic count aggregate (a sum of ones — the Fig 4(a)
/// workload) over one population and collects both views of its latency.
fn measure(
    population: usize,
    config: &AsyncNetworkConfig,
    error_targets: &[f64],
    horizon: u32,
    seed: u64,
) -> PopulationResult {
    let exact = population as f64;
    let tight = error_targets[0];

    // One period at a time: at every barrier, record when each target
    // absolute error is first met across the whole population (the Fig 4(a)
    // y-axis, in simulated time rather than rounds) and read each node's
    // standing against the tightest target, for the per-node percentiles.
    let mut rng = StdRng::seed_from_u64(seed + population as u64);
    let states = initial_states(vec![1.0; population]);
    let mut engine = ShardedAsyncEngine::new(states, config.clone(), ChurnModel::NONE);
    let mut targets = FirstHits::new(error_targets);
    let mut times = ConvergenceTimes::new(population);
    for period in 1..=horizon {
        engine.run_for(&EesSumProtocol, 1.0, &mut rng);
        let elapsed = f64::from(period);
        let report = convergence_report(engine.nodes(), exact);
        targets.record(&report, (elapsed, engine.metrics().messages_per_node(population)));
        for (node, state) in engine.nodes().iter().enumerate() {
            let done = state.estimate().is_some_and(|est| (est - exact).abs() <= tight);
            times.observe(node, elapsed, done);
        }
    }
    let sim = engine.sim_metrics();

    PopulationResult {
        population,
        targets,
        p50: times.percentile(0.5),
        p90: times.percentile(0.9),
        p99: times.percentile(0.99),
        converged_fraction: times.converged_fraction(),
        peak_in_flight: sim.peak_in_flight,
        mean_in_flight: sim.mean_in_flight(f64::from(horizon)),
        messages_sent: sim.messages_sent,
        messages_lost: sim.messages_lost,
    }
}

fn print_tables(results: &[PopulationResult], error_targets: &[f64], horizon: u32) {
    let headers: Vec<String> = std::iter::once("population".to_string())
        .chain(error_targets.iter().map(|e| format!("err {e}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut time_table = Table::new(
        "Fig 4(a), asynchronous — simulated time (in exchange periods) to each target absolute error",
        &header_refs,
    );
    for r in results {
        let mut cells = vec![r.population.to_string()];
        for (_, hit) in r.targets.hits() {
            cells.push(hit.map(|(t, _)| format!("{t:.0}")).unwrap_or_else(|| format!(">{horizon}")));
        }
        time_table.row(&cells);
    }
    time_table.print();

    let mut node_table = Table::new(
        "Per-node convergence time at the tightest target, and network load",
        &["population", "p50", "p90", "p99", "converged", "peak in-flight", "mean in-flight", "lost/sent"],
    );
    for r in results {
        let fmt = |t: Option<f64>| t.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into());
        node_table.row(&[
            r.population.to_string(),
            fmt(r.p50),
            fmt(r.p90),
            fmt(r.p99),
            format!("{:.0}%", r.converged_fraction * 100.0),
            r.peak_in_flight.to_string(),
            format!("{:.0}", r.mean_in_flight),
            format!("{}/{}", r.messages_lost, r.messages_sent),
        ]);
    }
    node_table.print();
}

fn render_json(
    results: &[PopulationResult],
    config: &AsyncNetworkConfig,
    median: f64,
    sigma: f64,
    horizon: u32,
    seed: u64,
) -> Json {
    let populations: Vec<Json> = results
        .iter()
        .map(|r| {
            let targets: Vec<Json> = r
                .targets
                .hits()
                .iter()
                .map(|&(target, hit)| {
                    Json::object()
                        .set("abs_error", target)
                        .set("sim_time", hit.map(|(time, _)| time))
                        .set("messages_per_node", hit.map(|(_, messages)| messages))
                })
                .collect();
            Json::object()
                .set("population", r.population)
                .set("targets", targets)
                .set(
                    "convergence_percentiles",
                    Json::object()
                        .set("p50", r.p50)
                        .set("p90", r.p90)
                        .set("p99", r.p99)
                        .set("converged_fraction", r.converged_fraction),
                )
                .set(
                    "network_load",
                    Json::object()
                        .set("peak_in_flight", r.peak_in_flight)
                        .set("mean_in_flight", r.mean_in_flight)
                        .set("messages_sent", r.messages_sent)
                        .set("messages_lost", r.messages_lost),
                )
        })
        .collect();
    Json::object()
        .set("bench", "async_latency")
        .set(
            "config",
            Json::object()
                .set("latency_model", "log-normal")
                .set("median", median)
                .set("sigma", sigma)
                .set("loss_probability", config.loss_probability)
                .set("edge_spread", config.edge_spread)
                .set("horizon", horizon)
                .set("seed", seed),
        )
        .set("populations", populations)
}
