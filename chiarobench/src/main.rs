//! chiarobench — the repository's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path chiarobench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S | --reps N] [--trace [0|1]] \
//!     [--check-repeat] [--smoke]
//! ```
//!
//! The process started by that command measures nothing itself: it re-runs
//! its own executable once per workload, one child at a time, so that a
//! workload's peak memory and the process-wide arithmetic switch belong to
//! that workload alone.  Each child prints its tables and ends with one JSON
//! result line; the parent forwards the tables, compares repeats when asked,
//! and ends with the result line of the whole invocation.  See `README.md`
//! for the metrics, the workloads and the layer map.

#![forbid(unsafe_code)]

mod json;
mod layers;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use chiaroscuro_bench::{Args, Json, Table};

use measure::{Options, END_TO_END};
use workloads::{Spec, DEFAULT_SEED, WORKLOADS};

/// Measuring time of one child when neither `--seconds` nor `--reps` says
/// otherwise; `BENCHMARK.json` gives the same figure as `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

fn main() -> ExitCode {
    let args = Args::from_env();
    let outcome = if args.flag("child") {
        child(&args)
    } else {
        parent(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("chiarobench: {message}");
            ExitCode::from(2)
        }
    }
}

fn selected(args: &Args) -> Result<Vec<Spec>, String> {
    let name = args.get_str("workload", "");
    let specs = match name.as_str() {
        "" => WORKLOADS.to_vec(),
        name => vec![Spec::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}`; the workloads are {}",
                known.join(", ")
            )
        })?],
    };
    Ok(if args.flag("smoke") {
        specs.into_iter().map(Spec::smoke).collect()
    } else {
        specs
    })
}

/// `--child`: measure one workload in this process and print its result.
fn child(args: &Args) -> Result<bool, String> {
    let spec = selected(args)?
        .pop()
        .expect("a child is given exactly one workload");
    let opts = Options {
        seed: args.get("seed", DEFAULT_SEED),
        seconds: args.get("seconds", DEFAULT_SECONDS),
        reps: args.get_str("reps", "").parse().ok(),
        smoke: args.flag("smoke"),
        spans_out: spans_path(&spec)?,
    };
    let trace = args.flag("trace");
    let report = measure::run_child(&spec, &opts, trace);
    let kind = if trace {
        "per-layer metrics (p50 of a traced run's probes)"
    } else {
        "end-to-end metrics"
    };
    println!("{}: {}", spec.name, spec.why);
    report.print(&format!("{}: {kind}, seed {}", spec.name, opts.seed));
    println!("{}", report.to_json().render());
    Ok(report.failed == 0 && report.failures.is_empty())
}

/// Where a traced run writes its spans: beside the executable, so inside the
/// build directory, whichever that is.
fn spans_path(spec: &Spec) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    Ok(exe.with_file_name(format!("spans-{}.json", spec.name)))
}

/// One child's parsed result line.
struct ChildResult {
    workload: &'static str,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, metric object)` in the child's order.
    metrics: Vec<(String, Json)>,
}

impl ChildResult {
    fn number(&self, metric: &str, key: &str) -> Option<f64> {
        let (_, object) = self.metrics.iter().find(|(name, _)| name == metric)?;
        json::number(json::field(object, key)?)
    }
}

/// Re-runs this executable for one workload, forwards everything the child
/// prints except its result line, and parses that line.
fn run_one(spec: &Spec, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--child", "--workload", spec.name]);
    for key in ["seed", "seconds", "reps"] {
        let value = args.get_str(key, "");
        if !value.is_empty() {
            command.args([format!("--{key}"), value]);
        }
    }
    for (key, on) in [("smoke", args.flag("smoke")), ("trace", trace)] {
        if on {
            command.arg(format!("--{key}"));
        }
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} child: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (tables, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{tables}");
    let malformed = |what: &str| format!("the {} child ({}) {what}", spec.name, output.status);
    let result =
        json::parse(line).map_err(|e| malformed(&format!("printed no result line: {e}")))?;
    let get = |key| {
        json::field(&result, key).ok_or_else(|| malformed("printed a result without all keys"))
    };
    let Json::Object(metrics) = get("metrics")?.clone() else {
        return Err(malformed("printed metrics that are not an object"));
    };
    Ok(ChildResult {
        workload: spec.name,
        correct: matches!(get("correct")?, Json::Bool(true)) && output.status.success(),
        attempted: json::number(get("attempted")?).unwrap_or(0.0),
        failed: json::number(get("failed")?).unwrap_or(0.0),
        metrics,
    })
}

fn run_set(specs: &[Spec], args: &Args, trace: bool) -> Result<Vec<ChildResult>, String> {
    specs
        .iter()
        .map(|spec| run_one(spec, args, trace))
        .collect()
}

fn parent(args: &Args) -> Result<bool, String> {
    let specs = selected(args)?;
    let trace = args.flag("trace");
    if trace && args.flag("check-repeat") {
        return Err("--check-repeat compares end-to-end metrics; drop --trace".into());
    }
    let mut results = run_set(&specs, args, trace)?;
    let mut repeats_agree = true;
    if args.flag("check-repeat") {
        let second = run_set(&specs, args, false)?;
        repeats_agree = check_repeat(&results, &second);
        results = second;
    }

    // The invocation's result line.  Metric names carry their workload only
    // when more than one ran.
    let prefix = |r: &ChildResult, name: &str| match results.len() {
        1 => name.to_string(),
        _ => format!("{}.{name}", r.workload),
    };
    let mut metrics = Json::object();
    for r in &results {
        for (name, object) in &r.metrics {
            let keep = |key| json::field(object, key).cloned().unwrap_or(Json::Null);
            metrics = metrics.set(
                &prefix(r, name),
                Json::object()
                    .set("value", keep("value"))
                    .set("unit", keep("unit")),
            );
        }
    }
    let correct = repeats_agree && results.iter().all(|r| r.correct);
    let total = |f: fn(&ChildResult) -> f64| results.iter().map(f).sum::<f64>();
    let line = Json::object()
        .set("correct", correct)
        .set("attempted", total(|r| r.attempted))
        .set("failed", total(|r| r.failed))
        .set("metrics", metrics);
    println!("{}", line.render());
    Ok(correct)
}

/// How the second of two measurements of the same code compares to the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Agree,
    Regressed,
    /// In one of the sets even the lower quartile of the reps sits further
    /// above their minimum than the bound: the minimum is a lone lucky rep,
    /// not a floor, and "same" cannot be told from "worse".
    Unresolved,
}

/// One measurement of one metric: the reported value and the lower quartile
/// of the samples behind it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: f64,
    lower_quartile: f64,
}

/// All end-to-end metrics are better when lower.  `floor` is an absolute
/// allowance on top of the relative bound (set-up times of a few
/// milliseconds move by more than a quarter from one run to the next).
fn verdict(first: Cell, second: Cell, bound: f64, floor: f64, deterministic: bool) -> Verdict {
    if deterministic {
        return if second.value <= first.value {
            Verdict::Agree
        } else {
            Verdict::Regressed
        };
    }
    let allowance = (bound * first.value).max(floor);
    let unsupported = |cell: Cell| cell.lower_quartile - cell.value > allowance;
    if unsupported(first) || unsupported(second) {
        Verdict::Unresolved
    } else if second.value - first.value > allowance {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

/// Compares two sets of end-to-end results cell by cell; false if any cell
/// regressed.
fn check_repeat(first: &[ChildResult], second: &[ChildResult]) -> bool {
    let mut table = Table::new(
        "check-repeat: second set against first",
        &[
            "workload", "metric", "first", "second", "change", "bound", "verdict",
        ],
    );
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for metric in &END_TO_END {
            let cell = |r: &ChildResult| {
                Some(Cell {
                    value: r.number(metric.name, "value")?,
                    lower_quartile: r.number(metric.name, "lower_quartile")?,
                })
            };
            let (Some(x), Some(y)) = (cell(a), cell(b)) else {
                ok = false;
                continue;
            };
            let floor = if metric.name == "setup_s" { 0.020 } else { 0.0 };
            let v = verdict(x, y, metric.bound, floor, metric.deterministic);
            ok &= v != Verdict::Regressed;
            table.row(&[
                a.workload.to_string(),
                metric.name.to_string(),
                format!("{:.6}", x.value),
                format!("{:.6}", y.value),
                format!("{:+.2}%", 100.0 * (y.value - x.value) / x.value),
                if metric.deterministic {
                    "exact".into()
                } else {
                    format!("{:.0}%", 100.0 * metric.bound)
                },
                format!("{v:?}").to_lowercase(),
            ]);
        }
    }
    table.print();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn cell(value: f64, lower_quartile: f64) -> Cell {
        Cell {
            value,
            lower_quartile,
        }
    }

    #[test]
    fn repeat_verdicts_follow_the_bounds() {
        let steady = cell(1.0, 1.02);
        assert_eq!(
            verdict(steady, cell(1.05, 1.06), 0.10, 0.0, false),
            Verdict::Agree
        );
        assert_eq!(
            verdict(steady, cell(0.50, 0.51), 0.10, 0.0, false),
            Verdict::Agree
        );
        assert_eq!(
            verdict(steady, cell(1.20, 1.21), 0.10, 0.0, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(steady, cell(1.0, 1.3), 0.10, 0.0, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(cell(1.0, 1.3), steady, 0.10, 0.0, false),
            Verdict::Unresolved
        );
        // The absolute floor rescues millisecond-sized set-ups.
        assert_eq!(
            verdict(cell(0.010, 0.010), cell(0.025, 0.026), 0.25, 0.020, false),
            Verdict::Agree
        );
        // Deterministic counts: any increase regresses, however small.
        let exact = cell(64.0, 64.0);
        assert_eq!(verdict(exact, exact, 0.05, 0.0, true), Verdict::Agree);
        assert_eq!(
            verdict(exact, cell(64.5, 64.5), 0.05, 0.0, true),
            Verdict::Regressed
        );
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_name_charset_is_enforced() {
        for good in [
            "iteration_s",
            "bigint.mont_mul_ns_1024",
            "p99-latency",
            "4k",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "with space",
            "slash/name",
            "ünicode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// `(name, unit)` of every entry of one of `BENCHMARK.json`'s metric lists.
    fn declared(manifest: &Json, list: &str) -> BTreeSet<(String, String)> {
        let Some(Json::Array(entries)) = json::field(manifest, list) else {
            panic!("BENCHMARK.json has no `{list}` list");
        };
        let text = |entry, key| {
            json::string(json::field(entry, key).unwrap())
                .unwrap()
                .to_string()
        };
        entries
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit")))
            .collect()
    }

    fn emitted(report: &measure::Report) -> BTreeSet<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// Drives every workload, traced and not, at the smoke size, and holds
    /// what they emit against `BENCHMARK.json`.
    #[test]
    fn smoke_run_emits_exactly_the_metrics_benchmark_json_declares() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let manifest =
            std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let manifest = json::parse(&manifest).expect("BENCHMARK.json parses");
        let end_to_end = declared(&manifest, "end_to_end");
        let per_layer = declared(&manifest, "per_layer");
        assert_eq!(
            end_to_end,
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect(),
        );
        let Some(Json::Array(entries)) = json::field(&manifest, "end_to_end") else {
            panic!()
        };
        for (entry, metric) in entries.iter().zip(&END_TO_END) {
            assert_eq!(
                json::number(json::field(entry, "bound").unwrap()),
                Some(metric.bound)
            );
        }
        let Some(Json::Array(workloads)) = json::field(&manifest, "workloads") else {
            panic!("BENCHMARK.json has no `workloads` list");
        };
        let text = |w, key| json::string(json::field(w, key).unwrap()).unwrap();
        let declared_workloads: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(
            declared_workloads,
            WORKLOADS
                .iter()
                .map(|w| (w.name, w.why))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            json::number(json::field(&manifest, "run_seconds").unwrap()),
            Some(DEFAULT_SECONDS)
        );

        for spec in WORKLOADS.map(Spec::smoke) {
            let opts = Options {
                seed: DEFAULT_SEED,
                seconds: 1.0,
                reps: Some(2),
                smoke: true,
                spans_out: spans_path(&spec).unwrap(),
            };
            let untraced = measure::run_child(&spec, &opts, false);
            assert!(
                untraced.failures.is_empty(),
                "{}: {:?}",
                spec.name,
                untraced.failures
            );
            assert_eq!((untraced.attempted, untraced.failed), (2, 0));
            assert_eq!(emitted(&untraced), end_to_end, "{} end to end", spec.name);

            let traced = measure::run_child(&spec, &opts, true);
            assert!(
                traced.failures.is_empty(),
                "{}: {:?}",
                spec.name,
                traced.failures
            );
            assert_eq!(emitted(&traced), per_layer, "{} per layer", spec.name);
            for m in untraced.metrics.iter().chain(&traced.metrics) {
                assert!(valid_name(m.name), "{}", m.name);
                assert!(m.value().is_finite(), "{} is not a number", m.name);
            }
            let spans =
                std::fs::read_to_string(&opts.spans_out).expect("the traced run wrote its spans");
            let spans = json::parse(&spans).expect("the span file parses");
            assert!(matches!(json::field(&spans, "spans"), Some(Json::Array(s)) if s.len() > 50));
            // The result line survives its own reader with the contract's keys.
            let Json::Object(keys) = json::parse(&untraced.to_json().render()).unwrap() else {
                panic!()
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}
