//! The traced run's span recorder and the per-layer ledger.
//!
//! Spans exist only in the harness: they wrap set-up, the run and each
//! layer probe.  The ledger then multiplies each probe's unit cost by the
//! exact operation count the run implies and sets the product against the
//! run's wall-clock.

use std::time::Instant;

use chiaroscuro_bench::{Json, Table};

use crate::stats::now;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered (samples of a probe, reps of a run).
    pub count: u64,
}

/// Keeps spans in memory until the process ends.
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: now(),
            spans: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays open until [`Recorder::close`].
    pub fn open(&mut self, parent: Option<usize>, name: &str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    pub fn close(&mut self, id: usize, count: u64) {
        self.spans[id].end_ns = self.elapsed_ns();
        self.spans[id].count = count;
    }

    /// Records `f` as one span covering one operation.
    pub fn span<T>(
        &mut self,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, name, layer);
        let out = f();
        self.close(id, 1);
        out
    }

    pub fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object()
                    .set("id", s.id)
                    .set("parent", s.parent.map(|p| p as f64))
                    .set("name", s.name.as_str())
                    .set("layer", s.layer)
                    .set("workload", self.workload)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("count", s.count)
            })
            .collect::<Vec<_>>();
        Json::object()
            .set("workload", self.workload)
            .set("spans", spans)
    }
}

/// One ledger row: `count` operations of one kind at `unit_s` seconds each,
/// spread over `lanes` threads that run them side by side.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: &'static str,
    pub op: &'static str,
    pub count: f64,
    pub unit_s: f64,
    pub lanes: f64,
}

impl Row {
    /// Wall-clock seconds the row explains.
    pub fn seconds(&self) -> f64 {
        self.count * self.unit_s / self.lanes
    }
}

pub struct Ledger {
    pub rows: Vec<Row>,
    pub run_s: f64,
}

impl Ledger {
    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(Row::seconds).sum()
    }

    /// The share of the run's wall-clock no row explains; negative when the
    /// replayed costs overshoot the run.
    pub fn unattributed_share(&self) -> f64 {
        1.0 - self.attributed_s() / self.run_s
    }

    pub fn table(&self, workload: &str) -> Table {
        let mut table = Table::new(
            &format!("{workload}: layer ledger (count x fastest unit cost / threads, against core.run_s)"),
            &["layer", "op", "count", "unit cost", "threads", "seconds", "share"],
        );
        for row in &self.rows {
            table.row(&[
                row.layer.to_string(),
                row.op.to_string(),
                format!("{:.0}", row.count),
                format_seconds(row.unit_s),
                format!("{:.0}", row.lanes),
                format!("{:.4}", row.seconds()),
                format!("{:.1}%", 100.0 * row.seconds() / self.run_s),
            ]);
        }
        table.row(&[
            "core".into(),
            "unattributed".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.4}", self.run_s - self.attributed_s()),
            format!("{:.1}%", 100.0 * self.unattributed_share()),
        ]);
        table
    }
}

/// A duration in the largest unit that keeps it at or above one.
pub fn format_seconds(s: f64) -> String {
    match s {
        s if s >= 1.0 => format!("{s:.3} s"),
        s if s >= 1e-3 => format!("{:.3} ms", s * 1e3),
        s if s >= 1e-6 => format!("{:.3} us", s * 1e6),
        s => format!("{:.1} ns", s * 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_multiplies_counts_by_unit_costs_and_divides_by_threads() {
        let ledger = Ledger {
            rows: vec![
                Row {
                    layer: "crypto",
                    op: "encrypt",
                    count: 1_000.0,
                    unit_s: 2e-3,
                    lanes: 1.0,
                },
                Row {
                    layer: "dp",
                    op: "noise",
                    count: 400.0,
                    unit_s: 5e-4,
                    lanes: 2.0,
                },
            ],
            run_s: 2.5,
        };
        assert_eq!(ledger.rows[0].seconds(), 2.0);
        assert_eq!(ledger.rows[1].seconds(), 0.1);
        assert!((ledger.attributed_s() - 2.1).abs() < 1e-12);
        assert!((ledger.unattributed_share() - 0.16).abs() < 1e-12);
        assert!(ledger.table("w").render().contains("unattributed"));
    }

    #[test]
    fn spans_keep_their_parent_and_render_as_json() {
        let mut rec = Recorder::new("w");
        let root = rec.open(None, "root", "core");
        assert_eq!(rec.span(Some(root), "child", "crypto", || 7), 7);
        rec.close(root, 3);
        assert!(rec.seconds(root) >= rec.seconds(1));
        let json = rec.to_json().render();
        assert!(json.contains(r#""parent":null"#) && json.contains(r#""parent":0"#));
        assert!(json.contains(r#""count":3"#) && json.contains(r#""workload":"w""#));
    }

    #[test]
    fn durations_print_in_a_readable_unit() {
        assert_eq!(format_seconds(2.0), "2.000 s");
        assert_eq!(format_seconds(1.5e-3), "1.500 ms");
        assert_eq!(format_seconds(2.5e-6), "2.500 us");
        assert_eq!(format_seconds(4e-8), "40.0 ns");
    }
}
