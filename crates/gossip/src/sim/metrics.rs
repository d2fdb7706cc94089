//! Wall-clock latency metrics of the asynchronous simulation.
//!
//! The round-based engine can only count rounds and exchanges; the
//! event-driven engine also knows *when* everything happened, so it can
//! report the quantities the paper's latency figures (§6.3) are actually
//! about: how long each node took to converge, and how loaded the network
//! was while getting there.

/// Message-level accounting of one asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimMetrics {
    /// Messages put on the wire (requests and replies, including ones that
    /// were subsequently lost).
    pub messages_sent: u64,
    /// Messages that never took effect: dropped by the loss model, or
    /// addressed to (or awaited by) a node that was offline on arrival.
    pub messages_lost: u64,
    /// Requests currently in transit.
    pub in_flight: usize,
    /// The largest number of requests simultaneously in transit.
    pub peak_in_flight: usize,
    /// Time-weighted integral of the in-flight count (divide by the elapsed
    /// simulated time for the average network load).
    area_in_flight: f64,
    /// Clock of the last in-flight change (for the time-weighted integral).
    last_change: f64,
}

impl SimMetrics {
    /// Records a request entering transit at `now`.
    pub fn depart(&mut self, now: f64) {
        self.advance(now);
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
    }

    /// Records a request leaving transit at `now`.
    pub fn arrive(&mut self, now: f64) {
        self.advance(now);
        debug_assert!(self.in_flight > 0, "arrival without a matching departure");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Advances the in-flight integral to `now` without changing the count.
    pub fn advance(&mut self, now: f64) {
        if now > self.last_change {
            self.area_in_flight += self.in_flight as f64 * (now - self.last_change);
            self.last_change = now;
        }
    }

    /// Average number of requests in transit over `[0, horizon]`.
    pub fn mean_in_flight(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            self.area_in_flight / horizon
        }
    }
}

/// Per-node convergence times collected by
/// [`ShardedAsyncEngine::run_tracked`](crate::sim::ShardedAsyncEngine::run_tracked).
///
/// A node's convergence time is the start of its *final* stretch of
/// satisfying the tracked predicate: each time an exchange flips the
/// predicate back to false the node's clock restarts, so a node that
/// briefly looked converged early does not flatter the percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTimes {
    times: Vec<Option<f64>>,
}

impl ConvergenceTimes {
    /// A tracker over `population` nodes, none converged yet.
    pub fn new(population: usize) -> Self {
        assert!(population > 0, "cannot track an empty population");
        Self { times: vec![None; population] }
    }

    /// Feeds one observation of `node` at `time`.
    pub fn observe(&mut self, node: usize, time: f64, holds: bool) {
        match (holds, self.times[node]) {
            (true, None) => self.times[node] = Some(time),
            (false, Some(_)) => self.times[node] = None,
            _ => {}
        }
    }

    /// Per-node first-and-still-converged times (`None` = never converged).
    pub fn times(&self) -> &[Option<f64>] {
        &self.times
    }

    /// Fraction of nodes that were converged at the end of the run.
    pub fn converged_fraction(&self) -> f64 {
        self.times.iter().flatten().count() as f64 / self.times.len() as f64
    }

    /// The `q`-th percentile (`q` in `[0, 1]`) of the convergence times of
    /// the nodes that did converge; `None` if no node converged.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
        let mut sorted: Vec<f64> = self.times.iter().flatten().copied().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_gauge_tracks_peak_and_area() {
        let mut m = SimMetrics::default();
        m.depart(0.0);
        m.depart(0.0);
        assert_eq!(m.in_flight, 2);
        assert_eq!(m.peak_in_flight, 2);
        m.arrive(1.0); // 2 in flight over [0, 1]
        m.arrive(2.0); // 1 in flight over [1, 2]
        assert_eq!(m.in_flight, 0);
        assert!((m.mean_in_flight(2.0) - 1.5).abs() < 1e-12);
        assert!((m.mean_in_flight(4.0) - 0.75).abs() < 1e-12);
        assert_eq!(m.mean_in_flight(0.0), 0.0);
    }

    #[test]
    fn convergence_times_restart_on_regression() {
        let mut t = ConvergenceTimes::new(3);
        t.observe(0, 1.0, true);
        t.observe(1, 2.0, true);
        t.observe(0, 3.0, false); // node 0 regressed: its clock restarts
        t.observe(0, 5.0, true);
        assert_eq!(t.times(), &[Some(5.0), Some(2.0), None]);
        assert!((t.converged_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_rank_converged_nodes() {
        let mut t = ConvergenceTimes::new(5);
        for (node, time) in [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)] {
            t.observe(node, time, true);
        }
        assert_eq!(t.percentile(0.0), Some(10.0));
        assert_eq!(t.percentile(0.5), Some(30.0)); // rank rounds up at 1.5
        assert_eq!(t.percentile(1.0), Some(40.0));
        assert_eq!(ConvergenceTimes::new(2).percentile(0.5), None);
    }
}
