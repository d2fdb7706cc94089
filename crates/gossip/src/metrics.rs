//! Message and round accounting for the latency figures.

/// Counters accumulated by the gossip engine.
///
/// One push-pull exchange costs two messages (request and reply), which is
/// how the paper reports "number of messages per participant".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeMetrics {
    exchanges: u64,
    rounds: u32,
}

impl ExchangeMetrics {
    /// Records one pairwise exchange.
    pub fn record_exchange(&mut self) {
        self.exchanges += 1;
    }

    /// Records the end of one round.
    pub fn record_round(&mut self) {
        self.rounds += 1;
    }

    /// Total number of pairwise exchanges.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Total number of messages (two per exchange).
    pub fn messages(&self) -> u64 {
        self.exchanges * 2
    }

    /// Number of rounds executed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Average number of messages per participant.
    pub fn messages_per_node(&self, population: usize) -> f64 {
        assert!(population > 0);
        self.messages() as f64 / population as f64
    }

    /// Merges counters from another run (used when protocols are phased).
    pub fn merge(&mut self, other: &ExchangeMetrics) {
        self.exchanges += other.exchanges;
        self.rounds += other.rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_averaging() {
        let mut m = ExchangeMetrics::default();
        for _ in 0..10 {
            m.record_exchange();
        }
        m.record_round();
        assert_eq!(m.exchanges(), 10);
        assert_eq!(m.messages(), 20);
        assert_eq!(m.rounds(), 1);
        assert!((m.messages_per_node(5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ExchangeMetrics::default();
        a.record_exchange();
        a.record_round();
        let mut b = ExchangeMetrics::default();
        b.record_exchange();
        b.record_exchange();
        a.merge(&b);
        assert_eq!(a.exchanges(), 3);
        assert_eq!(a.rounds(), 1);
    }
}
