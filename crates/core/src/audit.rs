//! Security audit log.
//!
//! Requirement R2 of the paper states that no information threatening
//! privacy may leak from the collaborative execution: everything a
//! participant exports must be either homomorphically encrypted,
//! differentially private, or independent of the personal data.  The
//! distributed runner records every piece of information that crosses a
//! participant boundary together with its class; integration tests assert
//! that the [`DataClass::RawPersonalData`] class never appears, mirroring
//! the case analysis of the security proof (Appendix B.2).

use chiaroscuro_gossip::sim::FaultStats;

/// Classification of a piece of information leaving a participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    /// Protected by semantically secure homomorphic encryption.
    Encrypted,
    /// Protected by a differentially-private mechanism.
    DifferentiallyPrivate,
    /// Independent of the personal time-series and of the noise secret
    /// (weights, exchange counters, identifiers, correction proposals).
    DataIndependent,
    /// Raw personal data — must never occur; present in the enum so tests
    /// can assert its absence.
    RawPersonalData,
}

/// One audited transfer (or a batch of identical transfers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// The k-means iteration during which the transfer happened.
    pub iteration: usize,
    /// A short description of the transferred structure.
    pub what: String,
    /// The protection class of the transferred data.
    pub class: DataClass,
    /// How many identical transfers this event records.  The runner
    /// aggregates its per-participant transfers into one event per class
    /// per iteration — at a million participants a per-transfer log would
    /// cost hundreds of megabytes for no extra information.
    pub count: usize,
}

/// The audit log of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct SecurityAudit {
    events: Vec<AuditEvent>,
    /// Accumulated byzantine-fault counters (injected/detected/absorbed per
    /// class) over the whole run.  All-zero unless the run's
    /// [`AdversaryModel`](chiaroscuro_gossip::sim::AdversaryModel) is
    /// active — fault accounting never touches the audit of an honest run.
    faults: FaultStats,
}

impl SecurityAudit {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transfer.
    pub fn record(&mut self, iteration: usize, what: impl Into<String>, class: DataClass) {
        self.record_n(iteration, what, class, 1);
    }

    /// Records `count` identical transfers as one aggregated event.
    pub fn record_n(&mut self, iteration: usize, what: impl Into<String>, class: DataClass, count: usize) {
        self.events.push(AuditEvent { iteration, what: what.into(), class, count });
    }

    /// All recorded events.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Whether the run leaked raw personal data (must always be `false`).
    pub fn leaked_raw_data(&self) -> bool {
        self.events.iter().any(|e| e.class == DataClass::RawPersonalData)
    }

    /// Number of recorded transfers of a given class (aggregated events
    /// weigh in with their multiplicity).
    pub fn count(&self, class: DataClass) -> usize {
        self.events.iter().filter(|e| e.class == class).map(|e| e.count).sum()
    }

    /// Accumulates one segment's byzantine-fault counters into the run
    /// total (the runner calls this once per iteration when an adversary
    /// is active).
    pub fn record_faults(&mut self, stats: &FaultStats) {
        self.faults.merge(stats);
    }

    /// The run's accumulated byzantine-fault counters (all-zero for honest
    /// runs).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts_events() {
        let mut audit = SecurityAudit::new();
        audit.record(0, "encrypted means", DataClass::Encrypted);
        audit.record(0, "weight", DataClass::DataIndependent);
        audit.record(1, "perturbed centroids", DataClass::DifferentiallyPrivate);
        assert_eq!(audit.events().len(), 3);
        assert_eq!(audit.count(DataClass::Encrypted), 1);
        assert_eq!(audit.count(DataClass::DataIndependent), 1);
        assert!(!audit.leaked_raw_data());
    }

    #[test]
    fn aggregated_events_weigh_in_with_their_multiplicity() {
        let mut audit = SecurityAudit::new();
        audit.record_n(0, "encrypted means contribution", DataClass::Encrypted, 1_000);
        audit.record(0, "one-off", DataClass::Encrypted);
        assert_eq!(audit.events().len(), 2, "aggregation keeps the log small");
        assert_eq!(audit.count(DataClass::Encrypted), 1_001, "counts weigh multiplicity");
    }

    #[test]
    fn detects_raw_data_leaks() {
        let mut audit = SecurityAudit::new();
        audit.record(0, "oops", DataClass::RawPersonalData);
        assert!(audit.leaked_raw_data());
    }

    #[test]
    fn fault_counters_start_zero_and_accumulate() {
        let mut audit = SecurityAudit::new();
        assert_eq!(audit.fault_stats(), FaultStats::ZERO, "honest runs report all-zero");
        let mut segment = FaultStats::ZERO;
        segment.malformed.injected = 3;
        segment.malformed.detected = 3;
        segment.dropped_replies.injected = 1;
        segment.dropped_replies.absorbed = 1;
        audit.record_faults(&segment);
        audit.record_faults(&segment);
        let total = audit.fault_stats();
        assert_eq!(total.malformed.injected, 6);
        assert_eq!(total.injected_total(), 8);
        assert_eq!(total.detected_total(), 6);
        assert_eq!(total.absorbed_total(), 2);
    }
}
