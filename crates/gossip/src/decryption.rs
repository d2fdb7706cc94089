//! The epidemic threshold-decryption protocol of §4.2.3, at message-count
//! granularity.
//!
//! Every participant holds one distinct key-share and a set recording the
//! identifiers of the key-shares that have already partially decrypted its
//! local copy of the perturbed means.  During an exchange:
//!
//! 1. the *less advanced* participant (smaller set) erases its partially
//!    decrypted means and copies those of the more advanced one (the
//!    latency-reduction rule of the paper);
//! 2. each participant then applies its own key-share to the other's means
//!    if its identifier is not already present and the other still needs
//!    shares.
//!
//! The stopping criterion is the equality between the cardinality of the set
//! and the required number of key-shares τ.  The actual cryptographic
//! partial decryptions live in `chiaroscuro-crypto`; this module counts
//! messages and tracks share-identifier sets so Figure 4(b) can be
//! reproduced at population scale.

use rand::Rng;

use crate::churn::ChurnModel;
use crate::engine::{GossipEngine, PairwiseProtocol};

/// Identifier of a key-share (one per participant).
pub type ShareId = u32;

/// Per-participant decryption state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptionState {
    /// This participant's own key-share identifier.
    pub own_share: ShareId,
    /// Identifiers of the key-shares already applied to the local means,
    /// kept sorted.  Always contains `own_share`.
    pub applied: Vec<ShareId>,
    /// The required number of distinct key-shares τ.
    pub threshold: usize,
}

impl DecryptionState {
    /// Creates the initial state: the participant starts by applying its own
    /// key-share locally.
    pub fn new(own_share: ShareId, threshold: usize) -> Self {
        assert!(threshold >= 1);
        Self { own_share, applied: vec![own_share], threshold }
    }

    /// Whether the local means have received enough distinct key-shares.
    pub fn is_complete(&self) -> bool {
        self.applied.len() >= self.threshold
    }

    /// Number of distinct key-shares applied so far.
    pub fn progress(&self) -> usize {
        self.applied.len()
    }

    fn contains(&self, share: ShareId) -> bool {
        self.applied.binary_search(&share).is_ok()
    }

    fn insert(&mut self, share: ShareId) {
        if let Err(pos) = self.applied.binary_search(&share) {
            self.applied.insert(pos, share);
        }
    }
}

/// The epidemic decryption protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecryptionProtocol;

impl PairwiseProtocol<DecryptionState> for DecryptionProtocol {
    fn exchange(&self, initiator: &mut DecryptionState, contact: &mut DecryptionState) {
        // Latency reduction: the less advanced peer adopts the more advanced
        // peer's partially decrypted means (and thus its applied-share set).
        if initiator.progress() < contact.progress() {
            initiator.applied = contact.applied.clone();
        } else if contact.progress() < initiator.progress() {
            contact.applied = initiator.applied.clone();
        }
        // Each peer contributes its own key-share to the other if needed.
        if !contact.is_complete() && !contact.contains(initiator.own_share) {
            contact.insert(initiator.own_share);
        }
        if !initiator.is_complete() && !initiator.contains(contact.own_share) {
            initiator.insert(contact.own_share);
        }
        // A peer that adopted someone else's means re-applies its own
        // key-share locally (the copied means have not seen it yet).
        if !initiator.is_complete() && !initiator.contains(initiator.own_share) {
            let own = initiator.own_share;
            initiator.insert(own);
        }
        if !contact.is_complete() && !contact.contains(contact.own_share) {
            let own = contact.own_share;
            contact.insert(own);
        }
    }
}

/// Result of a simulated epidemic decryption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecryptionSimReport {
    /// Population size.
    pub population: usize,
    /// Required number of distinct key-shares τ.
    pub threshold: usize,
    /// Whether every participant completed within the round budget.
    pub completed: bool,
    /// Rounds executed.
    pub rounds: u32,
    /// Average number of messages per participant.
    pub messages_per_node: f64,
}

/// Simulates the epidemic decryption over `population` participants with
/// key-share threshold `threshold`, and reports the latency.
pub fn simulate_decryption<R: Rng + ?Sized>(
    population: usize,
    threshold: usize,
    churn: ChurnModel,
    max_rounds: u32,
    rng: &mut R,
) -> DecryptionSimReport {
    assert!(threshold >= 1 && threshold <= population, "threshold must be in 1..=population");
    let states: Vec<DecryptionState> =
        (0..population as ShareId).map(|i| DecryptionState::new(i, threshold)).collect();
    let mut engine = GossipEngine::new(states, churn);
    let completed = engine.run_until(
        &DecryptionProtocol,
        max_rounds,
        rng,
        |nodes| nodes.iter().all(DecryptionState::is_complete),
        None,
    );
    DecryptionSimReport {
        population,
        threshold,
        completed,
        rounds: engine.metrics().rounds(),
        messages_per_node: engine.metrics().messages_per_node(population),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_state_contains_own_share() {
        let s = DecryptionState::new(7, 3);
        assert_eq!(s.progress(), 1);
        assert!(s.contains(7));
        assert!(!s.is_complete());
        assert!(DecryptionState::new(7, 1).is_complete());
    }

    #[test]
    fn exchange_applies_both_shares() {
        let mut a = DecryptionState::new(1, 5);
        let mut b = DecryptionState::new(2, 5);
        DecryptionProtocol.exchange(&mut a, &mut b);
        assert!(a.contains(2) && b.contains(1));
        assert_eq!(a.progress(), 2);
        assert_eq!(b.progress(), 2);
    }

    #[test]
    fn exchange_never_duplicates_shares() {
        let mut a = DecryptionState::new(1, 5);
        let mut b = DecryptionState::new(2, 5);
        DecryptionProtocol.exchange(&mut a, &mut b);
        DecryptionProtocol.exchange(&mut a, &mut b);
        assert_eq!(a.progress(), 2, "applying the same share twice must be a no-op");
        let unique: std::collections::HashSet<_> = a.applied.iter().collect();
        assert_eq!(unique.len(), a.applied.len());
    }

    #[test]
    fn less_advanced_peer_adopts_more_advanced_means() {
        let mut a = DecryptionState::new(1, 10);
        a.applied = vec![1, 3, 4, 5, 6];
        let mut b = DecryptionState::new(2, 10);
        DecryptionProtocol.exchange(&mut a, &mut b);
        // b copied a's set and then both contributed their own shares.
        assert!(b.progress() >= 6);
        assert!(b.contains(3) && b.contains(6));
    }

    #[test]
    fn decryption_completes_and_counts_messages() {
        let mut rng = StdRng::seed_from_u64(1);
        let report = simulate_decryption(500, 10, ChurnModel::NONE, 200, &mut rng);
        assert!(report.completed);
        assert!(report.messages_per_node > 0.0);
        assert!(report.messages_per_node < 200.0, "messages/node = {}", report.messages_per_node);
    }

    #[test]
    fn latency_grows_with_threshold() {
        // Figure 4(b): the decryption latency is roughly linear in τ.
        let mut rng = StdRng::seed_from_u64(2);
        let small = simulate_decryption(1_000, 5, ChurnModel::NONE, 500, &mut rng);
        let large = simulate_decryption(1_000, 50, ChurnModel::NONE, 500, &mut rng);
        assert!(small.completed && large.completed);
        assert!(
            large.messages_per_node > small.messages_per_node,
            "small={}, large={}",
            small.messages_per_node,
            large.messages_per_node
        );
    }

    #[test]
    fn completes_under_churn() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate_decryption(500, 10, ChurnModel::new(0.25), 500, &mut rng);
        assert!(report.completed);
    }

    #[test]
    fn threshold_one_completes_immediately() {
        let mut rng = StdRng::seed_from_u64(4);
        let report = simulate_decryption(100, 1, ChurnModel::NONE, 10, &mut rng);
        assert!(report.completed);
        assert_eq!(report.rounds, 0);
    }
}
