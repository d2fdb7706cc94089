//! Seeded, deterministic byzantine fault injection for the gossip engines.
//!
//! ROADMAP item 5(a): the paper's guarantees assume honest-but-curious
//! participants, so the gap to a real fleet is the set of nodes that
//! *misbehave*.  This module defines that adversary as data —
//! [`AdversaryModel`] — and the runtime that injects its faults into any of
//! the two gossip engines ([`AdversaryState`]), with per-class damage
//! accounting ([`FaultStats`]) the runner surfaces in every iteration's
//! network stats and in the security audit.
//!
//! # Threat classes
//!
//! Byzantine membership is a pure threshold hash of `(salt, node)`: node
//! `i` is byzantine iff `hash(salt, i) < fraction`, so the colluding set is
//! a deterministic function of the model alone — no RNG draw, no state, and
//! identical across engines, shard counts and cipher backends.  An exchange
//! that involves a byzantine endpoint draws one fault class:
//!
//! * **malformed** — the byzantine peer ships a corrupted ciphertext; the
//!   honest side's decode rejects it (*detected*) and the exchange is
//!   voided.
//! * **replay** — a stale ciphertext from an earlier exchange; the
//!   freshness check rejects it (*detected*), exchange voided.
//! * **duplicate** — the byzantine peer re-sends old state instead of the
//!   fresh half-exchange; the merge discards the stale copy (*absorbed*),
//!   exchange voided.
//! * **drop-reply** — the byzantine contact swallows its reply
//!   selectively; the atomic push-pull is voided (*absorbed*), exactly like
//!   a transport-level reply loss.
//! * **eclipse** — honest-to-honest exchanges are redirected toward
//!   colluders with probability [`AdversaryModel::eclipse`]; the sink
//!   contributes nothing back (*absorbed*), exchange voided.
//!
//! Every void conserves protocol mass (the initiator keeps its state, as
//! with a lost reply) — the damage is *wasted mixing budget*: fewer
//! completed exchanges per round means slower variance decay and a worse
//! clustering under a fixed budget, which is what the `adversary_sweep`
//! bench curves measure.
//!
//! # Determinism contract
//!
//! * With [`AdversaryModel::is_active`] `false` the runner never constructs
//!   an [`AdversaryState`] and **no code path consumes an RNG draw**, so
//!   every pinned scenario seed reproduces its pre-adversary bits exactly.
//! * When active, the runner draws **one** `fault_seed` from the master
//!   stream; each fault decision then derives a dedicated `StdRng` from
//!   `(fault_seed, decision index)` — the engines' own schedules never see
//!   an extra draw.
//! * Decisions are indexed by a monotone counter advanced only for
//!   byzantine-involved (or eclipse-eligible) exchanges, evaluated in each
//!   engine's globally ordered apply stream (the planned round order on
//!   the round engine, the barrier's `(time, initiation window, initiator)`
//!   order on the async engine) — so fault outcomes are bit-invariant in the
//!   shard and worker counts.

use rand::rngs::StdRng;
use rand::Rng;

use crate::sim::shard::{mix, mixed_rng, unit_f64};

/// Configuration of a byzantine adversary: who misbehaves and how.
///
/// `fraction` selects the byzantine set (a pure hash of `salt`, see the
/// module docs); the per-class probabilities partition each
/// byzantine-involved exchange (their sum must be ≤ 1, the remainder
/// behaves honestly); `eclipse` poisons honest-to-honest contact sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryModel {
    /// Fraction of the population behaving byzantinely, in `[0, 1)`.
    pub fraction: f64,
    /// P(byzantine exchange ships a malformed ciphertext) — detected.
    pub malformed: f64,
    /// P(byzantine exchange replays a stale ciphertext) — detected.
    pub replay: f64,
    /// P(byzantine exchange duplicates old state) — absorbed.
    pub duplicate: f64,
    /// P(byzantine contact drops its reply) — absorbed.
    pub drop_reply: f64,
    /// P(honest-to-honest exchange is eclipsed toward a colluder sink),
    /// in `[0, 1]` — absorbed.
    pub eclipse: f64,
    /// Salt of the byzantine-membership hash: two models with different
    /// salts collude through different node sets.
    pub salt: u64,
}

/// The honest default: no byzantine nodes, no eclipse bias.
impl Default for AdversaryModel {
    fn default() -> Self {
        AdversaryModel::NONE
    }
}

impl AdversaryModel {
    /// No adversary at all (the default; guarantees zero RNG impact).
    pub const NONE: AdversaryModel = AdversaryModel {
        fraction: 0.0,
        malformed: 0.0,
        replay: 0.0,
        duplicate: 0.0,
        drop_reply: 0.0,
        eclipse: 0.0,
        salt: 0,
    };

    /// A standard mixed-behaviour adversary at the given byzantine
    /// `fraction`: 40% malformed, 20% replayed, 15% duplicated, 15%
    /// dropped replies, 10% honest residue, no eclipse.  The profile the
    /// scenario matrix and the `adversary_sweep` bench use.
    pub const fn mixed(fraction: f64, salt: u64) -> AdversaryModel {
        AdversaryModel {
            fraction,
            malformed: 0.40,
            replay: 0.20,
            duplicate: 0.15,
            drop_reply: 0.15,
            eclipse: 0.0,
            salt,
        }
    }

    /// Whether this model can affect a run at all.  Inactive models are
    /// never materialised into an [`AdversaryState`], which is what keeps
    /// the fraction-0 RNG stream bit-identical to the no-adversary path.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0 || self.eclipse > 0.0
    }

    /// Whether `node` belongs to the byzantine set — a pure threshold hash
    /// of `(salt, node)`, identical across engines and backends.
    pub fn is_byzantine(&self, node: usize) -> bool {
        self.fraction > 0.0 && unit_f64(mix(self.salt, node as u64, 0)) < self.fraction
    }

    /// Checks the model's parameters are usable.
    ///
    /// # Panics
    /// Panics on a fraction outside `[0, 1)`, a class probability outside
    /// `[0, 1]`, or class probabilities summing past 1.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.fraction),
            "adversary fraction must be in [0, 1), got {}",
            self.fraction
        );
        for (name, p) in [
            ("malformed", self.malformed),
            ("replay", self.replay),
            ("duplicate", self.duplicate),
            ("drop_reply", self.drop_reply),
            ("eclipse", self.eclipse),
        ] {
            assert!((0.0..=1.0).contains(&p), "adversary {name} probability must be in [0, 1], got {p}");
        }
        let class_sum = self.malformed + self.replay + self.duplicate + self.drop_reply;
        assert!(
            class_sum <= 1.0 + 1e-12,
            "adversary class probabilities must sum to at most 1, got {class_sum}"
        );
    }
}

/// Injected / detected / absorbed counts of one fault class.
///
/// *Injected* counts every fault the adversary put on the wire; *detected*
/// the subset an explicit check rejected (malformed decode, replay
/// freshness); *absorbed* the subset the protocol survived without a
/// detector (idempotent merges, voided atomic exchanges).  Every injected
/// fault is either detected or absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults the adversary injected.
    pub injected: u64,
    /// Faults an explicit check caught and rejected.
    pub detected: u64,
    /// Faults the protocol absorbed without an explicit detector.
    pub absorbed: u64,
}

impl FaultCounters {
    fn add(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.absorbed += other.absorbed;
    }
}

/// Per-class fault accounting of one run segment (an iteration, a phase,
/// a whole run — whatever the caller snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Corrupted ciphertexts (detected at decode).
    pub malformed: FaultCounters,
    /// Replayed stale ciphertexts (detected by freshness checks).
    pub replayed: FaultCounters,
    /// Duplicated stale state (absorbed by idempotent merges).
    pub duplicated: FaultCounters,
    /// Selectively dropped replies (absorbed as voided exchanges).
    pub dropped_replies: FaultCounters,
    /// Eclipsed honest exchanges (absorbed by the colluder sink).
    pub eclipsed: FaultCounters,
}

impl FaultStats {
    /// All-zero counters (what inactive-adversary runs report).
    pub const ZERO: FaultStats = FaultStats {
        malformed: FaultCounters { injected: 0, detected: 0, absorbed: 0 },
        replayed: FaultCounters { injected: 0, detected: 0, absorbed: 0 },
        duplicated: FaultCounters { injected: 0, detected: 0, absorbed: 0 },
        dropped_replies: FaultCounters { injected: 0, detected: 0, absorbed: 0 },
        eclipsed: FaultCounters { injected: 0, detected: 0, absorbed: 0 },
    };

    /// Total faults injected across every class.
    pub fn injected_total(&self) -> u64 {
        self.each().iter().map(|c| c.injected).sum()
    }

    /// Total faults detected (explicitly rejected) across every class.
    pub fn detected_total(&self) -> u64 {
        self.each().iter().map(|c| c.detected).sum()
    }

    /// Total faults absorbed across every class.
    pub fn absorbed_total(&self) -> u64 {
        self.each().iter().map(|c| c.absorbed).sum()
    }

    /// Accumulates another snapshot into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.malformed.add(&other.malformed);
        self.replayed.add(&other.replayed);
        self.duplicated.add(&other.duplicated);
        self.dropped_replies.add(&other.dropped_replies);
        self.eclipsed.add(&other.eclipsed);
    }

    fn each(&self) -> [FaultCounters; 5] {
        [self.malformed, self.replayed, self.duplicated, self.dropped_replies, self.eclipsed]
    }
}

/// What an engine should do with one classified exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeFate {
    /// Apply the push-pull exchange honestly.
    Apply,
    /// Void the exchange: both endpoints keep their pre-exchange state
    /// (mass is conserved; the budget is wasted).
    Void,
}

/// The adversary at runtime: the model, its dedicated fault RNG sub-stream,
/// and the accumulated damage accounting.
///
/// The runner constructs one per run **only when the model is active**,
/// seeding it with a single draw from the master RNG; engines consult it
/// through [`AdversaryState::classify`] at their apply sites.
#[derive(Debug, Clone)]
pub struct AdversaryState {
    model: AdversaryModel,
    fault_seed: u64,
    /// Monotone fault-decision index; advanced only for exchanges that can
    /// draw a fault, in the engine's globally ordered apply stream.
    seq: u64,
    stats: FaultStats,
}

impl AdversaryState {
    /// Creates the runtime adversary.  `fault_seed` must come from the
    /// run's master RNG (one draw), so the whole fault schedule is a pure
    /// function of the run seed.
    ///
    /// # Panics
    /// Panics if the model's parameters are invalid.
    pub fn new(model: AdversaryModel, fault_seed: u64) -> AdversaryState {
        model.validate();
        AdversaryState { model, fault_seed, seq: 0, stats: FaultStats::ZERO }
    }

    /// The model in force.
    pub fn model(&self) -> &AdversaryModel {
        &self.model
    }

    /// Cumulative fault counters since construction (or the last
    /// [`AdversaryState::take_stats`]).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Returns the counters accumulated since the last call and resets
    /// them — the per-iteration snapshot the runner stores.
    pub fn take_stats(&mut self) -> FaultStats {
        std::mem::take(&mut self.stats)
    }

    /// Classifies one about-to-apply exchange.  Exchanges with no byzantine
    /// endpoint and no eclipse bias return [`ExchangeFate::Apply`] without
    /// consuming a decision index; everything else derives one dedicated
    /// RNG from `(fault_seed, seq)` and draws the fault class.
    pub fn classify(&mut self, initiator: usize, contact: usize) -> ExchangeFate {
        let byzantine =
            self.model.is_byzantine(initiator) || self.model.is_byzantine(contact);
        if !byzantine {
            if self.model.eclipse <= 0.0 {
                return ExchangeFate::Apply;
            }
            let mut rng = self.decision_rng();
            if rng.gen::<f64>() < self.model.eclipse {
                self.stats.eclipsed.injected += 1;
                self.stats.eclipsed.absorbed += 1;
                return ExchangeFate::Void;
            }
            return ExchangeFate::Apply;
        }
        let mut rng = self.decision_rng();
        let u: f64 = rng.gen();
        let mut threshold = self.model.malformed;
        if u < threshold {
            self.stats.malformed.injected += 1;
            self.stats.malformed.detected += 1;
            return ExchangeFate::Void;
        }
        threshold += self.model.replay;
        if u < threshold {
            self.stats.replayed.injected += 1;
            self.stats.replayed.detected += 1;
            return ExchangeFate::Void;
        }
        threshold += self.model.duplicate;
        if u < threshold {
            self.stats.duplicated.injected += 1;
            self.stats.duplicated.absorbed += 1;
            return ExchangeFate::Void;
        }
        threshold += self.model.drop_reply;
        if u < threshold {
            self.stats.dropped_replies.injected += 1;
            self.stats.dropped_replies.absorbed += 1;
            return ExchangeFate::Void;
        }
        // The byzantine residue behaves honestly this exchange.
        ExchangeFate::Apply
    }

    /// One dedicated decision stream, advancing the monotone index.
    fn decision_rng(&mut self) -> StdRng {
        let seq = self.seq;
        self.seq += 1;
        mixed_rng(self.fault_seed, seq, 0x0B5E_55ED)
    }
}

/// Classifies an exchange against an optional adversary: `None` (or an
/// uninvolved exchange) applies honestly.  The one-liner every engine apply
/// site calls.
pub fn classify_exchange(
    adversary: &mut Option<&mut AdversaryState>,
    initiator: usize,
    contact: usize,
) -> ExchangeFate {
    match adversary {
        None => ExchangeFate::Apply,
        Some(state) => state.classify(initiator, contact),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_models_never_fault_and_never_draw() {
        assert!(!AdversaryModel::NONE.is_active());
        assert!(!AdversaryModel::default().is_active());
        assert!(!AdversaryModel::mixed(0.0, 7).is_active());
        let mut state = AdversaryState::new(AdversaryModel::NONE, 99);
        for i in 0..100 {
            assert_eq!(state.classify(i, (i + 1) % 100), ExchangeFate::Apply);
        }
        assert_eq!(state.stats(), FaultStats::ZERO);
        assert_eq!(state.seq, 0, "honest exchanges must not consume decision indices");
    }

    #[test]
    fn byzantine_membership_is_a_pure_hash_near_the_fraction() {
        let model = AdversaryModel::mixed(0.1, 0xB12);
        let population = 10_000;
        let count = (0..population).filter(|&i| model.is_byzantine(i)).count();
        let expected = population as f64 * model.fraction;
        assert!(
            (count as f64 - expected).abs() < 0.2 * expected,
            "byzantine count {count} far from expected {expected}"
        );
        // Pure function: same model, same set.
        let again = (0..population).filter(|&i| model.is_byzantine(i)).count();
        assert_eq!(count, again);
        // A different salt colludes through a different set.
        let other = AdversaryModel::mixed(0.1, 0xB13);
        assert!(
            (0..population).any(|i| model.is_byzantine(i) != other.is_byzantine(i)),
            "salts must reshuffle the byzantine set"
        );
    }

    #[test]
    fn fault_schedule_is_reproducible_and_seed_sensitive() {
        let model = AdversaryModel::mixed(0.3, 5);
        let run = |fault_seed: u64| {
            let mut state = AdversaryState::new(model, fault_seed);
            let fates: Vec<ExchangeFate> =
                (0..500).map(|i| state.classify(i % 40, (i * 7 + 1) % 40)).collect();
            (fates, state.stats())
        };
        let (fates_a, stats_a) = run(11);
        let (fates_b, stats_b) = run(11);
        assert_eq!(fates_a, fates_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.injected_total() > 0, "a 30% adversary must inject");
        let (fates_c, _) = run(12);
        assert_ne!(fates_a, fates_c, "a different fault seed must reshuffle outcomes");
    }

    #[test]
    fn every_injected_fault_is_detected_or_absorbed() {
        let mut state = AdversaryState::new(
            AdversaryModel { eclipse: 0.2, ..AdversaryModel::mixed(0.4, 3) },
            77,
        );
        for i in 0..2_000usize {
            state.classify(i % 64, (i * 13 + 1) % 64);
        }
        let stats = state.stats();
        assert!(stats.injected_total() > 0);
        assert_eq!(
            stats.injected_total(),
            stats.detected_total() + stats.absorbed_total(),
            "injected faults must partition into detected + absorbed"
        );
        // Detection is exactly the malformed + replay classes.
        assert_eq!(
            stats.detected_total(),
            stats.malformed.detected + stats.replayed.detected
        );
        assert!(stats.eclipsed.injected > 0, "eclipse must hit honest pairs");
    }

    #[test]
    fn take_stats_snapshots_and_resets() {
        let mut state = AdversaryState::new(AdversaryModel::mixed(0.5, 1), 4);
        for i in 0..200usize {
            state.classify(i % 16, (i + 1) % 16);
        }
        let first = state.take_stats();
        assert!(first.injected_total() > 0);
        assert_eq!(state.stats(), FaultStats::ZERO, "take_stats must reset");
        for i in 0..200usize {
            state.classify(i % 16, (i + 1) % 16);
        }
        let second = state.take_stats();
        assert!(second.injected_total() > 0);
        let mut merged = first;
        merged.merge(&second);
        assert_eq!(merged.injected_total(), first.injected_total() + second.injected_total());
    }

    #[test]
    #[should_panic(expected = "class probabilities")]
    fn oversubscribed_class_probabilities_are_rejected() {
        AdversaryState::new(
            AdversaryModel { malformed: 0.7, replay: 0.7, ..AdversaryModel::mixed(0.1, 0) },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn out_of_range_fraction_is_rejected() {
        AdversaryModel::mixed(1.0, 0).validate();
    }
}
