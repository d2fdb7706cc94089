//! Epidemic (gossip) aggregation substrate for the Chiaroscuro reproduction.
//!
//! The paper's execution sequence is built entirely from gossip protocols
//! (§3.2, §4.2): an epidemic sum computes the encrypted means and the noise,
//! an epidemic dissemination agrees on the noise correction, and an epidemic
//! decryption collects τ distinct partial decryptions.  The paper evaluates
//! these protocols with the PeerSim simulator; this crate provides the
//! equivalent round-based simulator plus the protocol implementations:
//!
//! * [`engine`] — the round-based pairwise-exchange simulation engine with
//!   churn and message accounting;
//! * [`eesum`] — the EESum local update rule over *encrypted* (or otherwise
//!   division-free) values, i.e. Algorithm 2 of the paper (the
//!   delayed-division form of Kempe et al.'s push-pull sum), and its
//!   plaintext mirror's convergence report, which the latency/error
//!   experiments (Figures 3(b) and 4(a)) read;
//! * [`dissemination`] — epidemic min-identifier dissemination, used for the
//!   noise-surplus correction (§4.2.2);
//! * [`decryption`] — the epidemic threshold-decryption protocol of §4.2.3
//!   at message-count granularity (Figure 4(b));
//! * [`churn`] — the uniform-disconnection churn model of §6.1.5;
//! * [`metrics`] — message counts and error summaries;
//! * [`slab`] — the one flat store for population-sized states: fixed-width
//!   `u64` rows read through a [`slab::RowLayout`], which the EESum and
//!   dissemination arenas are two layouts of;
//! * [`sim`] — the deterministic event-driven *asynchronous* engine
//!   (per-edge latency, message loss, crash/rejoin schedules; one engine on
//!   one or many workers) behind the [`sim::NetworkModel`] knob, with
//!   wall-clock latency metrics.

pub mod churn;
pub mod decryption;
pub mod dissemination;
pub mod eesum;
pub mod engine;
pub mod metrics;
pub mod sim;
pub mod slab;

pub use churn::ChurnModel;
pub use eesum::{EpidemicValue, EesState};
pub use engine::{GossipEngine, PairwiseProtocol};
pub use metrics::ExchangeMetrics;
pub use sim::{
    AdversaryModel, AdversaryState, AsyncNetworkConfig, FaultCounters, FaultStats, LatencyModel,
    NetworkModel, ShardedAsyncEngine,
};

/// Commonly used items.
pub mod prelude {
    pub use crate::churn::ChurnModel;
    pub use crate::decryption::{DecryptionProtocol, DecryptionSimReport};
    pub use crate::dissemination::{DisseminationProtocol, MinIdArena};
    pub use crate::eesum::{EesState, EesSumProtocol, EpidemicValue};
    pub use crate::engine::{GossipEngine, PairwiseProtocol};
    pub use crate::metrics::ExchangeMetrics;
    pub use crate::sim::{
        AdversaryModel, AdversaryState, AsyncNetworkConfig, CrashSchedule, CrashWindow,
        FaultCounters, FaultStats, LatencyModel, NetworkModel, ShardedAsyncEngine,
    };
}
