//! Chiaroscuro: the fully-distributed, privacy-preserving k-means execution
//! sequence of the SIGMOD'15 paper, built on the workspace substrates.
//!
//! The crate exposes:
//!
//! * [`config`] — the run parameters (Table 1) and the experimental defaults
//!   (Table 2);
//! * [`diptych`] — the Diptych data structure (Definition 6): cleartext
//!   differentially-private centroids on one side, additively-homomorphic
//!   encrypted means on the other, lane-packed ([`PackedMeans`]);
//! * [`evalue`] — the encrypted-mean vector as an epidemic value, i.e. the
//!   bridge between the cipher backend and the EESum gossip rule
//!   (Algorithm 2), generic over
//!   [`CipherBackend`](chiaroscuro_crypto::backend::CipherBackend) so the
//!   same protocol runs over real Damgård–Jurik ciphertexts or the exact
//!   plaintext surrogate that scales to millions of simulated devices;
//! * [`noise`] — the epidemic noise generation and surplus correction
//!   (§4.2.2);
//! * [`runner`] — [`runner::DistributedRun`], the end-to-end execution of
//!   Algorithms 1 and 3 over the gossip simulator, plus
//!   [`surrogate`] — the large-scale quality surrogate (perturbed
//!   centralized k-means) the paper itself uses for dataset-scale quality;
//! * [`audit`] — a security audit log asserting that nothing data-dependent
//!   ever leaves a participant in cleartext (requirement R2).

pub mod actor;
pub mod audit;
pub mod cluster;
pub mod config;
pub mod diptych;
pub mod evalue;
mod iteration;
pub mod noise;
pub mod runner;
pub mod seedmix;
pub mod surrogate;

pub use actor::{ChiaroscuroNodeActor, MEANS_FRAME_OVERHEAD_BYTES};
pub use config::{
    ChiaroscuroParams, ChiaroscuroParamsBuilder, ConfigError, ExperimentParams, TransportKind,
};
pub use diptych::{Diptych, EncryptedMean, PackedMeans};
pub use evalue::{BackendVector, EncryptedVector};
pub use runner::{DistributedRun, RunOutcome};

/// Commonly used items.
pub mod prelude {
    pub use crate::audit::{DataClass, SecurityAudit};
    pub use crate::config::{
        ChiaroscuroParams, ChiaroscuroParamsBuilder, ConfigError, ExperimentParams, TransportKind,
    };
    pub use crate::diptych::{Diptych, EncryptedMean};
    pub use crate::evalue::{BackendVector, EncryptedVector};
    pub use crate::runner::{DistributedRun, RunOutcome};
    pub use crate::surrogate::QualitySurrogate;
    pub use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik, PlaintextSurrogate};
    pub use chiaroscuro_dp::budget::BudgetStrategy;
    pub use chiaroscuro_gossip::sim::{
        AdversaryModel, AsyncNetworkConfig, CrashSchedule, CrashWindow, FaultStats, LatencyModel,
        NetworkModel,
    };
    pub use chiaroscuro_kmeans::perturbed::Smoothing;
}
