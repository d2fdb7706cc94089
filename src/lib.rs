//! # Chiaroscuro
//!
//! Facade crate for the reproduction of *"Chiaroscuro: Transparency and
//! Privacy for Massive Personal Time-Series Clustering"* (SIGMOD 2015).
//!
//! Chiaroscuro clusters time-series that are massively distributed over
//! personal devices without ever centralising cleartext data.  Every k-means
//! iteration is executed collaboratively by the participants themselves:
//!
//! * the **assignment step** runs locally on differentially-private cleartext
//!   centroids,
//! * the **computation step** sums additively-homomorphically encrypted means
//!   through gossip aggregation, perturbs them with a collaboratively
//!   generated Laplace noise, and decrypts them with threshold key shares.
//!
//! The twofold data structure (cleartext DP centroids + encrypted means) is
//! the paper's *Diptych*.
//!
//! This facade simply re-exports the workspace crates:
//!
//! * [`timeseries`] — data model, synthetic datasets, inertia metrics,
//! * [`dp`] — Laplace mechanism, divisible noise shares, DP accounting,
//! * [`crypto`] — Damgård–Jurik additively-homomorphic threshold encryption,
//! * [`gossip`] — epidemic aggregation substrate and P2P simulator,
//! * [`kmeans`] — centralized baseline and perturbed-centralized surrogate,
//! * [`node`] — message-driven node actors, framed transports, local bus,
//! * [`core`] — the Diptych and the distributed execution sequence.
//!
//! ## Quickstart
//!
//! ```no_run
//! use chiaroscuro::core::prelude::*;
//! use chiaroscuro::timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
//!
//! let dataset = CerLikeGenerator::new(42).generate(1_000);
//! let params = ChiaroscuroParams::builder()
//!     .k(10)
//!     .epsilon(0.69)
//!     .strategy(BudgetStrategy::Greedy)
//!     .smoothing(Smoothing::MovingAverage { window_fraction: 0.2 })
//!     .build();
//! let outcome = DistributedRun::new(params, &dataset).execute(42);
//! println!("final centroids: {}", outcome.centroids().len());
//! ```
//!
//! At population scale, swap the cipher backend: the plaintext surrogate
//! runs the identical protocol over exact lane-packed integers (see
//! `crypto::backend` and docs/REPRODUCING.md) so 100k–1M-device
//! simulations skip the modular arithmetic without changing one decoded
//! bit.

pub use chiaroscuro_core as core;
pub use chiaroscuro_crypto as crypto;
pub use chiaroscuro_dp as dp;
pub use chiaroscuro_gossip as gossip;
pub use chiaroscuro_kmeans as kmeans;
pub use chiaroscuro_node as node;
pub use chiaroscuro_timeseries as timeseries;
