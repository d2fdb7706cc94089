//! k-means substrate for the Chiaroscuro reproduction.
//!
//! Two algorithms live here:
//!
//! * [`lloyd`] — the standard (non-private) k-means of §3.1, used as the
//!   paper's quality baseline ("No perturbation" curves);
//! * [`perturbed`] — the *perturbed centralized k-means* the paper uses to
//!   evaluate clustering quality at dataset scale (§6.1): every iteration's
//!   cluster sums and counts are perturbed with Laplace noise calibrated by
//!   a budget-concentration strategy (§5.1), optionally smoothed with the
//!   SMA moving average (§5.2), and aberrant ("lost") centroids are tracked.
//!
//! The distributed execution sequence of Chiaroscuro (gossip + encryption)
//! is the same Algorithm 1: `chiaroscuro-core` runs [`perturbed`]'s loop
//! ([`PerturbedKMeans::run_with_step`]) over its own
//! [`perturbed::AggregateStep`], which produces each iteration's perturbed
//! sums and counts from the population instead of drawing Laplace noise.

pub mod init;
pub mod lloyd;
pub mod perturbed;
pub mod report;

pub use init::InitialCentroids;
pub use lloyd::{KMeans, KMeansConfig};
pub use perturbed::{PerturbedKMeans, PerturbedKMeansConfig, Smoothing};
pub use report::{IterationReport, PrePostReport, RunReport};

/// Commonly used items.
pub mod prelude {
    pub use crate::init::InitialCentroids;
    pub use crate::lloyd::{KMeans, KMeansConfig};
    pub use crate::perturbed::{PerturbedKMeans, PerturbedKMeansConfig, Smoothing};
    pub use crate::report::{IterationReport, PrePostReport, RunReport};
}
