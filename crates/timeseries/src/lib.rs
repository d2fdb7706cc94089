//! Time-series data model, synthetic dataset generators, and clustering
//! quality metrics for the Chiaroscuro reproduction.
//!
//! A *time-series* (§2.1 of the paper) is a sequence of real-valued
//! variables `s = <s[1] ... s[n]>`.  A dataset is a set of `t` time-series of
//! identical length `n`, viewed as a `t × n` matrix.
//!
//! This crate provides:
//!
//! * [`TimeSeries`] and [`TimeSeriesSet`] — the data model, with the value
//!   range ([`ValueRange`]) that drives the differential-privacy sensitivity;
//! * [`distance`] — (squared) Euclidean distances;
//! * [`inertia`] — intra-cluster, inter-cluster and full inertia
//!   (Definition 1 of the paper) plus cluster assignments;
//! * [`datasets`] — synthetic generators standing in for the paper's CER
//!   smart-meter dataset, the NUMED tumor-growth dataset and the A3
//!   two-dimensional benchmark (its module docs give the substitution
//!   rationale);
//! * [`stats`] — small statistics helpers shared by the generators and the
//!   evaluation harness.

pub mod datasets;
pub mod distance;
pub mod inertia;
pub mod series;
pub mod set;
pub mod stats;

pub use distance::{euclidean, squared_euclidean};
pub use inertia::{Assignment, InertiaReport};
pub use series::TimeSeries;
pub use set::{TimeSeriesSet, ValueRange};

/// Commonly used items.
pub mod prelude {
    pub use crate::datasets::{cer::CerLikeGenerator, numed::NumedLikeGenerator, points2d::Points2dGenerator, DatasetGenerator};
    pub use crate::inertia::{Assignment, InertiaReport};
    pub use crate::series::TimeSeries;
    pub use crate::set::{TimeSeriesSet, ValueRange};
}
