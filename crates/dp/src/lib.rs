//! Differential-privacy substrate for the Chiaroscuro reproduction.
//!
//! This crate implements the privacy machinery of §3.3.2 and Appendix B of
//! the paper:
//!
//! * [`laplace`] — the Laplace distribution and the Laplace mechanism
//!   (Definition 4) calibrated to the sum sensitivity;
//! * [`gamma`] — Gamma sampling (Marsaglia–Tsang plus the Ahrens–Dieter
//!   boost for shapes < 1), the building block of noise shares;
//! * [`noise_share`] — infinitely-divisible Laplace noise (Lemma 1 /
//!   Definition 5): each participant draws a small Gamma-difference share and
//!   the epidemic sum of `nν` shares is a Laplace variable;
//! * [`budget`] — the privacy-budget concentration strategies of §5.1
//!   (GREEDY, GREEDY_FLOOR, UNIFORM_FAST) expressed as per-iteration ε
//!   schedules;
//! * [`accountant`] — the (ε, δ)-probabilistic differential privacy
//!   parameters (Definition 3), the per-aggregate δ_atom split and the
//!   Theorem-3 gossip exchange calculator.

pub mod accountant;
pub mod budget;
pub mod gamma;
pub mod laplace;
pub mod noise_share;

pub use accountant::ProbabilisticDpParams;
pub use budget::{BudgetSchedule, BudgetStrategy};
pub use laplace::{Laplace, LaplaceMechanism, Sensitivity};
pub use noise_share::{NoiseShare, NoiseShareGenerator, SurplusCorrection};

/// Commonly used items.
pub mod prelude {
    pub use crate::accountant::ProbabilisticDpParams;
    pub use crate::budget::{BudgetSchedule, BudgetStrategy};
    pub use crate::laplace::{Laplace, LaplaceMechanism, Sensitivity};
    pub use crate::noise_share::{NoiseShare, NoiseShareGenerator, SurplusCorrection};
}
