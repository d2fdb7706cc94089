//! NUMED-like synthetic tumor-growth time-series.
//!
//! The paper's NUMED dataset is itself synthetic: 1.2M series of 20 weekly
//! tumor-size measures in `[0, 50]`, generated from mathematical models of
//! typical patient profiles (Claret et al., J. Clin. Onc. 2013).  We
//! implement the same family of curves:
//!
//! `ts(t) = ts0 · ( exp(-kd · t) + kg · t )`
//!
//! where `ts0` is the baseline tumor size, `kd` the drug-induced decay rate
//! and `kg` the regrowth rate.  Patient archetypes (responder, stable
//! disease, progressive disease, relapse) give the ground-truth cluster
//! structure; unlike the CER profiles they are *evenly* distributed, which
//! is what makes SMA smoothing nearly neutral on NUMED in the paper (§6.2).

use rand::Rng;

use super::{cer::standard_normal, stream_rng, DatasetGenerator};
use crate::series::TimeSeries;
use crate::set::{TimeSeriesSet, ValueRange};

/// Number of weekly measures per series (paper §6.1.1).
pub const NUMED_SERIES_LENGTH: usize = 20;
/// Measure range of the NUMED dataset (sensitivity 1000 = 20·50).
pub const NUMED_RANGE: ValueRange = ValueRange { min: 0.0, max: 50.0 };

/// Patient response archetypes used as ground-truth clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatientProfile {
    /// Strong, durable response: fast shrinkage, negligible regrowth.
    Responder,
    /// Partial response followed by slow regrowth (relapse).
    Relapse,
    /// Stable disease: little change over the observation window.
    Stable,
    /// Progressive disease: steady growth despite treatment.
    Progressive,
}

impl PatientProfile {
    /// All archetypes with uniform mixture weights (the paper notes NUMED
    /// series are equally distributed across clusters).
    pub const MIXTURE: [PatientProfile; 4] = [
        PatientProfile::Responder,
        PatientProfile::Relapse,
        PatientProfile::Stable,
        PatientProfile::Progressive,
    ];

    /// Claret-model parameters `(ts0, kd, kg)` for the archetype.
    pub fn parameters(self) -> (f64, f64, f64) {
        match self {
            PatientProfile::Responder => (38.0, 0.35, 0.002),
            PatientProfile::Relapse => (34.0, 0.25, 0.035),
            PatientProfile::Stable => (25.0, 0.02, 0.010),
            PatientProfile::Progressive => (18.0, 0.00, 0.090),
        }
    }

    /// Index of the archetype (ground-truth label).
    pub fn index(self) -> usize {
        Self::MIXTURE.iter().position(|p| *p == self).expect("profile in mixture")
    }

    /// Noise-free tumor-size curve over the observation window.
    pub fn base_curve(self) -> [f64; NUMED_SERIES_LENGTH] {
        let (ts0, kd, kg) = self.parameters();
        let mut curve = [0.0; NUMED_SERIES_LENGTH];
        for (week, value) in curve.iter_mut().enumerate() {
            let t = week as f64;
            *value = (ts0 * ((-kd * t).exp() + kg * t)).clamp(NUMED_RANGE.min, NUMED_RANGE.max);
        }
        curve
    }
}

/// Generator for NUMED-like tumor-growth series.
#[derive(Debug, Clone)]
pub struct NumedLikeGenerator {
    seed: u64,
    /// Relative spread of the per-patient Claret parameters.
    parameter_spread: f64,
}

/// Additive measurement noise standard deviation.
const NOISE_STD: f64 = 0.8;

impl NumedLikeGenerator {
    /// Creates a generator with the default noise model.
    pub fn new(seed: u64) -> Self {
        Self { seed, parameter_spread: 0.15 }
    }

    /// Generates `count` series together with ground-truth archetype labels.
    pub fn generate_labelled(&self, count: usize) -> (TimeSeriesSet, Vec<usize>) {
        assert!(count > 0, "cannot generate an empty dataset");
        let mut rng = stream_rng(self.seed, 0);
        let mut series = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let profile = PatientProfile::MIXTURE[rng.gen_range(0..PatientProfile::MIXTURE.len())];
            labels.push(profile.index());
            series.push(self.one_series(profile, &mut rng));
        }
        (TimeSeriesSet::new(series, NUMED_RANGE), labels)
    }

    /// Initial centroids: series drawn from the same model on a distinct
    /// random stream (uniformly at random within the synthetic set family,
    /// as the paper does for NUMED).
    pub fn generate_initial_centroids(&self, k: usize) -> Vec<TimeSeries> {
        assert!(k > 0);
        let mut rng = stream_rng(self.seed, 1);
        (0..k)
            .map(|_| {
                let profile = PatientProfile::MIXTURE[rng.gen_range(0..PatientProfile::MIXTURE.len())];
                self.one_series(profile, &mut rng)
            })
            .collect()
    }

    fn one_series<R: Rng + ?Sized>(&self, profile: PatientProfile, rng: &mut R) -> TimeSeries {
        let (ts0, kd, kg) = profile.parameters();
        let jitter = |base: f64, rng: &mut R| {
            let factor = 1.0 + self.parameter_spread * (rng.gen::<f64>() * 2.0 - 1.0);
            base * factor
        };
        let ts0 = jitter(ts0, rng).clamp(1.0, NUMED_RANGE.max);
        let kd = jitter(kd, rng).max(0.0);
        let kg = jitter(kg, rng).max(0.0);
        let mut values = Vec::with_capacity(NUMED_SERIES_LENGTH);
        for week in 0..NUMED_SERIES_LENGTH {
            let t = week as f64;
            let clean = ts0 * ((-kd * t).exp() + kg * t);
            let noisy = clean + NOISE_STD * standard_normal(rng);
            values.push(noisy.clamp(NUMED_RANGE.min, NUMED_RANGE.max));
        }
        TimeSeries::new(values)
    }
}

impl DatasetGenerator for NumedLikeGenerator {
    fn generate(&self, count: usize) -> TimeSeriesSet {
        self.generate_labelled(count).0
    }

    fn name(&self) -> &'static str {
        "numed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inertia::{dataset_inertia, intra_inertia, Assignment};

    #[test]
    fn generates_requested_shape() {
        let set = NumedLikeGenerator::new(1).generate(100);
        assert_eq!(set.len(), 100);
        assert_eq!(set.series_length(), NUMED_SERIES_LENGTH);
    }

    #[test]
    fn values_respect_numed_range() {
        let set = NumedLikeGenerator::new(2).generate(300);
        for s in set.iter() {
            assert!(s.min() >= NUMED_RANGE.min && s.max() <= NUMED_RANGE.max);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = NumedLikeGenerator::new(5).generate(20);
        let b = NumedLikeGenerator::new(5).generate(20);
        assert_eq!(a.get(7).values(), b.get(7).values());
    }

    #[test]
    fn labels_roughly_uniform() {
        let (_, labels) = NumedLikeGenerator::new(9).generate_labelled(4000);
        let mut counts = [0usize; 4];
        for l in labels {
            counts[l] += 1;
        }
        for c in counts {
            assert!(c > 700, "archetypes should be roughly uniformly distributed, got {counts:?}");
        }
    }

    #[test]
    fn responder_curve_decreases() {
        let curve = PatientProfile::Responder.base_curve();
        assert!(curve[NUMED_SERIES_LENGTH - 1] < curve[0] * 0.5);
    }

    #[test]
    fn progressive_curve_increases() {
        let curve = PatientProfile::Progressive.base_curve();
        assert!(curve[NUMED_SERIES_LENGTH - 1] > curve[0]);
    }

    #[test]
    fn relapse_curve_dips_then_regrows() {
        let curve = PatientProfile::Relapse.base_curve();
        let min_idx = curve
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(min_idx > 0 && min_idx < NUMED_SERIES_LENGTH - 1, "minimum must be interior (got {min_idx})");
        assert!(curve[NUMED_SERIES_LENGTH - 1] > curve[min_idx]);
    }

    #[test]
    fn archetypes_are_separable() {
        let generator = NumedLikeGenerator::new(13);
        let (set, _) = generator.generate_labelled(400);
        let centroids: Vec<TimeSeries> = PatientProfile::MIXTURE
            .iter()
            .map(|p| TimeSeries::new(p.base_curve().to_vec()))
            .collect();
        let assignment = Assignment::compute(&set, &centroids);
        let intra = intra_inertia(&set, &centroids, &assignment);
        let total = dataset_inertia(&set);
        assert!(intra < 0.5 * total, "archetype centroids should explain most of the inertia");
    }
}
