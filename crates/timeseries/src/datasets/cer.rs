//! CER-like synthetic electricity-consumption profiles.
//!
//! The real CER dataset (Irish Commission for Energy Regulation smart-meter
//! trial) contains daily load curves with 24 hourly measures, each in
//! `[0, 80]` kWh-scaled units, and is *strongly concentrated*: most
//! households follow one of a small number of typical daily shapes
//! (morning peak, evening peak, flat business profile, night-storage
//! heating, ...).  This generator reproduces those properties with a mixture
//! of parameterised household profiles plus multiplicative and additive
//! noise.

use rand::Rng;

use super::{stream_rng, DatasetGenerator};
use crate::series::TimeSeries;
use crate::set::{TimeSeriesSet, ValueRange};

/// Number of hourly measures per daily series (paper §6.1.1).
pub const CER_SERIES_LENGTH: usize = 24;
/// Measure range of the CER dataset (paper §6.1.1: sensitivity 1920 = 24·80).
pub const CER_RANGE: ValueRange = ValueRange { min: 0.0, max: 80.0 };

/// One of the typical daily household/business load shapes the generator
/// mixes.  Profiles are deliberately redundant: the paper notes the CER
/// series are "strongly concentrated", which drives the benefit of the SMA
/// smoothing on small clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HouseholdProfile {
    /// Two commuter peaks: 7–9 am and 6–10 pm.
    DoublePeak,
    /// Single dominant evening peak.
    EveningPeak,
    /// Daytime business consumption, low at night.
    Business,
    /// Night-storage heating: high consumption overnight.
    NightStorage,
    /// Nearly flat, low consumption (e.g. holiday home).
    FlatLow,
    /// Nearly flat, high consumption (e.g. refrigeration-heavy).
    FlatHigh,
}

impl HouseholdProfile {
    /// All profiles, with their mixture weights (must sum to 1).
    pub const MIXTURE: [(HouseholdProfile, f64); 6] = [
        (HouseholdProfile::DoublePeak, 0.35),
        (HouseholdProfile::EveningPeak, 0.25),
        (HouseholdProfile::Business, 0.15),
        (HouseholdProfile::NightStorage, 0.10),
        (HouseholdProfile::FlatLow, 0.10),
        (HouseholdProfile::FlatHigh, 0.05),
    ];

    /// The base (noise-free) hourly load of the profile, in the CER value
    /// range.
    pub fn base_curve(self) -> [f64; CER_SERIES_LENGTH] {
        let mut curve = [0.0; CER_SERIES_LENGTH];
        for (hour, value) in curve.iter_mut().enumerate() {
            let h = hour as f64;
            *value = match self {
                HouseholdProfile::DoublePeak => {
                    2.0 + 18.0 * gaussian_bump(h, 8.0, 1.5) + 30.0 * gaussian_bump(h, 19.5, 2.5)
                }
                HouseholdProfile::EveningPeak => 2.5 + 42.0 * gaussian_bump(h, 20.0, 2.0),
                HouseholdProfile::Business => {
                    1.0 + 28.0 * plateau(h, 8.0, 18.0, 1.5)
                }
                HouseholdProfile::NightStorage => {
                    3.0 + 38.0 * plateau_wrapping(h, 23.0, 6.0, 1.0) + 8.0 * gaussian_bump(h, 19.0, 2.0)
                }
                HouseholdProfile::FlatLow => 4.0,
                HouseholdProfile::FlatHigh => 22.0,
            };
        }
        curve
    }

    /// Index of the profile in [`Self::MIXTURE`]; used as a ground-truth
    /// cluster label.
    pub fn index(self) -> usize {
        Self::MIXTURE.iter().position(|(p, _)| *p == self).expect("profile in mixture")
    }
}

fn gaussian_bump(x: f64, center: f64, width: f64) -> f64 {
    let d = (x - center) / width;
    (-0.5 * d * d).exp()
}

fn plateau(x: f64, start: f64, end: f64, softness: f64) -> f64 {
    let rise = 1.0 / (1.0 + (-(x - start) / softness).exp());
    let fall = 1.0 / (1.0 + ((x - end) / softness).exp());
    rise * fall
}

/// Plateau that wraps around midnight (e.g. 23:00 → 06:00).
fn plateau_wrapping(x: f64, start: f64, end: f64, softness: f64) -> f64 {
    plateau(x, start, 24.0 + end, softness) + plateau(x + 24.0, start, 24.0 + end, softness)
}

/// Generator for CER-like daily electricity load curves.
#[derive(Debug, Clone)]
pub struct CerLikeGenerator {
    seed: u64,
}

/// Multiplicative household-level scale spread (log-uniform around 1).
const SCALE_SPREAD: f64 = 0.35;
/// Additive per-hour Gaussian noise standard deviation.
const NOISE_STD: f64 = 1.5;

impl CerLikeGenerator {
    /// Creates a generator with the default noise model.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates `count` series together with their ground-truth profile
    /// labels (useful for validating clustering quality).
    pub fn generate_labelled(&self, count: usize) -> (TimeSeriesSet, Vec<usize>) {
        assert!(count > 0, "cannot generate an empty dataset");
        let mut rng = stream_rng(self.seed, 0);
        let mut series = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let profile = sample_profile(&mut rng);
            labels.push(profile.index());
            series.push(self.one_series(profile, &mut rng));
        }
        (TimeSeriesSet::new(series, CER_RANGE), labels)
    }

    /// Generates realistic initial centroids that are *not* member series
    /// (the paper uses the CourboGen load-curve generator for this purpose).
    /// A distinct RNG stream guarantees the centroids never coincide with
    /// generated data.
    pub fn generate_initial_centroids(&self, k: usize) -> Vec<TimeSeries> {
        assert!(k > 0);
        let mut rng = stream_rng(self.seed, 1);
        (0..k)
            .map(|_| {
                let profile = sample_profile(&mut rng);
                self.one_series(profile, &mut rng)
            })
            .collect()
    }

    fn one_series<R: Rng + ?Sized>(&self, profile: HouseholdProfile, rng: &mut R) -> TimeSeries {
        let base = profile.base_curve();
        // Household-level multiplicative factor (consumption volume).
        let scale = (1.0 + SCALE_SPREAD * (rng.gen::<f64>() * 2.0 - 1.0)).max(0.05);
        // Small circular phase shift (people's schedules differ by ±1h).
        let shift = rng.gen_range(-1isize..=1isize);
        let mut values = Vec::with_capacity(CER_SERIES_LENGTH);
        for hour in 0..CER_SERIES_LENGTH {
            let src = (hour as isize + shift).rem_euclid(CER_SERIES_LENGTH as isize) as usize;
            let noise = NOISE_STD * standard_normal(rng);
            let v = (base[src] * scale + noise).clamp(CER_RANGE.min, CER_RANGE.max);
            values.push(v);
        }
        TimeSeries::new(values)
    }
}

impl DatasetGenerator for CerLikeGenerator {
    fn generate(&self, count: usize) -> TimeSeriesSet {
        self.generate_labelled(count).0
    }

    fn name(&self) -> &'static str {
        "cer"
    }
}

fn sample_profile<R: Rng + ?Sized>(rng: &mut R) -> HouseholdProfile {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (profile, weight) in HouseholdProfile::MIXTURE {
        acc += weight;
        if x < acc {
            return profile;
        }
    }
    HouseholdProfile::MIXTURE[HouseholdProfile::MIXTURE.len() - 1].0
}

/// Standard normal sample via Box–Muller (avoids an extra dependency).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inertia::{dataset_inertia, intra_inertia, Assignment};

    #[test]
    fn generates_requested_count_and_length() {
        let set = CerLikeGenerator::new(1).generate(200);
        assert_eq!(set.len(), 200);
        assert_eq!(set.series_length(), CER_SERIES_LENGTH);
    }

    #[test]
    fn values_respect_cer_range() {
        let set = CerLikeGenerator::new(2).generate(500);
        for s in set.iter() {
            assert!(s.min() >= CER_RANGE.min);
            assert!(s.max() <= CER_RANGE.max);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = CerLikeGenerator::new(7).generate(50);
        let b = CerLikeGenerator::new(7).generate(50);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.values(), y.values());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CerLikeGenerator::new(7).generate(10);
        let b = CerLikeGenerator::new(8).generate(10);
        assert_ne!(a.get(0).values(), b.get(0).values());
    }

    #[test]
    fn mixture_weights_sum_to_one() {
        let total: f64 = HouseholdProfile::MIXTURE.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profiles_are_separable() {
        // Clustering with the true profile curves as centroids must explain
        // most of the dataset inertia — i.e. the ground truth structure is
        // recoverable, which is what the quality experiments rely on.
        let generator = CerLikeGenerator::new(11);
        let (set, _) = generator.generate_labelled(600);
        let centroids: Vec<TimeSeries> = HouseholdProfile::MIXTURE
            .iter()
            .map(|(p, _)| TimeSeries::new(p.base_curve().to_vec()))
            .collect();
        let assignment = Assignment::compute(&set, &centroids);
        let intra = intra_inertia(&set, &centroids, &assignment);
        let total = dataset_inertia(&set);
        assert!(
            intra < 0.5 * total,
            "profile centroids should explain at least half the inertia (intra={intra:.1}, total={total:.1})"
        );
    }

    #[test]
    fn initial_centroids_are_valid_curves() {
        let generator = CerLikeGenerator::new(3);
        let centroids = generator.generate_initial_centroids(50);
        assert_eq!(centroids.len(), 50);
        for c in &centroids {
            assert_eq!(c.len(), CER_SERIES_LENGTH);
            assert!(c.min() >= CER_RANGE.min && c.max() <= CER_RANGE.max);
        }
    }

    #[test]
    fn night_storage_profile_peaks_at_night() {
        let curve = HouseholdProfile::NightStorage.base_curve();
        let night = curve[2];
        let afternoon = curve[14];
        assert!(night > afternoon, "night-storage must consume more at 2am than at 2pm");
    }

    #[test]
    fn business_profile_peaks_in_working_hours() {
        let curve = HouseholdProfile::Business.base_curve();
        assert!(curve[13] > curve[3]);
    }
}
