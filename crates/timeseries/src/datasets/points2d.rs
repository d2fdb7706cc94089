//! A3-like two-dimensional points dataset (Appendix D of the paper).
//!
//! The paper's illustration uses the A3 clustering benchmark: 7.5K
//! two-dimensional points organised into 50 clusters, duplicated 100 times
//! with a small uniform jitter to reach 750K points.  We generate 50
//! well-separated Gaussian blobs laid out on a jittered grid and apply the
//! same duplicate-and-jitter protocol.  Two-dimensional points are simply
//! time-series of length 2 for the rest of the pipeline.

use rand::Rng;

use super::{cer::standard_normal, stream_rng, DatasetGenerator};
use crate::series::TimeSeries;
use crate::set::{TimeSeriesSet, ValueRange};

/// Number of ground-truth clusters in the A3 benchmark.
pub const POINTS2D_CLUSTERS: usize = 50;
/// Coordinate range of the generated points.
pub const POINTS2D_RANGE: ValueRange = ValueRange { min: 0.0, max: 100.0 };

/// Generator for the 2-D illustration dataset.
#[derive(Debug, Clone)]
pub struct Points2dGenerator {
    seed: u64,
    /// Duplication factor (the paper uses 100).
    duplication: usize,
    /// Standard deviation of each Gaussian blob.
    blob_std: f64,
    /// Amplitude of the uniform jitter added to each duplicate.
    duplicate_jitter: f64,
}

impl Points2dGenerator {
    /// Creates a generator following the paper's protocol
    /// (×100 duplication; the base-point count follows from the requested
    /// total — 7.5K for the paper's 750K points).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            duplication: 100,
            blob_std: 1.8,
            duplicate_jitter: 0.5,
        }
    }

    /// Overrides the duplication factor.
    pub fn with_duplication(mut self, duplication: usize) -> Self {
        assert!(duplication >= 1);
        self.duplication = duplication;
        self
    }

    /// The 50 ground-truth cluster centers, laid out on a jittered 10×5 grid.
    pub fn true_centers(&self) -> Vec<[f64; 2]> {
        let mut rng = stream_rng(self.seed, 2);
        let mut centers = Vec::with_capacity(POINTS2D_CLUSTERS);
        let (cols, rows) = (10usize, 5usize);
        for row in 0..rows {
            for col in 0..cols {
                let cx = (col as f64 + 0.5) * (POINTS2D_RANGE.width() / cols as f64);
                let cy = (row as f64 + 0.5) * (POINTS2D_RANGE.width() / rows as f64 / 2.0) + 25.0;
                let jx = rng.gen_range(-2.0..2.0);
                let jy = rng.gen_range(-2.0..2.0);
                centers.push([cx + jx, cy + jy]);
            }
        }
        centers
    }

    /// Generates the base points (one blob per ground-truth center), then
    /// duplicates each base point `duplication` times with a small uniform
    /// jitter, exactly as in Appendix D.  Returns the points and their
    /// ground-truth labels.
    pub fn generate_labelled(&self, total: usize) -> (TimeSeriesSet, Vec<usize>) {
        assert!(total > 0);
        let centers = self.true_centers();
        let mut rng = stream_rng(self.seed, 0);
        // Derive how many base points we need so that base × duplication >= total.
        let base_needed = total.div_ceil(self.duplication).max(POINTS2D_CLUSTERS);
        let mut points = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        'outer: for i in 0..base_needed {
            let label = i % POINTS2D_CLUSTERS;
            let center = centers[label];
            let base = [
                (center[0] + self.blob_std * standard_normal(&mut rng)).clamp(POINTS2D_RANGE.min, POINTS2D_RANGE.max),
                (center[1] + self.blob_std * standard_normal(&mut rng)).clamp(POINTS2D_RANGE.min, POINTS2D_RANGE.max),
            ];
            for _ in 0..self.duplication {
                if points.len() >= total {
                    break 'outer;
                }
                let jitter = |v: f64, rng: &mut rand::rngs::StdRng| {
                    (v + rng.gen_range(-self.duplicate_jitter..=self.duplicate_jitter))
                        .clamp(POINTS2D_RANGE.min, POINTS2D_RANGE.max)
                };
                points.push(TimeSeries::new(vec![jitter(base[0], &mut rng), jitter(base[1], &mut rng)]));
                labels.push(label);
            }
        }
        (TimeSeriesSet::new(points, POINTS2D_RANGE), labels)
    }

    /// Initial centroids drawn uniformly at random in the coordinate range
    /// (never actual data points).
    pub fn generate_initial_centroids(&self, k: usize) -> Vec<TimeSeries> {
        assert!(k > 0);
        let mut rng = stream_rng(self.seed, 1);
        (0..k)
            .map(|_| {
                TimeSeries::new(vec![
                    rng.gen_range(POINTS2D_RANGE.min..POINTS2D_RANGE.max),
                    rng.gen_range(POINTS2D_RANGE.min..POINTS2D_RANGE.max),
                ])
            })
            .collect()
    }
}

impl DatasetGenerator for Points2dGenerator {
    fn generate(&self, count: usize) -> TimeSeriesSet {
        self.generate_labelled(count).0
    }

    fn name(&self) -> &'static str {
        "points2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::closest;

    #[test]
    fn generates_requested_count() {
        let set = Points2dGenerator::new(1).generate(1_000);
        assert_eq!(set.len(), 1_000);
        assert_eq!(set.series_length(), 2);
    }

    #[test]
    fn fifty_true_centers() {
        let centers = Points2dGenerator::new(1).true_centers();
        assert_eq!(centers.len(), POINTS2D_CLUSTERS);
    }

    #[test]
    fn centers_are_distinct() {
        let centers = Points2dGenerator::new(4).true_centers();
        for i in 0..centers.len() {
            for j in (i + 1)..centers.len() {
                let dx = centers[i][0] - centers[j][0];
                let dy = centers[i][1] - centers[j][1];
                assert!(dx * dx + dy * dy > 1.0, "centers {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn labels_match_closest_true_center_mostly() {
        let generator = Points2dGenerator::new(7).with_duplication(10);
        let (set, labels) = generator.generate_labelled(2_000);
        let centers: Vec<TimeSeries> =
            generator.true_centers().iter().map(|c| TimeSeries::new(c.to_vec())).collect();
        let mut correct = 0usize;
        for (point, &label) in set.iter().zip(labels.iter()) {
            let (idx, _) = closest(point.values(), &centers);
            if idx == label {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / set.len() as f64;
        assert!(accuracy > 0.85, "points should mostly lie closest to their own blob center, accuracy={accuracy}");
    }

    #[test]
    fn duplicates_stay_close_to_their_base_point() {
        let generator = Points2dGenerator::new(3).with_duplication(100);
        let (set, labels) = generator.generate_labelled(200);
        // The first 100 points are duplicates of the same base point.
        assert!(labels[..100].iter().all(|&l| l == labels[0]));
        let first = set.get(0);
        for i in 1..100 {
            assert!(first.distance(set.get(i)) <= 2.0 * 0.5 * std::f64::consts::SQRT_2 + 1e-9);
        }
    }

    #[test]
    fn initial_centroids_within_range() {
        let centroids = Points2dGenerator::new(2).generate_initial_centroids(50);
        assert_eq!(centroids.len(), 50);
        for c in centroids {
            assert!(POINTS2D_RANGE.contains(c[0]) && POINTS2D_RANGE.contains(c[1]));
        }
    }
}
