//! Per-iteration and per-run quality reports shared by the baseline, the
//! perturbed surrogate and the distributed execution.

use chiaroscuro_timeseries::TimeSeries;

/// What happened during one k-means iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Privacy budget spent by this iteration (0 for the unperturbed
    /// baseline).
    pub epsilon: f64,
    /// Intra-cluster inertia measured with the *exact* (pre-perturbation)
    /// means of this iteration's clusters (the PRE curves of Figure 2).
    pub pre_inertia: f64,
    /// Intra-cluster inertia measured with the perturbed (and possibly
    /// smoothed) centroids that will seed the next iteration, without
    /// re-assignment (the POST bars of Figures 2(e)/(f)).
    pub post_inertia: f64,
    /// Number of clusters that received at least one series at this
    /// iteration's assignment step (the "number of centroids" curves of
    /// Figures 2(c)/(d)).
    pub surviving_centroids: usize,
    /// Number of series that took part in the iteration (varies under
    /// churn).
    pub participating_series: usize,
}

/// The PRE/POST summary of Figures 2(e) and 2(f): the iteration with the
/// lowest pre-perturbation inertia and the corresponding post-perturbation
/// inertia.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrePostReport {
    /// Index of the best (lowest PRE inertia) iteration.
    pub best_iteration: usize,
    /// The lowest pre-perturbation intra-cluster inertia.
    pub pre: f64,
    /// The post-perturbation inertia of that same iteration.
    pub post: f64,
}

/// The full outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One report per executed iteration, in order.
    pub iterations: Vec<IterationReport>,
    /// The centroids produced by the final iteration (perturbed and smoothed
    /// for the private variants).
    pub final_centroids: Vec<TimeSeries>,
    /// Whether the run stopped because centroids converged (as opposed to
    /// exhausting the iteration or budget limit).
    pub converged: bool,
    /// The constant full inertia of the dataset (the "Dataset inertia" line).
    pub dataset_inertia: f64,
}

impl RunReport {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// The PRE/POST summary (None if no iteration ran).
    pub fn pre_post(&self) -> Option<PrePostReport> {
        let best = self
            .iterations
            .iter()
            .min_by(|a, b| a.pre_inertia.partial_cmp(&b.pre_inertia).expect("finite inertia"))?;
        Some(PrePostReport { best_iteration: best.iteration, pre: best.pre_inertia, post: best.post_inertia })
    }

    /// The PRE-inertia series indexed by iteration (for plotting Figure 2).
    pub fn pre_inertia_series(&self) -> Vec<f64> {
        self.iterations.iter().map(|it| it.pre_inertia).collect()
    }

    /// The surviving-centroid series indexed by iteration.
    pub fn centroid_counts(&self) -> Vec<usize> {
        self.iterations.iter().map(|it| it.surviving_centroids).collect()
    }

    /// Total privacy budget spent across iterations.
    pub fn total_epsilon(&self) -> f64 {
        self.iterations.iter().map(|it| it.epsilon).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_timeseries::TimeSeries;

    fn report_with_inertias(values: &[f64]) -> RunReport {
        RunReport {
            iterations: values
                .iter()
                .enumerate()
                .map(|(i, &v)| IterationReport {
                    iteration: i,
                    epsilon: 0.1,
                    pre_inertia: v,
                    post_inertia: v * 1.5,
                    surviving_centroids: 10 - i,
                    participating_series: 100,
                })
                .collect(),
            final_centroids: vec![TimeSeries::zeros(2)],
            converged: false,
            dataset_inertia: 100.0,
        }
    }

    #[test]
    fn pre_post_picks_lowest_pre_inertia() {
        let report = report_with_inertias(&[50.0, 30.0, 42.0]);
        let pp = report.pre_post().unwrap();
        assert_eq!(pp.best_iteration, 1);
        assert_eq!(pp.pre, 30.0);
        assert_eq!(pp.post, 45.0);
    }

    #[test]
    fn series_accessors() {
        let report = report_with_inertias(&[5.0, 4.0]);
        assert_eq!(report.pre_inertia_series(), vec![5.0, 4.0]);
        assert_eq!(report.centroid_counts(), vec![10, 9]);
        assert!((report.total_epsilon() - 0.2).abs() < 1e-12);
        assert_eq!(report.num_iterations(), 2);
    }

    #[test]
    fn empty_run_has_no_pre_post() {
        let report = report_with_inertias(&[]);
        assert!(report.pre_post().is_none());
    }
}
