//! Deterministic node crash/rejoin schedules.
//!
//! The round-based engine models churn as a memoryless per-round coin flip
//! ([`crate::churn::ChurnModel`]).  Real failures are *correlated in time*:
//! a node that crashes stays down for a while, then rejoins with stale
//! state.  A [`CrashSchedule`] expresses that as explicit downtime windows,
//! which the asynchronous engine turns into crash/rejoin events; it
//! composes with the memoryless churn model (a node must be both inside no
//! window and pass the churn coin to take part in an exchange).

use rand::Rng;

/// One node's downtime window: offline during `[crash_at, rejoin_at)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: usize,
    /// Simulated time at which the node goes offline.
    pub crash_at: f64,
    /// Simulated time at which it comes back (`f64::INFINITY` = never).
    pub rejoin_at: f64,
}

/// A set of downtime windows (empty = nobody ever crashes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashSchedule {
    windows: Vec<CrashWindow>,
}

impl CrashSchedule {
    /// The empty schedule: every node stays up for the whole run.
    pub const NONE: CrashSchedule = CrashSchedule { windows: Vec::new() };

    /// Builds a schedule from explicit windows.
    ///
    /// # Panics
    /// Panics if a window has a negative or NaN crash time, or does not end
    /// strictly after it starts.
    pub fn new(windows: Vec<CrashWindow>) -> Self {
        for w in &windows {
            assert!(
                w.crash_at.is_finite() && w.crash_at >= 0.0,
                "crash time must be finite and >= 0, got {}",
                w.crash_at
            );
            assert!(
                w.rejoin_at > w.crash_at,
                "rejoin time {} must be after the crash at {}",
                w.rejoin_at,
                w.crash_at
            );
        }
        Self { windows }
    }

    /// A randomly drawn mass-failure schedule: each node independently
    /// crashes with probability `crash_fraction`, at a uniform time in
    /// `[0, horizon)`, for a downtime of `downtime` time units.  Drawn from
    /// `rng` up front, so the schedule — like everything in the simulator —
    /// is a pure function of the seed.
    pub fn uniform_random<R: Rng + ?Sized>(
        population: usize,
        crash_fraction: f64,
        horizon: f64,
        downtime: f64,
        rng: &mut R,
    ) -> Self {
        assert!((0.0..=1.0).contains(&crash_fraction), "crash fraction must be in [0, 1]");
        assert!(horizon > 0.0 && downtime > 0.0);
        let windows = (0..population)
            .filter(|_| rng.gen_bool(crash_fraction))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|node| {
                let crash_at = rng.gen_range(0.0..horizon);
                CrashWindow { node, crash_at, rejoin_at: crash_at + downtime }
            })
            .collect();
        Self::new(windows)
    }

    /// The downtime windows.
    pub fn windows(&self) -> &[CrashWindow] {
        &self.windows
    }

    /// Whether the schedule contains no window at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn explicit_windows_round_trip() {
        let schedule = CrashSchedule::new(vec![
            CrashWindow { node: 3, crash_at: 1.0, rejoin_at: 4.0 },
            CrashWindow { node: 7, crash_at: 0.0, rejoin_at: f64::INFINITY },
        ]);
        assert_eq!(schedule.windows().len(), 2);
        assert!(!schedule.is_empty());
        assert!(CrashSchedule::NONE.is_empty());
    }

    #[test]
    #[should_panic(expected = "after the crash")]
    fn inverted_window_rejected() {
        CrashSchedule::new(vec![CrashWindow { node: 0, crash_at: 5.0, rejoin_at: 2.0 }]);
    }

    #[test]
    fn random_schedule_matches_fraction_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let schedule = CrashSchedule::uniform_random(10_000, 0.3, 20.0, 5.0, &mut rng);
        let fraction = schedule.windows().len() as f64 / 10_000.0;
        assert!((fraction - 0.3).abs() < 0.02, "crash fraction {fraction}");
        for w in schedule.windows() {
            assert!((0.0..20.0).contains(&w.crash_at));
            assert!((w.rejoin_at - w.crash_at - 5.0).abs() < 1e-12);
        }
        let mut rng2 = StdRng::seed_from_u64(11);
        let again = CrashSchedule::uniform_random(10_000, 0.3, 20.0, 5.0, &mut rng2);
        assert_eq!(schedule, again, "same seed must reproduce the same schedule");
    }
}
