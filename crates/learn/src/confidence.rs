//! The decayed confidence tracker of discriminative prediction.
//!
//! The paper's Figure 7: `conf ← (1 − γ)·conf + γ·acc` after every run,
//! where `acc` is the sample-weighted prediction accuracy of that run.
//! Prediction is only applied when `conf` exceeds the confidence
//! threshold `TH_c`. Both γ and `TH_c` default to the paper's 0.7.

use serde::{Deserialize, Serialize};

/// The paper's default decay factor γ.
pub const DEFAULT_GAMMA: f64 = 0.7;

/// The paper's default confidence threshold `TH_c`.
pub const DEFAULT_THRESHOLD: f64 = 0.7;

/// Decayed-average confidence over per-run prediction accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceTracker {
    conf: f64,
    gamma: f64,
    threshold: f64,
    updates: u64,
}

impl Default for ConfidenceTracker {
    fn default() -> ConfidenceTracker {
        ConfidenceTracker::new(DEFAULT_GAMMA, DEFAULT_THRESHOLD)
    }
}

impl ConfidenceTracker {
    /// Create a tracker with explicit γ and threshold, both in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is outside `[0, 1]`.
    pub fn new(gamma: f64, threshold: f64) -> ConfidenceTracker {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        ConfidenceTracker {
            conf: 0.0,
            gamma,
            threshold,
            updates: 0,
        }
    }

    /// A tracker with γ `gamma` and threshold `threshold` that carries on
    /// from this one's confidence and update count — how a stored tracker
    /// is resumed under the caller's configuration. `None` when this
    /// tracker holds a field no tracker built by
    /// [`ConfidenceTracker::new`] can hold: a confidence that is not a
    /// number in `[0, 1]`, or a γ or threshold outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `threshold` is outside `[0, 1]`, as
    /// [`ConfidenceTracker::new`] does.
    pub fn resumed(&self, gamma: f64, threshold: f64) -> Option<ConfidenceTracker> {
        let unit = 0.0..=1.0;
        (unit.contains(&self.conf) && unit.contains(&self.gamma) && unit.contains(&self.threshold))
            .then(|| ConfidenceTracker {
                conf: self.conf,
                updates: self.updates,
                ..ConfidenceTracker::new(gamma, threshold)
            })
    }

    /// Current confidence in `[0, 1]` (starts at 0).
    pub fn value(&self) -> f64 {
        self.conf
    }

    /// The confidence threshold `TH_c`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// True when the model is trusted: `conf > TH_c`.
    pub fn is_confident(&self) -> bool {
        self.conf > self.threshold
    }

    /// Fold in one run's prediction accuracy (clamped to `[0, 1]`).
    pub fn update(&mut self, accuracy: f64) {
        let acc = accuracy.clamp(0.0, 1.0);
        self.conf = (1.0 - self.gamma) * self.conf + self.gamma * acc;
        self.updates += 1;
    }

    /// Number of accuracy updates folded in.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unconfident() {
        let c = ConfidenceTracker::default();
        assert_eq!(c.value(), 0.0);
        assert!(!c.is_confident());
    }

    #[test]
    fn rises_with_accurate_runs() {
        let mut c = ConfidenceTracker::default();
        c.update(1.0);
        assert!((c.value() - 0.7).abs() < 1e-12);
        assert!(!c.is_confident()); // 0.7 is not > 0.7
        c.update(1.0);
        assert!((c.value() - 0.91).abs() < 1e-12);
        assert!(c.is_confident());
    }

    #[test]
    fn falls_after_bad_runs() {
        let mut c = ConfidenceTracker::default();
        c.update(1.0);
        c.update(1.0);
        assert!(c.is_confident());
        c.update(0.0);
        assert!(!c.is_confident());
        assert!((c.value() - 0.273).abs() < 1e-12);
    }

    #[test]
    fn gamma_weights_recency() {
        let mut fast = ConfidenceTracker::new(0.9, 0.7);
        let mut slow = ConfidenceTracker::new(0.1, 0.7);
        fast.update(1.0);
        slow.update(1.0);
        assert!(fast.value() > slow.value());
    }

    #[test]
    fn accuracy_is_clamped() {
        let mut c = ConfidenceTracker::default();
        c.update(7.0);
        assert!(c.value() <= 1.0);
        c.update(-3.0);
        assert!(c.value() >= 0.0);
        assert_eq!(c.updates(), 2);
    }

    #[test]
    fn resumed_keeps_the_state_and_takes_the_new_parameters() {
        let mut stored = ConfidenceTracker::new(0.9, 0.5);
        stored.update(1.0);
        let resumed = stored
            .resumed(0.7, 1.0)
            .expect("a tracker `new` could build");
        assert_eq!(resumed.value(), stored.value());
        assert_eq!(resumed.updates(), 1);
        assert_eq!(resumed.threshold(), 1.0);
        assert!(!resumed.is_confident());
        let mut next = resumed;
        next.update(0.0);
        assert_eq!(next.value(), (1.0 - 0.7) * stored.value());
    }

    #[test]
    fn resumed_rejects_fields_new_would_reject() {
        let good = ConfidenceTracker::default();
        for hostile in [
            ConfidenceTracker {
                conf: f64::INFINITY,
                ..good
            },
            ConfidenceTracker {
                conf: f64::NAN,
                ..good
            },
            ConfidenceTracker { conf: -0.5, ..good },
            ConfidenceTracker { conf: 1.5, ..good },
            ConfidenceTracker { gamma: 2.0, ..good },
            ConfidenceTracker {
                gamma: f64::NAN,
                ..good
            },
            ConfidenceTracker {
                threshold: -1.0,
                ..good
            },
        ] {
            assert_eq!(hostile.resumed(0.7, 0.7), None, "{hostile:?}");
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn bad_gamma_panics() {
        let _ = ConfidenceTracker::new(1.5, 0.7);
    }
}
