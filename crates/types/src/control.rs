//! Control-loop robustness configuration: epoch decision budgets and
//! anti-thrash hysteresis.
//!
//! The paper's controller repartitions every epoch and silently assumes the
//! MSA→MU→bank-aware pipeline always finishes in time and always converges
//! to a sane plan. This module defines the knobs of the robustness layer
//! that drops those assumptions:
//!
//! * [`DecisionBudget`] — a deterministic step budget for one epoch's
//!   profile→assign→plan decision. When it is exhausted the solver either
//!   closes out early from a consistent checkpoint (late phases) or the
//!   controller sheds the decision and keeps the last-good plan.
//! * [`HysteresisConfig`] — the anti-thrash gate: a new plan is installed
//!   only when its projected miss reduction beats a migration-cost
//!   threshold; repeated A↔B oscillations trigger an exponential hold-off,
//!   and a curve-delta phase detector bypasses the hold-off when the
//!   workload genuinely shifts.
//! * [`ControlConfig`] — the bundle the system wires into the controller
//!   and the `bap-guard` invariant monitor.
//!
//! **Every default is behaviour-neutral**: the budget is unlimited, the
//! hysteresis gate is disabled, and the guard only observes (it acts only
//! on violations, which healthy runs never produce). The paper's golden
//! figures are bit-identical with `ControlConfig::default()`. Warm starts
//! have no knob: the controller's one Bank-aware solve reuses a cluster's
//! sub-plan only when everything that sub-solve reads is unchanged, so
//! they never move a plan.

use serde::{Deserialize, Serialize};

/// Budget for one epoch's partitioning decision, counted in solver bid
/// evaluations so that it is deterministic. Disabled at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionBudget {
    /// Maximum marginal-utility solver steps per epoch (0 = unlimited).
    ///
    /// A step is one bid evaluation in the bank-aware solver's bidding
    /// loops. Exhaustion during the Center phase (Boxes 1–2) sheds the
    /// whole decision (the allocation cannot be closed out consistently
    /// mid-phase); exhaustion during the Local phase (Boxes 4–6) closes
    /// out from the last consistent checkpoint — every open core keeps its
    /// remaining own-bank ways — and still yields a valid plan.
    pub max_solver_steps: u64,
}

/// Anti-thrash hysteresis thresholds for the plan-install gate.
///
/// Disabled by default so that the paper's configurations are untouched;
/// [`HysteresisConfig::tuned`] is the production preset the stability
/// experiment and the stress tests use.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HysteresisConfig {
    /// Master switch. When false the controller installs every solver plan
    /// exactly as the paper describes.
    pub enabled: bool,
    /// Minimum projected miss reduction, as a fraction of the projected
    /// misses under the currently installed plan, before a new plan is
    /// worth installing at all.
    pub min_improvement_frac: f64,
    /// Migration cost, in projected misses, charged per (bank, way) slot
    /// that changes owner between the installed and the candidate plan.
    /// The projected gain must also exceed `cost_per_way × way_churn`.
    pub migration_cost_per_way: f64,
    /// Number of recent installed-plan signatures remembered for flip-flop
    /// detection.
    pub flip_window: usize,
    /// A↔B alternations within the window before the controller enters
    /// hold-off.
    pub flip_threshold: u32,
    /// Initial hold-off length in epochs; doubles on each re-entry.
    pub holdoff_base_epochs: u64,
    /// Upper bound on the exponential hold-off.
    pub holdoff_max_epochs: u64,
    /// Mean absolute miss-ratio curve delta (vs the curves at the last
    /// install) above which the workload is considered to have genuinely
    /// changed phase: the gate and any active hold-off are bypassed.
    pub phase_delta_threshold: f64,
}

impl Default for HysteresisConfig {
    /// Behaviour-neutral: the gate is off; thresholds hold the tuned
    /// values so flipping `enabled` alone gives a sensible machine.
    fn default() -> Self {
        HysteresisConfig {
            enabled: false,
            ..Self::tuned()
        }
    }
}

impl HysteresisConfig {
    /// The production preset: a 2 % improvement floor, one projected miss
    /// per migrated way, hold-off after two A↔B flips, 4→64-epoch
    /// exponential back-off, 15 % curve delta for phase bypass.
    pub fn tuned() -> Self {
        HysteresisConfig {
            enabled: true,
            min_improvement_frac: 0.02,
            migration_cost_per_way: 1.0,
            flip_window: 8,
            flip_threshold: 2,
            holdoff_base_epochs: 4,
            holdoff_max_epochs: 64,
            phase_delta_threshold: 0.15,
        }
    }

    /// Hold-off length for the given re-entry level (1-based), with
    /// exponential doubling capped at `holdoff_max_epochs`.
    pub fn holdoff_epochs(&self, level: u32) -> u64 {
        let shift = level.saturating_sub(1).min(32);
        self.holdoff_base_epochs
            .saturating_mul(1u64 << shift)
            .min(self.holdoff_max_epochs)
            .max(1)
    }
}

/// The full control-loop robustness bundle.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Epoch decision budget (unlimited by default).
    pub budget: DecisionBudget,
    /// Anti-thrash hysteresis (disabled by default).
    pub hysteresis: HysteresisConfig,
    /// Run the online invariant guard at epoch boundaries. The guard only
    /// emits events and escalates on *violations*, so leaving it on is
    /// behaviour-neutral for healthy runs.
    pub guard: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            budget: DecisionBudget::default(),
            hysteresis: HysteresisConfig::default(),
            guard: true,
        }
    }
}

impl ControlConfig {
    /// The production preset: tuned hysteresis, guard on, budget still
    /// unlimited (deployments pick their own latency envelope).
    pub fn tuned() -> Self {
        ControlConfig {
            budget: DecisionBudget::default(),
            hysteresis: HysteresisConfig::tuned(),
            guard: true,
        }
    }

    /// Preset with a deterministic solver step budget on top of `self`.
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.budget.max_solver_steps = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_behaviour_neutral() {
        let c = ControlConfig::default();
        assert_eq!(c.budget.max_solver_steps, 0, "unlimited");
        assert!(!c.hysteresis.enabled);
        assert!(c.guard, "guard observes but never alters healthy runs");
    }

    #[test]
    fn tuned_enables_the_gate() {
        let h = HysteresisConfig::tuned();
        assert!(h.enabled);
        assert!(h.min_improvement_frac > 0.0);
        assert!(h.flip_threshold >= 1);
    }

    #[test]
    fn holdoff_doubles_and_caps() {
        let h = HysteresisConfig::tuned();
        assert_eq!(h.holdoff_epochs(1), 4);
        assert_eq!(h.holdoff_epochs(2), 8);
        assert_eq!(h.holdoff_epochs(3), 16);
        assert_eq!(h.holdoff_epochs(10), h.holdoff_max_epochs);
        // Degenerate config still holds for at least one epoch.
        let z = HysteresisConfig {
            holdoff_base_epochs: 0,
            ..h
        };
        assert_eq!(z.holdoff_epochs(1), 1);
    }

    #[test]
    fn step_budget_builder() {
        let c = ControlConfig::default().with_step_budget(500);
        assert_eq!(
            c.budget,
            DecisionBudget {
                max_solver_steps: 500
            }
        );
    }
}
