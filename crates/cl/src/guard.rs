//! Divergence guard for the training loop.
//!
//! Unsupervised losses at simulation scale can blow up (bad LR, poisoned
//! batch, numeric edge case). [`StepGuard`] watches every step's loss,
//! keeps a known-good parameter snapshot at epoch boundaries, and on
//! divergence rolls the model back and backs the learning rate off — a
//! bounded number of times before surfacing [`TrainError::Diverged`].

use edsr_nn::{Optimizer, ParamSet};
use edsr_tensor::Matrix;

use crate::error::TrainError;

/// Tunables of the divergence guard.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Recovery attempts per increment before giving up.
    pub max_retries: usize,
    /// LR multiplier applied on each recovery (0 < backoff < 1).
    pub lr_backoff: f32,
    /// A finite loss counts as exploded when its magnitude exceeds
    /// `explode_factor × (1 + |running mean|)`.
    pub explode_factor: f32,
    /// Recovery fails once backing off would push the LR below this.
    pub min_lr: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_retries: 4,
            lr_backoff: 0.5,
            explode_factor: 1e3,
            min_lr: 1e-8,
        }
    }
}

/// Epoch-granular rollback state.
///
/// Usage protocol (what [`RunBuilder::run`](crate::RunBuilder::run) does):
/// 1. [`begin_task`](Self::begin_task) before an increment's first step;
/// 2. per step, check [`is_divergent`](Self::is_divergent) — healthy
///    losses go to [`observe`](Self::observe);
/// 3. on divergence, [`recover`](Self::recover) and re-run the epoch;
/// 4. after a clean epoch, [`commit`](Self::commit) the parameters.
///
/// Optimizer moments are *not* rolled back: gradients are only ever
/// applied when finite (see `apply_step`), so moments stay finite; stale
/// moments after a rollback wash out within a few steps at the reduced
/// LR.
pub struct StepGuard {
    cfg: GuardConfig,
    last_good: Vec<Matrix>,
    loss_mean: Option<f32>,
    retries: usize,
    lr_scale: f32,
}

impl StepGuard {
    /// Creates a guard whose first rollback target is `params` as-is.
    pub fn new(cfg: GuardConfig, params: &ParamSet) -> Self {
        Self {
            cfg,
            last_good: params.snapshot(),
            loss_mean: None,
            retries: 0,
            lr_scale: 1.0,
        }
    }

    /// Cumulative LR multiplier from recoveries (1.0 = never backed off).
    /// Schedulers must fold this into every LR they set, or an epoch
    /// boundary would silently undo the backoff.
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Restores a persisted LR scale (run-state resume).
    pub fn set_lr_scale(&mut self, scale: f32) {
        self.lr_scale = if scale.is_finite() && scale > 0.0 {
            scale.min(1.0)
        } else {
            1.0
        };
    }

    /// Recovery attempts consumed in the current increment.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Starts an increment: fresh rollback target, fresh retry budget.
    pub fn begin_task(&mut self, params: &ParamSet) {
        self.last_good = params.snapshot();
        self.loss_mean = None;
        self.retries = 0;
    }

    /// True when `loss` is non-finite or explosively larger than the
    /// running mean of healthy losses.
    pub fn is_divergent(&self, loss: f32) -> bool {
        if !loss.is_finite() {
            return true;
        }
        match self.loss_mean {
            Some(mean) => loss.abs() > self.cfg.explode_factor * (1.0 + mean.abs()),
            None => false,
        }
    }

    /// Feeds a healthy loss into the running mean.
    pub fn observe(&mut self, loss: f32) {
        self.loss_mean = Some(match self.loss_mean {
            Some(mean) => 0.9 * mean + 0.1 * loss,
            None => loss,
        });
    }

    /// Marks the current parameters as the rollback target (call at the
    /// end of every clean epoch).
    pub fn commit(&mut self, params: &ParamSet) {
        self.last_good = params.snapshot();
    }

    /// Rolls `params` back to the last good snapshot and backs the LR
    /// off; errors once the retry budget or the LR floor is exhausted.
    ///
    /// `method`, `task`, `epoch`, and `last_loss` only label the error.
    pub fn recover(
        &mut self,
        params: &mut ParamSet,
        opt: &mut dyn Optimizer,
        method: &str,
        task: usize,
        epoch: usize,
        last_loss: f32,
    ) -> Result<(), TrainError> {
        self.retries += 1;
        let new_lr = opt.lr() * self.cfg.lr_backoff;
        if self.retries > self.cfg.max_retries || new_lr < self.cfg.min_lr {
            return Err(TrainError::Diverged {
                method: method.to_string(),
                task,
                epoch,
                retries: self.retries - 1,
                last_loss,
                lr: opt.lr(),
            });
        }
        params.restore(&self.last_good);
        self.lr_scale *= self.cfg.lr_backoff;
        opt.set_lr(new_lr);
        self.loss_mean = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_nn::Sgd;
    use edsr_tensor::rng::seeded;

    fn small_params() -> ParamSet {
        let mut ps = ParamSet::new();
        let mut rng = seeded(900);
        ps.register("w", Matrix::randn(2, 2, 1.0, &mut rng));
        ps
    }

    #[test]
    fn nonfinite_losses_are_divergent() {
        let guard = StepGuard::new(GuardConfig::default(), &small_params());
        assert!(guard.is_divergent(f32::NAN));
        assert!(guard.is_divergent(f32::INFINITY));
        assert!(!guard.is_divergent(1.5));
    }

    #[test]
    fn explosion_relative_to_running_mean() {
        let mut guard = StepGuard::new(GuardConfig::default(), &small_params());
        // No history yet: any finite loss is accepted.
        assert!(!guard.is_divergent(1e9));
        guard.observe(1.0);
        assert!(guard.is_divergent(1e9));
        assert!(!guard.is_divergent(100.0));
    }

    #[test]
    fn recover_rolls_back_and_halves_lr() {
        let mut ps = small_params();
        let before = ps.snapshot();
        let mut guard = StepGuard::new(GuardConfig::default(), &ps);
        // Corrupt the live parameters, as a diverged step would.
        for id in ps.ids().collect::<Vec<_>>() {
            ps.value_mut(id).scale_inplace(f32::NAN);
        }
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        guard
            .recover(&mut ps, &mut opt, "t", 0, 0, f32::NAN)
            .expect("budget left");
        let id = ps.ids().next().expect("param");
        assert_eq!(
            ps.value(id).max_abs_diff(&before[0]),
            0.0,
            "rollback incomplete"
        );
        assert!((opt.lr() - 0.05).abs() < 1e-9);
        assert!((guard.lr_scale() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let ps = small_params();
        let cfg = GuardConfig {
            max_retries: 2,
            ..GuardConfig::default()
        };
        let mut guard = StepGuard::new(cfg, &ps);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut ps = small_params();
        assert!(guard
            .recover(&mut ps, &mut opt, "t", 1, 0, f32::NAN)
            .is_ok());
        assert!(guard
            .recover(&mut ps, &mut opt, "t", 1, 0, f32::NAN)
            .is_ok());
        let err = guard
            .recover(&mut ps, &mut opt, "t", 1, 3, f32::NAN)
            .unwrap_err();
        match err {
            TrainError::Diverged {
                task,
                epoch,
                retries,
                ..
            } => {
                assert_eq!((task, epoch, retries), (1, 3, 2));
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn lr_floor_stops_recovery() {
        let ps = small_params();
        let cfg = GuardConfig {
            max_retries: 100,
            min_lr: 1e-3,
            ..GuardConfig::default()
        };
        let mut guard = StepGuard::new(cfg, &ps);
        let mut opt = Sgd::new(2e-3, 0.0, 0.0);
        let mut ps = small_params();
        assert!(guard.recover(&mut ps, &mut opt, "t", 0, 0, 1e9).is_ok()); // 1e-3: at floor
        assert!(guard.recover(&mut ps, &mut opt, "t", 0, 0, 1e9).is_err()); // 5e-4: below
    }
}
