//! Fault-tolerance integration tests: injected divergence is rolled back
//! and survived; interrupted runs resume bit-identically from run-state
//! snapshots, including when the newest snapshot is truncated.

#![cfg(test)]

use edsr_data::{Augmenter, Dataset, Task, TaskSequence};
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;

use crate::checkpoint::{list_snapshots, CheckpointConfig};
use crate::error::TrainError;
use crate::fault::{truncate_file, FaultInjector, FaultPlan};
use crate::guard::GuardConfig;
use crate::methods::{Der, Finetune};
use crate::model::{ContinualModel, ModelConfig};
use crate::trainer::{OptimizerKind, RunBuilder, TrainConfig};

/// Two-increment toy stream with clearly clustered 8-d inputs.
fn toy_sequence(seed: u64) -> TaskSequence {
    let mut rng = seeded(seed);
    let mut make_task = |offset: f32| {
        let mut inputs = Matrix::randn(24, 8, 0.2, &mut rng);
        let mut labels = Vec::new();
        for r in 0..24 {
            let class = r % 2;
            labels.push(class);
            inputs.add_at(r, class, offset + 2.0);
        }
        let data = Dataset::new("toy", inputs, labels);
        Task {
            train: data.clone(),
            test: data.subset(&(0..8).collect::<Vec<_>>()),
            classes: vec![0, 1],
        }
    };
    TaskSequence {
        name: "toy".into(),
        tasks: vec![make_task(0.0), make_task(1.0)],
    }
}

fn toy_augmenters(n: usize) -> Vec<Augmenter> {
    (0..n).map(|_| Augmenter::Identity).collect()
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs_per_task: 2,
        batch_size: 8,
        replay_batch: 4,
        lr: 1e-3,
        momentum: 0.9,
        weight_decay: 0.0,
        optimizer: OptimizerKind::Adam,
        eval_k: 3,
        multitask_epoch_multiplier: 1,
        cosine_floor: 1.0,
    }
}

fn temp_ckpt(tag: &str) -> CheckpointConfig {
    let dir = std::env::temp_dir().join(format!("edsr-fault-tests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointConfig::new(dir, "run")
}

/// Acceptance (a): an injected NaN loss triggers rollback plus LR
/// backoff and the run still completes with finite task losses.
#[test]
fn nan_fault_is_rolled_back_and_run_completes() {
    let seq = toy_sequence(40);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(41));
    // NaN at increment 0, step 1: poisons a live weight AND the loss.
    let mut method = FaultInjector::new(Finetune::new(), FaultPlan::nan_loss_at(0, 1));
    let cfg = tiny_cfg();
    let mut rng = seeded(42);
    let result = RunBuilder::new(&cfg)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("survives NaN");
    assert_eq!(method.injected(), 1, "fault did not fire");
    assert!(result.recoveries >= 1, "no rollback recorded");
    assert_eq!(result.matrix.num_increments(), 2, "run did not complete");
    assert!(
        result.task_losses.iter().all(|l| l.is_finite()),
        "task losses polluted: {:?}",
        result.task_losses
    );
    // The poisoned weight must have been restored: all params finite.
    let clean = model
        .params
        .ids()
        .all(|id| model.params.value(id).data().iter().all(|v| v.is_finite()));
    assert!(clean, "NaN weight survived the rollback");
}

/// A corrupt batch (bad data read) yields a non-finite loss but must not
/// poison weights or optimizer moments; the run completes.
#[test]
fn corrupt_batch_is_survived_without_weight_damage() {
    let seq = toy_sequence(43);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(44));
    let mut method = FaultInjector::new(Finetune::new(), FaultPlan::corrupt_batch_at(1, 2));
    let cfg = tiny_cfg();
    let mut rng = seeded(45);
    let result = RunBuilder::new(&cfg)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("survives");
    assert_eq!(method.injected(), 1);
    assert!(result.recoveries >= 1);
    assert!(result.task_losses.iter().all(|l| l.is_finite()));
    let clean = model
        .params
        .ids()
        .all(|id| model.params.value(id).data().iter().all(|v| v.is_finite()));
    assert!(clean, "corrupt batch leaked NaN into the weights");
}

/// Faults on every retry exhaust the bounded budget and surface a
/// structured `Diverged` error naming the increment.
#[test]
fn persistent_divergence_exhausts_retries_with_structured_error() {
    let seq = toy_sequence(46);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(47));
    // The step counter keeps counting across retries, so consecutive
    // step coordinates re-fault every retried epoch.
    let plan = FaultPlan {
        faults: (0..8)
            .map(|s| crate::fault::Fault::NanLoss { task: 0, step: s })
            .collect(),
    };
    let mut method = FaultInjector::new(Finetune::new(), plan);
    let cfg = tiny_cfg();
    let mut rng = seeded(48);
    let err = RunBuilder::new(&cfg)
        .guard(GuardConfig {
            max_retries: 2,
            ..GuardConfig::default()
        })
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .unwrap_err();
    match err {
        TrainError::Diverged { task, retries, .. } => {
            assert_eq!(task, 0);
            assert_eq!(retries, 2);
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

/// Acceptance (b): interrupting after increment 1, truncating the newest
/// snapshot, and resuming falls back to the previous valid snapshot and
/// reproduces the uninterrupted run's accuracy matrix exactly.
#[test]
fn resume_after_truncation_matches_uninterrupted_run() {
    let seq = toy_sequence(50);
    let augs = toy_augmenters(seq.len());
    let cfg = tiny_cfg();
    let make_method = || Der::new(6, 4, 0.5);

    // Reference: uninterrupted, no checkpointing.
    let mut ref_model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(51));
    let mut ref_method = make_method();
    let mut ref_rng = seeded(52);
    let reference = RunBuilder::new(&cfg)
        .run(
            &mut ref_method,
            &mut ref_model,
            &mut &seq,
            &augs,
            &mut ref_rng,
        )
        .expect("reference run");

    // Checkpointed run over the full sequence (snapshots after both
    // increments), identical seeds.
    let ckpt = temp_ckpt("resume");
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(51));
    let mut method = make_method();
    let mut rng = seeded(52);
    let checkpointed = RunBuilder::new(&cfg)
        .checkpoint(ckpt.clone())
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("checkpointed run");
    assert_eq!(
        checkpointed.matrix.rows(),
        reference.matrix.rows(),
        "checkpointing changed math"
    );
    let snapshots = list_snapshots(&ckpt);
    assert_eq!(snapshots.len(), 2, "expected one snapshot per increment");

    // Truncate the newest snapshot mid-payload, as a crash would.
    let newest = &snapshots[1].1;
    let len = std::fs::metadata(newest).expect("stat").len() as usize;
    truncate_file(newest, len / 2).expect("truncate");

    // Resume with fresh objects: must fall back to the task-1 snapshot,
    // retrain increment 2, and land on the same matrix bit-for-bit.
    let mut resumed_model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(51));
    let mut resumed_method = make_method();
    let mut resumed_rng = seeded(777); // overwritten by the snapshot's RNG state
    let resumed = RunBuilder::new(&cfg)
        .checkpoint(ckpt.clone())
        .resume()
        .run(
            &mut resumed_method,
            &mut resumed_model,
            &mut &seq,
            &augs,
            &mut resumed_rng,
        )
        .expect("resumed run");
    assert_eq!(
        resumed.matrix.rows(),
        reference.matrix.rows(),
        "resumed run diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed.task_losses[1], reference.task_losses[1],
        "loss stream diverged"
    );
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

/// `stop_after` interrupts cleanly and a plain resume finishes the rest.
#[test]
fn stop_after_then_resume_completes_the_sequence() {
    let seq = toy_sequence(53);
    let augs = toy_augmenters(seq.len());
    let cfg = tiny_cfg();
    let ckpt = temp_ckpt("stop-after");

    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(54));
    let mut method = Finetune::new();
    let mut rng = seeded(55);
    let partial = RunBuilder::new(&cfg)
        .checkpoint(ckpt.clone())
        .stop_after(1)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("partial run");
    assert_eq!(partial.matrix.num_increments(), 1, "stop_after ignored");

    let mut resumed_model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(54));
    let mut resumed_method = Finetune::new();
    let mut resumed_rng = seeded(999);
    let full = RunBuilder::new(&cfg)
        .checkpoint(ckpt.clone())
        .resume()
        .run(
            &mut resumed_method,
            &mut resumed_model,
            &mut &seq,
            &augs,
            &mut resumed_rng,
        )
        .expect("resumed run");
    assert_eq!(
        full.matrix.num_increments(),
        2,
        "resume did not finish the sequence"
    );
    assert_eq!(
        full.matrix.rows()[0],
        partial.matrix.rows()[0],
        "history rewritten on resume"
    );
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

/// Checkpointing a method without state hooks is an explicit error, not
/// silent state loss.
#[test]
fn checkpointing_requires_state_hooks() {
    struct Stateless;
    impl crate::trainer::Method for Stateless {
        fn name(&self) -> String {
            "Stateless".into()
        }
        fn train_step(
            &mut self,
            _model: &mut ContinualModel,
            _opt: &mut dyn edsr_nn::Optimizer,
            _augs: &[Augmenter],
            _batch: &Matrix,
            _task_idx: usize,
            _ws: &mut edsr_nn::Workspace,
            _rng: &mut rand::rngs::StdRng,
        ) -> f32 {
            0.0
        }
    }
    let seq = toy_sequence(56);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(57));
    let cfg = tiny_cfg();
    let mut rng = seeded(58);
    let err = RunBuilder::new(&cfg)
        .checkpoint(temp_ckpt("stateless"))
        .run(&mut Stateless, &mut model, &mut &seq, &augs, &mut rng)
        .unwrap_err();
    assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
}

/// Asking to resume without naming a snapshot source must fail fast, not
/// quietly start from scratch.
#[test]
fn resume_without_snapshot_source_is_an_explicit_error() {
    let seq = toy_sequence(60);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(61));
    let mut method = Finetune::new();
    let cfg = tiny_cfg();
    let mut rng = seeded(62);
    let err = RunBuilder::new(&cfg)
        .resume()
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .unwrap_err();
    match err {
        TrainError::InvalidConfig(msg) => {
            assert!(msg.contains("resume"), "unhelpful message: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other}"),
    }
}

/// `resume_from` pairs an explicit snapshot source with a (possibly
/// different) destination: resuming from run A's snapshots while writing
/// new snapshots to run B works, and B ends with its own full history.
#[test]
fn resume_from_reads_one_dir_while_checkpointing_to_another() {
    let seq = toy_sequence(63);
    let augs = toy_augmenters(seq.len());
    let cfg = tiny_cfg();
    let source = temp_ckpt("resume-from-src");
    let dest = temp_ckpt("resume-from-dst");

    // Seed the source with a 1-increment partial run.
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(64));
    let mut method = Finetune::new();
    let mut rng = seeded(65);
    RunBuilder::new(&cfg)
        .checkpoint(source.clone())
        .stop_after(1)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("partial run");

    // Resume from `source` but snapshot the continuation into `dest`.
    let mut model2 = ContinualModel::new(&ModelConfig::image(8), &mut seeded(64));
    let mut method2 = Finetune::new();
    let mut rng2 = seeded(888);
    let full = RunBuilder::new(&cfg)
        .checkpoint(dest.clone())
        .resume_from(source.clone())
        .run(&mut method2, &mut model2, &mut &seq, &augs, &mut rng2)
        .expect("cross-dir resume");
    assert_eq!(full.matrix.num_increments(), 2);
    let source_snaps = list_snapshots(&source);
    let dest_snaps = list_snapshots(&dest);
    assert_eq!(source_snaps.len(), 1, "source dir must stay untouched");
    assert!(!dest_snaps.is_empty(), "continuation was not checkpointed");
    let _ = std::fs::remove_dir_all(&source.dir);
    let _ = std::fs::remove_dir_all(&dest.dir);
}
