//! Unit tests for the trainer module (config plumbing, evaluation rows,
//! sequence mechanics) on deliberately tiny workloads.

#![cfg(test)]

use edsr_data::{Augmenter, Dataset, GridSpec, Task, TaskSequence};
use edsr_nn::Optimizer;
use edsr_tensor::rng::seeded;
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::methods::Finetune;
use crate::model::{ContinualModel, ModelConfig};
use crate::trainer::{
    evaluate_row, run_multitask, tabular_augmenters, Method, OptimizerKind, RunBuilder, TrainConfig,
};

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

#[test]
fn cosine_floor_schedules_lr_without_breaking_training() {
    let seq = toy_sequence(20);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(21));
    let mut method = Finetune::new();
    let mut cfg = tiny_cfg();
    cfg.epochs_per_task = 4;
    cfg.cosine_floor = 0.05;
    let mut rng = seeded(22);
    let result = RunBuilder::new(&cfg)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("run");
    assert_eq!(result.matrix.num_increments(), 2);
    assert!(result.task_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn optimizer_kind_builds_requested_optimizer() {
    let mut cfg = tiny_cfg();
    cfg.optimizer = OptimizerKind::Sgd;
    assert!((cfg.build_optimizer().lr() - cfg.lr).abs() < 1e-9);
    cfg.optimizer = OptimizerKind::Adam;
    assert!((cfg.build_optimizer().lr() - cfg.lr).abs() < 1e-9);
}

#[test]
fn evaluate_row_length_matches_upto() {
    let seq = toy_sequence(1);
    let model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(2));
    let row0 = evaluate_row(&model, &mut &seq, 0, 3).expect("eval row 0");
    assert_eq!(row0.len(), 1);
    let row1 = evaluate_row(&model, &mut &seq, 1, 3).expect("eval row 1");
    assert_eq!(row1.len(), 2);
    assert!(row1.iter().all(|a| (0.0..=1.0).contains(a)));
}

#[test]
fn run_fills_matrix_times_and_losses() {
    let seq = toy_sequence(3);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(4));
    let mut method = Finetune::new();
    let cfg = tiny_cfg();
    let mut rng = seeded(5);
    let result = RunBuilder::new(&cfg)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .expect("run");
    assert_eq!(result.matrix.num_increments(), 2);
    assert_eq!(result.task_seconds.len(), 2);
    assert_eq!(result.task_losses.len(), 2);
    assert!(result.task_seconds.iter().all(|&t| t >= 0.0));
    assert_eq!(result.benchmark, "toy");
}

#[test]
fn run_rejects_wrong_augmenter_count() {
    let seq = toy_sequence(6);
    let augs = toy_augmenters(1);
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(7));
    let mut method = Finetune::new();
    let cfg = tiny_cfg();
    let mut rng = seeded(8);
    let err = RunBuilder::new(&cfg)
        .run(&mut method, &mut model, &mut &seq, &augs, &mut rng)
        .unwrap_err();
    assert!(
        matches!(err, crate::error::TrainError::InvalidConfig(_)),
        "{err}"
    );
    assert!(err.to_string().contains("one per task"), "{err}");
}

#[test]
fn run_multitask_reports_all_tasks() {
    let seq = toy_sequence(9);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(10));
    let cfg = tiny_cfg();
    let mut rng = seeded(11);
    let mt = run_multitask(&mut model, &mut &seq, &augs, &cfg, &mut rng).expect("multitask");
    assert_eq!(mt.per_task_acc.len(), 2);
    let mean = mt.per_task_acc.iter().sum::<f32>() / 2.0;
    assert!((mt.acc - mean).abs() < 1e-6);
}

#[test]
fn tabular_augmenters_reference_each_increment() {
    let seq = toy_sequence(12);
    let augs = tabular_augmenters(&mut &seq, 0.5).expect("tabular augmenters");
    assert_eq!(augs.len(), seq.len());
    for (aug, task) in augs.iter().zip(&seq.tasks) {
        match aug {
            Augmenter::TabularCrop {
                reference,
                corruption_prob,
            } => {
                assert_eq!(reference.rows(), task.train.len());
                assert_eq!(*corruption_prob, 0.5);
            }
            other => panic!("expected TabularCrop, got {other:?}"),
        }
    }
}

/// Method hooks fire in the documented order with the right task ids.
#[test]
fn method_lifecycle_hooks_fire_in_order() {
    #[derive(Default)]
    struct Spy {
        events: Vec<String>,
    }
    impl Method for Spy {
        fn name(&self) -> String {
            "Spy".into()
        }
        fn begin_task(&mut self, _m: &mut ContinualModel, t: usize, _d: &Dataset, _r: &mut StdRng) {
            self.events.push(format!("begin{t}"));
        }
        fn train_step(
            &mut self,
            model: &mut ContinualModel,
            opt: &mut dyn Optimizer,
            augs: &[Augmenter],
            batch: &Matrix,
            task_idx: usize,
            ws: &mut edsr_nn::Workspace,
            rng: &mut StdRng,
        ) -> f32 {
            self.events.push(format!("step{task_idx}"));
            // Delegate to keep the model training for real.
            Finetune::new().train_step(model, opt, augs, batch, task_idx, ws, rng)
        }
        fn end_task(
            &mut self,
            _m: &mut ContinualModel,
            t: usize,
            _d: &Dataset,
            _a: &Augmenter,
            _r: &mut StdRng,
        ) {
            self.events.push(format!("end{t}"));
        }
    }

    let seq = toy_sequence(13);
    let augs = toy_augmenters(seq.len());
    let mut model = ContinualModel::new(&ModelConfig::image(8), &mut seeded(14));
    let mut spy = Spy::default();
    let mut cfg = tiny_cfg();
    cfg.epochs_per_task = 1;
    let mut rng = seeded(15);
    RunBuilder::new(&cfg)
        .run(&mut spy, &mut model, &mut &seq, &augs, &mut rng)
        .expect("run");

    assert_eq!(spy.events.first().map(String::as_str), Some("begin0"));
    let end0 = spy
        .events
        .iter()
        .position(|e| e == "end0")
        .expect("end0 fired");
    let begin1 = spy
        .events
        .iter()
        .position(|e| e == "begin1")
        .expect("begin1 fired");
    assert!(end0 < begin1, "task 1 began before task 0 ended");
    assert_eq!(spy.events.last().map(String::as_str), Some("end1"));
    assert!(spy.events.iter().filter(|e| e.starts_with("step0")).count() >= 1);
}

/// GridSpec sanity for the toy dims used above (regression guard for the
/// ModelConfig::image(8) shortcut).
#[test]
fn image_model_accepts_arbitrary_flat_dims() {
    let g = GridSpec::new(2, 2, 2);
    assert_eq!(g.dim(), 8);
    let model = ContinualModel::new(&ModelConfig::image(g.dim()), &mut seeded(16));
    let x = Matrix::zeros(3, 8);
    assert_eq!(model.represent(&x, 0).rows(), 3);
}
