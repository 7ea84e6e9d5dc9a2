//! Integration tests: full continual-learning pipelines across every
//! crate. These exercise the exact code paths the experiment harness
//! uses, on a tiny preset so they stay fast in debug builds.

use edsr::cl::{
    run_multitask, ContinualModel, Der, Finetune, Lump, Method, ModelConfig, RunBuilder, Si,
    TrainConfig,
};
use edsr::core::{method_by_name, Edsr, EdsrConfig, ReplayLoss, SelectionStrategy};
use edsr::data::{tabular_sequence, test_sim, TabularConfig, TABULAR_SPECS};
use edsr::tensor::rng::seeded;

fn quick_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::image();
    cfg.epochs_per_task = 8;
    cfg.batch_size = 32;
    cfg.replay_batch = 6;
    cfg.multitask_epoch_multiplier = 1;
    cfg
}

fn run_method(method: &mut dyn Method, seed: u64, cfg: &TrainConfig) -> edsr::cl::RunResult {
    let preset = test_sim();
    let mut data_rng = seeded(seed);
    let (seq, augs) = preset.build_with_augmenters(&mut data_rng);
    let mut model = ContinualModel::new(
        &ModelConfig::image(preset.grid.dim()),
        &mut seeded(seed + 1),
    );
    let mut run_rng = seeded(seed + 2);
    RunBuilder::new(cfg)
        .run(method, &mut model, &mut &seq, &augs, &mut run_rng)
        .expect("run")
}

#[test]
fn edsr_full_run_produces_sane_metrics() {
    let preset = test_sim();
    let cfg = quick_cfg();
    let mut edsr = Edsr::paper_default(preset.per_task_budget(), 6, preset.noise_neighbors);
    let result = run_method(&mut edsr, 100, &cfg);

    assert_eq!(result.matrix.num_increments(), preset.num_tasks());
    assert!(result.matrix.final_acc() > 0.3, "accuracy implausibly low");
    assert!(result.matrix.final_acc() <= 1.0);
    assert!(result.matrix.final_fgt() >= 0.0);
    // Memory filled: per-task budget × number of increments.
    assert_eq!(
        edsr.memory_len(),
        preset.per_task_budget() * preset.num_tasks()
    );
    // Every stored item carries its representation cache and a finite
    // noise magnitude.
    assert!(edsr
        .memory()
        .items()
        .iter()
        .all(|i| i.noise_scale.is_finite() && i.stored_features.is_some()));
    assert!(result.task_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn every_baseline_runs_end_to_end() {
    let preset = test_sim();
    let mut cfg = quick_cfg();
    cfg.epochs_per_task = 2;
    let budget = preset.per_task_budget();
    let methods: Vec<Box<dyn Method>> = vec![
        Box::new(Finetune::new()),
        Box::new(Si::new(0.1)),
        Box::new(Der::new(budget, 6, 0.5)),
        Box::new(Lump::new(budget)),
        method_by_name("cassle", budget, 6, 3).expect("cassle"),
        method_by_name("lin", budget, 6, 3).expect("lin"),
        Box::new(Edsr::paper_default(budget, 6, 3)),
    ];
    for mut m in methods {
        let name = m.name();
        let result = run_method(m.as_mut(), 200, &cfg);
        assert_eq!(result.method, name);
        assert_eq!(result.matrix.num_increments(), preset.num_tasks());
        assert!(result.matrix.final_acc() > 0.0, "{name}: zero accuracy");
    }
}

#[test]
fn runs_are_seed_deterministic() {
    let cfg = quick_cfg();
    let mut a = Edsr::paper_default(4, 6, 3);
    let mut b = Edsr::paper_default(4, 6, 3);
    let ra = run_method(&mut a, 300, &cfg);
    let rb = run_method(&mut b, 300, &cfg);
    for i in 0..ra.matrix.num_increments() {
        for j in 0..=i {
            assert_eq!(
                ra.matrix.get(i, j),
                rb.matrix.get(i, j),
                "nondeterminism at A_({i},{j})"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let cfg = quick_cfg();
    let mut a = Finetune::new();
    let mut b = Finetune::new();
    let ra = run_method(&mut a, 400, &cfg);
    let rb = run_method(&mut b, 500, &cfg);
    let same = (0..ra.matrix.num_increments()).all(|i| ra.matrix.get(i, i) == rb.matrix.get(i, i));
    assert!(
        !same,
        "two different seeds produced identical accuracy diagonals"
    );
}

#[test]
fn replay_loss_variants_all_train() {
    let preset = test_sim();
    let mut cfg = quick_cfg();
    cfg.epochs_per_task = 3;
    for loss in [
        ReplayLoss::None,
        ReplayLoss::Css,
        ReplayLoss::Dis,
        ReplayLoss::Rpl,
        ReplayLoss::Distance,
    ] {
        let mut c = EdsrConfig::paper_default(preset.per_task_budget(), 6, 3);
        c.replay_loss = loss;
        let mut m = Edsr::new(c);
        let result = run_method(&mut m, 600, &cfg);
        assert!(
            result.matrix.final_acc() > 0.0,
            "replay {loss:?} produced zero accuracy"
        );
    }
}

#[test]
fn all_selection_strategies_fill_memory() {
    let preset = test_sim();
    let mut cfg = quick_cfg();
    cfg.epochs_per_task = 2;
    for strategy in [
        SelectionStrategy::Random,
        SelectionStrategy::Distant,
        SelectionStrategy::KMeans,
        SelectionStrategy::MinVar,
        SelectionStrategy::HighEntropy,
        SelectionStrategy::TraceGreedy,
    ] {
        let mut c = EdsrConfig::paper_default(preset.per_task_budget(), 6, 3);
        c.selection = strategy;
        let mut m = Edsr::new(c);
        let _ = run_method(&mut m, 700, &cfg);
        assert_eq!(
            m.memory_len(),
            preset.per_task_budget() * preset.num_tasks(),
            "{strategy:?} under-filled the memory"
        );
    }
}

#[test]
fn multitask_runs_and_reports_per_task_accuracy() {
    let preset = test_sim();
    let cfg = quick_cfg();
    let mut data_rng = seeded(800);
    let (seq, augs) = preset.build_with_augmenters(&mut data_rng);
    let mut model = ContinualModel::new(&ModelConfig::image(preset.grid.dim()), &mut seeded(801));
    let mut run_rng = seeded(802);
    let mt =
        run_multitask(&mut model, &mut &seq, &augs, &cfg, &mut run_rng).expect("run_multitask");
    assert_eq!(mt.per_task_acc.len(), preset.num_tasks());
    assert!(mt.acc > 0.3 && mt.acc <= 1.0);
}

#[test]
fn tabular_stream_with_heterogeneous_adapters() {
    let data_cfg = TabularConfig {
        size_divisor: 200,
        ..Default::default()
    };
    let mut data_rng = seeded(900);
    let seq = tabular_sequence(&data_cfg, &mut data_rng);
    let augs = edsr::cl::tabular_augmenters(&mut &seq).expect("tabular augmenters");
    let input_dims: Vec<usize> = TABULAR_SPECS.iter().map(|s| s.input_dim).collect();
    let mut model = ContinualModel::new(&ModelConfig::tabular(input_dims), &mut seeded(901));
    let mut cfg = TrainConfig::tabular();
    cfg.epochs_per_task = 4;
    let mut edsr = Edsr::paper_default(2, 4, 3);
    let mut run_rng = seeded(902);
    let result = RunBuilder::new(&cfg)
        .run(&mut edsr, &mut model, &mut &seq, &augs, &mut run_rng)
        .expect("tabular run");
    assert_eq!(result.matrix.num_increments(), 5);
    // Binary classification: even a weak model beats 35% on imbalanced
    // test splits.
    assert!(
        result.matrix.final_acc() > 0.35,
        "acc {:.3}",
        result.matrix.final_acc()
    );
    // Memory holds items from several different-dimensional increments.
    let dims: std::collections::BTreeSet<usize> = edsr
        .memory()
        .items()
        .iter()
        .map(|i| i.input.len())
        .collect();
    assert!(
        dims.len() >= 3,
        "expected heterogeneous memory, got dims {dims:?}"
    );
}

#[test]
fn forgetting_metrics_are_consistent_with_matrix() {
    let cfg = quick_cfg();
    let mut m = Finetune::new();
    let result = run_method(&mut m, 1000, &cfg);
    let n = result.matrix.num_increments();
    // Fgt is the mean of per-task forgetting at the final row.
    let manual: f32 = (0..n - 1)
        .map(|j| result.matrix.forgetting(n - 1, j))
        .sum::<f32>()
        / (n - 1) as f32;
    assert!((result.matrix.final_fgt() - manual).abs() < 1e-6);
    // New-task accuracies are the diagonal.
    let diag = result.matrix.new_task_accuracies();
    for (i, &a) in diag.iter().enumerate() {
        assert_eq!(a, result.matrix.get(i, i));
    }
}
