//! Golden results: the accuracy matrix and per-increment losses of short
//! runs, pinned as `f32` bits. Every method whose memory draw, storage
//! rule or frozen-teacher term goes through shared code has a run here,
//! so a refactor of that code must leave each run bit-identical.
//!
//! A mismatch is a behaviour change in the code under test, never a
//! constant to update: the constants were read off the code before the
//! replay methods shared one draw, one teacher term and one method. The
//! failure message prints the run's actual bits for diagnosis only.
//!
//! - The `blurry` zoo scenario has one shared adapter, so replay draws
//!   one merged batch per step.
//! - The tabular stream has five adapters, so replay draws one group per
//!   source increment.

use edsr::cl::{tabular_augmenters, Method, ModelConfig, RunBuilder, RunResult, TrainConfig};
use edsr::core::{
    method_by_name, seeded_run, tabular_method_by_name, Edsr, EdsrConfig, ReplaySampling,
};
use edsr::data::{build_scenario, tabular_sequence, ScenarioData, TabularConfig, TABULAR_SPECS};
use edsr::tensor::rng::seeded;

/// Pinned bits of one run: the accuracy matrix row by row, then the mean
/// training loss of every increment.
struct Golden {
    matrix: &'static [&'static [u32]],
    losses: &'static [u32],
}

fn bits(result: &RunResult) -> (Vec<Vec<u32>>, Vec<u32>) {
    let matrix = result
        .matrix
        .rows()
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect();
    let losses = result.task_losses.iter().map(|v| v.to_bits()).collect();
    (matrix, losses)
}

/// `None` when `result` carries `want`'s bits, else a report of the bits
/// it carries.
fn mismatch(label: &str, result: &RunResult, want: &Golden) -> Option<String> {
    let (matrix, losses) = bits(result);
    let same = matrix.len() == want.matrix.len()
        && matrix.iter().zip(want.matrix).all(|(a, b)| a == b)
        && losses == want.losses;
    (!same).then(|| {
        format!(
            "{label} ({}) moved off its golden bits; got\n  matrix: {matrix:?}\n  losses: {losses:?}",
            result.method
        )
    })
}

/// Panics listing every run whose bits moved.
fn assert_golden<const N: usize>(runs: [(&str, RunResult, &Golden); N]) {
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|(label, result, want)| mismatch(label, result, want))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The `blurry` scenario at seed 11, with the memory budget, replay batch
/// and noise neighbour count its methods are built with.
struct Zoo {
    data: ScenarioData,
    budget: usize,
    replay_batch: usize,
    noise_k: usize,
}

impl Zoo {
    fn new() -> Self {
        let data = build_scenario("blurry", 11).expect("known scenario");
        Self {
            budget: data.preset.per_task_budget(),
            replay_batch: TrainConfig::image().replay_batch,
            noise_k: data.preset.noise_neighbors,
            data,
        }
    }

    /// The registry's method `name`.
    fn method(&self, name: &str) -> Box<dyn Method> {
        method_by_name(name, self.budget, self.replay_batch, self.noise_k).expect(name)
    }

    /// Two epochs of `method`.
    fn run(&self, mut method: Box<dyn Method>) -> RunResult {
        let mut cfg = TrainConfig::image();
        cfg.epochs_per_task = 2;
        let model_cfg = ModelConfig::image(self.data.preset.grid.dim());
        let (mut model, mut rng) = seeded_run(&model_cfg, 11);
        RunBuilder::new(&cfg)
            .run(
                method.as_mut(),
                &mut model,
                &mut &self.data.seq,
                &self.data.augmenters,
                &mut rng,
            )
            .expect("zoo run")
    }
}

/// Two epochs of the named method on the five-adapter tabular stream.
fn tabular_run(name: &str) -> RunResult {
    let data_cfg = TabularConfig {
        size_divisor: 200,
        ..Default::default()
    };
    let mut seq = tabular_sequence(&data_cfg, &mut seeded(5));
    let augs = tabular_augmenters(&mut seq).expect("tabular augmenters");
    let dims: Vec<usize> = TABULAR_SPECS.iter().map(|s| s.input_dim).collect();
    let mut cfg = TrainConfig::tabular();
    cfg.epochs_per_task = 2;
    let mut method = tabular_method_by_name(name, &seq, cfg.replay_batch).expect(name);
    let (mut model, mut rng) = seeded_run(&ModelConfig::tabular(dims), 5);
    RunBuilder::new(&cfg)
        .run(method.as_mut(), &mut model, &mut seq, &augs, &mut rng)
        .expect("tabular run")
}

// The zoo runs are split over three tests so the harness runs them in
// parallel: one test holding all seven takes over 10 s in a debug build.

#[test]
fn zoo_edsr_runs_keep_their_bits() {
    let zoo = Zoo::new();
    let mut weighted = EdsrConfig::paper_default(zoo.budget, zoo.replay_batch, zoo.noise_k);
    weighted.replay_sampling = ReplaySampling::SimilarityWeighted;
    assert_golden([
        ("edsr", zoo.run(zoo.method("edsr")), &ZOO_EDSR),
        (
            "edsr weighted",
            zoo.run(Box::new(Edsr::new(weighted))),
            &ZOO_EDSR_WEIGHTED,
        ),
    ]);
}

#[test]
fn zoo_compemb_and_r2r_runs_keep_their_bits() {
    let zoo = Zoo::new();
    assert_golden([
        ("compemb", zoo.run(zoo.method("compemb")), &ZOO_COMPEMB),
        ("r2r", zoo.run(zoo.method("r2r")), &ZOO_R2R),
    ]);
}

#[test]
fn zoo_der_lin_and_cassle_runs_keep_their_bits() {
    let zoo = Zoo::new();
    assert_golden([
        ("der", zoo.run(zoo.method("der")), &ZOO_DER),
        ("lin", zoo.run(zoo.method("lin")), &ZOO_LIN),
        ("cassle", zoo.run(zoo.method("cassle")), &ZOO_CASSLE),
    ]);
}

#[test]
fn tabular_runs_keep_their_bits() {
    assert_golden([
        ("edsr", tabular_run("edsr"), &TAB_EDSR),
        ("compemb", tabular_run("compemb"), &TAB_COMPEMB),
        ("r2r", tabular_run("r2r"), &TAB_R2R),
        ("der", tabular_run("der"), &TAB_DER),
    ]);
}

/// Lin et al. draw one memory group per source increment here, as every
/// EDSR configuration does on a multi-adapter model, so the run completes.
#[test]
fn tabular_lin_run_completes() {
    let result = tabular_run("lin");
    assert_eq!(result.method, "Lin");
    assert_eq!(result.matrix.rows().len(), 5);
    assert!(result
        .matrix
        .rows()
        .iter()
        .enumerate()
        .all(|(i, row)| row.len() == i + 1));
    assert!(result.task_losses.iter().all(|l| l.is_finite()));
}

const ZOO_EDSR: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1056964608, 1034594987],
        &[1058362709, 1034594987, 1048576000],
        &[1058362709, 1034594987, 1048576000, 1054168405],
        &[1058362709, 1042983595, 1048576000, 1048576000, 1051372203],
        &[
            1056964608, 1042983595, 1042983595, 1042983595, 1051372203, 1048576000,
        ],
        &[
            1056964608, 1042983595, 1048576000, 1051372203, 1051372203, 1048576000, 1048576000,
        ],
        &[
            1056964608, 1042983595, 1048576000, 1056964608, 1051372203, 1042983595, 1048576000,
            1061158912,
        ],
    ],
    losses: &[
        1107054336, 1123531833, 1119818130, 1117689462, 1115512312, 1115550198, 1113617667,
        1113796787,
    ],
};
const ZOO_EDSR_WEIGHTED: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1058362709, 1034594987],
        &[1058362709, 1042983595, 1048576000],
        &[1058362709, 1034594987, 1042983595, 1054168405],
        &[1058362709, 1034594987, 1048576000, 1054168405, 1042983595],
        &[
            1058362709, 1034594987, 1051372203, 1054168405, 1042983595, 1048576000,
        ],
        &[
            1056964608, 1034594987, 1054168405, 1054168405, 1042983595, 1048576000, 1042983595,
        ],
        &[
            1058362709, 1034594987, 1051372203, 1051372203, 1042983595, 1048576000, 1042983595,
            1059760811,
        ],
    ],
    losses: &[
        1107054336, 1121318451, 1118107100, 1116439184, 1115220339, 1113393169, 1112582692,
        1112554794,
    ],
};
const ZOO_COMPEMB: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1054168405, 1034594987],
        &[1056964608, 1042983595, 1051372203],
        &[1054168405, 1042983595, 1042983595, 1058362709],
        &[1056964608, 1042983595, 1034594987, 1054168405, 1034594987],
        &[
            1056964608, 1042983595, 1034594987, 1051372203, 1034594987, 1042983595,
        ],
        &[
            1058362709, 1048576000, 1042983595, 1051372203, 0, 1048576000, 1042983595,
        ],
        &[
            1058362709, 1048576000, 1042983595, 1056964608, 0, 1042983595, 1042983595, 1058362709,
        ],
    ],
    losses: &[
        1107054336, 1110151082, 1107804554, 1104273040, 1103986530, 1103894256, 1105606317,
        1106324640,
    ],
};
const ZOO_R2R: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1054168405, 1034594987],
        &[1054168405, 1042983595, 1051372203],
        &[1056964608, 1042983595, 1048576000, 1058362709],
        &[1056964608, 1042983595, 1051372203, 1058362709, 1048576000],
        &[
            1056964608, 1048576000, 1051372203, 1054168405, 1042983595, 1042983595,
        ],
        &[
            1056964608, 1048576000, 1048576000, 1054168405, 1034594987, 1042983595, 1048576000,
        ],
        &[
            1056964608, 1048576000, 1048576000, 1051372203, 0, 1042983595, 1048576000, 1061158912,
        ],
    ],
    losses: &[
        1107054336, 1107936916, 1104882912, 1106539060, 1106742644, 1106940831, 1104501676,
        1103855078,
    ],
};
const ZOO_DER: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1054168405, 1042983595],
        &[1054168405, 1042983595, 1048576000],
        &[1054168405, 1042983595, 1042983595, 1054168405],
        &[1054168405, 1042983595, 1042983595, 1054168405, 1042983595],
        &[
            1054168405, 1042983595, 1042983595, 1054168405, 1042983595, 1042983595,
        ],
        &[
            1056964608, 1042983595, 1042983595, 1054168405, 1034594987, 1042983595, 1042983595,
        ],
        &[
            1056964608, 1042983595, 1042983595, 1051372203, 1034594987, 1042983595, 1042983595,
            1061158912,
        ],
    ],
    losses: &[
        1107054336, 1103611414, 1102984494, 1099366510, 1100425796, 1101036185, 1101407832,
        1102538771,
    ],
};
const ZOO_LIN: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1054168405, 1042983595],
        &[1054168405, 1042983595, 1048576000],
        &[1054168405, 1042983595, 1042983595, 1054168405],
        &[1054168405, 1042983595, 1042983595, 1054168405, 1042983595],
        &[
            1054168405, 1042983595, 1042983595, 1054168405, 1034594987, 1042983595,
        ],
        &[
            1056964608, 1042983595, 1042983595, 1054168405, 1034594987, 1042983595, 1042983595,
        ],
        &[
            1056964608, 1042983595, 1042983595, 1051372203, 1034594987, 1042983595, 1042983595,
            1061158912,
        ],
    ],
    losses: &[
        1107054336, 1103611706, 1102965770, 1099301233, 1100289542, 1100856148, 1101148228,
        1101991660,
    ],
};
const ZOO_CASSLE: Golden = Golden {
    matrix: &[
        &[1054168405],
        &[1058362709, 1042983595],
        &[1059760811, 1042983595, 1051372203],
        &[1058362709, 1042983595, 1042983595, 1054168405],
        &[1058362709, 1034594987, 1034594987, 1048576000, 1051372203],
        &[
            1059760811, 1034594987, 1048576000, 1051372203, 1048576000, 1051372203,
        ],
        &[
            1058362709, 1034594987, 1048576000, 1051372203, 1042983595, 1048576000, 1042983595,
        ],
        &[
            1058362709, 1034594987, 1051372203, 1051372203, 1042983595, 1048576000, 1042983595,
            1059760811,
        ],
    ],
    losses: &[
        1107054336, 1117962588, 1116717767, 1113755906, 1112106036, 1111109217, 1109581612,
        1110261625,
    ],
};
const TAB_EDSR: Golden = Golden {
    matrix: &[
        &[1064980389],
        &[1064980389, 1062557013],
        &[1064980389, 1062557013, 1061158912],
        &[1064980389, 1062557013, 1061158912, 1059061760],
        &[1064980389, 1062557013, 1061158912, 1059061760, 1060320051],
    ],
    losses: &[3188316415, 3196034113, 3199023365, 3205726068, 3208437478],
};
const TAB_COMPEMB: Golden = Golden {
    matrix: &[
        &[1064980389],
        &[1064980389, 1062557013],
        &[1064980389, 1062557013, 1061683200],
        &[1064980389, 1062557013, 1061683200, 1059061760],
        &[1064980389, 1062557013, 1061683200, 1059061760, 1060320051],
    ],
    losses: &[3188316415, 3194935054, 3203332244, 3207353387, 3209884227],
};
const TAB_R2R: Golden = Golden {
    matrix: &[
        &[1064980389],
        &[1064980389, 1062557013],
        &[1064980389, 1062557013, 1062207488],
        &[1064980389, 1062557013, 1062207488, 1056964608],
        &[1064980389, 1062557013, 1062207488, 1056964608, 1060320051],
    ],
    losses: &[3188316415, 3197395460, 3204175735, 3205931854, 3207517774],
};
const TAB_DER: Golden = Golden {
    matrix: &[
        &[1064980389],
        &[1064980389, 1062557013],
        &[1064607562, 1062557013, 1061158912],
        &[1064607562, 1062557013, 1061158912, 1059061760],
        &[1064607562, 1062557013, 1061158912, 1059061760, 1060320051],
    ],
    losses: &[3188316415, 3188756552, 3190580765, 3192164644, 3193279512],
};
