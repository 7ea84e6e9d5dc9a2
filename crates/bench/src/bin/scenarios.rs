//! Scenario-zoo sweep: every generator in `edsr_data::scenarios`
//! (class-incremental, blurry/task-free, domain-incremental, long-tail)
//! × {Finetune, LUMP, EDSR, CompEmb, R2R}, with final accuracy and
//! forgetting per cell landing in `BENCH_scenarios.json` (repo root).
//!
//! Each scenario is additionally round-tripped through the `EDSRDS01`
//! shard format and re-trained from a [`ShardStream`]: the streamed
//! accuracy matrix must equal the in-RAM one bit-for-bit and the loader
//! must never hold more than two shards resident — the JSON records both
//! so the CI gate can assert them without re-deriving.
//!
//! Seeds come from `Setup::seeds(&[11, 12])` like every other sweep (one
//! in quick mode, `EDSR_SEEDS` of them when set). `EDSR_BENCH_QUICK=1`
//! also shrinks epochs; the table keeps its full scenario × method shape
//! either way.

use edsr_bench::{paper_method, write_json, Json};
use edsr_cl::{mean_std, ContinualModel, Finetune, ModelConfig, RunBuilder};
use edsr_core::prelude::seeded;
use edsr_data::{build_scenario, ShardStream, SCENARIO_NAMES};

fn main() -> Result<(), edsr_core::Error> {
    let setup = edsr_bench::start();
    let quick = setup.env.bench_quick;
    let seeds = setup.seeds(&[11, 12]);

    let mut cfg = edsr_cl::TrainConfig::image();
    cfg.epochs_per_task = if quick { 1 } else { 8 };

    let methods: &[&str] = &["Finetune", "LUMP", "EDSR", "CompEmb", "R2R"];
    let mut scenario_rows = Vec::new();

    for &scenario in SCENARIO_NAMES {
        let probe = build_scenario(scenario, seeds[0]).expect("known scenario name");
        let tasks = probe.seq.len();
        println!("== {scenario} ({tasks} increments) ==");

        let mut method_rows = Vec::new();
        for &mname in methods {
            let mut accs = Vec::new();
            let mut fgts = Vec::new();
            for &seed in &seeds {
                let data = build_scenario(scenario, seed).expect("known scenario name");
                let mut method = paper_method(mname, &probe.preset, &cfg);
                let mut model = ContinualModel::new(
                    &ModelConfig::image(data.preset.grid.dim()),
                    &mut seeded(seed + 1000),
                );
                let mut run_rng = seeded(seed + 2000);
                let r = RunBuilder::new(&cfg).run(
                    method.as_mut(),
                    &mut model,
                    &mut &data.seq,
                    &data.augmenters,
                    &mut run_rng,
                )?;
                accs.push(r.matrix.final_acc() * 100.0);
                fgts.push(r.matrix.final_fgt() * 100.0);
            }
            let (am, asd) = mean_std(&accs);
            let (fm, fsd) = mean_std(&fgts);
            println!("{mname:<10} | Acc {am:5.2} ± {asd:.2} | Fgt {fm:5.2} ± {fsd:.2}");
            let pct = |v: f32| Json::Num(f64::from(v), 4);
            method_rows.push(Json::Obj(vec![
                ("method", Json::Str(mname.into())),
                ("acc_mean", pct(am)),
                ("acc_std", pct(asd)),
                ("fgt_mean", pct(fm)),
                ("fgt_std", pct(fsd)),
            ]));
        }

        // Shard round-trip: the streamed run must reproduce the in-RAM
        // accuracy matrix exactly with at most two shards resident.
        let (stream_identical, resident_peak) = stream_check(scenario, seeds[0], &cfg)?;
        assert!(
            stream_identical,
            "{scenario}: streamed accuracy matrix diverged from in-RAM"
        );
        assert!(
            resident_peak <= 2,
            "{scenario}: loader held {resident_peak} shards resident"
        );
        println!("stream     | identical to in-RAM, resident peak {resident_peak}");

        scenario_rows.push(Json::Obj(vec![
            ("scenario", Json::Str(scenario.into())),
            ("tasks", Json::Int(tasks as u64)),
            ("stream_identical", Json::Bool(stream_identical)),
            ("resident_peak", Json::Int(resident_peak as u64)),
            ("methods", Json::Arr(method_rows)),
        ]));
    }

    let doc = [
        ("quick", Json::Bool(quick)),
        ("epochs_per_task", Json::Int(cfg.epochs_per_task as u64)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Int(s)).collect()),
        ),
        ("scenarios", Json::Arr(scenario_rows)),
    ];
    write_json("BENCH_scenarios.json", &doc)?;
    println!("wrote BENCH_scenarios.json");
    edsr_par::emit_pool_metrics();
    edsr_obs::flush();
    Ok(())
}

/// Trains Finetune on `scenario` twice — from the in-RAM sequence and
/// from an `EDSRDS01` shard directory — and compares the accuracy
/// matrices cell-for-cell. Returns `(identical, resident_peak)`.
fn stream_check(
    scenario: &str,
    seed: u64,
    cfg: &edsr_cl::TrainConfig,
) -> Result<(bool, usize), edsr_core::Error> {
    let data = build_scenario(scenario, seed).expect("known scenario name");
    let dir = std::env::temp_dir().join(format!(
        "edsr-scenarios-{}-{scenario}-{seed}",
        std::process::id()
    ));

    let mut ram_model = ContinualModel::new(
        &ModelConfig::image(data.preset.grid.dim()),
        &mut seeded(seed + 1000),
    );
    let mut method = Finetune::new();
    let ram = RunBuilder::new(cfg).run(
        &mut method,
        &mut ram_model,
        &mut &data.seq,
        &data.augmenters,
        &mut seeded(seed + 2000),
    )?;

    edsr_data::write_shard_dir(&dir, &data.seq)?;
    let mut stream = ShardStream::open(&dir)?;
    let mut stream_model = ContinualModel::new(
        &ModelConfig::image(data.preset.grid.dim()),
        &mut seeded(seed + 1000),
    );
    let mut method = Finetune::new();
    let streamed = RunBuilder::new(cfg).run(
        &mut method,
        &mut stream_model,
        &mut stream,
        &data.augmenters,
        &mut seeded(seed + 2000),
    )?;
    let peak = stream.resident_peak();
    let _ = std::fs::remove_dir_all(&dir);

    Ok((ram.matrix.rows() == streamed.matrix.rows(), peak))
}
