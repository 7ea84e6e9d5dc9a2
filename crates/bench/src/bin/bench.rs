//! Parallel-runtime micro-benchmark: times the `edsr-par`-wired kernels
//! (matmul, conv forward, batched kNN, PCA fit), the shapes the
//! `edsr-par` cut-off was set from — the 64-row train-step products and
//! one `boundary` eval cell (the 1,600 x 300 x 96 forward and a 400 x 1,600
//! cosine kNN at d=48) — and the Table V memory-selection strategies on
//! one increment of the perfbench `train` and `boundary` workloads (150
//! rows with budget 4, 1,600 rows with budget 64, at d=48), at 1 thread
//! and at the configured maximum. It writes `BENCH_par.json` (repo root)
//! with one record per (op, size, thread count) plus the max-thread
//! speedup. When the configured maximum *is* 1 thread the max-thread rows
//! are skipped — they would re-measure the identical configuration and
//! differ only by timer noise.
//!
//! Exits non-zero when any max-thread row runs more than 1.5x slower than
//! its 1-thread row: work too small to pay for a pool hand-off must run
//! inline (DESIGN.md §9).
//!
//! `EDSR_BENCH_QUICK=1` shrinks the first four ops and the iteration
//! count to a smoke run (used by `ci.sh`); the cut-off shapes and the
//! selectors keep their real sizes. The JSON format is documented in
//! DESIGN.md §9.

use std::io::Write as _;
use std::time::Instant;

use edsr_cl::ModelConfig;
use edsr_core::prelude::seeded;
use edsr_core::{SelectionContext, SelectionStrategy};
use edsr_linalg::{KnnQuery, Metric, Pca};
use edsr_tensor::Matrix;

/// One timed configuration of one op.
struct Record {
    op: &'static str,
    size: String,
    threads: usize,
    ns_per_iter: f64,
    /// `time(1 thread) / time(this)`; 1.0 for the 1-thread row.
    speedup: f64,
}

/// Mean wall time of `calls` calls of `f` at `threads`, in ns per call,
/// timed after an untimed call at the same setting: caches then hold what
/// this setting leaves behind (and the pool is spawned), not what the
/// other left.
fn time_once(threads: usize, calls: usize, f: &mut dyn FnMut()) -> f64 {
    edsr_par::with_threads(threads, || {
        f();
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    })
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Times `f` at 1 thread and at `max_threads` (median of `iters` samples
/// each, the two settings alternating so host noise hits both alike),
/// appending both records. Each sample runs enough calls to last at least
/// 1 ms, so a microsecond-scale op is not read off timer noise. With
/// `max_threads == 1` only the 1-thread record is taken: a second sample
/// of the same configuration carries no information.
fn bench_op(
    records: &mut Vec<Record>,
    op: &'static str,
    size: String,
    iters: usize,
    max_threads: usize,
    f: &mut dyn FnMut(),
) {
    let calls = (1e6 / time_once(1, 1, f).max(1.0)).ceil() as usize;
    let (mut s1, mut sm) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        s1.push(time_once(1, calls, f));
        if max_threads > 1 {
            sm.push(time_once(max_threads, calls, f));
        }
    }
    let t1 = median(s1);
    records.push(Record {
        op,
        size: size.clone(),
        threads: 1,
        ns_per_iter: t1,
        speedup: 1.0,
    });
    if max_threads == 1 {
        return;
    }
    let tm = median(sm);
    records.push(Record {
        op,
        size,
        threads: max_threads,
        ns_per_iter: tm,
        speedup: if tm > 0.0 { t1 / tm } else { f64::NAN },
    });
}

fn main() -> Result<(), edsr_core::Error> {
    let quick = edsr_bench::start().env.bench_quick;
    let max_threads = edsr_par::configured_threads();
    let iters = if quick { 7 } else { 15 };
    let mut records = Vec::new();
    let mut rng = seeded(9000);

    // Matmul: square product, comfortably above the parallel threshold.
    let n = if quick { 48 } else { 192 };
    let a = Matrix::randn(n, n, 1.0, &mut rng);
    let b = Matrix::randn(n, n, 1.0, &mut rng);
    bench_op(
        &mut records,
        "matmul",
        format!("{n}x{n}*{n}x{n}"),
        iters,
        max_threads,
        &mut || {
            std::hint::black_box(a.matmul(&b));
        },
    );

    // Conv encoder forward (im2col maps + gather + matmul through the tape).
    let batch = if quick { 8 } else { 32 };
    let shape = edsr_nn::ConvShape {
        channels: 3,
        height: 8,
        width: 8,
    };
    let model_cfg = ModelConfig::conv_image(shape, 8);
    let model = edsr_cl::ContinualModel::new(&model_cfg, &mut seeded(9001));
    let x = Matrix::randn(batch, shape.dim(), 0.5, &mut rng);
    bench_op(
        &mut records,
        "conv_forward",
        format!("{batch}x{}", shape.dim()),
        iters,
        max_threads,
        &mut || {
            std::hint::black_box(model.represent(&x, 0));
        },
    );

    // Batched kNN over representations.
    let (refs, queries) = if quick { (256, 64) } else { (1024, 256) };
    let reference = Matrix::randn(refs, 32, 1.0, &mut rng);
    let qs = Matrix::randn(queries, 32, 1.0, &mut rng);
    bench_op(
        &mut records,
        "knn_search_batch",
        format!("{queries}q/{refs}ref/d32"),
        iters,
        max_threads,
        &mut || {
            std::hint::black_box(KnnQuery::new(&reference, 10).search_batch(&qs));
        },
    );

    // PCA fit (chunked covariance reduction + Jacobi eigen).
    let rows = if quick { 256 } else { 2048 };
    let pca_x = Matrix::randn(rows, 24, 1.0, &mut rng);
    bench_op(
        &mut records,
        "pca_fit",
        format!("{rows}x24"),
        iters,
        max_threads,
        &mut || {
            std::hint::black_box(Pca::fit(&pca_x, 8));
        },
    );

    // The shapes the `edsr-par` cut-off was set from, at their real sizes
    // in quick mode too: the train step's largest and smallest products
    // (64-row batch, 192 -> 96 -> 48 encoder), which must stay inline,
    // and one `boundary` eval cell, which must keep using the pool.
    let shapes: [(&'static str, usize, usize, usize, bool); 3] = [
        ("train_matmul", 64, 192, 96, false),
        ("train_grad_matmul", 48, 64, 48, true),
        ("eval_forward", 1600, 300, 96, false),
    ];
    for (op, r, d, c, transposed) in shapes {
        // `transposed`: the weight-gradient form `xᵀ·dy` with x of d x r.
        let x = if transposed {
            Matrix::randn(d, r, 1.0, &mut rng)
        } else {
            Matrix::randn(r, d, 1.0, &mut rng)
        };
        let w = Matrix::randn(d, c, 1.0, &mut rng);
        bench_op(
            &mut records,
            op,
            format!("{r}x{d}x{c}"),
            iters,
            max_threads,
            &mut || {
                if transposed {
                    std::hint::black_box(x.transpose_matmul(&w));
                } else {
                    std::hint::black_box(x.matmul(&w));
                }
            },
        );
    }
    let reference = Matrix::randn(1600, 48, 1.0, &mut rng);
    let qs = Matrix::randn(400, 48, 1.0, &mut rng);
    bench_op(
        &mut records,
        "eval_knn_cosine",
        "400q/1600ref/d48".to_string(),
        iters,
        max_threads,
        &mut || {
            let query = KnnQuery::new(&reference, 15).metric(Metric::Cosine);
            std::hint::black_box(query.search_batch(&qs));
        },
    );

    // The Table V memory selectors on what `end_task` hands them: the
    // representations of one increment's train rows, the per-increment
    // budget and the increment's class count as the cluster hint. The
    // presets are those of the perfbench `train` workload (cifar100-sim:
    // 150 rows, budget 4) and `boundary` workload (domainnet-sim with 200
    // train rows per class and a 960-row memory: 1,600 rows, budget 64).
    // An untrained encoder stands in for the trained one.
    let mut boundary = edsr_data::domainnet_sim().with_memory_total(960);
    boundary.train_per_class = 200;
    for preset in [edsr_data::cifar100_sim(), boundary] {
        let seq = preset.build(&mut seeded(9002));
        let train = &seq.tasks[0].train;
        let encoder = edsr_cl::ContinualModel::new(
            &edsr_bench::image_model_config(&preset),
            &mut seeded(9003),
        );
        let reps = encoder.represent(&train.inputs, 0);
        let budget = preset.per_task_budget().min(train.len());
        let ctx = SelectionContext {
            reps: &reps,
            aug_view_std: None,
            cluster_hint: preset.classes_per_task,
        };
        let selectors = [
            ("select_random", SelectionStrategy::Random),
            ("select_distant", SelectionStrategy::Distant),
            ("select_kmeans", SelectionStrategy::KMeans),
            ("select_high_entropy", SelectionStrategy::HighEntropy),
            ("select_trace_greedy", SelectionStrategy::TraceGreedy),
        ];
        for (op, strategy) in selectors {
            bench_op(
                &mut records,
                op,
                format!("{}x{}/{budget}", reps.rows(), reps.cols()),
                iters,
                max_threads,
                &mut || {
                    std::hint::black_box(strategy.select(&ctx, budget, &mut seeded(2)));
                },
            );
        }
    }

    // The parallelism that was actually measured, not just requested:
    // worker threads the pool really spawned plus the helping caller,
    // alongside what the hardware offers.
    let pool_workers = edsr_par::pool_workers();
    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let single_core = hardware_threads == 1;

    // Hand-off regression gate: a max-thread row may not run more than
    // 1.5x slower than its 1-thread row. Work below the `edsr-par` cut-off
    // (and every row on a zero-worker pool) runs the exact 1-thread code
    // inline, so its speedup sits near 1.0; work past the cut-off must pay
    // for its hand-off. The 0.66 floor leaves headroom for timer noise.
    let mut slow = false;
    for r in records.iter().filter(|r| r.threads > 1 && r.speedup < 0.66) {
        eprintln!(
            "REGRESSION: {} {} at {} threads has speedup {:.3} < 0.66 \
             ({pool_workers} pool workers): the pool hand-off costs more than it saves",
            r.op, r.size, r.threads, r.speedup
        );
        slow = true;
    }

    // Hand-rolled JSON (no serde in the workspace).
    let mut json = format!(
        "{{\n  \"max_threads\": {max_threads},\n  \"pool_workers\": {pool_workers},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"single_core_warning\": {single_core},\n  \"records\": [\n"
    );
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"size\": \"{}\", \"threads\": {}, \
             \"ns_per_iter\": {:.0}, \"speedup\": {:.3}}}{}\n",
            r.op,
            r.size,
            r.threads,
            r.ns_per_iter,
            r.speedup,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create("BENCH_par.json")?;
    file.write_all(json.as_bytes())?;

    println!(
        "{:<20} {:>22} {:>8} {:>14} {:>8}",
        "op", "size", "threads", "ns/iter", "speedup"
    );
    for r in &records {
        println!(
            "{:<20} {:>22} {:>8} {:>14.0} {:>8.3}",
            r.op, r.size, r.threads, r.ns_per_iter, r.speedup
        );
    }
    println!(
        "\npool: {pool_workers} worker thread(s) + caller \
         (requested max_threads={max_threads}, hardware_threads={hardware_threads})"
    );
    if single_core {
        println!(
            "WARNING: single-core host — max-thread rows measure pool dispatch \
             overhead on one core; speedups ≤ 1.0 are expected and say nothing \
             about multi-core scaling."
        );
    }
    println!("wrote BENCH_par.json ({} records)", records.len());
    edsr_par::emit_pool_metrics();
    edsr_obs::flush();
    if slow {
        std::process::exit(1);
    }
    Ok(())
}
