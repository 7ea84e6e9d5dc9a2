//! Micro-benchmark of the hot paths, one row per op at 1 thread and at
//! the configured maximum, written to `BENCH_par.json` (repo root):
//!
//! - the `edsr-par`-wired ops (matmul, conv forward, batched kNN, PCA fit);
//! - the GEMM kernel layer: `a·b`, `aᵀ·b` and `a·bᵀ` by the naive
//!   reference and by the tiled kernel (`matmul/naive`, `matmul/tiled`,
//!   …);
//! - the shapes the `edsr-par` cut-off was set from — the 64-row
//!   train-step products, the 22-row product every cifar100-sim epoch ends
//!   on, and one `boundary` eval cell (the 1,600 x 300 x 96 forward and a
//!   400 x 1,600 cosine kNN at d=48);
//! - one `L_css` step (two augmented views, forward, loss, backward) for
//!   BarlowTwins and SimSiam on a cifar100-sim batch, one whole EDSR
//!   `train_step` on the same batch shape after one increment (frozen
//!   teacher, filled memory, Adam), and the tabular augmenter's
//!   `two_views` on a 64-row batch of the widest Table II corpus, as
//!   `table7` draws it;
//! - the Table V memory-selection strategies on one increment of the
//!   perfbench `train` and `boundary` workloads (150 rows with budget 4,
//!   1,600 rows with budget 64, at d=48).
//!
//! Every row is timed by [`edsr_bench::sample`]: its configurations
//! (implementations x thread counts) round-robin, median and fastest
//! sample kept. When the configured maximum *is* 1 thread the max-thread
//! rows are skipped — they would re-measure the identical configuration.
//!
//! Exits non-zero when any max-thread op row runs more than 1.5x slower
//! than its 1-thread row (work too small to pay for a pool hand-off must
//! run inline, DESIGN.md §9). The kernel-layer rows are not thread-gated:
//! the `matmul` op row already gates the tiled product.
//!
//! `EDSR_BENCH_QUICK=1` shrinks the `edsr-par`-wired ops, the kernel
//! products and the iteration count to a smoke run (used by `ci.sh`); the
//! cut-off shapes, the step rows and the selectors keep their real sizes.
//! The JSON format is documented in DESIGN.md §9.

use std::hint::black_box;
use std::ops::Range;

use edsr_bench::{sample, write_json, Json, Timing};
use edsr_cl::{tabular_augmenters, ContinualModel, Method, ModelConfig, TrainConfig};
use edsr_core::prelude::seeded;
use edsr_core::{Edsr, SelectionContext, SelectionStrategy};
use edsr_data::{tabular_sequence, TabularConfig, TABULAR_SPECS};
use edsr_linalg::{KnnQuery, Metric, Pca};
use edsr_nn::Workspace;
use edsr_ssl::SslVariant;
use edsr_tensor::{kernel, simd, Matrix};

/// One timed configuration of one op.
struct Record {
    op: String,
    size: String,
    threads: usize,
    timing: Timing,
    /// `time(1 thread) / time(this)` of the same op; 1.0 on 1-thread rows.
    speedup: f64,
}

impl Record {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("op", Json::Str(self.op.clone())),
            ("size", Json::Str(self.size.clone())),
            ("threads", Json::Int(self.threads as u64)),
            ("ns_per_iter", Json::Num(self.timing.median, 0)),
            ("ns_min", Json::Num(self.timing.min, 0)),
            ("speedup", Json::Num(self.speedup, 3)),
        ])
    }
}

/// The records taken so far, the settings every row is taken at, and
/// the gate failures.
struct Bench {
    iters: usize,
    /// 1 and the configured maximum (just 1 when that is the maximum).
    threads: Vec<usize>,
    records: Vec<Record>,
    failures: Vec<String>,
}

impl Bench {
    /// Times one op at every thread count and records it.
    ///
    /// Hand-off gate: a max-thread row may not run more than 1.5x slower
    /// than at one thread (median speedup below 0.66). Work below the
    /// `edsr-par` cut-off (and every row on a zero-worker pool) runs the
    /// exact 1-thread code inline, so its speedup sits near 1.0; work past
    /// the cut-off must pay for its hand-off. The 0.66 floor leaves
    /// headroom for timer noise.
    fn op(&mut self, op: &str, size: &str, mut f: impl FnMut()) {
        let first = self.records.len();
        self.row(size, &[op.to_string()], &mut [&mut f]);
        for r in &self.records[first..] {
            if r.speedup < 0.66 {
                self.failures.push(format!(
                    "{op} {size} at {} threads has speedup {:.3} < 0.66 \
                     ({} pool workers): the pool hand-off costs more than it saves",
                    r.threads,
                    r.speedup,
                    edsr_par::pool_workers()
                ));
            }
        }
    }

    /// Times the variants of one row (`ops[i]` runs `variants[i]`) at
    /// every thread count, round-robin, and records one record each.
    fn row(&mut self, size: &str, ops: &[String], variants: &mut [&mut dyn FnMut()]) {
        let timings = sample(self.iters, &self.threads, variants);
        for (op, per_thread) in ops.iter().zip(&timings) {
            for (&threads, &timing) in self.threads.iter().zip(per_thread) {
                self.records.push(Record {
                    op: op.clone(),
                    size: size.to_string(),
                    threads,
                    timing,
                    speedup: per_thread[0].median / timing.median,
                });
            }
        }
    }
}

/// One GEMM product the kernel rows time, on two n x n operands: its
/// name, its naive reference chunk kernel and its tiled kernel.
type Product = (
    &'static str,
    fn(&[f32], &[f32], usize, Range<usize>, &mut [f32]),
    fn(&[f32], &[f32], &mut [f32], usize, usize, usize),
);

/// `a·b`, `aᵀ·b` and `a·bᵀ`.
const PRODUCTS: [Product; 3] = [
    (
        "matmul",
        |a, b, n, rows, out| kernel::naive::matmul_chunk(a, b, n, n, rows, out),
        kernel::matmul_tiled,
    ),
    (
        "transpose_matmul",
        |a, b, n, rows, out| kernel::naive::transpose_matmul_chunk(a, b, n, n, n, rows, out),
        kernel::transpose_matmul_tiled,
    ),
    (
        "matmul_transpose",
        |a, b, n, rows, out| kernel::naive::matmul_transpose_chunk(a, b, n, n, rows, out),
        kernel::matmul_transpose_tiled,
    ),
];

/// A closure computing `product` of the n x n matrices `a` and `b` into
/// its own output buffer: by the tiled kernel when `tiled` is set, else by
/// the naive reference kernel. The naive kernel splits over the pool
/// through `par_for_rows` as the tiled one does, so the two differ only in
/// the kernel.
fn gemm<'m>(
    (_, naive, tiled_kernel): Product,
    tiled: bool,
    a: &'m Matrix,
    b: &'m Matrix,
) -> impl FnMut() + 'm {
    let n = a.rows();
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; n * n];
    move || {
        out.fill(0.0);
        if tiled {
            tiled_kernel(a, b, &mut out, n, n, n);
        } else {
            edsr_par::par_for_rows(&mut out, n, n * n * n, |rows, chunk| {
                naive(a, b, n, rows, chunk);
            });
        }
        black_box(&out);
    }
}

fn main() -> Result<(), edsr_core::Error> {
    let quick = edsr_bench::start().quick;
    let max_threads = edsr_par::configured_threads();
    let mut bench = Bench {
        iters: if quick { 7 } else { 15 },
        threads: if max_threads > 1 {
            vec![1, max_threads]
        } else {
            vec![1]
        },
        records: Vec::new(),
        failures: Vec::new(),
    };
    let mut rng = seeded(9000);

    // Matmul: square product, comfortably above the parallel threshold.
    let n = if quick { 48 } else { 192 };
    let size = format!("{n}x{n}*{n}x{n}");
    let a = Matrix::randn(n, n, 1.0, &mut rng);
    let b = Matrix::randn(n, n, 1.0, &mut rng);
    bench.op("matmul", &size, || {
        black_box(a.matmul(&b));
    });

    // The kernel layer at the same size: the naive reference and the
    // tiled kernel.
    let mut kernel_rng = seeded(9100);
    let ka = Matrix::randn(n, n, 1.0, &mut kernel_rng);
    let kb = Matrix::randn(n, n, 1.0, &mut kernel_rng);
    for product in PRODUCTS {
        let ops = ["naive", "tiled"].map(|imp| format!("{}/{imp}", product.0));
        let mut naive = gemm(product, false, &ka, &kb);
        let mut tiled = gemm(product, true, &ka, &kb);
        bench.row(&size, &ops, &mut [&mut naive, &mut tiled]);
    }

    // Conv encoder forward (im2col maps + gather + matmul through the tape).
    let batch = if quick { 8 } else { 32 };
    let shape = edsr_nn::ConvShape {
        channels: 3,
        height: 8,
        width: 8,
    };
    let model = ContinualModel::new(&ModelConfig::conv_image(shape, 8), &mut seeded(9001));
    let x = Matrix::randn(batch, shape.dim(), 0.5, &mut rng);
    bench.op("conv_forward", &format!("{batch}x{}", shape.dim()), || {
        black_box(model.represent(&x, 0));
    });

    // Batched kNN over representations.
    let (refs, queries) = if quick { (256, 64) } else { (1024, 256) };
    let reference = Matrix::randn(refs, 32, 1.0, &mut rng);
    let qs = Matrix::randn(queries, 32, 1.0, &mut rng);
    bench.op(
        "knn_search_batch",
        &format!("{queries}q/{refs}ref/d32"),
        || {
            black_box(KnnQuery::new(&reference, 10).search_batch(&qs));
        },
    );

    // PCA fit (chunked covariance reduction + Jacobi eigen).
    let rows = if quick { 256 } else { 2048 };
    let pca_x = Matrix::randn(rows, 24, 1.0, &mut rng);
    bench.op("pca_fit", &format!("{rows}x24"), || {
        black_box(Pca::fit(&pca_x, 8));
    });

    // The shapes the `edsr-par` cut-off was set from, at their real sizes
    // in quick mode too: the train step's largest and smallest products
    // (64-row batch, 192 -> 96 -> 48 encoder), which must stay inline,
    // the 22-row batch every cifar100-sim epoch ends on (150 = 2 x 64 + 22
    // train rows per increment), and one `boundary` eval cell, which must
    // keep using the pool.
    let shapes: [(&str, usize, usize, usize, bool); 4] = [
        ("train_matmul", 64, 192, 96, false),
        ("train_matmul_tail", 22, 192, 96, false),
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
        bench.op(op, &format!("{r}x{d}x{c}"), || {
            if transposed {
                black_box(x.transpose_matmul(&w));
            } else {
                black_box(x.matmul(&w));
            }
        });
    }
    let reference = Matrix::randn(1600, 48, 1.0, &mut rng);
    let qs = Matrix::randn(400, 48, 1.0, &mut rng);
    bench.op("eval_knn_cosine", "400q/1600ref/d48", || {
        let query = KnnQuery::new(&reference, 15).metric(Metric::Cosine);
        black_box(query.search_batch(&qs));
    });

    // One `L_css` step as `Finetune::train_step` runs it — two augmented
    // views of a 64-row cifar100-sim batch, the encoder forward on both,
    // the loss and backward — for the image default (BarlowTwins) and for
    // SimSiam, which no perfbench workload runs.
    let cifar100 = edsr_data::cifar100_sim();
    let (seq, augs) = cifar100.build_with_augmenters(&mut seeded(9004));
    let step_batch = seq.tasks[0]
        .train
        .inputs
        .select_rows(&(0..64).collect::<Vec<_>>());
    let step_size = format!("{}x{}", step_batch.rows(), step_batch.cols());
    let barlow = edsr_bench::image_model_config(&cifar100);
    let simsiam = barlow.clone().with_variant(SslVariant::SimSiam);
    for (op, model_cfg) in [
        ("css_step_barlowtwins", &barlow),
        ("css_step_simsiam", &simsiam),
    ] {
        let model = ContinualModel::new(model_cfg, &mut seeded(9005));
        let mut ws = Workspace::new();
        let mut step_rng = seeded(9006);
        bench.op(op, &step_size, || {
            ws.reset();
            let (_, _, loss) = model.css_on_batch(
                &mut ws.tape,
                &mut ws.binder,
                &augs[0],
                &step_batch,
                0,
                &mut step_rng,
            );
            let grads = ws.tape.backward(loss);
            ws.tape.recycle(black_box(grads));
        });
    }

    // One whole EDSR step as the `train` workload takes it on its second
    // increment: `L_css`, the frozen teacher's forwards on both new views
    // for `L_dis` and on the replay batch for `L_rpl`, backward and Adam.
    // The memory holds the first increment's selection (no training on
    // it: an untrained encoder stands in for the trained one).
    let train_cfg = TrainConfig::image();
    let mut model = ContinualModel::new(&barlow, &mut seeded(9005));
    let mut edsr = Edsr::paper_default(
        cifar100.per_task_budget(),
        train_cfg.replay_batch,
        cifar100.noise_neighbors,
    );
    let mut setup_rng = seeded(9009);
    let (first, second) = (&seq.tasks[0].train, &seq.tasks[1].train);
    edsr.begin_task(&mut model, 0, first, &mut setup_rng);
    edsr.end_task(&mut model, 0, first, &augs[0], &mut setup_rng);
    edsr.begin_task(&mut model, 1, second, &mut setup_rng);
    let edsr_batch = second.inputs.select_rows(&(0..64).collect::<Vec<_>>());
    let mut opt = train_cfg.build_optimizer();
    let mut ws = Workspace::new();
    let mut step_rng = seeded(9010);
    bench.op("edsr_step", &step_size, || {
        black_box(edsr.train_step(
            &mut model,
            &mut opt,
            &augs,
            &edsr_batch,
            1,
            &mut ws,
            &mut step_rng,
        ));
    });

    // The tabular (SCARF) augmenter's positive pair as `table7` draws it:
    // a 64-row batch of the widest Table II corpus (blastchar, d=20), its
    // corruption reference the increment's train rows, at `TABULAR_CORRUPTION`.
    let tab_seq = tabular_sequence(&TabularConfig::default(), &mut seeded(9007));
    let tab_augs = tabular_augmenters(&mut &tab_seq)?;
    let widest = (0..TABULAR_SPECS.len())
        .max_by_key(|&i| TABULAR_SPECS[i].input_dim)
        .expect("five Table II corpora");
    let tab_batch = tab_seq.tasks[widest]
        .train
        .inputs
        .select_rows(&(0..TrainConfig::tabular().batch_size).collect::<Vec<_>>());
    let mut aug_rng = seeded(9008);
    let tab_size = format!("{}x{}", tab_batch.rows(), tab_batch.cols());
    bench.op("tabular_two_views", &tab_size, || {
        black_box(tab_augs[widest].two_views(&tab_batch, &mut aug_rng));
    });

    // The Table V memory selectors on what `end_task` hands them: the
    // representations of one increment's train rows, the per-increment
    // budget and the increment's class count as the cluster hint. The
    // presets are those of the perfbench `train` workload (cifar100-sim:
    // 150 rows, budget 4) and `boundary` workload (domainnet-sim with 200
    // train rows per class and a 960-row memory: 1,600 rows, budget 64).
    // An untrained encoder stands in for the trained one.
    let mut boundary = edsr_data::domainnet_sim().with_memory_total(960);
    boundary.train_per_class = 200;
    for preset in [cifar100, boundary] {
        let seq = preset.build(&mut seeded(9002));
        let train = &seq.tasks[0].train;
        let encoder =
            ContinualModel::new(&edsr_bench::image_model_config(&preset), &mut seeded(9003));
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
        let size = format!("{}x{}/{budget}", reps.rows(), reps.cols());
        for (op, strategy) in selectors {
            bench.op(op, &size, || {
                black_box(strategy.select(&ctx, budget, &mut seeded(2)));
            });
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
    let records = &bench.records;
    for failure in &bench.failures {
        eprintln!("REGRESSION: {failure}");
    }

    let doc = [
        ("max_threads", Json::Int(max_threads as u64)),
        ("pool_workers", Json::Int(pool_workers as u64)),
        ("hardware_threads", Json::Int(hardware_threads as u64)),
        ("single_core_warning", Json::Bool(single_core)),
        ("isa_detected", Json::Str(simd::detect().name().into())),
        ("isa_active", Json::Str(simd::active_isa().name().into())),
        (
            "records",
            Json::Arr(records.iter().map(Record::json).collect()),
        ),
    ];
    write_json("BENCH_par.json", &doc)?;

    println!(
        "{:<30} {:>18} {:>8} {:>12} {:>12} {:>8}",
        "op", "size", "threads", "ns/iter", "ns min", "speedup"
    );
    for r in records {
        println!(
            "{:<30} {:>18} {:>8} {:>12.0} {:>12.0} {:>8.3}",
            r.op, r.size, r.threads, r.timing.median, r.timing.min, r.speedup
        );
    }
    println!(
        "\npool: {pool_workers} worker thread(s) + caller \
         (requested max_threads={max_threads}, hardware_threads={hardware_threads})"
    );
    println!(
        "isa: detected={} active={}",
        simd::detect().name(),
        simd::active_isa().name()
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
    if !bench.failures.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
