//! GEMM kernel micro-benchmark: naive reference vs the tiled kernel layer
//! for all three products (`a·b`, `aᵀ·b`, `a·bᵀ`), each at 1 thread and at
//! the configured maximum, with one tiled row per supported SIMD ISA level
//! (`scalar`, `avx2`, `avx512`) plus the `auto`-dispatched kernel (which
//! honours `EDSR_ISA`). Writes `BENCH_kernels.json` (repo root).
//!
//! Both implementations run through `edsr_par::par_for_rows` at the
//! max-thread rows, so the comparison isolates the kernel (packing +
//! register tiling) rather than the dispatch. `EDSR_BENCH_QUICK=1` shrinks
//! the size and iteration count to a smoke run.
//!
//! Dispatch gate: when the active ISA is not scalar, the `auto` tiled row
//! must not be slower than the `scalar` tiled row by more than 5% at one
//! thread — confirmed by fresh head-to-head re-measurement so shared-host
//! transients can't trip it — else the process exits non-zero (`ci.sh`
//! runs this as a check).

use std::io::Write as _;
use std::time::Instant;

use edsr_core::prelude::seeded;
use edsr_tensor::kernel;
use edsr_tensor::simd;
use edsr_tensor::Matrix;

/// One timed configuration of one (product, implementation, ISA) triple.
struct Record {
    product: &'static str,
    /// `"naive"` or `"tiled"`.
    kernel: &'static str,
    /// Fixed ISA level of the tiled micro-kernel, or `"auto"` for the
    /// runtime-dispatched one; `"-"` on naive rows (always scalar code).
    isa: &'static str,
    size: String,
    threads: usize,
    ns_per_iter: f64,
    /// Fastest sample — what the kernel costs without scheduler noise
    /// (noise on a shared host only ever adds time). The dispatch gate
    /// compares these instead of the medians.
    ns_min: f64,
    /// `time(naive) / time(tiled)` at the same thread count; 1.0 on the
    /// naive rows.
    speedup_vs_naive: f64,
}

/// Wall times of one closure over `iters` runs (one untimed warmup pass).
struct Timing {
    median: f64,
    min: f64,
}

fn time_ns(iters: usize, mut f: impl FnMut()) -> Timing {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Timing {
        median: samples[samples.len() / 2],
        min: samples[0],
    }
}

fn main() -> Result<(), edsr_core::Error> {
    let quick = edsr_bench::start().env.bench_quick;
    let max_threads = edsr_par::configured_threads();
    // Quick mode still takes enough samples for a stable minimum — the
    // dispatch gate compares mins, and 3 samples right after a cold start
    // can all land high.
    let iters = if quick { 9 } else { 15 };
    let n = if quick { 48 } else { 192 };
    let size = format!("{n}x{n}*{n}x{n}");

    let mut rng = seeded(9100);
    let a = Matrix::randn(n, n, 1.0, &mut rng);
    let b = Matrix::randn(n, n, 1.0, &mut rng);
    let mut out = vec![0.0f32; n * n];

    // One tiled row per supported fixed ISA level, plus the dispatched
    // kernel ("auto" — what `matmul_tiled` actually runs, honouring
    // `EDSR_ISA`). Unsupported levels are skipped loudly.
    let mut isa_rows: Vec<(&'static str, &'static simd::Kernel)> = Vec::new();
    for isa in simd::Isa::ALL {
        match simd::Kernel::for_isa(isa) {
            Some(kern) => isa_rows.push((isa.name(), kern)),
            None => eprintln!("skipping {}: not supported on this host", isa.name()),
        }
    }
    isa_rows.push(("auto", simd::active()));

    // (product, naive-through-par closure, tiled closure). The naive rows
    // split over the pool with the retained chunk kernels so both columns
    // see the same dispatch.
    type Naive<'m> = Box<dyn FnMut(&mut [f32]) + 'm>;
    type Tiled<'m> = Box<dyn FnMut(&'static simd::Kernel, &mut [f32]) + 'm>;
    let mut products: Vec<(&'static str, Naive, Tiled)> = vec![
        (
            "matmul",
            Box::new(|out: &mut [f32]| {
                edsr_par::par_for_rows(out, n, n * n * n, |rows, chunk| {
                    kernel::naive::matmul_chunk(a.data(), b.data(), n, n, rows, chunk);
                });
            }),
            Box::new(|kern, out: &mut [f32]| {
                kernel::matmul_tiled_with(kern, a.data(), b.data(), out, n, n, n)
            }),
        ),
        (
            "transpose_matmul",
            Box::new(|out: &mut [f32]| {
                edsr_par::par_for_rows(out, n, n * n * n, |rows, chunk| {
                    kernel::naive::transpose_matmul_chunk(a.data(), b.data(), n, n, n, rows, chunk);
                });
            }),
            Box::new(|kern, out: &mut [f32]| {
                kernel::transpose_matmul_tiled_with(kern, a.data(), b.data(), out, n, n, n)
            }),
        ),
        (
            "matmul_transpose",
            Box::new(|out: &mut [f32]| {
                edsr_par::par_for_rows(out, n, n * n * n, |rows, chunk| {
                    kernel::naive::matmul_transpose_chunk(a.data(), b.data(), n, n, rows, chunk);
                });
            }),
            Box::new(|kern, out: &mut [f32]| {
                kernel::matmul_transpose_tiled_with(kern, a.data(), b.data(), out, n, n, n)
            }),
        ),
    ];

    let mut records = Vec::new();
    for (product, naive, tiled) in products.iter_mut() {
        let product = *product;
        for threads in [1usize, max_threads] {
            let t_naive = edsr_par::with_threads(threads, || {
                time_ns(iters, || {
                    out.fill(0.0);
                    naive(&mut out);
                    std::hint::black_box(&out);
                })
            });
            records.push(Record {
                product,
                kernel: "naive",
                isa: "-",
                size: size.clone(),
                threads,
                ns_per_iter: t_naive.median,
                ns_min: t_naive.min,
                speedup_vs_naive: 1.0,
            });
            // The tiled rows are sampled interleaved — one sample per ISA
            // per round — rather than one row at a time. A whole row's
            // window at the quick size is tens of microseconds, so a
            // single scheduler burst could otherwise poison every sample
            // (min included) of whichever row happened to be running
            // while leaving its comparison row clean, tripping the
            // dispatch gate below on pure noise.
            let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); isa_rows.len()];
            edsr_par::with_threads(threads, || {
                for &(_, kern) in &isa_rows {
                    out.fill(0.0);
                    tiled(kern, &mut out); // untimed warmup
                }
                for _ in 0..iters {
                    for (s, &(_, kern)) in samples.iter_mut().zip(&isa_rows) {
                        let t0 = Instant::now();
                        out.fill(0.0);
                        tiled(kern, &mut out);
                        std::hint::black_box(&out);
                        s.push(t0.elapsed().as_nanos() as f64);
                    }
                }
            });
            for (&(isa, _), mut s) in isa_rows.iter().zip(samples) {
                s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let t_tiled = Timing {
                    median: s[s.len() / 2],
                    min: s[0],
                };
                records.push(Record {
                    product,
                    kernel: "tiled",
                    isa,
                    size: size.clone(),
                    threads,
                    ns_per_iter: t_tiled.median,
                    ns_min: t_tiled.min,
                    speedup_vs_naive: if t_tiled.median > 0.0 {
                        t_naive.median / t_tiled.median
                    } else {
                        f64::NAN
                    },
                });
            }
            if threads == max_threads && max_threads == 1 {
                break; // 1-thread host: the max-thread rows would repeat.
            }
        }
    }

    // Dispatch gate: with a non-scalar ISA active, the dispatched kernel
    // must beat (or at worst match, within 5%) the scalar tiled kernel at
    // one thread — otherwise dispatch is mis-selecting or its overhead
    // leaked into the hot loop. Fastest samples are compared, not
    // medians: scheduler noise on a shared host only ever *adds* time,
    // so the minimum is the stable estimate of what each kernel costs.
    // Skipped when the active ISA *is* scalar (forced via
    // `EDSR_ISA=scalar` or a host without AVX2): the two rows then time
    // identical code and differ only by noise.
    if simd::active_isa() != simd::Isa::Scalar {
        let ns_of = |product: &str, isa: &str| {
            records
                .iter()
                .find(|r| {
                    r.product == product && r.kernel == "tiled" && r.isa == isa && r.threads == 1
                })
                .map(|r| r.ns_min)
        };
        let scalar_kern = simd::Kernel::for_isa(simd::Isa::Scalar).expect("scalar always runs");
        let auto_kern = simd::active();
        for product in ["matmul", "transpose_matmul", "matmul_transpose"] {
            let (Some(scalar_ns), Some(auto_ns)) =
                (ns_of(product, "scalar"), ns_of(product, "auto"))
            else {
                continue;
            };
            if auto_ns <= scalar_ns * 1.05 {
                continue;
            }
            // Apparent regression. Shared-host transients — scheduler
            // bursts, AVX frequency licensing downclocking wide kernels
            // below scalar for a stretch — can slow one row across its
            // whole (microseconds-long) sampling window, so confirm with
            // fresh head-to-head re-measurements before failing: a real
            // dispatch regression (mis-selection, overhead in the hot
            // loop) reproduces on every attempt.
            let tiled = &mut products
                .iter_mut()
                .find(|p| p.0 == product)
                .expect("gated products are benchmarked above")
                .2;
            let mut confirmed = true;
            for _ in 0..3 {
                let (mut s_min, mut a_min) = (f64::INFINITY, f64::INFINITY);
                edsr_par::with_threads(1, || {
                    for _ in 0..17 {
                        for (kern, slot) in [(scalar_kern, &mut s_min), (auto_kern, &mut a_min)] {
                            let t0 = Instant::now();
                            out.fill(0.0);
                            tiled(kern, &mut out);
                            std::hint::black_box(&out);
                            *slot = slot.min(t0.elapsed().as_nanos() as f64);
                        }
                    }
                });
                if a_min <= s_min * 1.05 {
                    confirmed = false;
                    break;
                }
            }
            if confirmed {
                eprintln!(
                    "REGRESSION: {product} auto-dispatched tiled kernel ({auto_ns:.0} ns min) \
                     is >5% slower than the scalar tiled kernel ({scalar_ns:.0} ns min) with \
                     ISA {} active, and re-measurement confirms it",
                    simd::active_isa().name()
                );
                std::process::exit(1);
            }
            eprintln!(
                "note: {product} auto row sampled slow ({auto_ns:.0} vs {scalar_ns:.0} ns min) \
                 but re-measured clean; keeping the recorded samples"
            );
        }
    }

    let pool_workers = edsr_par::pool_workers();
    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let isa_detected = simd::detect().name();
    let isa_active = simd::active_isa().name();
    let mut json = format!(
        "{{\n  \"max_threads\": {max_threads},\n  \"pool_workers\": {pool_workers},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"isa_detected\": \"{isa_detected}\",\n  \"isa_active\": \"{isa_active}\",\n  \
         \"records\": [\n"
    );
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"product\": \"{}\", \"kernel\": \"{}\", \"isa\": \"{}\", \"size\": \"{}\", \
             \"threads\": {}, \"ns_per_iter\": {:.0}, \"ns_min\": {:.0}, \
             \"speedup_vs_naive\": {:.3}}}{}\n",
            r.product,
            r.kernel,
            r.isa,
            r.size,
            r.threads,
            r.ns_per_iter,
            r.ns_min,
            r.speedup_vs_naive,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create("BENCH_kernels.json")?;
    file.write_all(json.as_bytes())?;

    println!(
        "{:<18} {:>7} {:>7} {:>18} {:>8} {:>14} {:>12} {:>10}",
        "product", "kernel", "isa", "size", "threads", "ns/iter", "ns min", "vs naive"
    );
    for r in &records {
        println!(
            "{:<18} {:>7} {:>7} {:>18} {:>8} {:>14.0} {:>12.0} {:>10.3}",
            r.product,
            r.kernel,
            r.isa,
            r.size,
            r.threads,
            r.ns_per_iter,
            r.ns_min,
            r.speedup_vs_naive
        );
    }
    println!("\nisa: detected={isa_detected} active={isa_active}");
    if hardware_threads == 1 {
        println!(
            "\nWARNING: single-core host — max-thread rows measure pool dispatch \
             overhead on one core."
        );
    }
    println!("wrote BENCH_kernels.json ({} records)", records.len());
    edsr_par::emit_pool_metrics();
    edsr_obs::flush();
    Ok(())
}
