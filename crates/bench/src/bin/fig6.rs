//! **Fig. 6** — sensitivity to the number of neighbours used for the
//! replay-noise magnitude `r(x)` in `L_rpl` (the method's only
//! hyper-parameter). `k = 0` is exactly `L_dis`.
//!
//! Paper shapes: Acc rises then falls as k grows (nearby neighbours add
//! useful knowledge; remote ones mislead); a suitable-k run also shows a
//! smaller std than `L_dis`. CaSSLe's flat line is printed for reference.

use edsr_bench::{run_method_over_seeds, start, Report, IMAGE_SEEDS};
use edsr_cl::{Cassle, Method, TrainConfig};
use edsr_core::{Edsr, EdsrConfig};
use edsr_data::{cifar100_sim, cifar10_sim, tiny_imagenet_sim};

fn main() {
    let seeds = start().seeds(&IMAGE_SEEDS);
    let mut report = Report::new("fig6");
    let cfg = TrainConfig::image();

    report.line("Fig. 6 — effect of the noise-neighbour count k in L_rpl (Acc)");
    for preset in [cifar10_sim(), cifar100_sim(), tiny_imagenet_sim()] {
        let budget = preset.per_task_budget();
        report.line(format!("\n== {} ==", preset.name));

        let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || {
            Box::new(Cassle::new()) as Box<dyn Method>
        });
        sweep.report_failures(&mut report, "CaSSLe");
        let cassle = sweep.aggregate();
        report.line(format!("{:<12} | Acc {}", "CaSSLe", cassle.acc_cell()));

        for k in [0usize, 2, 5, 10, 20, 40, 80] {
            let sweep = run_method_over_seeds(&preset, &cfg, &seeds, || {
                let c = EdsrConfig::paper_default(budget, cfg.replay_batch, k);
                Box::new(Edsr::new(c)) as Box<dyn Method>
            });
            let label = if k == 0 {
                "k=0 (L_dis)".to_string()
            } else {
                format!("k={k}")
            };
            sweep.report_failures(&mut report, &label);
            let agg = sweep.aggregate();
            report.line(format!("{label:<12} | Acc {}", agg.acc_cell()));
        }
    }
    report.finish();
}
