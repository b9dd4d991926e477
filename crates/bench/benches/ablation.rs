//! Criterion bench: the four assignment variants (ablation kernel).
use activepy::assign::{assign, assign_greedy, assign_optimal, assign_refined};
use activepy::estimate::{estimate_lines, Calibration};
use activepy::fit::predict_lines;
use activepy::sampling::{paper_scales, run_sampling};
use alang::copyelim::eliminable_lines;
use alang::{CostParams, ExecTier};
use criterion::{criterion_group, criterion_main, Criterion};
use csd_sim::SystemConfig;
use isp_obs::Tracer;

fn bench_ablation(c: &mut Criterion) {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("TPC-H-1").expect("registered");
    let program = w.program().expect("parse");
    let sampling =
        run_sampling(&program, &w, &paper_scales(), &Tracer::disabled()).expect("sampling");
    let predictions = predict_lines(&sampling.lines).expect("fit");
    let copy_elim = eliminable_lines(&program, &sampling.dataset_types);
    let estimates = estimate_lines(
        &predictions,
        ExecTier::CompiledCopyElim,
        &CostParams::paper_default(),
        &config,
        &Calibration::from_counters(&config),
        &copy_elim,
    );
    let bw = config.d2h_bandwidth().as_bytes_per_sec();
    let mut g = c.benchmark_group("ablation");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("assign_greedy", |b| {
        b.iter(|| std::hint::black_box(assign_greedy(&estimates, bw)))
    });
    g.bench_function("assign_lookahead", |b| {
        b.iter(|| std::hint::black_box(assign(&estimates, bw)))
    });
    g.bench_function("assign_refined", |b| {
        b.iter(|| std::hint::black_box(assign_refined(&program, &estimates, bw)))
    });
    g.bench_function("assign_optimal_dp", |b| {
        b.iter(|| std::hint::black_box(assign_optimal(&estimates, bw)))
    });
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
