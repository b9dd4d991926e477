//! Criterion bench: sampling + curve fitting (the prediction kernel).
use activepy::fit::predict_lines;
use activepy::sampling::{paper_scales, run_sampling};
use criterion::{criterion_group, criterion_main, Criterion};
use isp_obs::Tracer;

fn bench_prediction(c: &mut Criterion) {
    let w = isp_workloads::by_name("PageRank").expect("registered");
    let program = w.program().expect("parse");
    let mut g = c.benchmark_group("prediction");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("sample_and_fit_pagerank", |b| {
        b.iter(|| {
            let sampling =
                run_sampling(&program, &w, &paper_scales(), &Tracer::disabled()).expect("sampling");
            std::hint::black_box(predict_lines(&sampling.lines).expect("fit"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
