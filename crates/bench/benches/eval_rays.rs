//! Benchmarks for the exact evaluator (E1/E4/E5 backbone): scaling in
//! the number of rays, the fleet and the horizon. The line rows are the
//! `m = 2` case: zig-zag itineraries compiled as two-ray tours. The
//! `compile` rows time the step before: compiling E12's large optimal
//! fleets, pieces and sweep plans, with no cache. The `warm` rows
//! evaluate those fleets precompiled over `[1, 1e12]`, the offline
//! counterpart of the `e12-sweep` benchmark's `eval.warm_ms`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use raysearch_core::{optimal_fleet, CompiledFleet, NoCache, RayEvaluator};
use raysearch_sim::LineItinerary;
use raysearch_strategies::{CyclicExponential, LineStrategy, RayStrategy};

fn tour_fleet(strategy: &CyclicExponential, m: u32, horizon: f64) -> CompiledFleet {
    let tours = strategy.fleet_tours(horizon).unwrap();
    CompiledFleet::from_tours(m as usize, horizon, &tours).unwrap()
}

fn line_fleet(k: u32, f: u32, horizon: f64) -> CompiledFleet {
    let line = CyclicExponential::optimal(2, k, f)
        .unwrap()
        .to_line()
        .unwrap();
    let fleet = line.fleet_itineraries(horizon).unwrap();
    CompiledFleet::from_tours(2, horizon, fleet.iter().map(LineItinerary::to_two_ray_tour)).unwrap()
}

fn bench_by_rays(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/by_rays");
    for &m in &[2u32, 4, 8, 16] {
        let k = m - 1; // searchable with f = 0
        let strategy = CyclicExponential::optimal(m, k, 0).unwrap();
        let fleet = tour_fleet(&strategy, m, 1e5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}_k{k}")),
            &fleet,
            |b, fleet| {
                let evaluator = RayEvaluator::new(m as usize, 0, 1.0, 1e4).unwrap();
                b.iter(|| evaluator.evaluate(black_box(fleet)).unwrap().ratio)
            },
        );
    }
    group.finish();
}

fn bench_by_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/by_faults");
    for &f in &[0u32, 1, 2, 3] {
        let (m, k) = (3u32, 3 * (f + 1) - 1);
        let strategy = CyclicExponential::optimal(m, k, f).unwrap();
        let fleet = tour_fleet(&strategy, m, 1e5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("f{f}_k{k}")),
            &fleet,
            |b, fleet| {
                let evaluator = RayEvaluator::new(m as usize, f, 1.0, 1e4).unwrap();
                b.iter(|| evaluator.evaluate(black_box(fleet)).unwrap().ratio)
            },
        );
    }
    group.finish();
}

fn bench_line_by_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/line_by_fleet");
    for &(k, f) in &[(1u32, 0u32), (3, 1), (5, 2), (7, 3)] {
        let fleet = line_fleet(k, f, 1e5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_f{f}")),
            &fleet,
            |b, fleet| {
                let evaluator = RayEvaluator::new(2, f, 1.0, 1e4).unwrap();
                b.iter(|| evaluator.evaluate(black_box(fleet)).unwrap().ratio)
            },
        );
    }
    group.finish();
}

fn bench_line_by_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/line_by_horizon");
    for &hi in &[1e3, 1e5, 1e7] {
        let fleet = line_fleet(3, 1, hi * 10.0);
        group.bench_with_input(BenchmarkId::from_parameter(hi), &fleet, |b, fleet| {
            let evaluator = RayEvaluator::new(2, 1, 1.0, hi).unwrap();
            b.iter(|| evaluator.evaluate(black_box(fleet)).unwrap().ratio)
        });
    }
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/compile");
    for &k in &[512u32, 4096] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_f{}", k - 1)),
            &k,
            |b, &k| b.iter(|| optimal_fleet(&NoCache, 2, black_box(k), k - 1, 1e12).unwrap()),
        );
    }
    group.finish();
}

fn bench_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_rays/warm");
    for &k in &[512u32, 4096] {
        let fleet = optimal_fleet(&NoCache, 2, k, k - 1, 1e12).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_f{}", k - 1)),
            &fleet,
            |b, fleet| {
                let evaluator = RayEvaluator::new(2, k - 1, 1.0, 1e12).unwrap();
                b.iter(|| evaluator.evaluate(black_box(fleet)).unwrap().ratio)
            },
        );
    }
    group.finish();
}

fn bench_line_detection_queries(c: &mut Criterion) {
    let fleet = line_fleet(5, 2, 1e5);
    let evaluator = RayEvaluator::new(2, 2, 1.0, 1e4).unwrap();
    c.bench_function("eval_rays/line_detection_time_1k_points", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=1000 {
                let x = 1.0 + f64::from(i) * 9.0;
                if let Some(t) = evaluator.detection_time(&fleet, 0, black_box(x)).unwrap() {
                    acc += t;
                }
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_by_rays,
    bench_by_faults,
    bench_line_by_fleet,
    bench_line_by_horizon,
    bench_line_detection_queries,
    bench_compile,
    bench_warm
);
criterion_main!(benches);
