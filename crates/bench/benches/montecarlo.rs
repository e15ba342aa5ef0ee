//! Microbenchmarks for the Monte-Carlo engine: per-sample cost of the
//! fault/target samplers, sequential vs sharded estimation throughput,
//! and the one-off fleet-compilation overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SplitMix64;
use raysearch_core::CompiledFleet;
use raysearch_mc::{estimate, FaultSampler, McConfig, Scenario, TargetSampler};
use raysearch_strategies::{CyclicExponential, RayStrategy};

fn line_scenario(faults: FaultSampler) -> Scenario {
    Scenario::new(
        2,
        3,
        1,
        1e3,
        faults,
        TargetSampler::LogUniform { lo: 1.0, hi: 1e3 },
    )
    .expect("searchable instance")
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo/samplers");
    let uniform = FaultSampler::UniformSubset { f: 2 };
    let iid = FaultSampler::IidCrash { p: 0.1 };
    let targets = TargetSampler::LogUniform { lo: 1.0, hi: 1e4 };
    group.bench_function("uniform_subset_k8", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = SplitMix64::keyed(1, i);
            black_box(uniform.draw(8, &mut rng))
        })
    });
    group.bench_function("iid_crash_k8", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = SplitMix64::keyed(1, i);
            black_box(iid.draw(8, &mut rng))
        })
    });
    group.bench_function("log_uniform_target", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = SplitMix64::keyed(2, i);
            black_box(targets.draw(3, &mut rng))
        })
    });
    group.finish();
}

fn bench_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo/estimate");
    let scenario = line_scenario(FaultSampler::UniformSubset { f: 1 });
    group.bench_function("10k_sequential", |b| {
        let cfg = McConfig {
            threads: Some(1),
            ..McConfig::with_seed(3, 10_000)
        };
        b.iter(|| black_box(estimate(&scenario, &cfg).unwrap().mean))
    });
    group.bench_function("10k_sharded", |b| {
        let cfg = McConfig {
            threads: Some(4),
            ..McConfig::with_seed(3, 10_000)
        };
        b.iter(|| black_box(estimate(&scenario, &cfg).unwrap().mean))
    });
    group.finish();
}

fn bench_visit_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("montecarlo/visit_table");
    let tours = CyclicExponential::optimal(3, 4, 1)
        .unwrap()
        .fleet_tours(4e3)
        .unwrap();
    group.bench_function("compile_fleet", |b| {
        b.iter(|| {
            black_box(
                CompiledFleet::from_tours(3, 4e3, &tours)
                    .unwrap()
                    .num_robots(),
            )
        })
    });
    let fleet = CompiledFleet::from_tours(3, 4e3, &tours).unwrap();
    group.bench_function("first_visit_query", |b| {
        let mut x = 1.0f64;
        b.iter(|| {
            x = if x > 900.0 { 1.0 } else { x * 1.7 };
            black_box(fleet.first_visit(2, 1, x))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_estimation, bench_visit_table);
criterion_main!(benches);
