//! Succinct-type compression benchmarks (§3.2).
//!
//! Measures the cost of lowering a whole environment into succinct form (the
//! σ transformation plus index construction) as the environment grows; the
//! companion binary (`--bin compression`) reports the compression ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use insynth_bench::compression_environment as environment_with_filler;
use insynth_core::{PreparedEnv, WeightConfig};

fn sigma_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("sigma_prepare");
    group.sample_size(20);
    for filler in [0usize, 4, 8, 16] {
        let env = environment_with_filler(filler);
        group.bench_with_input(
            BenchmarkId::from_parameter(env.len()),
            &env,
            |bencher, env| {
                bencher.iter(|| black_box(PreparedEnv::prepare(env, &WeightConfig::default())))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, sigma_compression);
criterion_main!(benches);
