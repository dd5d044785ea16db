//! E4 (bench form) — the cost of splicing a filter into a chain.
//!
//! `splice_sync/insert+remove` inserts and removes a filter in the
//! synchronous chain: the pure data-structure cost of the splice a live
//! stream performs under its session lock.  The live splice itself, on a
//! running proxy stream, is timed by the `e4_insertion_latency` binary and
//! by `proxybench`'s `proxy.splice_us_*` rows.

use criterion::{criterion_group, criterion_main, Criterion};
use rapidware::filters::{FilterChain, NullFilter};

fn bench_sync_splice(c: &mut Criterion) {
    let mut group = c.benchmark_group("splice_sync");
    group.sample_size(50);
    group.bench_function("insert+remove", |b| {
        let mut chain = FilterChain::new();
        chain.push_back(Box::new(NullFilter::new())).expect("push");
        b.iter(|| {
            chain.insert(0, Box::new(NullFilter::new())).expect("insert");
            let (removed, flushed) = chain.remove(0).expect("remove");
            assert!(flushed.is_empty());
            removed
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sync_splice);
criterion_main!(benches);
