//! E7 — FEC codec microbenchmarks (encode / decode cost per block).
//!
//! The paper's proxy must encode parities online for a live audio stream, so
//! the per-block cost of the (n, k) erasure code is the budget the rest of
//! the filter chain lives in.  Criterion groups:
//!
//! * `fec_encode/<n>,<k>` — producing the n − k parity shards of one block;
//! * `fec_decode/<n>,<k>` — recovering the maximum tolerable number of lost
//!   shards (n − k) from a received block;
//! * `gf256_kernel` — the dispatched bulk `addmul_slice` kernel against the
//!   always-compiled scalar reference on 1 KiB slices.  When a SIMD kernel
//!   is active this bench **asserts** it is at least 2× the scalar path —
//!   the regression tripwire for the PSHUFB-style nibble-split kernels;
//! * `aead_kernel` — the dispatched ChaCha20-Poly1305 seal (AVX2 8-way
//!   keystream under the same dispatcher) against the scalar-keystream seal
//!   on 1 KiB payloads, with the same **≥ 2×** assertion when the wide
//!   kernel is active.  The Poly1305 half is shared, so this is a floor on
//!   the whole seal, not on the keystream alone.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rapidware::fec::gf256;
use rapidware::fec::FecCodec;
use rapidware::filters::Keystream;

const SHARD_LEN: usize = 360; // one 320-byte audio packet + header, roughly

fn sources(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..SHARD_LEN).map(|j| ((i * 31 + j * 7 + 1) % 256) as u8).collect())
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("fec_encode");
    group.sample_size(30);
    for (n, k) in [(6usize, 4usize), (8, 4), (8, 6), (12, 8), (16, 12)] {
        let codec = FecCodec::new(n, k).expect("valid parameters");
        let data = sources(k);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        group.throughput(Throughput::Bytes((SHARD_LEN * k) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(format!("{n},{k}")), &refs, |b, refs| {
            b.iter(|| codec.encode(refs).expect("encode"));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("fec_decode");
    group.sample_size(30);
    for (n, k) in [(6usize, 4usize), (8, 4), (8, 6), (12, 8)] {
        let codec = FecCodec::new(n, k).expect("valid parameters");
        let data = sources(k);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let parities = codec.encode(&refs).expect("encode");
        // Lose the first n - k source shards: the worst tolerable case.
        let lost = n - k;
        let mut available: Vec<(usize, &[u8])> = Vec::new();
        for (index, shard) in data.iter().enumerate().skip(lost.min(k)) {
            available.push((index, shard.as_slice()));
        }
        for (index, parity) in parities.iter().enumerate() {
            available.push((k + index, parity.as_slice()));
        }
        group.throughput(Throughput::Bytes((SHARD_LEN * k) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n},{k}")),
            &available,
            |b, available| {
                b.iter(|| codec.decode(available, SHARD_LEN).expect("decode"));
            },
        );
    }
    group.finish();
}

/// Times `addmul(target, source, c)` over `iters` passes on 1 KiB slices
/// and returns bytes/second.
fn addmul_throughput(addmul: impl Fn(&mut [u8], &[u8], u8), iters: usize) -> f64 {
    const LEN: usize = 1024;
    let source: Vec<u8> = (0..LEN).map(|i| (i * 37 + 5) as u8).collect();
    let mut target = vec![0u8; LEN];
    // Warm the tables and the branch predictor.
    addmul(&mut target, &source, 29);
    let start = Instant::now();
    for i in 0..iters {
        addmul(&mut target, &source, (i % 255 + 1) as u8);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&target);
    (LEN * iters) as f64 / elapsed
}

fn bench_kernels(_c: &mut Criterion) {
    const ITERS: usize = 200_000;
    const REPS: usize = 5;
    let dispatched = (0..REPS)
        .map(|_| addmul_throughput(gf256::addmul_slice, ITERS))
        .fold(0.0, f64::max);
    let scalar = (0..REPS)
        .map(|_| addmul_throughput(gf256::addmul_slice_scalar, ITERS))
        .fold(0.0, f64::max);
    let kernel = gf256::active_kernel();
    let speedup = dispatched / scalar;
    println!(
        "gf256_kernel: addmul 1KiB  dispatched({}) {:>8.1} MB/s  scalar {:>8.1} MB/s  ({speedup:.2}x)",
        kernel.name(),
        dispatched / 1e6,
        scalar / 1e6,
    );
    if kernel != gf256::Kernel::Scalar {
        assert!(
            speedup >= 2.0,
            "SIMD addmul must be >= 2x scalar on 1 KiB slices, got {speedup:.2}x ({})",
            kernel.name()
        );
    }
}

/// Times `kernel.seal` over `iters` 1 KiB payloads under a 32-byte header
/// and returns bytes/second.
fn seal_throughput(kernel: Keystream, iters: usize) -> f64 {
    const LEN: usize = 1024;
    let key: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
    let aad = [0x5Au8; 32];
    let plaintext: Vec<u8> = (0..LEN).map(|i| (i * 37 + 5) as u8).collect();
    let mut nonce = [0u8; 12];
    std::hint::black_box(kernel.seal(&key, &nonce, &aad, &plaintext));
    let start = Instant::now();
    for i in 0..iters {
        nonce[4..].copy_from_slice(&(i as u64).to_be_bytes());
        std::hint::black_box(kernel.seal(&key, &nonce, &aad, std::hint::black_box(&plaintext)));
    }
    (LEN * iters) as f64 / start.elapsed().as_secs_f64()
}

fn bench_aead_kernels(_c: &mut Criterion) {
    const ITERS: usize = 100_000;
    const REPS: usize = 5;
    let best = |kernel: Keystream| (0..REPS).map(|_| seal_throughput(kernel, ITERS)).fold(0.0, f64::max);
    let active = Keystream::active();
    let dispatched = best(active);
    let scalar = best(Keystream::scalar());
    let speedup = dispatched / scalar;
    println!(
        "aead_kernel: seal 1KiB  dispatched({}) {:>8.1} MB/s  scalar {:>8.1} MB/s  ({speedup:.2}x)",
        active.name(),
        dispatched / 1e6,
        scalar / 1e6,
    );
    if active.name() != "scalar" {
        assert!(
            speedup >= 2.0,
            "wide-keystream seal must be >= 2x the scalar seal on 1 KiB payloads, got {speedup:.2}x ({})",
            active.name()
        );
    }
}

criterion_group!(benches, bench_encode, bench_decode, bench_kernels, bench_aead_kernels);
criterion_main!(benches);
