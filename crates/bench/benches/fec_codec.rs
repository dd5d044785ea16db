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
//!   keystream and 4-way MAC under the same dispatcher) against the scalar
//!   seal on 1 KiB payloads, with the same **≥ 2×** assertion when the wide
//!   kernels are active — a floor on the whole seal;
//! * `crc_kernel` — the `PCLMULQDQ` folding CRC-32 against the slice-by-16
//!   tables on 1 KiB slices, asserted **≥ 4×** where the CPU has the
//!   instruction;
//! * `mac_kernel` — the AVX2 4-way Poly1305 against the scalar one on 1 KiB
//!   messages, asserted **≥ 1.5×** where the CPU has AVX2.
//!
//! The last two name each kernel directly, so they hold whatever
//! `RAPIDWARE_FORCE_SCALAR` says, and skip when only the scalar path exists.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rapidware::fec::gf256;
use rapidware::fec::FecCodec;
use rapidware::filters::Keystream;
use rapidware::packet::CrcKernel;

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

/// Best-of-`REPS` bytes/second of each of two routines over 1 KiB of input,
/// `iters` calls per repetition, the repetitions alternated so that a slow
/// spell of the host falls on both.
fn kib_throughputs(iters: usize, mut wide: impl FnMut(&[u8]), mut reference: impl FnMut(&[u8])) -> (f64, f64) {
    const LEN: usize = 1024;
    const REPS: usize = 7;
    let input: Vec<u8> = (0..LEN).map(|i| (i * 37 + 5) as u8).collect();
    let rate = |run: &mut dyn FnMut(&[u8])| {
        let start = Instant::now();
        for _ in 0..iters {
            run(std::hint::black_box(&input));
        }
        (LEN * iters) as f64 / start.elapsed().as_secs_f64()
    };
    (0..REPS).fold((0.0, 0.0), |(best_wide, best_reference), _| {
        (best_wide.max(rate(&mut wide)), best_reference.max(rate(&mut reference)))
    })
}

/// Prints `group`'s two readings and, unless the first kernel *is* the
/// reference, asserts it is at least `floor` times as fast.
fn assert_speedup(group: &str, what: &str, names: (&str, &str), rates: (f64, f64), floor: f64) {
    let speedup = rates.0 / rates.1;
    println!(
        "{group}: {what} 1KiB  {} {:>8.1} MB/s  {} {:>8.1} MB/s  ({speedup:.2}x)",
        names.0,
        rates.0 / 1e6,
        names.1,
        rates.1 / 1e6,
    );
    assert!(
        names.0 == names.1 || speedup >= floor,
        "{group}: {} must be >= {floor}x {} on 1 KiB, got {speedup:.2}x",
        names.0,
        names.1
    );
}

fn bench_kernels(_c: &mut Criterion) {
    let run = |addmul: fn(&mut [u8], &[u8], u8)| {
        let mut target = vec![0u8; 1024];
        let mut coefficient = 0u8;
        move |source: &[u8]| {
            coefficient = coefficient % 255 + 1;
            addmul(&mut target, source, coefficient);
            std::hint::black_box(&target);
        }
    };
    let rates = kib_throughputs(200_000, run(gf256::addmul_slice), run(gf256::addmul_slice_scalar));
    assert_speedup("gf256_kernel", "addmul", (gf256::active_kernel().name(), "scalar"), rates, 2.0);
}

fn bench_aead_kernels(_c: &mut Criterion) {
    let key: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
    let run = |kernel: Keystream| {
        let mut sealed = 0u64;
        move |plaintext: &[u8]| {
            // A fresh nonce per seal, under a 32-byte header.
            sealed += 1;
            let mut nonce = [0u8; 12];
            nonce[4..].copy_from_slice(&sealed.to_be_bytes());
            std::hint::black_box(kernel.seal(&key, &nonce, &[0x5A; 32], plaintext));
        }
    };
    let active = Keystream::active();
    let rates = kib_throughputs(100_000, run(active), run(Keystream::scalar()));
    assert_speedup("aead_kernel", "seal", (active.name(), "scalar"), rates, 2.0);
}

fn bench_crc_kernels(_c: &mut Criterion) {
    let Some(folded) = CrcKernel::folded() else {
        println!("crc_kernel: no PCLMULQDQ on this CPU, only the tables exist — skipped");
        return;
    };
    let tables = CrcKernel::tables();
    let run = |kernel: CrcKernel| {
        move |input: &[u8]| {
            std::hint::black_box(kernel.update(0xFFFF_FFFF, input));
        }
    };
    let rates = kib_throughputs(300_000, run(folded), run(tables));
    assert_speedup("crc_kernel", "crc32", (folded.name(), tables.name()), rates, 4.0);
}

fn bench_mac_kernels(_c: &mut Criterion) {
    let Some(avx2) = Keystream::avx2() else {
        println!("mac_kernel: no AVX2 on this CPU, only the scalar MAC exists — skipped");
        return;
    };
    let key: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
    let run = |kernel: Keystream| {
        move |input: &[u8]| {
            std::hint::black_box(kernel.poly1305(std::hint::black_box(&key), input));
        }
    };
    let rates = kib_throughputs(200_000, run(avx2), run(Keystream::scalar()));
    assert_speedup("mac_kernel", "poly1305", (avx2.name(), "scalar"), rates, 1.5);
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_kernels,
    bench_aead_kernels,
    bench_crc_kernels,
    bench_mac_kernels
);
criterion_main!(benches);
