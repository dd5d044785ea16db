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
//! * `aead_kernel` — the dispatched ChaCha20-Poly1305 seal (AVX2 8-way or
//!   AVX-512 16+4-way keystream and 4-way MAC, from the same `Cpu`)
//!   against the scalar seal on 1 KiB payloads, with the same **≥ 2×**
//!   assertion when the wide kernels are active — a floor on the whole
//!   seal;
//! * `aead_avx512` — where the CPU has AVX-512F/BW, the seal on the
//!   16+4-way keystream against the AVX2 one on 1 KiB payloads, asserted
//!   **≥ 1.4×**, and the dispatched seal against the AVX2 one on 64 B and
//!   256 B payloads (which the dispatcher keeps off the AVX-512 kernel),
//!   asserted no slower — within the 15 % this host's readings resolve
//!   (best of 15 alternated repetitions on both checks);
//! * `crc_kernel` — the `PCLMULQDQ` folding CRC-32 against the slice-by-16
//!   tables on 1 KiB slices, asserted **≥ 4×** where the CPU has the
//!   instruction;
//! * `mac_kernel` — the AVX2 4-way Poly1305 against the scalar one on 1 KiB
//!   messages, asserted **≥ 1.5×** where the CPU has AVX2.
//!
//! The last three name each kernel directly from `Cpu::detected()`, so they
//! hold whatever `RAPIDWARE_FORCE_SCALAR` says, and skip when the CPU lacks
//! the kernel.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rapidware::fec::gf256::{self, Kernel};
use rapidware::fec::FecCodec;
use rapidware::filters::Keystream;
use rapidware::packet::cpu::Cpu;
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

/// Best-of-`reps` bytes/second of each of two routines over `len` bytes of
/// input, `iters` calls per repetition, the repetitions alternated so that
/// a slow spell of the host falls on both.
fn throughputs(
    len: usize,
    iters: usize,
    reps: usize,
    mut wide: impl FnMut(&[u8]),
    mut reference: impl FnMut(&[u8]),
) -> (f64, f64) {
    let input: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
    let rate = |run: &mut dyn FnMut(&[u8])| {
        let start = Instant::now();
        for _ in 0..iters {
            run(std::hint::black_box(&input));
        }
        (len * iters) as f64 / start.elapsed().as_secs_f64()
    };
    (0..reps).fold((0.0, 0.0), |(best_wide, best_reference), _| {
        (best_wide.max(rate(&mut wide)), best_reference.max(rate(&mut reference)))
    })
}

/// Prints `group`'s two readings over `len`-byte inputs and, unless the
/// first kernel *is* the reference, asserts it is at least `floor` times as
/// fast.
fn assert_speedup(group: &str, what: &str, len: usize, names: (&str, &str), rates: (f64, f64), floor: f64) {
    let speedup = rates.0 / rates.1;
    println!(
        "{group}: {what} {len:>4} B  {} {:>8.1} MB/s  {} {:>8.1} MB/s  ({speedup:.2}x)",
        names.0,
        rates.0 / 1e6,
        names.1,
        rates.1 / 1e6,
    );
    assert!(
        names.0 == names.1 || speedup >= floor,
        "{group}: {} must be >= {floor}x {} on {len} B, got {speedup:.2}x",
        names.0,
        names.1
    );
}

fn bench_kernels(_c: &mut Criterion) {
    let run = |kernel: Kernel| {
        let mut target = vec![0u8; 1024];
        let mut coefficient = 0u8;
        move |source: &[u8]| {
            coefficient = coefficient % 255 + 1;
            kernel.addmul(&mut target, source, coefficient);
            std::hint::black_box(&target);
        }
    };
    let active = gf256::active_kernel();
    let rates = throughputs(1024, 200_000, 7, run(active), run(Kernel::Scalar));
    assert_speedup("gf256_kernel", "addmul", 1024, (active.name(), "scalar"), rates, 2.0);
}

/// A seal routine on `kernel`: a fresh nonce per call, under a 32-byte
/// header.
fn sealer(kernel: Keystream) -> impl FnMut(&[u8]) {
    let key: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
    let mut sealed = 0u64;
    move |plaintext: &[u8]| {
        sealed += 1;
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(&sealed.to_be_bytes());
        std::hint::black_box(kernel.seal(&key, &nonce, &[0x5A; 32], plaintext));
    }
}

fn bench_aead_kernels(_c: &mut Criterion) {
    let active = Keystream::new(Cpu::active());
    let rates = throughputs(1024, 100_000, 7, sealer(active), sealer(Keystream::Scalar));
    assert_speedup("aead_kernel", "seal", 1024, (active.name(), "scalar"), rates, 2.0);
}

fn bench_aead_avx512(_c: &mut Criterion) {
    let Some(avx512) = Cpu::detected().avx512() else {
        println!("aead_avx512: no AVX-512F/BW on this CPU, only the AVX2 keystream exists — skipped");
        return;
    };
    let avx2 = Keystream::Avx2(avx512.avx2());
    let avx512 = Keystream::Avx512(avx512);
    let rates = throughputs(1024, 100_000, 15, sealer(avx512), sealer(avx2));
    assert_speedup("aead_avx512", "seal", 1024, (avx512.name(), avx2.name()), rates, 1.4);
    // Short payloads stay on the 8-way kernel (or scalar) whatever the
    // CPU: the dispatched seal must be no slower than the AVX2 one there.
    // Both sides run the same code, so the floor is the host's noise:
    // twice the repetitions, and 0.85×.
    let active = Keystream::new(Cpu::active());
    if active != avx512 {
        println!("aead_avx512: dispatch pinned to {} — short-payload check skipped", active.name());
        return;
    }
    for len in [64, 256] {
        let rates = throughputs(len, 100_000, 15, sealer(active), sealer(avx2));
        assert_speedup("aead_avx512", "seal", len, (active.name(), avx2.name()), rates, 0.85);
    }
}

fn bench_crc_kernels(_c: &mut Criterion) {
    let folded = CrcKernel::new(Cpu::detected());
    let tables = CrcKernel::new(Cpu::scalar());
    if folded == tables {
        println!("crc_kernel: no PCLMULQDQ on this CPU, only the tables exist — skipped");
        return;
    }
    let run = |kernel: CrcKernel| {
        move |input: &[u8]| {
            std::hint::black_box(kernel.update(0xFFFF_FFFF, input));
        }
    };
    let rates = throughputs(1024, 300_000, 7, run(folded), run(tables));
    assert_speedup("crc_kernel", "crc32", 1024, (folded.name(), tables.name()), rates, 4.0);
}

fn bench_mac_kernels(_c: &mut Criterion) {
    let Some(avx2) = Cpu::detected().avx2().map(Keystream::Avx2) else {
        println!("mac_kernel: no AVX2 on this CPU, only the scalar MAC exists — skipped");
        return;
    };
    let key: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
    let run = |kernel: Keystream| {
        move |input: &[u8]| {
            std::hint::black_box(kernel.poly1305(std::hint::black_box(&key), input));
        }
    };
    let rates = throughputs(1024, 200_000, 7, run(avx2), run(Keystream::Scalar));
    assert_speedup("mac_kernel", "poly1305", 1024, (avx2.mac_name(), "scalar"), rates, 1.5);
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_kernels,
    bench_aead_kernels,
    bench_aead_avx512,
    bench_crc_kernels,
    bench_mac_kernels
);
criterion_main!(benches);
