//! Property-based tests for the FEC stack: field axioms, codec round-trips
//! under arbitrary erasure patterns, and block framing round-trips.

use proptest::prelude::*;
use rapidware_fec::{gf256, BlockAssembler, BlockReconstructor, FecCodec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GF(2⁸) is a field: commutativity, associativity, distributivity, and
    /// inverses hold for arbitrary elements.
    #[test]
    fn gf256_field_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(gf256::add(a, b), gf256::add(b, a));
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        prop_assert_eq!(gf256::add(a, a), 0);
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            prop_assert_eq!(gf256::div(gf256::mul(b, a), a), b);
        }
    }

    /// Any erasure pattern of at most n − k losses is recoverable, for a
    /// range of (n, k) configurations and shard contents.
    #[test]
    fn codec_recovers_any_tolerable_erasure_pattern(
        k in 1usize..10,
        extra in 1usize..5,
        shard_len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = FecCodec::new(n, k).unwrap();
        // Deterministic pseudo-random shard contents from the seed.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let sources: Vec<Vec<u8>> = (0..k).map(|_| (0..shard_len).map(|_| next()).collect()).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let parities = codec.encode(&refs).unwrap();

        let mut shards: Vec<Vec<u8>> = sources.clone();
        shards.extend(parities);

        // Choose which shards survive: keep exactly k, spread by the seed.
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates with the same LCG.
        for i in (1..n).rev() {
            let j = (next() as usize) % (i + 1);
            order.swap(i, j);
        }
        let survivors = &order[..k];
        let available: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&i| (i, shards[i].as_slice()))
            .collect();

        let decoded = codec.decode(&available, shard_len).unwrap();
        prop_assert_eq!(decoded, sources);
    }

    /// Block framing (variable-size payloads, length prefix, padding)
    /// round-trips through loss and recovery.
    #[test]
    fn block_framing_round_trip(
        payload_lens in proptest::collection::vec(0usize..300, 4),
        lost_slot in 0usize..4,
        seed in any::<u64>(),
    ) {
        let codec = FecCodec::new(6, 4).unwrap();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 33) as u8
        };
        let payloads: Vec<Vec<u8>> = payload_lens
            .iter()
            .map(|&len| (0..len).map(|_| next()).collect())
            .collect();

        let mut assembler = BlockAssembler::new(codec.clone());
        let mut block = None;
        for payload in &payloads {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.expect("four payloads complete a (6,4) block");

        let mut reconstructor = BlockReconstructor::new(&codec);
        for (slot, payload) in payloads.iter().enumerate() {
            if slot != lost_slot {
                reconstructor.add_source(slot, payload).unwrap();
            }
        }
        reconstructor.add_parity(0, block.shard_len, &block.parities[0]).unwrap();
        let recovered = reconstructor.recover(&codec).unwrap();
        prop_assert_eq!(recovered.len(), 1);
        prop_assert_eq!(recovered[0].slot, lost_slot);
        prop_assert_eq!(&recovered[0].data, &payloads[lost_slot]);
    }
}
