//! Property-based tests for the FEC stack: field axioms, codec round-trips
//! under arbitrary erasure patterns, and block framing round-trips.

use proptest::prelude::*;
use rapidware_fec::{gf256, BlockAssembler, BlockReconstructor, DecodeScratch, FecCodec};

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

        // Sender side as the encoder filter runs it: each payload written
        // in place, the completed block's parity encoded into its buffer.
        let mut assembler = BlockAssembler::new(codec.clone());
        for payload in &payloads[..3] {
            prop_assert!(assembler.push_with(|shard| shard.extend_from_slice(payload)).unwrap().is_none());
        }
        let block = assembler
            .push_with(|shard| shard.extend_from_slice(&payloads[3]))
            .unwrap()
            .expect("four payloads complete a (6,4) block");
        let shard_len = block.shard_len();
        let mut parity = vec![0u8; shard_len];
        block.parity_into(0, &mut parity).unwrap();

        let mut reconstructor = BlockReconstructor::new(&codec);
        for (slot, payload) in payloads.iter().enumerate() {
            if slot != lost_slot {
                reconstructor.add_source(slot, payload.as_slice()).unwrap();
            }
        }
        reconstructor.add_parity(0, shard_len, parity.as_slice()).unwrap();
        let mut scratch = DecodeScratch::new();
        let recovered: Vec<(usize, Vec<u8>)> = reconstructor
            .recover_with(
                &codec,
                &mut scratch,
                |source, shard| shard.extend_from_slice(source),
                |parity| parity,
            )
            .unwrap()
            .map(|(slot, data)| (slot, data.to_vec()))
            .collect();
        prop_assert_eq!(recovered, vec![(lost_slot, payloads[lost_slot].clone())]);
    }
}
