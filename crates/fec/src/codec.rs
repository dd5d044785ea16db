//! The systematic (n, k) erasure codec.

use crate::error::FecError;
use crate::gf256;
use crate::matrix::Matrix;

/// A systematic (n, k) block erasure codec over GF(2⁸).
///
/// Encoding maps `k` equal-length source shards to `n` encoded shards where
/// the first `k` encoded shards are the sources themselves and the remaining
/// `n − k` are parity shards.  **Any** `k` of the `n` encoded shards suffice
/// to reconstruct all `k` sources.
///
/// The generator matrix is derived from a Vandermonde matrix `V` (size
/// `n × k`) as `G = V · V₀⁻¹`, where `V₀` is the top `k × k` block of `V`.
/// This makes the top of `G` the identity (hence *systematic*) while
/// preserving the Vandermonde property that any `k` rows are invertible —
/// the construction used by Rizzo's `fec` library that the paper builds on.
#[derive(Debug, Clone)]
pub struct FecCodec {
    n: usize,
    k: usize,
    /// Full n × k generator matrix (top k rows are the identity).
    generator: Matrix,
}

impl FecCodec {
    /// Creates a codec for the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::InvalidParameters`] unless `0 < k ≤ n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, FecError> {
        if k == 0 || n < k || n > 255 {
            return Err(FecError::InvalidParameters { n, k });
        }
        let vandermonde = Matrix::vandermonde(n, k);
        let top = vandermonde.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inverse = top
            .inverted()
            .expect("top block of a Vandermonde matrix is always invertible");
        let generator = vandermonde.multiply(&top_inverse);
        Ok(Self { n, k, generator })
    }

    /// Total number of encoded shards per block.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of source shards per block.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity shards per block (`n − k`).
    pub fn parity_count(&self) -> usize {
        self.n - self.k
    }

    /// Redundancy overhead of the code, `(n − k) / k`.
    pub fn overhead(&self) -> f64 {
        self.parity_count() as f64 / self.k as f64
    }

    /// The generator matrix (mainly useful for tests and diagnostics).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Encodes `k` equal-length source shards into `n − k` parity shards.
    ///
    /// The source shards themselves are *not* returned (they are transmitted
    /// unchanged — the code is systematic).
    ///
    /// # Errors
    ///
    /// Returns [`FecError::WrongShardCount`] if `sources.len() != k` and
    /// [`FecError::UnequalShardLengths`] if the shards differ in length.
    pub fn encode(&self, sources: &[&[u8]]) -> Result<Vec<Vec<u8>>, FecError> {
        let mut parities = Vec::with_capacity(self.parity_count());
        self.encode_into(sources, &mut parities)?;
        Ok(parities)
    }

    /// Encodes a whole block into caller-owned parity buffers.
    ///
    /// `parities` is resized to `n − k` shards of the common source length;
    /// existing buffer allocations are reused, so a steady-state encoder
    /// (one block after another of the same shard length) allocates nothing.
    /// Each parity row is one [`gf256::dot_into`]: on GFNI one pass that
    /// writes each parity byte once, elsewhere the first source *written*
    /// through [`gf256::mul_slice_into`] and the rest accumulated with
    /// [`gf256::addmul_slice`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`encode`](Self::encode).
    pub fn encode_into(
        &self,
        sources: &[&[u8]],
        parities: &mut Vec<Vec<u8>>,
    ) -> Result<(), FecError> {
        let shard_len = self.common_len(sources)?;
        parities.resize_with(self.parity_count(), Vec::new);
        for (index, parity) in parities.iter_mut().enumerate() {
            parity.resize(shard_len, 0);
            self.write_parity(sources, index, parity);
        }
        Ok(())
    }

    /// Encodes one parity shard — number `index` of the `n − k`, the shard
    /// [`encode`](Self::encode) returns at that position — into a
    /// caller-owned slice of the common source length, overwriting all of
    /// it.  This is how a sender produces a parity where it will be sent
    /// from (a packet payload behind a header) instead of in a scratch
    /// shard that is copied there.
    ///
    /// # Errors
    ///
    /// The conditions of [`encode`](Self::encode), plus
    /// [`FecError::InvalidShardIndex`] if `index ≥ n − k` and
    /// [`FecError::UnequalShardLengths`] if `parity` is not as long as the
    /// sources.
    pub fn encode_parity_into<S: AsRef<[u8]>>(
        &self,
        sources: &[S],
        index: usize,
        parity: &mut [u8],
    ) -> Result<(), FecError> {
        if index >= self.parity_count() {
            return Err(FecError::InvalidShardIndex(self.k + index));
        }
        if self.common_len(sources)? != parity.len() {
            return Err(FecError::UnequalShardLengths);
        }
        self.write_parity(sources, index, parity);
        Ok(())
    }

    /// The length every one of the `k` `sources` has.
    fn common_len<S: AsRef<[u8]>>(&self, sources: &[S]) -> Result<usize, FecError> {
        if sources.len() != self.k {
            return Err(FecError::WrongShardCount {
                expected: self.k,
                actual: sources.len(),
            });
        }
        let shard_len = sources.first().map_or(0, |s| s.as_ref().len());
        if sources.iter().any(|s| s.as_ref().len() != shard_len) {
            return Err(FecError::UnequalShardLengths);
        }
        Ok(shard_len)
    }

    /// Generator row `k + index` times the (already checked) `sources`,
    /// written over `parity`.
    fn write_parity<S: AsRef<[u8]>>(&self, sources: &[S], index: usize, parity: &mut [u8]) {
        let row = self.k + index;
        let terms = sources.iter().enumerate();
        gf256::dot_into(parity, terms.map(|(col, source)| (source.as_ref(), self.generator.get(row, col))));
    }

    /// Reconstructs all `k` source shards from any `k` of the `n` encoded
    /// shards.
    ///
    /// `available` holds `(shard_index, shard_data)` pairs where indices
    /// `0..k` denote source shards and `k..n` denote parity shards (parity
    /// `i` produced by [`encode`](Self::encode) has index `k + i`).
    /// `shard_len` is the common shard length; shards whose length differs
    /// are rejected.
    ///
    /// # Errors
    ///
    /// * [`FecError::NotEnoughShards`] if fewer than `k` distinct shards are
    ///   available;
    /// * [`FecError::InvalidShardIndex`] for out-of-range or duplicate
    ///   indices;
    /// * [`FecError::UnequalShardLengths`] if a shard has the wrong length.
    pub fn decode(
        &self,
        available: &[(usize, &[u8])],
        shard_len: usize,
    ) -> Result<Vec<Vec<u8>>, FecError> {
        let mut sources = Vec::new();
        self.decode_into(available, shard_len, &mut sources)?;
        Ok(sources)
    }

    /// Reconstructs all `k` source shards into caller-owned buffers.
    ///
    /// `sources` is resized to `k` shards of `shard_len` bytes each, and
    /// existing buffer allocations are **reused** — a steady-state decoder
    /// (one block after another of the same shard length) allocates no
    /// shard buffers, where [`decode`](Self::decode) used to clone every
    /// shard into a fresh `Vec<Vec<u8>>` per call.  On error the contents
    /// of `sources` are unspecified (but always safe to reuse for the next
    /// call).
    ///
    /// # Errors
    ///
    /// Same conditions as [`decode`](Self::decode).
    pub fn decode_into(
        &self,
        available: &[(usize, &[u8])],
        shard_len: usize,
        sources: &mut Vec<Vec<u8>>,
    ) -> Result<(), FecError> {
        sources.resize_with(self.k, Vec::new);
        self.decode_rows_into(
            available.iter().copied(),
            shard_len,
            0..self.k,
            &mut CodecScratch::default(),
            sources,
        )
    }

    /// Reconstructs only the `wanted` source shards (indices `0..k`, in
    /// any order) into `rows` — `rows[i]` receives source `wanted[i]`,
    /// resized to `shard_len` with its allocation reused.  A receiver asks
    /// for its missing slots alone: each costs one pass over `k` shards,
    /// where decoding every source costs `k` of them.
    ///
    /// `available` is iterated more than once, so it must be cheap to
    /// clone (an adapter over borrowed shards is); like
    /// [`decode`](Self::decode), the first `k` of its shards are the ones
    /// decoded from, and all of them are checked.  The shard selection,
    /// the chosen generator rows and their inverse live in `scratch`, so a
    /// decode allocates nothing once the buffers have grown.
    ///
    /// # Errors
    ///
    /// The conditions of [`decode`](Self::decode), plus
    /// [`FecError::InvalidShardIndex`] for a wanted index `≥ k`.
    pub fn decode_rows_into<'a, A>(
        &self,
        available: A,
        shard_len: usize,
        wanted: impl IntoIterator<Item = usize>,
        scratch: &mut CodecScratch,
        rows: &mut [Vec<u8>],
    ) -> Result<(), FecError>
    where
        A: IntoIterator<Item = (usize, &'a [u8])>,
        A::IntoIter: Clone,
    {
        let available = available.into_iter();
        let mut seen = [false; 256];
        let chosen = &mut scratch.chosen;
        chosen.clear();
        for (index, data) in available.clone() {
            if index >= self.n || seen[index] {
                return Err(FecError::InvalidShardIndex(index));
            }
            if data.len() != shard_len {
                return Err(FecError::UnequalShardLengths);
            }
            seen[index] = true;
            if chosen.len() < self.k {
                chosen.push(index);
            }
        }
        if chosen.len() < self.k {
            return Err(FecError::NotEnoughShards {
                needed: self.k,
                available: chosen.len(),
            });
        }
        // With a parity among the chosen shards, wanted rows come from the
        // inverse of the k × k generator submatrix the chosen rows form.
        if chosen.iter().any(|&index| index >= self.k) {
            self.generator.select_rows_into(chosen, &mut scratch.submatrix);
            scratch.submatrix.invert_into(&mut scratch.inverse)?;
        }
        let shards = available.take(self.k).map(|(_, data)| data);
        for (row, out) in wanted.into_iter().zip(rows.iter_mut()) {
            if row >= self.k {
                return Err(FecError::InvalidShardIndex(row));
            }
            out.resize(shard_len, 0);
            // A wanted source that arrived is a copy.
            if let Some(at) = chosen.iter().position(|&index| index == row) {
                out.copy_from_slice(shards.clone().nth(at).expect("k shards chosen"));
                continue;
            }
            // Otherwise one row of the inverse times the shards, which
            // overwrites every byte, so stale buffer contents never leak
            // through.
            let terms = shards.clone().zip(scratch.inverse.row(row));
            gf256::dot_into(out, terms.map(|(data, &coeff)| (data, coeff)));
        }
        Ok(())
    }
}

/// Caller-owned scratch for [`FecCodec::decode_rows_into`]: which shards a
/// decode picked, the generator rows they form, and that matrix's inverse.
/// Reused from one decode to the next, it stops allocating once it has
/// grown to the codec's `k`.
#[derive(Debug)]
pub struct CodecScratch {
    chosen: Vec<usize>,
    submatrix: Matrix,
    inverse: Matrix,
}

impl Default for CodecScratch {
    fn default() -> Self {
        Self {
            chosen: Vec::new(),
            submatrix: Matrix::empty(),
            inverse: Matrix::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sources(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 37 + j * 11 + 5) % 256) as u8).collect())
            .collect()
    }

    fn refs(sources: &[Vec<u8>]) -> Vec<&[u8]> {
        sources.iter().map(|s| s.as_slice()).collect()
    }

    #[test]
    fn decode_into_dirty_buffers_match_decode() {
        // Byte-parity regression: reusing a scratch left dirty by a previous
        // decode (longer shards, stale bytes, wrong shard count) must yield
        // exactly what the allocating `decode` produces — on both the
        // all-sources fast path and the matrix-inversion general path.
        let codec = FecCodec::new(6, 4).unwrap();
        let mut scratch: Vec<Vec<u8>> = vec![vec![0xAB; 512]; 7];
        for len in [1usize, 31, 32, 64, 100] {
            let sources = sample_sources(4, len);
            let parities = codec.encode(&refs(&sources)).unwrap();

            // General path: two sources lost.
            let available = vec![
                (0usize, sources[0].as_slice()),
                (2, sources[2].as_slice()),
                (4, parities[0].as_slice()),
                (5, parities[1].as_slice()),
            ];
            let fresh = codec.decode(&available, len).unwrap();
            codec.decode_into(&available, len, &mut scratch).unwrap();
            assert_eq!(fresh, scratch, "general path, len {len}");

            // Fast path: all sources present.
            let all: Vec<(usize, &[u8])> = sources
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.as_slice()))
                .collect();
            let fresh = codec.decode(&all, len).unwrap();
            codec.decode_into(&all, len, &mut scratch).unwrap();
            assert_eq!(fresh, scratch, "fast path, len {len}");
        }
    }

    #[test]
    fn decode_rows_into_rebuilds_only_the_wanted_rows() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(4, 40);
        let parities = codec.encode(&refs(&sources)).unwrap();
        let available = [
            (0usize, sources[0].as_slice()),
            (4, parities[0].as_slice()),
            (2, sources[2].as_slice()),
            (5, parities[1].as_slice()),
        ];
        let mut scratch = CodecScratch::default();
        let mut rows = vec![vec![0xAB; 100]; 3];
        codec.decode_rows_into(available, 40, [3, 1], &mut scratch, &mut rows).unwrap();
        assert_eq!(rows[0], sources[3]);
        assert_eq!(rows[1], sources[1]);
        assert_eq!(rows[2], vec![0xAB; 100], "no row beyond the wanted ones");
        // A received source asked for is a copy of it.
        codec.decode_rows_into(available, 40, [2], &mut scratch, &mut rows).unwrap();
        assert_eq!(rows[0], sources[2]);
        assert_eq!(
            codec.decode_rows_into(available, 40, [4], &mut scratch, &mut rows).unwrap_err(),
            FecError::InvalidShardIndex(4)
        );
    }

    #[test]
    fn parameters_are_validated() {
        assert!(FecCodec::new(6, 4).is_ok());
        assert!(FecCodec::new(4, 4).is_ok());
        assert!(matches!(
            FecCodec::new(3, 4),
            Err(FecError::InvalidParameters { .. })
        ));
        assert!(matches!(
            FecCodec::new(5, 0),
            Err(FecError::InvalidParameters { .. })
        ));
        assert!(matches!(
            FecCodec::new(256, 4),
            Err(FecError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn generator_is_systematic() {
        let codec = FecCodec::new(6, 4).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(codec.generator().get(r, c), u8::from(r == c));
            }
        }
    }

    #[test]
    fn accessors_report_parameters() {
        let codec = FecCodec::new(6, 4).unwrap();
        assert_eq!(codec.n(), 6);
        assert_eq!(codec.k(), 4);
        assert_eq!(codec.parity_count(), 2);
        assert!((codec.overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn encode_rejects_bad_input() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(3, 8);
        assert!(matches!(
            codec.encode(&refs(&sources)),
            Err(FecError::WrongShardCount { expected: 4, actual: 3 })
        ));
        let mut uneven = sample_sources(4, 8);
        uneven[2].push(0);
        assert_eq!(
            codec.encode(&refs(&uneven)).unwrap_err(),
            FecError::UnequalShardLengths
        );
    }

    #[test]
    fn all_sources_present_fast_path() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(4, 32);
        let available: Vec<(usize, &[u8])> = sources
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.as_slice()))
            .collect();
        let decoded = codec.decode(&available, 32).unwrap();
        assert_eq!(decoded, sources);
    }

    #[test]
    fn recovers_from_any_k_of_n_shards_fec_6_4() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(4, 48);
        let parities = codec.encode(&refs(&sources)).unwrap();
        let mut shards: Vec<Vec<u8>> = sources.clone();
        shards.extend(parities);

        // Every 4-subset of the 6 shards must reconstruct the sources.
        for a in 0..6 {
            for b in (a + 1)..6 {
                let available: Vec<(usize, &[u8])> = (0..6)
                    .filter(|&i| i != a && i != b)
                    .map(|i| (i, shards[i].as_slice()))
                    .collect();
                let decoded = codec.decode(&available, 48).unwrap();
                assert_eq!(decoded, sources, "lost shards {a} and {b}");
            }
        }
    }

    #[test]
    fn recovers_with_larger_parameters() {
        let codec = FecCodec::new(12, 8).unwrap();
        let sources = sample_sources(8, 100);
        let parities = codec.encode(&refs(&sources)).unwrap();
        // Lose 4 sources; decode from the remaining 4 sources + 4 parities.
        let mut available: Vec<(usize, &[u8])> = Vec::new();
        for i in [1usize, 3, 5, 7] {
            available.push((i, sources[i].as_slice()));
        }
        for (j, parity) in parities.iter().enumerate() {
            available.push((8 + j, parity.as_slice()));
        }
        let decoded = codec.decode(&available, 100).unwrap();
        assert_eq!(decoded, sources);
    }

    #[test]
    fn too_few_shards_is_an_error() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(4, 16);
        let available: Vec<(usize, &[u8])> = sources
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, s)| (i, s.as_slice()))
            .collect();
        assert_eq!(
            codec.decode(&available, 16).unwrap_err(),
            FecError::NotEnoughShards {
                needed: 4,
                available: 3
            }
        );
    }

    #[test]
    fn duplicate_and_out_of_range_indices_rejected() {
        let codec = FecCodec::new(6, 4).unwrap();
        let shard = vec![0u8; 8];
        let dup = vec![
            (0usize, shard.as_slice()),
            (0, shard.as_slice()),
            (1, shard.as_slice()),
            (2, shard.as_slice()),
        ];
        assert_eq!(
            codec.decode(&dup, 8).unwrap_err(),
            FecError::InvalidShardIndex(0)
        );
        let out_of_range = vec![(6usize, shard.as_slice())];
        assert_eq!(
            codec.decode(&out_of_range, 8).unwrap_err(),
            FecError::InvalidShardIndex(6)
        );
    }

    #[test]
    fn wrong_shard_length_rejected() {
        let codec = FecCodec::new(6, 4).unwrap();
        let shard = vec![0u8; 8];
        let short = vec![0u8; 7];
        let available = vec![
            (0usize, shard.as_slice()),
            (1, shard.as_slice()),
            (2, shard.as_slice()),
            (3, short.as_slice()),
        ];
        assert_eq!(
            codec.decode(&available, 8).unwrap_err(),
            FecError::UnequalShardLengths
        );
    }

    #[test]
    fn rate_one_code_has_no_parity() {
        let codec = FecCodec::new(4, 4).unwrap();
        let sources = sample_sources(4, 8);
        assert!(codec.encode(&refs(&sources)).unwrap().is_empty());
    }

    #[test]
    fn single_source_replication_code() {
        // (n, 1) is a repetition code: every parity equals the source.
        let codec = FecCodec::new(3, 1).unwrap();
        let source = vec![vec![7u8, 8, 9]];
        let parities = codec.encode(&refs(&source)).unwrap();
        assert_eq!(parities.len(), 2);
        for parity in &parities {
            assert_eq!(parity, &source[0]);
        }
        let decoded = codec
            .decode(&[(2usize, parities[1].as_slice())], 3)
            .unwrap();
        assert_eq!(decoded[0], source[0]);
    }

    #[test]
    fn a_parity_encoded_in_place_equals_the_one_encode_returns() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = sample_sources(4, 100);
        let parities = codec.encode(&refs(&sources)).unwrap();
        for (index, expected) in parities.iter().enumerate() {
            // Behind an 8-byte prefix of a dirty buffer, as a sender uses it.
            let mut buffer = [0xEEu8; 8 + 100];
            codec.encode_parity_into(&sources, index, &mut buffer[8..]).unwrap();
            assert_eq!(&buffer[8..], &expected[..], "parity {index}");
            assert_eq!(&buffer[..8], &[0xEE; 8], "prefix untouched");
        }
        let mut out = vec![0u8; 100];
        assert_eq!(
            codec.encode_parity_into(&sources, 2, &mut out).unwrap_err(),
            FecError::InvalidShardIndex(6)
        );
        assert_eq!(
            codec.encode_parity_into(&sources, 0, &mut out[..99]).unwrap_err(),
            FecError::UnequalShardLengths
        );
        assert!(matches!(
            codec.encode_parity_into(&sources[..3], 0, &mut out).unwrap_err(),
            FecError::WrongShardCount { expected: 4, actual: 3 }
        ));
    }

    #[test]
    fn zero_length_shards_are_legal() {
        let codec = FecCodec::new(6, 4).unwrap();
        let sources = vec![vec![]; 4];
        let parities = codec.encode(&refs(&sources)).unwrap();
        assert!(parities.iter().all(|p| p.is_empty()));
    }
}
