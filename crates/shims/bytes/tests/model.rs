//! Model-based test of the recycled `Bytes`: seeded random sequences of
//! `zeroed`, `copy_from_slice`, `from(Vec)`, `clone`, `make_mut` writes and
//! drops, with every live handle held equal to a plain `Vec<u8>` model after
//! every step — contents, `len`, `Eq`, `Hash` and `Debug`.  Lengths straddle
//! the size-class edges (63/64/65, 1,023–1,041, and 2,047/2,048/2,049 around
//! the largest pooled class), so recycled buffers are reused across
//! lengths and come back dirty.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bytes::Bytes;

/// SplitMix64: a seeded sequence, so every failure names its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Lengths on and around the class edges, plus a few in between.
fn length(rng: &mut Rng) -> usize {
    const EDGES: [usize; 12] = [0, 1, 63, 64, 65, 79, 80, 81, 2047, 2048, 2049, 4096];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len())],
        1 => 1023 + rng.below(19),
        _ => rng.below(2100),
    }
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn debug_of(model: &[u8]) -> String {
    let body: String = model.iter().map(|byte| format!("\\x{byte:02x}")).collect();
    format!("b\"{body}\"")
}

/// Every live handle reads as its model; the handle at `touched` also
/// hashes, compares and prints as its model does.
fn check(live: &[(Bytes, Vec<u8>)], touched: Option<usize>, context: &str) {
    for (index, (bytes, model)) in live.iter().enumerate() {
        assert_eq!(&bytes[..], &model[..], "{context}: handle {index} contents");
        assert_eq!(bytes.len(), model.len(), "{context}: handle {index} len");
    }
    let Some(index) = touched else {
        return;
    };
    let (bytes, model) = &live[index];
    assert_eq!(bytes.is_empty(), model.is_empty(), "{context}");
    assert_eq!(bytes.to_vec(), *model, "{context}: to_vec");
    assert_eq!(hash_of(bytes), hash_of(model), "{context}: hash");
    if model.len() <= 128 {
        assert_eq!(format!("{bytes:?}"), debug_of(model), "{context}: debug");
    }
    // Equality with every other handle is equality of the models.
    for (other, other_model) in live {
        assert_eq!(bytes == other, model == other_model, "{context}: Eq follows the contents");
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut live: Vec<(Bytes, Vec<u8>)> = Vec::new();
    for step in 0..steps {
        let context = format!("seed {seed} step {step}");
        let mut touched = None;
        // Past 48 live handles every step drops one.
        let op = if live.len() > 48 { 6 } else { rng.below(7) };
        match op {
            0 => {
                let len = length(&mut rng);
                live.push((Bytes::zeroed(len), vec![0; len]));
                touched = Some(live.len() - 1);
            }
            1 => {
                let model: Vec<u8> = (0..length(&mut rng)).map(|_| rng.next() as u8).collect();
                live.push((Bytes::copy_from_slice(&model), model));
                touched = Some(live.len() - 1);
            }
            2 => {
                let model: Vec<u8> = (0..length(&mut rng)).map(|_| rng.next() as u8).collect();
                live.push((Bytes::from(model.clone()), model));
                touched = Some(live.len() - 1);
            }
            3 if !live.is_empty() => {
                let (bytes, model) = &live[rng.below(live.len())];
                let clone = (bytes.clone(), model.clone());
                assert_eq!(clone.0.as_ptr(), bytes.as_ptr(), "{context}: clones share storage");
                live.push(clone);
                touched = Some(live.len() - 1);
            }
            4 | 5 if !live.is_empty() => {
                let index = rng.below(live.len());
                let (bytes, model) = &mut live[index];
                let was_unique = bytes.is_unique();
                let before = bytes.as_ptr();
                // Dirty the buffer everywhere, so whatever reuses it later
                // starts from non-zero bytes.
                let fill = rng.next() as u8 | 1;
                bytes.make_mut().fill(fill);
                model.fill(fill);
                if was_unique && !model.is_empty() {
                    assert_eq!(bytes.as_ptr(), before, "{context}: a unique buffer is written in place");
                }
                touched = Some(index);
            }
            _ if !live.is_empty() => {
                let index = rng.below(live.len());
                live.swap_remove(index);
            }
            _ => {}
        }
        check(&live, touched, &context);
    }
}

#[test]
fn every_handle_matches_its_model_across_class_edges() {
    for seed in 0..128 {
        run(seed, 1_000);
    }
}

#[test]
fn a_recycled_buffer_is_reused_and_reads_as_written_or_zeroed() {
    // A dropped buffer is the next one its class hands out on this thread,
    // whatever the length within the class, and nothing it held leaks.
    let dirty = Bytes::copy_from_slice(&[0xab; 1040]);
    let storage = dirty.as_ptr();
    drop(dirty);
    let zeroed = Bytes::zeroed(1025);
    assert_eq!(zeroed.as_ptr(), storage, "1,040 and 1,025 B share a class");
    assert!(zeroed.iter().all(|&byte| byte == 0), "zeroed over a dirty buffer");
    assert_eq!(zeroed.len(), 1025);
    drop(zeroed);

    let short = Bytes::copy_from_slice(&[7; 1100]);
    assert_eq!(short.as_ptr(), storage);
    assert_eq!(short, Bytes::from(vec![7; 1100]));

    // A shared buffer is only released: the survivor keeps it intact.
    let survivor = short.clone();
    drop(short);
    let other = Bytes::zeroed(1100);
    assert_ne!(other.as_ptr(), storage, "a shared buffer is not recycled");
    assert_eq!(&survivor[..], &[7; 1100][..]);

    // Past the largest pooled class buffers are exact-size and freed.
    let large = Bytes::zeroed(2049);
    assert_eq!(large.len(), 2049);
    assert!(large.iter().all(|&byte| byte == 0));
}
