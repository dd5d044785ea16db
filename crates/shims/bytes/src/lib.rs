//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! exactly the subset of the `bytes` API the workspace consumes: a cheaply
//! clonable, reference-counted immutable byte buffer ([`Bytes`]), a growable
//! builder ([`BytesMut`]), and the big-endian cursor traits ([`Buf`],
//! [`BufMut`]).  Semantics match the real crate for this subset; swap the
//! `[workspace.dependencies]` entry for the crates.io version to drop the
//! shim.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable, reference-counted byte buffer.
///
/// Clones share the same backing allocation, so fanning a payload out to
/// many consumers never copies the data.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of `len` zero bytes, allocated once and uniquely owned: the
    /// way to *build* a buffer in place.  [`make_mut`](Self::make_mut) on
    /// the fresh handle writes straight into that allocation (no
    /// `Vec` filled first and copied behind the reference count
    /// afterwards); once the handle has been cloned, `make_mut` copies
    /// before writing as it does for any shared buffer.  (Not in the real
    /// crate, which spells this `BytesMut::zeroed(len)` … `freeze()`.)
    pub fn zeroed(len: usize) -> Self {
        Self {
            data: std::iter::repeat_n(0u8, len).collect(),
        }
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self { data: data.into() }
    }

    /// Creates a buffer from a static slice (copies; the real crate borrows,
    /// but no caller in this workspace observes the difference).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    /// Returns `true` if this handle is the only one referencing the
    /// backing allocation (so [`make_mut`](Self::make_mut) will not copy).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Mutable access with copy-on-write semantics.
    ///
    /// If this handle is the sole owner of the backing allocation the
    /// contents are mutated in place; otherwise the bytes are copied into a
    /// fresh allocation first, so every other clone keeps observing the
    /// original contents.  This is what lets a multicast fan-out share one
    /// payload across N receiver lanes and still allow any single lane to
    /// rewrite its copy safely.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::strong_count(&self.data) != 1 {
            self.data = Arc::from(&self.data[..]);
        }
        Arc::get_mut(&mut self.data).expect("unique after copy-on-write")
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data: data.into() }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(data: [u8; N]) -> Self {
        Self::copy_from_slice(&data)
    }
}

impl From<String> for Bytes {
    fn from(data: String) -> Self {
        Self::from(data.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.data[..] == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &byte in self.data.iter() {
            write!(f, "\\x{byte:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into a [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Length of the accumulated contents in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.data.extend_from_slice(data);
    }

    /// Converts the accumulated contents into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source; integers are big-endian, as on the wire.
pub trait Buf {
    /// Number of bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads `n` bytes into `dst` and advances.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte and advances.
    fn get_u8(&mut self) -> u8 {
        let mut buf = [0u8; 1];
        self.copy_to_slice(&mut buf);
        buf[0]
    }

    /// Reads a big-endian `u32` and advances.
    fn get_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.copy_to_slice(&mut buf);
        u32::from_be_bytes(buf)
    }

    /// Reads a big-endian `u64` and advances.
    fn get_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.copy_to_slice(&mut buf);
        u64::from_be_bytes(buf)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Write sink for bytes; integers are big-endian, as on the wire.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, value: u32) {
        self.put_slice(&value.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, value: u64) {
        self.put_slice(&value.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        assert!(a.is_unique());
        let original_ptr = a.as_ptr();
        a.make_mut()[0] = 9;
        assert_eq!(a.as_ptr(), original_ptr, "unique buffer mutated in place");

        let b = a.clone();
        assert!(!a.is_unique());
        a.make_mut()[1] = 7;
        assert_eq!(&a[..], &[9, 7, 3], "writer sees its mutation");
        assert_eq!(&b[..], &[9, 2, 3], "other clone keeps the original bytes");
        assert_ne!(a.as_ptr(), b.as_ptr(), "shared buffer was copied on write");
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn a_buffer_built_in_place_is_isolated_from_its_clones_like_make_mut() {
        let mut built = Bytes::zeroed(4);
        assert!(built.is_unique());
        assert_eq!(&built[..], &[0, 0, 0, 0]);
        let allocation = built.as_ptr();
        built.make_mut().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(built.as_ptr(), allocation, "built where it was allocated");

        // From the first clone on it is an ordinary shared buffer.
        let sibling = built.clone();
        assert_eq!(sibling.as_ptr(), allocation);
        built.make_mut()[0] = 9;
        assert_eq!(&built[..], &[9, 2, 3, 4]);
        assert_eq!(&sibling[..], &[1, 2, 3, 4], "the clone keeps what it saw");
        assert_ne!(built.as_ptr(), sibling.as_ptr(), "written through a private copy");
        assert_eq!(Bytes::zeroed(0), Bytes::new());
    }

    #[test]
    fn round_trip_big_endian() {
        let mut buf = BytesMut::with_capacity(13);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(42);
        buf.put_u8(7);
        let frozen = buf.freeze();
        let mut cursor = &frozen[..];
        assert_eq!(cursor.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_u64(), 42);
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.remaining(), 0);
    }
}
