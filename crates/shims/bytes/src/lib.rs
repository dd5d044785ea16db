//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! exactly the subset of the `bytes` API the workspace consumes: a cheaply
//! clonable, reference-counted immutable byte buffer ([`Bytes`]).
//! Semantics match the real crate for this subset; swap the
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
}
