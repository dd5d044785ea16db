//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! exactly the subset of the `bytes` API the workspace consumes: a cheaply
//! clonable, reference-counted immutable byte buffer ([`Bytes`]).
//! Semantics match the real crate for this subset; swap the
//! `[workspace.dependencies]` entry for the crates.io version to drop the
//! shim.
//!
//! # Where it differs: buffers are recycled
//!
//! The real crate frees a buffer when its last handle drops.  This shim
//! keeps buffers of up to 2 KiB for reuse, in the
//! magazine-and-depot shape of Bonwick & Adams ("Magazines and Vmem",
//! USENIX ATC 2001), because a packet pipeline allocates its payloads on
//! one thread and frees them on another: a load generator's sources are
//! freed by the worker that sealed them, and the worker's sealed frames by
//! the thread that reads them.  The allocator's per-thread cache does not
//! absorb that, and the rest reaches the owning arena under its lock.
//!
//! - **Size classes.**  A buffer's storage is one `Arc<[u8]>` whose length
//!   is rounded up to a class: 64 bytes, then four classes per doubling
//!   (80, 96, 112, 128, 160, … 2048 B), 21 in all.  A
//!   longer buffer is exact-size and never pooled; so is an empty one,
//!   which owns no storage.
//! - **Magazines.**  Each thread keeps two magazines of 32 buffers per
//!   class.  When the last handle to a buffer drops, the buffer
//!   goes to the dropping thread's loaded magazine; a new buffer is popped
//!   from it.  A buffer still shared by another handle is only released.
//! - **Depot.**  When both of a thread's magazines of a class are full, the
//!   older one moves to a shared depot (one lock per class), which holds
//!   at most 8 full magazines per class; past that a
//!   buffer is freed as usual.  A thread whose magazines are both empty
//!   takes a full one from the depot, and allocates only if that is empty
//!   too.  So the buffers the worker frees refill the generator, and the
//!   ones the reader frees refill the worker, one lock per 32
//!   buffers.
//! - **Bounds.**  A thread holds at most 829,440 bytes of buffers
//!   (two magazines of every class), and the depot at most 3,317,760 bytes
//!   (8 magazines of every class), plus their magazines' bookkeeping.  A
//!   thread's magazines are freed when it exits, and a buffer dropped after
//!   that (by another thread-local's destructor) is freed directly.
//! - **Never exposed.**  A handle reads only its first `len` bytes: what a
//!   recycled buffer held past them is out of reach of every method, and
//!   [`Bytes::zeroed`] clears the `len` bytes it hands out.
//!
//! Every buffer is one allocation, its reference count beside its bytes,
//! so reading a payload is one pointer hop, as before.
#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::repeat_n;
use std::mem;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// The smallest size class, in bytes: every shorter non-empty buffer gets
/// this much storage.
const SMALLEST_CLASS: usize = 64;

/// The largest pooled size class, in bytes.  It covers an Ethernet-MTU
/// datagram with its FEC and AEAD overhead; a longer buffer is allocated at
/// its exact size and freed when dropped.
const LARGEST_CLASS: usize = 2048;

/// Number of size classes: [`SMALLEST_CLASS`], then four per doubling up
/// to [`LARGEST_CLASS`].
const CLASSES: usize = 21;

/// Buffers per magazine.
const MAGAZINE: usize = 32;

/// Full magazines the depot holds per class.
const DEPOT_MAGAZINES: usize = 8;

/// The storage size of class `class`.
const fn class_size(class: usize) -> usize {
    if class == 0 {
        return SMALLEST_CLASS;
    }
    // Class 1 + 4k + i holds lengths up to (5 + i) · 2^(4 + k).
    let (octave, step) = ((class - 1) / 4, (class - 1) % 4);
    (5 + step) << (4 + octave)
}

/// The sum of every class's size.
const fn all_classes() -> usize {
    let mut sum = 0;
    let mut class = 0;
    while class < CLASSES {
        sum += class_size(class);
        class += 1;
    }
    sum
}

/// Bytes of buffers one thread may hold: two magazines of every class
/// (829,440 B).
const THREAD_BUDGET: usize = 2 * MAGAZINE * all_classes();

/// Bytes of buffers the depot may hold: [`DEPOT_MAGAZINES`] magazines of
/// every class (3,317,760 B).
const DEPOT_BUDGET: usize = DEPOT_MAGAZINES * MAGAZINE * all_classes();

const _: () = assert!(class_size(CLASSES - 1) == LARGEST_CLASS);
const _: () = assert!(THREAD_BUDGET == 829_440 && DEPOT_BUDGET == 3_317_760);

/// The class whose storage is the smallest that holds `len > 0` bytes, or
/// `None` past [`LARGEST_CLASS`].
fn class_of(len: usize) -> Option<usize> {
    if len <= SMALLEST_CLASS {
        return Some(0);
    }
    if len > LARGEST_CLASS {
        return None;
    }
    // With n = len - 1 = q · 2^(k-2) + r, q in 4..8: the class size is
    // (q + 1) · 2^(k-2).
    let n = len - 1;
    let k = n.ilog2() as usize;
    let q = n >> (k - 2);
    Some((k - 6) * 4 + (q - 4) + 1)
}

/// One thread's two magazines of one class; each is empty or full
/// whenever the thread is outside this module.
struct Rounds {
    loaded: Vec<Arc<[u8]>>,
    previous: Vec<Arc<[u8]>>,
}

impl Rounds {
    const EMPTY: Rounds = Rounds {
        loaded: Vec::new(),
        previous: Vec::new(),
    };

    /// A uniquely owned buffer of class `class`, if this thread or the
    /// depot has one.
    fn take(&mut self, class: usize) -> Option<Arc<[u8]>> {
        if self.loaded.is_empty() {
            if self.previous.is_empty() {
                let mut shelf = DEPOT[class].lock().ok()?;
                let full = shelf.full.pop()?;
                let empty = mem::replace(&mut self.loaded, full);
                if empty.capacity() != 0 && shelf.empty.len() < DEPOT_MAGAZINES {
                    shelf.empty.push(empty);
                }
            } else {
                mem::swap(&mut self.loaded, &mut self.previous);
            }
        }
        self.loaded.pop()
    }

    /// Keeps `buffer`, uniquely owned and of class `class`, or frees it
    /// when this thread's magazines and the depot's shelf are full.
    fn give(&mut self, class: usize, buffer: Arc<[u8]>) {
        if self.loaded.len() == MAGAZINE {
            if self.previous.is_empty() {
                mem::swap(&mut self.loaded, &mut self.previous);
            } else {
                let Ok(mut shelf) = DEPOT[class].lock() else {
                    return;
                };
                if shelf.full.len() == DEPOT_MAGAZINES {
                    return;
                }
                let empty = shelf.empty.pop().unwrap_or_default();
                let full = mem::replace(&mut self.previous, mem::replace(&mut self.loaded, empty));
                shelf.full.push(full);
            }
        }
        if self.loaded.capacity() == 0 {
            self.loaded.reserve_exact(MAGAZINE);
        }
        self.loaded.push(buffer);
    }
}

/// The depot's magazines of one class.
struct Shelf {
    full: Vec<Vec<Arc<[u8]>>>,
    empty: Vec<Vec<Arc<[u8]>>>,
}

static DEPOT: [Mutex<Shelf>; CLASSES] = [const {
    Mutex::new(Shelf {
        full: Vec::new(),
        empty: Vec::new(),
    })
}; CLASSES];

thread_local! {
    static MAGAZINES: RefCell<[Rounds; CLASSES]> = const { RefCell::new([Rounds::EMPTY; CLASSES]) };
}

/// A uniquely owned buffer of class `class` from this thread's magazines
/// or the depot, if either has one.
fn recycled(class: usize) -> Option<Arc<[u8]>> {
    MAGAZINES
        .try_with(|magazines| magazines.try_borrow_mut().ok()?[class].take(class))
        .ok()
        .flatten()
}

/// Returns `buffer` to this thread's magazines if it is pooled and this
/// handle was its last; otherwise just releases it.
fn recycle(mut buffer: Arc<[u8]>) {
    let Some(class) = class_of(buffer.len()) else {
        return;
    };
    if class_size(class) != buffer.len() || Arc::get_mut(&mut buffer).is_none() {
        return;
    }
    let _ = MAGAZINES.try_with(|magazines| {
        if let Ok(mut magazines) = magazines.try_borrow_mut() {
            magazines[class].give(class, buffer);
        }
    });
}

/// A cheaply clonable, immutable, reference-counted byte buffer.
///
/// Clones share the same backing allocation, so fanning a payload out to
/// many consumers never copies the data.  The allocation may be longer
/// than the buffer (see the [crate docs](crate)); only the first
/// [`len`](Self::len) bytes are ever readable.
#[derive(Clone, Default)]
pub struct Bytes {
    len: usize,
    /// `None` only for an empty buffer.
    storage: Option<Arc<[u8]>>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A uniquely owned buffer holding `data`, or `len` zero bytes when
    /// `data` is `None` (`len` is `data`'s length otherwise).
    ///
    /// A recycled buffer is written once, and so is a new one past the
    /// largest class.  A new pooled buffer is zeroed whole and then copied
    /// into: in safe code the one-pass alternative is collecting the data
    /// chained with its padding, which goes byte by byte and measured 7
    /// times slower than zeroing and copying at 1 KiB and 19 times at
    /// 1.5 KiB (x86-64, glibc).  Only a pool miss takes this path.
    fn build(len: usize, data: Option<&[u8]>) -> Self {
        if len == 0 {
            return Self::new();
        }
        let storage = match class_of(len).map(|class| (class, recycled(class))) {
            Some((_, Some(mut storage))) => {
                let buf = &mut Arc::get_mut(&mut storage).expect("a pooled buffer is unique")[..len];
                match data {
                    Some(data) => buf.copy_from_slice(data),
                    None => buf.fill(0),
                }
                storage
            }
            Some((class, None)) => {
                let mut storage: Arc<[u8]> = repeat_n(0, class_size(class)).collect();
                if let Some(data) = data {
                    let buf = Arc::get_mut(&mut storage).expect("a new buffer is unique");
                    buf[..len].copy_from_slice(data);
                }
                storage
            }
            None => data.map_or_else(|| repeat_n(0, len).collect(), Arc::from),
        };
        Self {
            len,
            storage: Some(storage),
        }
    }

    /// A buffer of `len` zero bytes, uniquely owned: the way to *build* a
    /// buffer in place.  [`make_mut`](Self::make_mut) on the fresh handle
    /// writes straight into its storage (no `Vec` filled first and copied
    /// behind the reference count afterwards); once the handle has been
    /// cloned, `make_mut` copies before writing as it does for any shared
    /// buffer.  The storage may be recycled; its first `len` bytes are
    /// zeroed either way.  (Not in the real crate, which spells this
    /// `BytesMut::zeroed(len)` … `freeze()`.)
    pub fn zeroed(len: usize) -> Self {
        Self::build(len, None)
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::build(data.len(), Some(data))
    }

    /// Creates a buffer from a static slice (copies; the real crate borrows,
    /// but no caller in this workspace observes the difference).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Returns `true` if this handle is the only one referencing the
    /// backing allocation (so [`make_mut`](Self::make_mut) will not copy).
    pub fn is_unique(&self) -> bool {
        self.storage
            .as_ref()
            .is_none_or(|storage| Arc::strong_count(storage) == 1)
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
        if !self.is_unique() {
            *self = Self::copy_from_slice(self);
        }
        match &mut self.storage {
            Some(storage) => {
                &mut Arc::get_mut(storage).expect("unique after copy-on-write")[..self.len]
            }
            None => &mut [],
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        if let Some(storage) = self.storage.take() {
            recycle(storage);
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.storage {
            Some(storage) => &storage[..self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self::copy_from_slice(&data)
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
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &byte in self.iter() {
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
        assert_ne!(
            built.as_ptr(),
            sibling.as_ptr(),
            "written through a private copy"
        );
        assert_eq!(Bytes::zeroed(0), Bytes::new());
    }

    #[test]
    fn every_length_gets_the_smallest_class_that_holds_it() {
        assert_eq!(
            (class_of(1), class_of(64), class_of(65)),
            (Some(0), Some(0), Some(1))
        );
        assert_eq!(class_of(LARGEST_CLASS + 1), None);
        for len in 1..=LARGEST_CLASS {
            let class = class_of(len).expect("pooled length");
            assert!(class_size(class) >= len, "class {class} holds {len}");
            assert!(
                class == 0 || class_size(class - 1) < len,
                "no smaller class holds {len}"
            );
        }
    }
}
