//! Byte-buffer types replacing the `bytes` crate: a cheaply-cloneable
//! immutable [`Bytes`], a growable write buffer [`ByteBuf`] with
//! `put_*` methods, and a bounds-checked [`Cursor`] with `get_*` reads.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Shared Debug body for the two buffer types: length plus a short hex
/// prefix, which is what you want in assertion diffs.
macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let s: &[u8] = self.as_ref();
            write!(f, "b[{} bytes:", s.len())?;
            for b in s.iter().take(16) {
                write!(f, " {b:02x}")?;
            }
            if s.len() > 16 {
                write!(f, " …")?;
            }
            write!(f, "]")
        }
    };
}

/// An immutable, reference-counted byte string. Cloning is O(1).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self { data: Arc::from(&[][..]) }
    }

    /// Copies a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Self { data: Arc::from(slice) }
    }

    /// The contents as a plain slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
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
    fn from(v: Vec<u8>) -> Self {
        Self { data: Arc::from(v.into_boxed_slice()) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.as_slice().to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

/// A growable byte buffer with little-endian `put_*` writers, replacing
/// `bytes::BytesMut`/`BufMut` for the codec bitstream.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self { data: Vec::with_capacity(cap) }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice.
    pub fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Reserves capacity for at least `additional` more bytes, so a
    /// caller that knows its output size up front can pre-size the
    /// buffer and keep the append loop allocation-free.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Number of bytes written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts to an immutable [`Bytes`] without copying.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for ByteBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for ByteBuf {
    fmt_bytes_debug!();
}

/// A bounds-checked forward reader with little-endian `get_*` methods.
/// Every read returns `None` past the end instead of panicking, which
/// is what a parser fed hostile input needs.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current read offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a `u16`, little-endian.
    pub fn get_u16_le(&mut self) -> Option<u16> {
        self.get_slice(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a `u32`, little-endian.
    pub fn get_u32_le(&mut self) -> Option<u32> {
        self.get_slice(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a `u64`, little-endian.
    pub fn get_u64_le(&mut self) -> Option<u64> {
        self.get_slice(8).map(|s| {
            u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
        })
    }

    /// Reads `len` bytes as a subslice.
    pub fn get_slice(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let s = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytebuf_writes_and_freezes() {
        let mut b = ByteBuf::with_capacity(8);
        b.put_u8(0xAB);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_slice(&[1, 2]);
        assert_eq!(b.len(), 9);
        let frozen = b.freeze();
        assert_eq!(&frozen[..3], &[0xAB, 0x34, 0x12]);
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
    }

    #[test]
    fn cursor_round_trips_and_bounds_checks() {
        let mut b = ByteBuf::new();
        b.put_u8(7);
        b.put_u16_le(513);
        b.put_u32_le(70_000);
        b.put_u64_le(u64::MAX - 1);
        let frozen = b.freeze();
        let mut c = Cursor::new(&frozen);
        assert_eq!(c.get_u8(), Some(7));
        assert_eq!(c.get_u16_le(), Some(513));
        assert_eq!(c.get_u32_le(), Some(70_000));
        assert_eq!(c.get_u64_le(), Some(u64::MAX - 1));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.get_u8(), None, "reads past the end are None, not panics");
    }

    #[test]
    fn bytes_conversions() {
        let b: Bytes = vec![1u8, 2, 3].into();
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = Bytes::copy_from_slice(&b[1..]);
        assert_eq!(&c[..], &[2, 3]);
        assert_eq!(Vec::from(c), vec![2, 3]);
        assert_eq!(Bytes::new().len(), 0);
    }
}
