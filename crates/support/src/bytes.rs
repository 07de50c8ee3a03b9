//! Byte-buffer types replacing the `bytes` crate: a cheaply-cloneable
//! immutable [`Bytes`] and a growable write buffer [`ByteBuf`] with
//! `put_*` methods.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Deref, DerefMut};
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
///
/// It shares one `Vec<u8>`, so converting a vector (or freezing a
/// [`ByteBuf`]) moves the buffer in without copying its bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Self::from(slice.to_vec())
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
        Self { data: Arc::new(v) }
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

/// A growable byte buffer with `put_*` writers, replacing
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

    /// Converts to an immutable [`Bytes`] without copying, releasing the
    /// spare capacity (the bytes no longer grow, and an immutable buffer
    /// may live long: a served stream crosses a whole session).
    #[must_use]
    pub fn freeze(mut self) -> Bytes {
        self.data.shrink_to_fit();
        Bytes::from(self.data)
    }
}

impl Deref for ByteBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for ByteBuf {
    /// Overwrites bytes already written, e.g. a header reserved up front.
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytebuf_writes_and_freezes() {
        let mut b = ByteBuf::with_capacity(8);
        b.put_u8(0xAB);
        b.put_slice(&0x1234u16.to_le_bytes());
        b.put_slice(&0xDEAD_BEEFu32.to_le_bytes());
        b.put_slice(&[1, 2]);
        assert_eq!(b.len(), 9);
        let frozen = b.freeze();
        assert_eq!(&frozen[..3], &[0xAB, 0x34, 0x12]);
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
    }

    #[test]
    fn freeze_and_vector_conversion_keep_the_buffer() {
        let mut b = ByteBuf::with_capacity(40);
        b.put_slice(&[7; 40]);
        b[..2].copy_from_slice(&[1, 2]);
        let addr = b.as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), addr, "freeze moves the buffer, it does not copy it");
        assert_eq!(&frozen[..3], &[1, 2, 7]);
        assert_eq!(frozen.clone().as_ptr(), addr, "a clone shares the buffer");
        let v = vec![3u8; 10];
        let addr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), addr, "a vector converts without a copy");
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
