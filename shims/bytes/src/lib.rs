//! Offline stand-in for the `bytes` crate: [`Bytes`], [`BytesMut`] and the
//! [`BufMut`] write methods the workspace's wire module uses, backed by a
//! plain `Vec<u8>`.

use std::ops::Deref;

/// An immutable byte buffer (cheaply cloneable via `Arc` in upstream; a
/// plain `Vec` here, which the workspace's usage never notices).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.to_vec() }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends a single byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// A mutable, growable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefixed_round_trip() {
        let payload = [7u8, 8, 9];
        let mut buf = BytesMut::with_capacity(payload.len() + 4);
        buf.put_u32(payload.len() as u32);
        buf.put_slice(&payload);
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 7);
        assert_eq!(&frozen[..4], &[0, 0, 0, 3]);
        assert_eq!(&frozen[4..], &payload);
    }

    #[test]
    fn big_endian_writers() {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u16(0x0203);
        buf.put_u64(0x0405_0607_0809_0A0B);
        assert_eq!(&buf[..], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }
}
