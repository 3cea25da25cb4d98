//! Little-endian flat-array encoding primitives.
//!
//! Section payloads are sequences of *fields*: scalars (written as
//! fixed-width little-endian integers) and arrays (a `u64` element count
//! followed by the packed elements, zero-padded to the next 8-byte
//! boundary). Everything is position-based — no field names, no varints —
//! so the byte layout in `docs/FORMAT.md` is exact and a large array's
//! bytes are directly `mmap`-able by a future zero-copy reader.
//!
//! [`FieldWriter`] produces a payload; [`FieldReader`] consumes one, with
//! every over-read reported as a typed [`SnapshotError::Malformed`] naming
//! the section (the payload checksum has already passed by the time a
//! reader runs, so a decode failure means an encoder bug or a forged
//! file, not bit rot).

use crate::error::SnapshotError;
use crate::format::SectionTag;

/// Append-only payload writer.
#[derive(Default)]
pub struct FieldWriter {
    buf: Vec<u8>,
}

impl FieldWriter {
    /// Starts an empty payload.
    pub fn new() -> Self {
        FieldWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Zero-pads to the next 8-byte boundary.
    pub fn pad8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Writes a `u32` scalar.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32` scalar.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` scalar.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes `count` as the array-length prefix.
    fn put_len(&mut self, count: usize) {
        self.put_u64(count as u64);
    }

    /// Writes a `u8` array (length prefix + bytes + padding).
    pub fn put_u8_slice(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
        self.pad8();
    }

    /// Writes a `u32` array (length prefix + packed LE elements + padding).
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_len(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self.pad8();
    }

    /// Writes a `u64` array (length prefix + packed LE elements; already
    /// 8-aligned).
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_len(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Sequential payload reader over a checksum-verified section.
pub struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: SectionTag,
}

impl<'a> FieldReader<'a> {
    /// Reads `bytes`, attributing failures to `section`.
    pub fn new(section: SectionTag, bytes: &'a [u8]) -> Self {
        FieldReader {
            buf: bytes,
            pos: 0,
            section,
        }
    }

    /// The section this reader decodes (for error construction).
    pub fn section(&self) -> SectionTag {
        self.section
    }

    /// A [`SnapshotError::Malformed`] in this section.
    pub fn malformed(&self, reason: &'static str) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section,
            reason,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(self.malformed("payload ends mid-field"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Skips padding up to the next 8-byte boundary.
    pub fn align8(&mut self) -> Result<(), SnapshotError> {
        let rem = self.pos % 8;
        if rem != 0 {
            self.take(8 - rem)?;
        }
        Ok(())
    }

    /// Reads a `u32` scalar.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `i32` scalar.
    pub fn get_i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` scalar.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an array-length prefix, bounding it by the bytes that could
    /// possibly follow (`elem_size` bytes per element) so a forged length
    /// cannot trigger a huge allocation.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let count = self.get_u64()?;
        let available = (self.buf.len() - self.pos) as u64;
        if count
            .checked_mul(elem_size as u64)
            .is_none_or(|bytes| bytes > available)
        {
            return Err(self.malformed("array length exceeds the payload"));
        }
        Ok(count as usize)
    }

    /// Reads a `u8` array.
    pub fn get_u8_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_len(1)?;
        let out = self.take(n)?.to_vec();
        self.align8()?;
        Ok(out)
    }

    /// Reads a `u32` array.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.get_len(4)?;
        let bytes = self.take(n * 4)?;
        let out = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.align8()?;
        Ok(out)
    }

    /// Reads a `u64` array.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.get_len(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Fails unless every payload byte has been consumed — trailing bytes
    /// mean the reader and writer disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(self.malformed("trailing bytes after the last field"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> SectionTag {
        SectionTag(*b"test\0\0\0\0")
    }

    #[test]
    fn scalar_and_array_roundtrip() {
        let mut w = FieldWriter::new();
        w.put_u64(42);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u8_slice(&[9, 8]);
        w.put_i32(-7);
        w.put_u32(5);
        let bytes = w.into_bytes();

        let mut r = FieldReader::new(tag(), &bytes);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u8_vec().unwrap(), vec![9, 8]);
        assert_eq!(r.get_i32().unwrap(), -7);
        assert_eq!(r.get_u32().unwrap(), 5);
        r.expect_end().unwrap();
    }

    #[test]
    fn arrays_are_8_aligned() {
        let mut w = FieldWriter::new();
        w.put_u8_slice(&[1, 2, 3]); // 8 (len) + 3 + 5 pad
        assert_eq!(w.into_bytes().len(), 16);
    }

    #[test]
    fn over_read_is_typed_not_panic() {
        let mut w = FieldWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = FieldReader::new(tag(), &bytes);
        assert!(matches!(
            r.get_u64(),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn forged_length_is_rejected() {
        let mut w = FieldWriter::new();
        w.put_u64(u64::MAX); // a length prefix promising 2^64 elements
        let bytes = w.into_bytes();
        let mut r = FieldReader::new(tag(), &bytes);
        assert!(matches!(
            r.get_u32_vec(),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = FieldWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = FieldReader::new(tag(), &bytes);
        assert_eq!(r.get_u64().unwrap(), 1);
        assert!(r.expect_end().is_err());
    }
}
