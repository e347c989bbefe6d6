//! The single byte-emission point of the snapshot format.
//!
//! Every little-endian scalar written into or read out of an `HSNP`
//! snapshot flows through [`ByteWriter`] / [`ByteReader`]; no other
//! module of this crate may call `to_le_bytes` (lint rule R9
//! `unversioned-serialization` enforces this). Keeping the emission
//! surface in one file is what makes the format *versioned* in
//! practice: a layout change is a change to this file plus a bump of
//! the format version, never an ad-hoc byte splice elsewhere.

use crate::StoreError;

/// FNV-1a over a byte slice — the workspace-standard checksum, one
/// pass of [`hopspan_core::Fnv1a`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = hopspan_core::Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Append-only little-endian scalar writer backing every encoded
/// section and the snapshot frame itself.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub fn put_u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// A `usize` as u64 (the format is 64-bit regardless of host).
    pub fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }

    /// An optional index with `u64::MAX` as the None sentinel.
    pub fn put_opt_usize(&mut self, x: Option<usize>) {
        match x {
            Some(v) => self.put_usize(v),
            None => self.put_u64(u64::MAX),
        }
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A length-prefixed packed bit vector: `u64` bool count, then
    /// `ceil(count / 64)` words, LSB-first within each word.
    pub fn put_bools(&mut self, bits: &[bool]) {
        self.put_usize(bits.len());
        let mut word = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                word |= 1u64 << (i % 64);
            }
            if i % 64 == 63 {
                self.put_u64(word);
                word = 0;
            }
        }
        if !bits.len().is_multiple_of(64) {
            self.put_u64(word);
        }
    }
}

/// Bounds-checked little-endian scalar reader over a snapshot slice.
/// Every shortfall is a typed [`StoreError::Truncated`]; no read
/// panics.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(StoreError::Truncated {
                need: n,
                got: self.remaining(),
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, StoreError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.get_u64()?).map_err(|_| StoreError::Malformed {
            what: "value exceeds the address space",
        })
    }

    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, StoreError> {
        let raw = self.get_u64()?;
        if raw == u64::MAX {
            return Ok(None);
        }
        usize::try_from(raw)
            .map(Some)
            .map_err(|_| StoreError::Malformed {
                what: "value exceeds the address space",
            })
    }

    /// Reads an element count that is about to drive a `count ×
    /// elem_size`-byte bulk read, rejecting counts the remaining bytes
    /// cannot possibly satisfy — so a forged length can never trigger
    /// an attacker-sized allocation.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let count = self.get_usize()?;
        let total = count.checked_mul(elem_size.max(1));
        if total.is_none_or(|t| t > self.remaining()) {
            return Err(StoreError::Malformed {
                what: "length prefix exceeds the section",
            });
        }
        Ok(count)
    }

    /// Inverse of [`ByteWriter::put_bools`].
    pub fn get_bools(&mut self) -> Result<Vec<bool>, StoreError> {
        let count = self.get_usize()?;
        let words = count.div_ceil(64);
        if words.checked_mul(8).is_none_or(|t| t > self.remaining()) {
            return Err(StoreError::Malformed {
                what: "length prefix exceeds the section",
            });
        }
        let mut bits = Vec::with_capacity(count);
        for _ in 0..words {
            let word = self.get_u64()?;
            let in_word = (count - bits.len()).min(64);
            for b in 0..in_word {
                bits.push(word >> b & 1 == 1);
            }
            if in_word < 64 && word >> in_word != 0 {
                return Err(StoreError::Malformed {
                    what: "stray bits in packed boolean words",
                });
            }
        }
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Offset basis and the classic "a" test vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_opt_usize(None);
        w.put_opt_usize(Some(42));
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_opt_usize().unwrap(), None);
        assert_eq!(r.get_opt_usize().unwrap(), Some(42));
        assert!(r.is_empty());
        assert!(matches!(r.get_u8(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn bool_packing_round_trip() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut w = ByteWriter::new();
            w.put_bools(&bits);
            let bytes = w.into_inner();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_bools().unwrap(), bits, "n={n}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn stray_bits_rejected() {
        let mut w = ByteWriter::new();
        w.put_usize(3); // three bools...
        w.put_u64(0xFF); // ...but high bits set beyond bit 2
        let bytes = w.into_inner();
        assert!(matches!(
            ByteReader::new(&bytes).get_bools(),
            Err(StoreError::Malformed {
                what: "stray bits in packed boolean words"
            })
        ));
    }

    #[test]
    fn forged_length_is_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2); // absurd element count
        let bytes = w.into_inner();
        assert!(matches!(
            ByteReader::new(&bytes).get_len(8),
            Err(StoreError::Malformed { .. })
        ));
    }
}
