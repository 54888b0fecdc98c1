//! Little-endian wire primitives for the snapshot format, plus CRC-32.
//!
//! Snapshots must load on a machine that did not write them, so every
//! multi-byte value is encoded explicitly little-endian; no in-memory
//! representation is ever written raw. The reader is total: every decode
//! returns a typed error instead of panicking, whatever the input bytes.

use crate::snapshot::SnapshotError;

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh writer with `cap` bytes preallocated. Section encoders pass
    /// an exact size so multi-MB payloads are written without a single
    /// `Vec` re-growth (the buffer's final `capacity()` equals its `len()`
    /// exactly when the hint was exact — the encoder tests assert this).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` by its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    ///
    /// # Panics
    /// Panics on strings longer than `u32::MAX` bytes (see [`len_u32`]).
    pub fn string(&mut self, s: &str) {
        self.u32(len_u32(s.len()));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `Option<i32>` as a presence byte plus the value when present.
    pub fn opt_i32(&mut self, v: Option<i32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.i32(x);
            }
            None => self.u8(0),
        }
    }

    /// `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

/// Convert a collection length to the `u32` the wire format stores.
///
/// This is the single sanctioned panic on the encode side: counts come from
/// in-memory `Vec`s that a 64-bit process cannot grow past `u32::MAX`
/// snapshot-relevant entries, and the decode side never calls it.
///
/// # Panics
/// Panics past `u32::MAX` entries.
#[must_use]
#[expect(clippy::expect_used, reason = "encode-side bound; decode never calls this")]
pub fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("collection length exceeds the wire format's u32 limit")
}

/// Cursor-based decoder over a byte slice; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.take(1)?.first().copied().ok_or(SnapshotError::Truncated)
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        let b = self.take(4)?.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(i32::from_le_bytes(b))
    }

    /// `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not valid UTF-8"))
    }

    /// `Option<i32>` written by [`Writer::opt_i32`].
    pub fn opt_i32(&mut self) -> Result<Option<i32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i32()?)),
            _ => Err(SnapshotError::Corrupt("invalid Option tag")),
        }
    }

    /// `bool` written by [`Writer::bool`].
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("invalid bool byte")),
        }
    }

    /// A collection length; rejects lengths that could not possibly fit in
    /// the remaining bytes (each element needs at least `min_elem_bytes`),
    /// so corrupt counts fail fast instead of triggering huge allocations.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "the table index is masked to 0..=255 against a [u32; 256] table"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = u32::try_from(i).unwrap_or(u32::MAX); // i < 256 by construction
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.f64(0.874_561);
        w.string("flora macrae");
        w.string("");
        w.opt_i32(Some(1885));
        w.opt_i32(None);
        w.bool(true);
        w.bool(false);

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -42);
        assert!((r.f64().unwrap() - 0.874_561).abs() < f64::EPSILON);
        assert_eq!(r.string().unwrap(), "flora macrae");
        assert_eq!(r.string().unwrap(), "");
        assert_eq!(r.opt_i32().unwrap(), Some(1885));
        assert_eq!(r.opt_i32().unwrap(), None);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = Writer::new();
        w.u64(123);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(SnapshotError::Truncated)), "cut at {cut}");
        }
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = Writer::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.string(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_is_truncated() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len(4), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"snaps"), crc32(b"snapt"));
    }
}
