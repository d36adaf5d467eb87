//! Hand-rolled little-endian wire framing.
//!
//! The build environment has no crates.io access, so there is no serde;
//! every message the transports move is encoded with the explicit
//! byte-level codec here. `f64` values round-trip through
//! `to_le_bytes`/`from_le_bytes`, which preserves the exact bit pattern —
//! the property the bitwise-equivalence guarantee of the multi-process
//! backend rests on.
//!
//! A frame on a stream is `[tag: u64 LE][len: u64 LE][len bytes]`.

use crate::{Error, Result};
use std::io::{Read, Write};

/// Refuse frames larger than this (corrupt headers would otherwise ask the
/// reader to allocate terabytes). Shared with the driver's pumping reader,
/// which peels frames out of its own buffer.
pub(crate) const MAX_FRAME_BYTES: u64 = 1 << 34;

/// Append-only message encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor-style message decoder over an encoded buffer.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// `count` 8-byte words, guarding the multiplication.
    fn take_words(&mut self, count: usize) -> Result<&'a [u8]> {
        let bytes = count
            .checked_mul(8)
            .ok_or_else(|| Error::transport(format!("absurd element count {count} in message")))?;
        self.take(bytes)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| Error::transport("decode offset overflow"))?;
        if end > self.buf.len() {
            return Err(Error::transport(format!(
                "truncated message: wanted {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| Error::transport("length exceeds usize"))
    }

    /// Read a little-endian `f64` (exact bit pattern).
    pub fn f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a one-byte bool.
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// Read a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.usize()?;
        let b = self.take_words(n)?;
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.usize()?;
        let b = self.take_words(n)?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| Error::transport("invalid UTF-8 string"))
    }
}

/// Write one `[tag][len][payload]` frame (single `write_all`).
pub fn write_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&tag.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| Error::transport(format!("write frame: {e}")))
}

/// Blocking-read one frame; returns `(tag, payload)`.
pub fn read_frame(r: &mut impl Read) -> Result<(u64, Vec<u8>)> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)
        .map_err(|e| Error::transport(format!("read frame header: {e}")))?;
    let tag = u64::from_le_bytes(header[..8].try_into().unwrap());
    let len = u64::from_le_bytes(header[8..].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(Error::transport(format!("frame of {len} bytes refused")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| Error::transport(format!("read frame payload: {e}")))?;
    Ok((tag, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_slice_roundtrip_is_exact() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u64(u64::MAX - 3);
        e.put_f64(-0.1);
        e.put_bool(true);
        e.put_f64s(&[f64::MIN_POSITIVE, -0.0, f64::INFINITY, 1.0 / 3.0]);
        e.put_u64s(&[0, 1, u64::MAX]);
        e.put_str("ik,kj->ij");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.bool().unwrap());
        let fs = d.f64s().unwrap();
        assert_eq!(fs[0].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(fs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(fs[2], f64::INFINITY);
        assert_eq!(fs[3].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(d.u64s().unwrap(), vec![0, 1, u64::MAX]);
        assert_eq!(d.str().unwrap(), "ik,kj->ij");
    }

    #[test]
    fn truncated_messages_error_instead_of_panicking() {
        let mut e = Enc::new();
        e.put_f64s(&[1.0, 2.0, 3.0]);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes[..bytes.len() - 4]);
        assert!(d.f64s().is_err());
        let mut d = Dec::new(&[0xff; 8]);
        assert!(d.f64s().is_err(), "absurd length prefix must error");
    }

    #[test]
    fn garbage_never_panics_the_primitive_decoders() {
        // deterministic xorshift garbage through every Dec getter: typed
        // errors only, no panics, no absurd allocations
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..256 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut d = Dec::new(&bytes);
            match round % 7 {
                0 => drop(d.u8()),
                1 => drop(d.u64()),
                2 => drop(d.usize()),
                3 => drop(d.f64()),
                4 => drop(d.f64s()),
                5 => drop(d.u64s()),
                _ => drop(d.str()),
            }
        }
    }

    #[test]
    fn oversized_frame_headers_are_refused() {
        // a corrupt length field must not ask the reader to allocate
        // terabytes — the frame is refused before the payload read
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, b"hello").unwrap();
        write_frame(&mut buf, 43, &[]).unwrap();
        let mut r = &buf[..];
        let (tag, payload) = read_frame(&mut r).unwrap();
        assert_eq!((tag, payload.as_slice()), (42, b"hello".as_slice()));
        let (tag, payload) = read_frame(&mut r).unwrap();
        assert_eq!((tag, payload.len()), (43, 0));
        assert!(read_frame(&mut r).is_err(), "EOF must surface as an error");
    }
}
