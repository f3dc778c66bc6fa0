//! Shared little-endian binary read/write helpers for the codecs.
//!
//! Originally private to the storage codecs (§2's MongoDB stand-ins),
//! these primitives are now the substrate of every binary format in the
//! workspace: the document codecs here, and the service's wire-plane
//! message codecs (`fairdms_service::net`) that frame `Request`/`Reply`
//! over real sockets. Everything is little-endian; every read is
//! bounds-checked and fails with [`OutOfBounds`] instead of panicking,
//! which is what makes the wire plane's decoder safe to point at
//! arbitrary network bytes.

/// Incremental reader over a byte slice with bounds-checked primitives.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Error raised when a reader runs off the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds;

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes as a slice. The position is unchanged on
    /// failure, so callers can recover (or report) precisely.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], OutOfBounds> {
        if n > self.bytes.len() - self.pos {
            return Err(OutOfBounds);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, OutOfBounds> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, OutOfBounds> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, OutOfBounds> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, OutOfBounds> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, OutOfBounds> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f32` (bit pattern preserved exactly).
    pub fn f32(&mut self) -> Result<f32, OutOfBounds> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64` (bit pattern preserved exactly).
    pub fn f64(&mut self) -> Result<f64, OutOfBounds> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a run of `n` little-endian `f32`s (bit patterns preserved
    /// exactly) under one bounds check: a claimed `n` the input does not
    /// hold fails before the vector exists.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, OutOfBounds> {
        self.run(n, f32::from_le_bytes)
    }

    /// Reads a run of `n` little-endian `u16`s ([`Reader::f32s`]).
    #[inline]
    pub fn u16s(&mut self, n: usize) -> Result<Vec<u16>, OutOfBounds> {
        self.run(n, u16::from_le_bytes)
    }

    #[inline]
    fn run<T, const W: usize>(
        &mut self,
        n: usize,
        from: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, OutOfBounds> {
        let raw = self.take(n.checked_mul(W).ok_or(OutOfBounds)?)?;
        let values = raw.chunks_exact(W).map(|c| from(c.try_into().unwrap()));
        Ok(values.collect())
    }
}

/// Write helpers over a growable buffer.
pub trait WriteExt {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a little-endian `i64`.
    fn put_i64(&mut self, v: i64);
    /// Appends a little-endian `f32` (bit pattern preserved exactly).
    fn put_f32(&mut self, v: f32);
    /// Appends a little-endian `f64` (bit pattern preserved exactly).
    fn put_f64(&mut self, v: f64);
    /// Appends a run of little-endian `f32`s (bit patterns preserved
    /// exactly), no length prefix.
    fn put_f32s(&mut self, v: &[f32]);
    /// Appends a run of little-endian `u16`s, no length prefix.
    fn put_u16s(&mut self, v: &[u16]);
}

impl WriteExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f32s(&mut self, v: &[f32]) {
        put_run(self, v, f32::to_le_bytes);
    }
    #[inline]
    fn put_u16s(&mut self, v: &[u16]) {
        put_run(self, v, u16::to_le_bytes);
    }
}

/// One reservation and a straight copy: a capacity check per element is
/// most of what writing a run one value at a time costs.
#[inline]
fn put_run<T: Copy, const W: usize>(out: &mut Vec<u8>, v: &[T], to: impl Fn(T) -> [u8; W]) {
    let at = out.len();
    out.resize(at + W * v.len(), 0);
    for (dst, &x) in out[at..].chunks_exact_mut(W).zip(v) {
        dst.copy_from_slice(&to(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16(513);
        buf.put_u32(70_000);
        buf.put_u64(1 << 40);
        buf.put_i64(-12);
        buf.put_f32(1.5);
        buf.put_f64(-2.25);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -12);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_detects_truncation() {
        let buf = vec![1u8, 2];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Err(OutOfBounds));
        // Position unchanged after a failed read.
        assert_eq!(r.u16().unwrap(), 513);
    }

    #[test]
    fn huge_take_does_not_overflow() {
        // A hostile length prefix near usize::MAX must not wrap the
        // bounds check into a success.
        let buf = vec![0u8; 4];
        let mut r = Reader::new(&buf);
        assert_eq!(r.take(usize::MAX), Err(OutOfBounds));
        assert_eq!(r.take(usize::MAX - 2), Err(OutOfBounds));
        assert_eq!(r.f32s(usize::MAX / 2), Err(OutOfBounds));
        assert_eq!(r.u16s(3), Err(OutOfBounds));
        assert_eq!(r.remaining(), 4);
    }
}
