//! The safe byte accessor layer: little-endian fixed-width scalars and
//! LEB128 varints.
//!
//! Every read of mapped pool bytes goes through these helpers: plain
//! `from_le_bytes` and byte-at-a-time varint loops over byte slices, with
//! no pointer casts and no alignment assumptions, so the format decodes
//! identically on any architecture and any mmap base address (the
//! `unaligned` tests feed these deliberately misaligned buffers). Every
//! read is bounds-checked: a short buffer is [`PoolError::Truncated`], a
//! varint that runs past 64 bits is [`PoolError::Corrupt`].

use crate::err::PoolError;

/// Zig-zag map a signed 16-bit delta onto `u16` (small magnitudes of
/// either sign become small values, so they varint-encode in one byte).
pub fn zigzag16(v: i16) -> u16 {
    ((v << 1) ^ (v >> 15)) as u16
}

/// Inverse of [`zigzag16`].
pub fn unzigzag16(u: u16) -> i16 {
    ((u >> 1) as i16) ^ -((u & 1) as i16)
}

/// Zig-zag map a signed 32-bit delta onto `u32`.
pub fn zigzag32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag32`].
pub fn unzigzag32(u: u32) -> i32 {
    ((u >> 1) as i32) ^ -((u & 1) as i32)
}

/// Why a varint failed to decode.
enum VarintFault {
    /// The buffer ended inside the varint.
    Truncated,
    /// A tenth byte carried bits past 63.
    Overflow,
}

/// Decode one LEB128 varint at `*pos`, advancing it. The one-byte case
/// is the fast path.
#[inline(always)]
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintFault> {
    let Some(&b) = buf.get(*pos) else { return Err(VarintFault::Truncated) };
    *pos += 1;
    if b < 0x80 {
        return Ok(u64::from(b));
    }
    let mut v = u64::from(b & 0x7f);
    let mut shift = 7;
    loop {
        let Some(&b) = buf.get(*pos) else { return Err(VarintFault::Truncated) };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(VarintFault::Overflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Sequential reader over a byte slice; all accesses bounds-checked,
/// short reads surface as [`PoolError::Truncated`].
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string for error messages ("what is being decoded").
    what: &'static str,
}

impl<'a> Cursor<'a> {
    /// Read `buf` from the start; `what` labels truncation errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Cursor<'a> {
        Cursor { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, need: u64) -> PoolError {
        PoolError::Truncated { what: self.what, need, have: self.buf.len() as u64 }
    }

    fn corrupt(&self, why: impl std::fmt::Display) -> PoolError {
        PoolError::Corrupt { what: format!("{}: {why}", self.what) }
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PoolError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated(u64::MAX))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| self.truncated(end as u64))?;
        self.pos = end;
        Ok(s)
    }

    /// One `u8`.
    pub fn u8(&mut self) -> Result<u8, PoolError> {
        Ok(self.bytes(1)?[0])
    }

    /// One little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PoolError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    /// One little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PoolError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PoolError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// A `u64` length field validated to fit in memory as a count.
    pub fn len_u64(&mut self) -> Result<usize, PoolError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format_args!("length {v} overflows usize")))
    }

    /// A column of `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, PoolError> {
        let total = n
            .checked_mul(4)
            .ok_or_else(|| self.corrupt(format_args!("column of {n} x 4 bytes overflows")))?;
        let raw = self.bytes(total)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// A column of `n` raw bytes.
    pub fn u8s(&mut self, n: usize) -> Result<&'a [u8], PoolError> {
        self.bytes(n)
    }

    /// One LEB128 varint (seven bits per byte, low group first, high bit
    /// set on every byte but the last) that must not exceed `max`, the
    /// width of the column it decodes into. A tenth byte that would
    /// overflow bit 63 is refused.
    #[inline]
    pub fn varint_max(&mut self, max: u64) -> Result<u64, PoolError> {
        match read_varint(self.buf, &mut self.pos) {
            Ok(v) if v <= max => Ok(v),
            Ok(v) => Err(self.corrupt(format_args!("varint {v} exceeds {max}"))),
            Err(f) => Err(self.fault(f)),
        }
    }

    fn fault(&self, f: VarintFault) -> PoolError {
        match f {
            VarintFault::Truncated => self.truncated(self.buf.len() as u64 + 1),
            VarintFault::Overflow => self.corrupt("varint overflows 64 bits"),
        }
    }

    /// Fail unless `n` more varints can fit (each takes at least one
    /// byte), so a corrupt count is refused before it sizes an
    /// allocation.
    pub fn expect_varints(&self, n: usize) -> Result<(), PoolError> {
        if n > self.remaining() {
            return Err(self.truncated((self.pos as u64).saturating_add(n as u64)));
        }
        Ok(())
    }

    /// Decode `n` varints, none above `max`, handing each to `f` in order.
    ///
    /// Wherever eight bytes remain, a varint of up to eight bytes decodes
    /// without a branch per byte: one 8-byte load, the first clear high
    /// bit gives its length, and three shift-and-mask steps pack its
    /// 7-bit groups. When all eight loaded bytes are one-byte varints
    /// (the common case: zeros and small deltas) they are emitted
    /// together.
    #[inline]
    pub fn varints_each(
        &mut self,
        n: usize,
        max: u64,
        mut f: impl FnMut(u64),
    ) -> Result<(), PoolError> {
        const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
        self.expect_varints(n)?;
        let buf = self.buf;
        let mut pos = self.pos;
        let mut left = n;
        while left > 0 {
            if let Some(chunk) = buf.get(pos..pos + 8) {
                let w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                let stops = !w & HIGH_BITS;
                if stops == HIGH_BITS && left >= 8 && max >= 0x7f {
                    for i in 0..8 {
                        f((w >> (8 * i)) & 0x7f);
                    }
                    pos += 8;
                    left -= 8;
                    continue;
                }
                if stops != 0 {
                    let len = (stops.trailing_zeros() / 8 + 1) as usize;
                    let mut x = w & (u64::MAX >> (64 - 8 * len)) & 0x7f7f_7f7f_7f7f_7f7f;
                    x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
                    x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
                    x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
                    if x > max {
                        return Err(self.corrupt(format_args!("varint {x} exceeds {max}")));
                    }
                    f(x);
                    pos += len;
                    left -= 1;
                    continue;
                }
            }
            match read_varint(buf, &mut pos) {
                Ok(v) if v <= max => f(v),
                Ok(v) => return Err(self.corrupt(format_args!("varint {v} exceeds {max}"))),
                Err(fault) => return Err(self.fault(fault)),
            }
            left -= 1;
        }
        self.pos = pos;
        Ok(())
    }

    /// A column of `n` varints.
    pub fn varints(&mut self, n: usize) -> Result<Vec<u64>, PoolError> {
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        self.varints_each(n, u64::MAX, |v| out.push(v))?;
        Ok(out)
    }

    /// Error unless the cursor consumed the slice exactly.
    pub fn finish(self) -> Result<(), PoolError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format_args!(
                "{} trailing bytes after decode",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Append-only encoder (the writer-side mirror of [`Cursor`]).
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Enc {
        Enc { buf: Vec::with_capacity(cap) }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append one `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a `u32` column, little-endian.
    pub fn u32s(&mut self, col: &[u32]) {
        self.buf.reserve(col.len() * 4);
        for v in col {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append one LEB128 varint (the inverse of [`Cursor::varint_max`]).
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a column of varints.
    pub fn varints(&mut self, col: &[u64]) {
        self.varints_iter(col.iter().copied());
    }

    /// Append every value of `vals` as a varint. Values are encoded in
    /// groups of eight into a scratch buffer: a group of one-byte values
    /// (the common case: zeros and small deltas) is one 8-byte store, and
    /// any other value below 2^56 is one 8-byte store with no branch per
    /// byte.
    pub fn varints_iter(&mut self, vals: impl IntoIterator<Item = u64>) {
        // Values per scratch flush; a multiple of the group size.
        const CHUNK: usize = 256;
        // Ten bytes per value at most, plus the tail of an 8-byte store.
        let mut scratch = [0u8; CHUNK * 10 + 8];
        let mut it = vals.into_iter();
        loop {
            let mut pos = 0;
            let mut done = 0;
            let mut ended = false;
            while done < CHUNK {
                let mut group = [0u64; 8];
                let mut k = 0;
                while k < 8 {
                    let Some(v) = it.next() else { break };
                    group[k] = v;
                    k += 1;
                }
                if k == 8 && group.iter().fold(0, |acc, &v| acc | v) < 0x80 {
                    let packed = group.iter().rev().fold(0u64, |acc, &v| acc << 8 | v);
                    scratch[pos..pos + 8].copy_from_slice(&packed.to_le_bytes());
                    pos += 8;
                } else {
                    for &v in &group[..k] {
                        pos += put_varint(&mut scratch, pos, v);
                    }
                }
                done += k;
                if k < 8 {
                    ended = true;
                    break;
                }
            }
            self.buf.extend_from_slice(&scratch[..pos]);
            if ended {
                return;
            }
        }
    }
}

/// Write `v` as a varint at `out[pos..]`, which must have at least ten
/// bytes (and eight past `pos` in any case); returns its length.
#[inline(always)]
fn put_varint(out: &mut [u8], pos: usize, v: u64) -> usize {
    const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
    if v < 0x80 {
        out[pos] = v as u8;
        return 1;
    }
    if v >= 1 << 56 {
        let mut v = v;
        let mut len = 0;
        while v >= 0x80 {
            out[pos + len] = v as u8 | 0x80;
            v >>= 7;
            len += 1;
        }
        out[pos + len] = v as u8;
        return len + 1;
    }
    let len = ((63 - (v | 1).leading_zeros()) / 7 + 1) as usize;
    // Spread the 7-bit groups one per byte: the inverse of the packing
    // in `Cursor::varints_each`.
    let mut x = v;
    x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x00ff_ffff_f000_0000) << 4);
    x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
    x |= HIGH_BITS & ((1u64 << (8 * (len - 1))) - 1);
    out[pos..pos + 8].copy_from_slice(&x.to_le_bytes());
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_truncation_is_typed() {
        let mut c = Cursor::new(&[1, 2, 3], "t");
        assert_eq!(c.u16().unwrap(), 0x0201);
        match c.u32() {
            Err(PoolError::Truncated { what: "t", need: 6, have: 3 }) => {}
            other => panic!("expected typed truncation, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.u32s(&[9]);
        e.varints(&[0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX]);
        let b = e.into_bytes();
        let mut c = Cursor::new(&b, "t");
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.u32s(1).unwrap(), vec![9]);
        assert_eq!(c.varints(7).unwrap(), vec![0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX]);
        c.finish().unwrap();
    }

    #[test]
    fn varint_sizes_and_overflow() {
        let len = |v: u64| {
            let mut e = Enc::new();
            e.varint(v);
            e.into_bytes().len()
        };
        assert_eq!((len(0), len(127), len(128), len(16_383), len(16_384)), (1, 1, 2, 2, 3));
        assert_eq!(len(u64::MAX), 10);
        // A tenth byte carrying more than bit 63 is refused, not wrapped.
        let mut over = vec![0xFFu8; 9];
        over.push(0x02);
        assert!(matches!(
            Cursor::new(&over, "t").varint_max(u64::MAX),
            Err(PoolError::Corrupt { .. })
        ));
        // An unterminated varint is a typed truncation.
        assert!(matches!(
            Cursor::new(&[0x80, 0x80], "t").varint_max(u64::MAX),
            Err(PoolError::Truncated { need: 3, .. })
        ));
        assert!(matches!(
            Cursor::new(&[0x80, 0x02], "t").varint_max(255),
            Err(PoolError::Corrupt { .. })
        ));
        // A count larger than the bytes left is refused before allocating.
        assert!(matches!(Cursor::new(&[0; 4], "t").varints(5), Err(PoolError::Truncated { .. })));
    }

    /// The chunked column writer emits exactly the bytes of one
    /// [`Enc::varint`] per value, across chunk boundaries and every
    /// length class.
    #[test]
    fn column_writer_matches_scalar_writer() {
        let vals: Vec<u64> = (0..3000u32)
            .map(|i| match i % 5 {
                0 => 0,
                1 => u64::from(i),
                2 => 1u64 << (i % 64),
                3 => (1u64 << (i % 64)) - 1,
                _ => u64::MAX - u64::from(i),
            })
            .collect();
        let mut scalar = Enc::new();
        for &v in &vals {
            scalar.varint(v);
        }
        let mut column = Enc::new();
        column.varints(&vals);
        column.varints_iter(std::iter::empty());
        assert_eq!(column.into_bytes(), scalar.into_bytes());
        let bytes = {
            let mut e = Enc::new();
            e.varints(&vals);
            e.into_bytes()
        };
        let mut c = Cursor::new(&bytes, "t");
        assert_eq!(c.varints(vals.len()).unwrap(), vals);
        c.finish().unwrap();
    }

    #[test]
    fn zigzag_roundtrips_every_edge() {
        for v in [0i16, 1, -1, 2, -2, i16::MAX, i16::MIN] {
            assert_eq!(unzigzag16(zigzag16(v)), v);
        }
        assert_eq!((zigzag16(0), zigzag16(-1), zigzag16(1), zigzag16(-2)), (0, 1, 2, 3));
        for v in [0i32, 1, -1, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag32(zigzag32(v)), v);
        }
        for u in [0u16, 1, 2, u16::MAX] {
            assert_eq!(zigzag16(unzigzag16(u)), u);
        }
    }
}
