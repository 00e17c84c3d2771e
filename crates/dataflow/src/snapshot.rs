//! Field snapshots and the shared binary codec used by both golden-data
//! files (`FV3GOLD1`, `validate::savepoint`) and checkpoints
//! (`FV3CKPT1`, `fv3core::checkpoint`).
//!
//! A [`FieldSnapshot`] stores one field's values in *canonical logical
//! order* (k outer, j, i inner, halo included — [`Array3::export_logical`]),
//! so a snapshot is independent of the storage order / alignment of the
//! array it came from: a run with K-contiguous storage replays or
//! resumes bit-identically against a snapshot taken with the FORTRAN
//! I-contiguous layout.
//!
//! The decode path is hardened against hostile or truncated input: every
//! length is validated against the bytes actually remaining *before* any
//! allocation, and all extent arithmetic is checked — a corrupt header
//! produces a descriptive `Err`, never a panic, OOM, or capacity
//! overflow. Both file formats funnel through [`FieldSnapshot::decode`]
//! and [`Reader`], so the corruption-mode tests in `validate` cover the
//! checkpoint path too.

use crate::storage::{Array3, Layout};

/// One field: name, logical shape, and values in canonical logical order
/// (halo included).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSnapshot {
    /// Field name (`"delp"`, `"xfx"`, ...).
    pub name: String,
    /// Compute-domain extent `[ni, nj, nk]`.
    pub domain: [usize; 3],
    /// Halo width per axis.
    pub halo: [usize; 3],
    /// `(ni + 2hi)(nj + 2hj)(nk + 2hk)` values, k outermost / i innermost.
    pub values: Vec<f64>,
}

impl FieldSnapshot {
    /// Snapshot an array (halo included).
    pub fn capture(name: &str, array: &Array3) -> Self {
        let l = array.layout();
        FieldSnapshot {
            name: name.to_string(),
            domain: l.domain,
            halo: l.halo,
            values: array.export_logical(),
        }
    }

    /// Rebuild an array (default FV3 layout) holding the snapshot values.
    pub fn to_array(&self) -> Array3 {
        let mut a = Array3::zeros(Layout::fv3_default(self.domain, self.halo));
        a.import_logical(&self.values);
        a
    }

    /// Logical coordinates of flat element `idx` of `values`.
    pub fn index_of(&self, idx: usize) -> (i64, i64, i64) {
        let wi = self.domain[0] + 2 * self.halo[0];
        let wj = self.domain[1] + 2 * self.halo[1];
        let i = (idx % wi) as i64 - self.halo[0] as i64;
        let j = ((idx / wi) % wj) as i64 - self.halo[1] as i64;
        let k = (idx / (wi * wj)) as i64 - self.halo[2] as i64;
        (i, j, k)
    }

    /// Whether flat element `idx` lies in the compute domain (not halo).
    pub fn in_domain(&self, idx: usize) -> bool {
        let (i, j, k) = self.index_of(idx);
        let d = self.domain;
        (0..d[0] as i64).contains(&i)
            && (0..d[1] as i64).contains(&j)
            && (0..d[2] as i64).contains(&k)
    }

    /// FNV-1a over the value bit patterns — the per-field integrity
    /// checksum of the `FV3CKPT1` format. Bit-exact: distinguishes
    /// `-0.0` from `0.0` and every NaN payload.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.values {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Append the wire encoding: name, domain, halo, count, value bits.
    ///
    /// This is the exact field layout of the `FV3GOLD1` format (and the
    /// per-field body of `FV3CKPT1`); changing it invalidates checked-in
    /// golden files.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        for d in 0..3 {
            put_u32(out, self.domain[d] as u32);
        }
        for d in 0..3 {
            put_u32(out, self.halo[d] as u32);
        }
        put_u32(out, self.values.len() as u32);
        for v in &self.values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Decode one field from `r`, validating every length against the
    /// remaining input before allocating.
    pub fn decode(r: &mut Reader<'_>) -> Result<FieldSnapshot, String> {
        let name = r.string()?;
        let mut domain = [0usize; 3];
        let mut halo = [0usize; 3];
        for d in &mut domain {
            *d = r.u32()? as usize;
        }
        for h in &mut halo {
            *h = r.u32()? as usize;
        }
        let n_vals = r.u32()? as usize;
        // Checked extent arithmetic: 32-bit dims can overflow the
        // product on 32-bit hosts and produce absurd extents on any
        // host; a corrupt header must not panic.
        let mut expect: usize = 1;
        for d in 0..3 {
            let w = halo[d]
                .checked_mul(2)
                .and_then(|h2| domain[d].checked_add(h2))
                .ok_or_else(|| format!("field '{name}': axis {d} extent overflows"))?;
            expect = expect
                .checked_mul(w)
                .ok_or_else(|| format!("field '{name}': logical extent overflows"))?;
        }
        if n_vals != expect {
            return Err(format!(
                "field '{name}': {n_vals} values for logical extent {expect}"
            ));
        }
        // Bound the allocation by the bytes actually present: a corrupt
        // count must fail cleanly, not reserve gigabytes.
        if r.remaining() / 8 < n_vals {
            return Err(format!(
                "field '{name}': {n_vals} values but only {} bytes remain",
                r.remaining()
            ));
        }
        let mut values = Vec::with_capacity(n_vals);
        for _ in 0..n_vals {
            values.push(f64::from_bits(r.u64()?));
        }
        Ok(FieldSnapshot {
            name,
            domain,
            halo,
            values,
        })
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64` bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an input buffer. Every accessor returns
/// a descriptive `Err` on truncation instead of panicking.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `bytes` from the beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated input: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf-8 string: {e}"))
    }

    /// Validate a claimed element count against the remaining bytes: a
    /// plausible input must still hold at least `min_bytes_each * n`
    /// bytes. Guards `Vec::with_capacity` against corrupt headers.
    pub fn check_count(&self, n: usize, min_bytes_each: usize, what: &str) -> Result<(), String> {
        if min_bytes_each > 0 && self.remaining() / min_bytes_each < n {
            return Err(format!(
                "implausible {what} count {n}: only {} bytes remain",
                self.remaining()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FieldSnapshot {
        let l = Layout::fv3_default([3, 2, 2], [1, 1, 0]);
        let a = Array3::from_fn(l, |i, j, k| i as f64 + 10.0 * j as f64 + 0.5 * k as f64);
        FieldSnapshot::capture("xfx", &a)
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_identical() {
        let s = sample();
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let s2 = FieldSnapshot::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(s.name, s2.name);
        for (a, b) in s.values.iter().zip(&s2.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let s = sample();
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        for cut in [0, 3, 4, 10, bytes.len() - 1] {
            let err = FieldSnapshot::decode(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn huge_value_count_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        put_str(&mut bytes, "delp");
        // domain (u32::MAX)³, zero halo: extent arithmetic must not panic.
        for _ in 0..3 {
            put_u32(&mut bytes, u32::MAX);
        }
        for _ in 0..3 {
            put_u32(&mut bytes, 0);
        }
        put_u32(&mut bytes, u32::MAX);
        let err = FieldSnapshot::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("overflow"), "{err}");

        // Plausible extent, but the values are missing: must report the
        // shortfall before reserving the buffer.
        let mut bytes = Vec::new();
        put_str(&mut bytes, "delp");
        put_u32(&mut bytes, 1000);
        put_u32(&mut bytes, 1000);
        put_u32(&mut bytes, 100);
        for _ in 0..3 {
            put_u32(&mut bytes, 0);
        }
        put_u32(&mut bytes, 100_000_000);
        let err = FieldSnapshot::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("remain"), "{err}");
    }

    #[test]
    fn checksum_distinguishes_bit_patterns() {
        let mut a = sample();
        let c0 = a.checksum();
        assert_eq!(c0, sample().checksum(), "deterministic");
        let old = a.values[0];
        a.values[0] = -old; // sign flip only
        assert_ne!(a.checksum(), c0);
        a.values[0] = old;
        assert_eq!(a.checksum(), c0);
        // -0.0 vs 0.0 and NaN payloads are distinguished.
        a.values[1] = 0.0;
        let z = a.checksum();
        a.values[1] = -0.0;
        assert_ne!(a.checksum(), z);
    }

    #[test]
    fn reader_check_count_guards_allocations() {
        let bytes = [0u8; 16];
        let r = Reader::new(&bytes);
        assert!(r.check_count(2, 8, "field").is_ok());
        assert!(r.check_count(3, 8, "field").is_err());
        assert!(r.check_count(usize::MAX, 1, "savepoint").is_err());
    }
}
