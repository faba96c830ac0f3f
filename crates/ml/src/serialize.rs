//! A small binary codec for trained-model snapshots.
//!
//! The experiment engine's `ModelCache` stores trained classifiers as
//! byte blobs keyed by their training inputs. The vendored `serde` subset
//! has no derive support for deserializing trait objects, so models
//! serialize themselves through this explicit writer/reader pair instead:
//! little-endian `u64` words, `f64` via [`f64::to_bits`] (lossless, so a
//! cache round trip reproduces classifications byte-for-byte), and
//! length-prefixed byte strings.
//!
//! Blobs only ever travel through the in-process cache, so a malformed
//! blob is a bug, not an input error — the reader panics with a message
//! rather than threading `Result`s through every model.
//!
//! Model blobs are prefixed with [`CODEC_VERSION`]. Version 2 added raw
//! `i8` strings for the int8 `lowp` inference classifier; version 1 (the
//! unprefixed seed-era format) is no longer readable — the cache is
//! in-process, so old blobs cannot outlive the binary that wrote them.

use crate::linalg::Matrix;

/// Version byte prefixed to every model blob. Bumped to 2 when the
/// int8 primitives were added.
pub const CODEC_VERSION: u8 = 2;

/// Serializer accumulating a little-endian byte buffer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern (lossless round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    /// Writes a length-prefixed byte string (a nested blob).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed `i8` slice (int8 quantized codes).
    pub fn put_i8s(&mut self, vs: &[i8]) {
        self.put_usize(vs.len());
        self.buf.extend(vs.iter().map(|&v| v as u8));
    }

    /// Writes a matrix (shape then data).
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_usize(m.rows);
        self.put_usize(m.cols);
        for &v in &m.data {
            self.put_f64(v);
        }
    }
}

/// Deserializer walking a [`ByteWriter`] buffer.
///
/// # Panics
///
/// Every reader method panics on truncated input; blobs come from the
/// in-process cache, so truncation is a serializer bug.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from `data` starting at the front.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> u8 {
        let v = self.data[self.pos];
        self.pos += 1;
        v
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        let end = self.pos + 8;
        assert!(end <= self.data.len(), "model blob truncated at {}", self.pos);
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        u64::from_le_bytes(bytes)
    }

    /// Reads a `usize`.
    pub fn get_usize(&mut self) -> usize {
        self.get_u64() as usize
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Vec<f64> {
        let n = self.get_usize();
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn get_usizes(&mut self) -> Vec<usize> {
        let n = self.get_usize();
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Vec<u8> {
        let n = self.get_usize();
        let end = self.pos + n;
        assert!(end <= self.data.len(), "model blob truncated at {}", self.pos);
        let out = self.data[self.pos..end].to_vec();
        self.pos = end;
        out
    }

    /// Reads a length-prefixed `i8` vector.
    pub fn get_i8s(&mut self) -> Vec<i8> {
        let n = self.get_usize();
        let end = self.pos + n;
        assert!(end <= self.data.len(), "model blob truncated at {}", self.pos);
        let out = self.data[self.pos..end].iter().map(|&b| b as i8).collect();
        self.pos = end;
        out
    }

    /// Reads a matrix.
    pub fn get_matrix(&mut self) -> Matrix {
        let rows = self.get_usize();
        let cols = self.get_usize();
        let data = (0..rows * cols).map(|_| self.get_f64()).collect();
        Matrix { rows, cols, data }
    }

    /// True when the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-0.1);
        w.put_f64s(&[1.5, f64::MIN_POSITIVE, -0.0]);
        w.put_usizes(&[0, 9, 3]);
        w.put_bytes(&[0xAB, 0, 0xCD]);
        w.put_matrix(&Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.5));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.get_usize(), 42);
        assert_eq!(r.get_f64(), -0.1);
        let fs = r.get_f64s();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], 1.5);
        assert_eq!(fs[1], f64::MIN_POSITIVE);
        assert_eq!(fs[2].to_bits(), (-0.0f64).to_bits(), "sign of zero survives");
        assert_eq!(r.get_usizes(), vec![0, 9, 3]);
        assert_eq!(r.get_bytes(), vec![0xAB, 0, 0xCD]);
        let m = r.get_matrix();
        assert_eq!((m.rows, m.cols), (2, 3));
        assert_eq!(m.get(1, 2), 2.5);
        assert!(r.is_done());
    }

    #[test]
    fn round_trips_the_low_precision_primitives() {
        let mut w = ByteWriter::new();
        w.put_i8s(&[-127, -1, 0, 1, 127]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_i8s(), vec![-127, -1, 0, 1, 127]);
        assert!(r.is_done());
    }

    #[test]
    #[should_panic(expected = "model blob truncated")]
    fn truncated_blob_panics() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let _ = r.get_u64();
    }
}
