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
//! Blobs travel through the in-process caches and, when `YALI_STORE` is
//! set, through the on-disk artifact store, which frames each payload
//! behind checksums and this codec's version byte. A malformed blob is
//! still a bug rather than an input error, so the reader panics with a
//! message instead of threading `Result`s through every model. Every
//! length it reads is checked against the bytes left before anything is
//! allocated, so a corrupt length panics with "model blob truncated"
//! rather than reaching the allocator.
//!
//! Model blobs are prefixed with [`CODEC_VERSION`]; version 1 (the
//! unprefixed seed-era format) is no longer readable.

use crate::linalg::Matrix;

/// Version byte prefixed to every model blob and every store payload.
/// Version 2 added `i8` strings for an int8 classifier that has since
/// been deleted; the `f64` layout did not change with either step, so
/// the version stays 2. The store reads a mismatch as a miss, and a
/// bump would silently turn every existing store cold.
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
/// Every reader method panics with "model blob truncated" when the
/// buffer holds fewer bytes than the read needs, including when a
/// length read from the blob is too large to fit in it.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

/// Decodes one little-endian 8-byte word.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

impl<'a> ByteReader<'a> {
    /// Reads from `data` starting at the front.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Consumes `count` items of `width` bytes each. The arithmetic is
    /// checked, because `count` may come from a corrupt blob.
    fn take(&mut self, count: usize, width: usize) -> &'a [u8] {
        let end = count
            .checked_mul(width)
            .and_then(|len| self.pos.checked_add(len))
            .filter(|&end| end <= self.data.len());
        let Some(end) = end else {
            panic!("model blob truncated at {}", self.pos);
        };
        let out = &self.data[self.pos..end];
        self.pos = end;
        out
    }

    /// Consumes `n` consecutive 8-byte words.
    fn words(&mut self, n: usize) -> impl Iterator<Item = u64> + 'a {
        self.take(n, 8).chunks_exact(8).map(word)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1, 1)[0]
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        word(self.take(1, 8))
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
        self.words(n).map(f64::from_bits).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn get_usizes(&mut self) -> Vec<usize> {
        let n = self.get_usize();
        self.words(n).map(|w| w as usize).collect()
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Vec<u8> {
        let n = self.get_usize();
        self.take(n, 1).to_vec()
    }

    /// Reads a matrix.
    pub fn get_matrix(&mut self) -> Matrix {
        let rows = self.get_usize();
        let cols = self.get_usize();
        // A shape whose element count saturates cannot fit in the buffer.
        let data = self.words(rows.saturating_mul(cols)).map(f64::from_bits).collect();
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
    #[should_panic(expected = "model blob truncated")]
    fn truncated_blob_panics() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let _ = r.get_u64();
    }

    /// A blob of little-endian `u64` words.
    fn blob_of(ws: &[u64]) -> Vec<u8> {
        ws.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    #[should_panic(expected = "model blob truncated")]
    fn an_oversized_f64_count_panics_before_allocating() {
        let blob = blob_of(&[u64::MAX / 8, 0]);
        let _ = ByteReader::new(&blob).get_f64s();
    }

    #[test]
    #[should_panic(expected = "model blob truncated")]
    fn an_oversized_usize_count_panics_before_allocating() {
        let blob = blob_of(&[1 << 61, 0]);
        let _ = ByteReader::new(&blob).get_usizes();
    }

    #[test]
    #[should_panic(expected = "model blob truncated")]
    fn an_overflowing_matrix_shape_panics() {
        let blob = blob_of(&[1 << 32, 1 << 32, 0]);
        let _ = ByteReader::new(&blob).get_matrix();
    }

    #[test]
    #[should_panic(expected = "model blob truncated")]
    fn an_overflowing_byte_string_length_panics() {
        let blob = blob_of(&[u64::MAX - 3, 0]);
        let _ = ByteReader::new(&blob).get_bytes();
    }
}
