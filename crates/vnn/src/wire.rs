//! Wire primitives for parameter vectors: the sparse index–value form the
//! paper uses for top-k-compressed models ("when k is small, we can
//! represent a compressed model by index-value pairs"), the decode error
//! type, and the little-endian cursor decoders read with. The one byte
//! encoding of a model is `lbchat::compress::WireModel`.

use crate::param::ParamVec;

/// Bytes per sparse (index, value) pair: u32 index + f32 value.
pub const BYTES_PER_PAIR: usize = 8;

/// A decode failure of a wire buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The format's magic byte did not match.
    BadMagic {
        /// The byte found where the magic was expected.
        got: u8,
    },
    /// A decoded value is outside its valid domain.
    BadValue {
        /// Which field was out of domain.
        field: &'static str,
        /// The rejected value (widened to u32).
        got: u32,
    },
    /// The buffer ended in the middle of a record.
    Truncated,
    /// Decoding completed with unconsumed bytes left over.
    Trailing {
        /// How many bytes were left.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad magic byte {got:#04x}"),
            WireError::BadValue { field, got } => {
                write!(f, "{field} out of domain: {got}")
            }
            WireError::Truncated => write!(f, "payload truncated mid-record"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} unconsumed bytes after payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte cursor over an encoded buffer.
///
/// Decoders pull typed fields in layout order — a missing byte surfaces as
/// [`WireError::Truncated`] at the exact field that ran dry — and call
/// [`WireReader::finish`] at the end to reject trailing garbage.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let c = self.take(4)?;
        Ok(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Consumes a little-endian `f32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        let c = self.take(4)?;
        Ok(f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    /// [`WireError::Trailing`] with the leftover count otherwise.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }
}

/// A sparse model: the k surviving (index, value) pairs of a top-k
/// sparsification plus the dense length, enough to reconstruct a dense
/// vector with zeros elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseModel {
    /// Dense length of the original vector.
    pub dense_len: usize,
    /// Indices of retained components, strictly increasing.
    pub indices: Vec<u32>,
    /// Values of retained components, parallel to `indices`.
    pub values: Vec<f32>,
}

impl SparseModel {
    /// Builds a sparse model from parallel index/value lists.
    ///
    /// # Panics
    /// Panics if the lists have different lengths or any index is out of
    /// range.
    pub fn new(dense_len: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(
            indices.iter().all(|&i| (i as usize) < dense_len),
            "sparse index out of range"
        );
        Self { dense_len, indices, values }
    }

    /// Number of retained components.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Size on the wire in bytes (pairs only; the envelope is negligible).
    pub fn wire_bytes(&self) -> usize {
        self.nnz() * BYTES_PER_PAIR
    }

    /// Densifies back to a full vector with zeros at dropped positions.
    pub fn to_dense(&self) -> ParamVec {
        let mut data = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            data[i as usize] = v;
        }
        ParamVec::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_densify() {
        let s = SparseModel::new(4, vec![0, 3], vec![1.0, 2.0]);
        assert_eq!(s.to_dense().as_slice(), &[1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn wire_error_messages_name_the_problem() {
        let e = WireError::BadValue { field: "sparse index", got: 99 };
        assert!(e.to_string().contains("sparse index"));
        assert!(WireError::Trailing { extra: 7 }.to_string().contains('7'));
    }

    #[test]
    #[should_panic(expected = "sparse index out of range")]
    fn constructor_validates_indices() {
        let _ = SparseModel::new(3, vec![3], vec![1.0]);
    }

    #[test]
    fn reader_walks_fields_in_order() {
        let mut buf = vec![0xAB];
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_reports_truncation_and_trailing() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // A failed read consumes nothing; the bytes are still trailing.
        assert_eq!(r.finish(), Err(WireError::Trailing { extra: 3 }));
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }
}
