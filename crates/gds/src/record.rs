//! Record-level tokenizer and serialiser for the GDSII stream format.
//!
//! A GDSII file is a flat sequence of records. Each record starts with a
//! 4-byte header — a big-endian `u16` total length (header included), a
//! record-type byte, and a data-type byte — followed by `length - 4`
//! payload bytes. Record sizes are bounded by the `u16` length field
//! (payload ≤ 65 531 bytes), so the tokenizer never allocates
//! proportionally to attacker-controlled counts; a torn stream surfaces
//! as [`GdsError::Truncated`] at the exact byte offset.

use crate::error::GdsError;
use crate::real::decode_real8;

/// Record types used by this implementation (the subset every layout tool
/// emits; unknown types tokenize fine and are skipped at the grammar
/// layer).
pub mod rtype {
    /// Stream format version.
    pub const HEADER: u8 = 0x00;
    /// Library begin (modification timestamps).
    pub const BGNLIB: u8 = 0x01;
    /// Library name.
    pub const LIBNAME: u8 = 0x02;
    /// User units per DBU and metres per DBU.
    pub const UNITS: u8 = 0x03;
    /// Library end.
    pub const ENDLIB: u8 = 0x04;
    /// Structure begin (timestamps).
    pub const BGNSTR: u8 = 0x05;
    /// Structure name.
    pub const STRNAME: u8 = 0x06;
    /// Structure end.
    pub const ENDSTR: u8 = 0x07;
    /// Polygon element.
    pub const BOUNDARY: u8 = 0x08;
    /// Wire element.
    pub const PATH: u8 = 0x09;
    /// Structure reference.
    pub const SREF: u8 = 0x0A;
    /// Array structure reference.
    pub const AREF: u8 = 0x0B;
    /// Text element (tokenized, skipped by the flattener).
    pub const TEXT: u8 = 0x0C;
    /// Layer number.
    pub const LAYER: u8 = 0x0D;
    /// Datatype number.
    pub const DATATYPE: u8 = 0x0E;
    /// Path width (DBU).
    pub const WIDTH: u8 = 0x0F;
    /// Coordinate list.
    pub const XY: u8 = 0x10;
    /// Element end.
    pub const ENDEL: u8 = 0x11;
    /// Referenced structure name.
    pub const SNAME: u8 = 0x12;
    /// AREF columns and rows.
    pub const COLROW: u8 = 0x13;
    /// Transform flags (mirror bit 15).
    pub const STRANS: u8 = 0x1A;
    /// Magnification.
    pub const MAG: u8 = 0x1B;
    /// Rotation angle, degrees counter-clockwise.
    pub const ANGLE: u8 = 0x1C;
    /// Path end style.
    pub const PATHTYPE: u8 = 0x21;
}

/// Payload data types of the record header's fourth byte.
pub mod dtype {
    /// No payload.
    pub const NONE: u8 = 0x00;
    /// Bit array (`u16`).
    pub const BITARRAY: u8 = 0x01;
    /// Big-endian `i16`s.
    pub const I16: u8 = 0x02;
    /// Big-endian `i32`s.
    pub const I32: u8 = 0x03;
    /// 8-byte excess-64 reals.
    pub const REAL8: u8 = 0x05;
    /// ASCII string, NUL-padded to even length.
    pub const ASCII: u8 = 0x06;
}

/// Largest legal record payload: `u16::MAX` minus the 4-byte header,
/// rounded down to even.
pub const MAX_PAYLOAD: usize = 65_530;

/// Maximum XY points per record: `MAX_PAYLOAD / 8` coordinate pairs. With
/// the explicit closing point this is the classic "8191 vertices" limit.
pub const MAX_XY_POINTS: usize = MAX_PAYLOAD / 8;

/// One tokenized record (borrowing the stream's bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record<'a> {
    /// Byte offset of the record header in the stream.
    pub offset: usize,
    /// Record type byte.
    pub rtype: u8,
    /// Data type byte.
    pub dtype: u8,
    /// Payload bytes (`length - 4` of them).
    pub data: &'a [u8],
}

impl<'a> Record<'a> {
    fn type_check(&self, expected: u8, multiple: usize) -> Result<(), GdsError> {
        if self.dtype != expected {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: format!(
                    "record type {:#04x} has data type {:#04x}, expected {expected:#04x}",
                    self.rtype, self.dtype
                ),
            });
        }
        if multiple > 0 && !self.data.len().is_multiple_of(multiple) {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: format!(
                    "payload of {} bytes is not a multiple of {multiple}",
                    self.data.len()
                ),
            });
        }
        Ok(())
    }

    /// Payload as big-endian `i16`s.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] on a data-type or size mismatch.
    pub fn i16s(&self) -> Result<Vec<i16>, GdsError> {
        self.type_check(dtype::I16, 2)?;
        Ok(self
            .data
            .chunks_exact(2)
            .map(|c| i16::from_be_bytes([c[0], c[1]]))
            .collect())
    }

    /// Payload as one big-endian `i16`.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] unless the payload is exactly 2 bytes.
    pub fn one_i16(&self) -> Result<i16, GdsError> {
        let v = self.i16s()?;
        if v.len() != 1 {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: format!("expected one i16, found {}", v.len()),
            });
        }
        Ok(v[0])
    }

    /// Payload as a `u16` bit array (STRANS).
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] unless the payload is a 2-byte bit array.
    pub fn bitarray(&self) -> Result<u16, GdsError> {
        self.type_check(dtype::BITARRAY, 2)?;
        if self.data.len() != 2 {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: format!("bit array of {} bytes, expected 2", self.data.len()),
            });
        }
        Ok(u16::from_be_bytes([self.data[0], self.data[1]]))
    }

    /// Payload as big-endian `i32`s.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] on a data-type or size mismatch.
    pub fn i32s(&self) -> Result<Vec<i32>, GdsError> {
        self.type_check(dtype::I32, 4)?;
        Ok(self
            .data
            .chunks_exact(4)
            .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Payload as `(x, y)` coordinate pairs.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] unless the payload is whole `i32` pairs.
    pub fn xy(&self) -> Result<Vec<(i32, i32)>, GdsError> {
        let v = self.i32s()?;
        if v.len() % 2 != 0 {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: "XY payload with an odd coordinate count".to_string(),
            });
        }
        Ok(v.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }

    /// Payload as excess-64 reals.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] on a data-type or size mismatch.
    pub fn real8s(&self) -> Result<Vec<f64>, GdsError> {
        self.type_check(dtype::REAL8, 8)?;
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| decode_real8(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect())
    }

    /// Payload as an ASCII string (trailing NUL padding stripped).
    ///
    /// # Errors
    ///
    /// [`GdsError::BadRecord`] for a non-ASCII payload or wrong data type.
    pub fn ascii(&self) -> Result<String, GdsError> {
        self.type_check(dtype::ASCII, 0)?;
        let trimmed = match self.data.iter().rposition(|&b| b != 0) {
            Some(last) => &self.data[..=last],
            None => &[],
        };
        if !trimmed.is_ascii() {
            return Err(GdsError::BadRecord {
                offset: self.offset,
                reason: "non-ASCII bytes in a string record".to_string(),
            });
        }
        Ok(String::from_utf8_lossy(trimmed).into_owned())
    }
}

/// Iterator of records over a byte stream.
#[derive(Clone, Debug)]
pub struct RecordIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RecordIter<'a> {
    /// Tokenizes `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> RecordIter<'a> {
        RecordIter { bytes, pos: 0 }
    }

    /// Current byte offset (start of the next record).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Reads the next record; `None` cleanly at end of stream.
    ///
    /// # Errors
    ///
    /// [`GdsError::Truncated`] when the stream ends mid-record,
    /// [`GdsError::BadRecord`] for an impossible length field.
    #[allow(clippy::should_implement_trait)] // fallible iteration
    pub fn next(&mut self) -> Result<Option<Record<'a>>, GdsError> {
        let offset = self.pos;
        let remaining = &self.bytes[self.pos.min(self.bytes.len())..];
        if remaining.is_empty() {
            return Ok(None);
        }
        // Trailing NUL padding to a block boundary is legal stream tail.
        if remaining.len() < 4 {
            if remaining.iter().all(|&b| b == 0) {
                self.pos = self.bytes.len();
                return Ok(None);
            }
            return Err(GdsError::Truncated(offset));
        }
        let length = u16::from_be_bytes([remaining[0], remaining[1]]) as usize;
        if length == 0 {
            // A zero length with NUL tail is padding; anything else is torn.
            if remaining.iter().all(|&b| b == 0) {
                self.pos = self.bytes.len();
                return Ok(None);
            }
            return Err(GdsError::BadRecord {
                offset,
                reason: "zero-length record".to_string(),
            });
        }
        if length < 4 || !length.is_multiple_of(2) {
            return Err(GdsError::BadRecord {
                offset,
                reason: format!("impossible record length {length}"),
            });
        }
        if length > remaining.len() {
            return Err(GdsError::Truncated(offset));
        }
        let record = Record {
            offset,
            rtype: remaining[2],
            dtype: remaining[3],
            data: &remaining[4..length],
        };
        self.pos += length;
        Ok(Some(record))
    }
}

/// Appends one record (header + payload) to `out`.
///
/// # Panics
///
/// Panics when `data` exceeds [`MAX_PAYLOAD`] — writer-side record sizing
/// is the caller's bug (the XY splitter guarantees the bound for
/// geometry), not an input-data condition.
pub fn put_record(out: &mut Vec<u8>, rtype: u8, dtype: u8, data: &[u8]) {
    put_header(out, rtype, dtype, data.len());
    out.extend_from_slice(data);
}

/// Appends the header of a record whose `len` payload bytes the caller
/// appends next (an element encoded straight into `out`).
///
/// # Panics
///
/// Panics when `len` exceeds [`MAX_PAYLOAD`] or is odd, as
/// [`put_record`].
pub fn put_header(out: &mut Vec<u8>, rtype: u8, dtype: u8, len: usize) {
    out.extend_from_slice(&header(rtype, dtype, len));
}

/// The 4 header bytes of a record of `len` payload bytes — for writers
/// that fill a pre-sized slice rather than append.
///
/// # Panics
///
/// Panics when `len` exceeds [`MAX_PAYLOAD`] or is odd, as
/// [`put_record`].
pub fn header(rtype: u8, dtype: u8, len: usize) -> [u8; 4] {
    assert!(
        len <= MAX_PAYLOAD && len.is_multiple_of(2),
        "record payload of {len} bytes is unencodable"
    );
    let [hi, lo] = ((len + 4) as u16).to_be_bytes();
    [hi, lo, rtype, dtype]
}

/// Appends a no-payload record.
pub fn put_empty(out: &mut Vec<u8>, rtype: u8) {
    put_record(out, rtype, dtype::NONE, &[]);
}

/// Appends an `i16` record.
pub fn put_i16s(out: &mut Vec<u8>, rtype: u8, values: &[i16]) {
    put_header(out, rtype, dtype::I16, values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// Appends an `i32` record.
pub fn put_i32s(out: &mut Vec<u8>, rtype: u8, values: &[i32]) {
    put_header(out, rtype, dtype::I32, values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// Appends an ASCII record, NUL-padded to even length.
///
/// # Panics
///
/// Panics on non-ASCII names (writer-side data is repo-controlled).
pub fn put_ascii(out: &mut Vec<u8>, rtype: u8, text: &str) {
    assert!(text.is_ascii(), "GDS strings must be ASCII: {text:?}");
    let mut data = text.as_bytes().to_vec();
    if !data.len().is_multiple_of(2) {
        data.push(0);
    }
    put_record(out, rtype, dtype::ASCII, &data);
}

/// Appends a record of excess-64 reals.
///
/// # Errors
///
/// [`GdsError::RealOutOfRange`] when a value does not encode.
pub fn put_real8s(out: &mut Vec<u8>, rtype: u8, values: &[f64]) -> Result<(), GdsError> {
    let mut data = Vec::with_capacity(values.len() * 8);
    for &v in values {
        data.extend_from_slice(&crate::real::encode_real8(v)?);
    }
    put_record(out, rtype, dtype::REAL8, &data);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_payload_kind() {
        let mut out = Vec::new();
        put_i16s(&mut out, rtype::LAYER, &[7]);
        put_i32s(&mut out, rtype::XY, &[0, 0, 10, 0, 10, 20, 0, 20, 0, 0]);
        put_ascii(&mut out, rtype::STRNAME, "TOP");
        put_real8s(&mut out, rtype::UNITS, &[1e-3, 1e-9]).unwrap();
        put_empty(&mut out, rtype::ENDEL);

        let mut it = RecordIter::new(&out);
        let r = it.next().unwrap().unwrap();
        assert_eq!((r.rtype, r.one_i16().unwrap()), (rtype::LAYER, 7));
        let r = it.next().unwrap().unwrap();
        assert_eq!(r.xy().unwrap().len(), 5);
        let r = it.next().unwrap().unwrap();
        assert_eq!(r.ascii().unwrap(), "TOP");
        let r = it.next().unwrap().unwrap();
        assert_eq!(r.real8s().unwrap(), vec![1e-3, 1e-9]);
        let r = it.next().unwrap().unwrap();
        assert_eq!((r.rtype, r.data.len()), (rtype::ENDEL, 0));
        assert!(it.next().unwrap().is_none());
    }

    #[test]
    fn odd_length_names_pad_to_even() {
        let mut out = Vec::new();
        put_ascii(&mut out, rtype::LIBNAME, "ODD");
        assert_eq!(out.len() % 2, 0);
        let r = RecordIter::new(&out).next().unwrap().unwrap();
        assert_eq!(r.ascii().unwrap(), "ODD");
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut out = Vec::new();
        put_i32s(&mut out, rtype::XY, &[1, 2, 3, 4]);
        for cut in 1..out.len() {
            let prefix = &out[..cut];
            let mut it = RecordIter::new(prefix);
            match it.next() {
                Err(GdsError::Truncated(0)) => {}
                // An all-NUL prefix is indistinguishable from legal tail
                // padding at this layer; the grammar parser rejects it.
                Ok(None) if prefix.iter().all(|&b| b == 0) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn nul_tail_padding_is_clean_eof() {
        let mut out = Vec::new();
        put_empty(&mut out, rtype::ENDLIB);
        out.extend_from_slice(&[0u8; 6]);
        let mut it = RecordIter::new(&out);
        assert!(it.next().unwrap().is_some());
        assert!(it.next().unwrap().is_none());
        // But a non-NUL byte inside the padding is garbage, not padding.
        let mut torn = out.clone();
        torn.push(0x13);
        let mut it = RecordIter::new(&torn);
        let _ = it.next().unwrap();
        assert!(matches!(it.next(), Err(GdsError::BadRecord { .. })));
    }

    #[test]
    fn impossible_lengths_rejected() {
        // length 2 (< 4).
        assert!(matches!(
            RecordIter::new(&[0, 2, 0, 0]).next(),
            Err(GdsError::BadRecord { .. })
        ));
        // Odd length.
        assert!(matches!(
            RecordIter::new(&[0, 5, 0, 0, 0]).next(),
            Err(GdsError::BadRecord { .. })
        ));
        // Zero length followed by garbage.
        assert!(matches!(
            RecordIter::new(&[0, 0, 9, 9]).next(),
            Err(GdsError::BadRecord { .. })
        ));
    }

    #[test]
    fn accessor_type_mismatches_are_errors() {
        let mut out = Vec::new();
        put_i16s(&mut out, rtype::LAYER, &[1]);
        let r = RecordIter::new(&out).next().unwrap().unwrap();
        assert!(r.i32s().is_err());
        assert!(r.ascii().is_err());
        assert!(r.real8s().is_err());
        assert!(r.bitarray().is_err());
        // Wrong element count.
        let mut out = Vec::new();
        put_i16s(&mut out, rtype::LAYER, &[1, 2]);
        let r = RecordIter::new(&out).next().unwrap().unwrap();
        assert!(r.one_i16().is_err());
    }
}
