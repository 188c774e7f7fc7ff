//! Binary codec for the algebra's data model.
//!
//! Everything the WAL and snapshot files persist — [`Value`]s, rows,
//! [`Schema`]s and the table/log records built from them — is encoded by
//! hand here: fixed-width little-endian integers, length-prefixed UTF-8
//! strings, one tag byte per variant. No serde in this workspace (offline
//! build), and a hand-rolled format keeps the on-disk representation an
//! explicit, documented contract rather than a derive artefact.
//!
//! The encoding has no version of its own: each file's 8-byte magic
//! (`FSMT0002`, `FSSH0002`, `FWAL0001`) names the one layout this build
//! writes and reads, and a decoder rejects anything else with a typed
//! error instead of guessing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::StorageError;
use ferry_algebra::{Row, Schema, Ty, Value};
use std::sync::Arc;

fn err(detail: impl Into<String>) -> StorageError {
    StorageError::Codec(detail.into())
}

// ---------------------------------------------------------------- writing

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn ty(&mut self, t: Ty) {
        self.u8(match t {
            Ty::Unit => 0,
            Ty::Bool => 1,
            Ty::Int => 2,
            Ty::Dbl => 3,
            Ty::Str => 4,
            Ty::Nat => 5,
        });
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Dbl(d) => {
                self.u8(3);
                self.f64(*d);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Nat(n) => {
                self.u8(5);
                self.u64(*n);
            }
        }
    }

    pub fn row(&mut self, row: &Row) {
        self.u32(row.len() as u32);
        for v in row {
            self.value(v);
        }
    }

    pub fn rows(&mut self, rows: &[Row]) {
        self.u32(rows.len() as u32);
        for r in rows {
            self.row(r);
        }
    }

    pub fn schema(&mut self, schema: &Schema) {
        self.u32(schema.len() as u32);
        for (name, ty) in schema.cols() {
            self.str(name);
            self.ty(*ty);
        }
    }

    pub fn strings(&mut self, ss: &[String]) {
        self.u32(ss.len() as u32);
        for s in ss {
            self.str(s);
        }
    }
}

// ---------------------------------------------------------------- reading

/// Cursor-based decoder over a byte slice. Every accessor bounds-checks
/// and returns [`StorageError::Codec`] on malformed input — corrupted
/// frames that slip past the CRC (or hostile files) must never panic.
#[derive(Debug)]
pub struct Dec<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// Bytes consumed so far (for error messages).
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { rest: buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.rest.is_empty()
    }

    /// The input must be fully consumed — trailing bytes in a record mean
    /// writer/reader disagreement, which is corruption.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(err(format!(
                "{} trailing bytes after record",
                self.rest.len()
            )))
        }
    }

    fn truncated(&self, n: usize) -> StorageError {
        err(format!(
            "truncated record: need {n} bytes at offset {}, have {}",
            self.pos,
            self.rest.len()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let rest = self.rest;
        let (s, rest) = rest.split_at_checked(n).ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let rest = self.rest;
        let (a, rest) = rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        self.pos += N;
        Ok(*a)
    }

    pub fn u8(&mut self) -> Result<u8, StorageError> {
        let [b] = self.array()?;
        Ok(b)
    }

    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length guard: collection counts are validated against the bytes
    /// actually remaining (each element needs at least one byte), so a
    /// corrupted count cannot trigger a huge allocation.
    fn count(&mut self, elem_min: usize) -> Result<usize, StorageError> {
        let n = self.u32()? as usize;
        if n * elem_min > self.rest.len() {
            return Err(err(format!(
                "count {n} exceeds remaining input ({} bytes)",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<&'a str, StorageError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| err(format!("invalid UTF-8 string: {e}")))
    }

    pub fn ty(&mut self) -> Result<Ty, StorageError> {
        Ok(match self.u8()? {
            0 => Ty::Unit,
            1 => Ty::Bool,
            2 => Ty::Int,
            3 => Ty::Dbl,
            4 => Ty::Str,
            5 => Ty::Nat,
            t => return Err(err(format!("unknown type tag {t}"))),
        })
    }

    pub fn value(&mut self) -> Result<Value, StorageError> {
        Ok(match self.u8()? {
            0 => Value::Unit,
            1 => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                b => return Err(err(format!("bad bool byte {b}"))),
            },
            2 => Value::Int(self.i64()?),
            3 => Value::Dbl(self.f64()?),
            4 => Value::str(self.str()?),
            5 => Value::Nat(self.u64()?),
            t => return Err(err(format!("unknown value tag {t}"))),
        })
    }

    pub fn row(&mut self) -> Result<Row, StorageError> {
        let n = self.count(1)?;
        (0..n).map(|_| self.value()).collect()
    }

    pub fn rows(&mut self) -> Result<Vec<Row>, StorageError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.row()).collect()
    }

    pub fn schema(&mut self) -> Result<Schema, StorageError> {
        let n = self.count(5)?;
        let mut cols: Vec<(Arc<str>, Ty)> = Vec::with_capacity(n);
        for _ in 0..n {
            let name: Arc<str> = Arc::from(self.str()?);
            let ty = self.ty()?;
            if cols.iter().any(|(n, _)| *n == name) {
                return Err(err(format!("duplicate column {name} in encoded schema")));
            }
            cols.push((name, ty));
        }
        Ok(Schema::new(cols))
    }

    pub fn strings(&mut self) -> Result<Vec<String>, StorageError> {
        let n = self.count(4)?;
        (0..n).map(|_| Ok(self.str()?.to_string())).collect()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut e = Enc::new();
        e.value(&v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn values_roundtrip() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Dbl(-0.0),
            Value::Dbl(f64::INFINITY),
            Value::str(""),
            Value::str("héllo wörld"),
            Value::Nat(u64::MAX),
        ] {
            roundtrip_value(v);
        }
    }

    #[test]
    fn negative_zero_survives() {
        let mut e = Enc::new();
        e.value(&Value::Dbl(-0.0));
        let bytes = e.into_bytes();
        match Dec::new(&bytes).value().unwrap() {
            Value::Dbl(d) => assert!(d == 0.0 && d.is_sign_negative()),
            other => panic!("expected double, got {other:?}"),
        }
    }

    #[test]
    fn schema_and_rows_roundtrip() {
        let schema = Schema::of(&[("iter", Ty::Nat), ("item", Ty::Int), ("name", Ty::Str)]);
        let rows = vec![
            vec![Value::Nat(1), Value::Int(-5), Value::str("a")],
            vec![Value::Nat(2), Value::Int(7), Value::str("")],
        ];
        let mut e = Enc::new();
        e.schema(&schema);
        e.rows(&rows);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.schema().unwrap(), schema);
        assert_eq!(d.rows().unwrap(), rows);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Enc::new();
        e.value(&Value::str("hello"));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let r = Dec::new(&bytes[..cut]).value();
            assert!(r.is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn insane_count_is_rejected_without_allocating() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // row count claiming 4B rows in a 4-byte input
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).rows().is_err());
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut e = Enc::new();
        e.value(&Value::Int(1));
        e.u8(0xFF);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.value().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn bad_tags_error() {
        assert!(Dec::new(&[9]).value().is_err());
        assert!(Dec::new(&[6]).ty().is_err());
        assert!(Dec::new(&[1, 2]).value().is_err()); // bool byte 2
                                                     // invalid UTF-8 in a string
        let mut e = Enc::new();
        e.u8(4);
        e.u32(2);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Dec::new(&bytes).value().is_err());
    }
}
