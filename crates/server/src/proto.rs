//! The message layer: typed requests and responses, encoded with
//! `ferry-storage`'s versioned codec inside [`frame`](crate::frame)
//! payloads.
//!
//! Every payload is `[proto version: u8][message tag: u8][body]`; the
//! body reuses the storage `Enc`/`Dec` encodings for values, rows and
//! schemas, so the wire and the WAL speak one data format. A result's
//! `RowBatch` frames are encoded straight from its columns
//! ([`encode_row_batch`]), with the same bytes as the row form.
//! Decoders are total: anything malformed comes back as a typed
//! [`ProtoError`], never a panic, and trailing bytes after a message are
//! rejected (a writer/reader disagreement is corruption, exactly as on
//! disk).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ferry_algebra::{Rel, Row, Schema, Value};
use ferry_storage::codec::{Dec, Enc};
use std::ops::Range;

/// Protocol version stamped into every message.
pub const PROTO_VERSION: u8 = 1;

/// What a client asks of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile SQL text into a session-held prepared statement.
    /// Placeholders `$1..$n` are typed parameters of the one compiled
    /// plan; they take [`Value`]s at execute time.
    Prepare { sql: String },
    /// Execute a prepared statement: `params[i]` is bound to `$(i+1)` in
    /// the statement's cached plan — no text is re-parsed. A wrong
    /// count or a value of the wrong type is an `Sql` error.
    Execute { stmt: u32, params: Vec<Value> },
    /// One-shot prepare + execute (still plan-cached by content, so a
    /// repeated template with new `params` is a cache hit).
    Query { sql: String, params: Vec<Value> },
    /// Fetch the Prometheus exposition of the server's registry.
    Metrics,
    /// Orderly goodbye; the server acks and closes.
    Close,
}

/// What the server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Prepare` succeeded; `schema` is the statement's result schema,
    /// parameterised or not.
    PrepareOk { stmt: u32, schema: Schema },
    /// First frame of a result stream.
    ResultHeader { schema: Schema },
    /// One bounded chunk of result rows (the stream stays under the
    /// frame ceiling regardless of result size).
    RowBatch { rows: Vec<Row> },
    /// End of a result stream; `rows` is the total row count.
    ResultDone { rows: u64 },
    /// The Prometheus exposition text.
    MetricsText { text: String },
    /// Acknowledges `Close`; the connection ends after this frame.
    CloseAck,
    /// Any refusal or failure, typed by [`ErrorCode`].
    Error { code: ErrorCode, message: String },
}

/// Typed failure classes a client can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request could not be decoded (bad tag, bad body).
    Malformed = 1,
    /// Decodable but outside what this server supports (wrong protocol
    /// version).
    Unsupported = 2,
    /// `Execute` named a statement id this session never prepared.
    UnknownStatement = 3,
    /// SQL-level failure: parse, bind, or execution error.
    Sql = 4,
    /// Admission control: the connection limit is reached.
    Busy = 5,
    /// Admission control: every statement slot is busy and the line of
    /// waiting sessions is full.
    QueueFull = 6,
    /// The server is draining; no new work is admitted.
    ShuttingDown = 7,
    /// A server-side invariant failure (the statement panicked, …).
    Internal = 8,
}

impl ErrorCode {
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::UnknownStatement,
            4 => ErrorCode::Sql,
            5 => ErrorCode::Busy,
            6 => ErrorCode::QueueFull,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::UnknownStatement => "unknown-statement",
            ErrorCode::Sql => "sql",
            ErrorCode::Busy => "busy",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Why a message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer speaks a protocol version we don't.
    Version(u8),
    /// The message tag is not one we know.
    UnknownTag(u8),
    /// The body failed the codec's bounds/validity checks.
    Codec(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Codec(d) => write!(f, "undecodable message body: {d}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// request tags
const T_PREPARE: u8 = 1;
const T_EXECUTE: u8 = 2;
const T_QUERY: u8 = 3;
const T_METRICS: u8 = 4;
const T_CLOSE: u8 = 5;
// response tags (disjoint from requests so a stray frame read by the
// wrong side decodes to UnknownTag, not garbage)
const T_PREPARE_OK: u8 = 128;
const T_RESULT_HEADER: u8 = 129;
const T_ROW_BATCH: u8 = 130;
const T_RESULT_DONE: u8 = 131;
const T_METRICS_TEXT: u8 = 132;
const T_CLOSE_ACK: u8 = 133;
const T_ERROR: u8 = 255;

fn params(e: &mut Enc, ps: &[Value]) {
    e.u32(ps.len() as u32);
    for p in ps {
        e.value(p);
    }
}

pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PROTO_VERSION);
    match req {
        Request::Prepare { sql } => {
            e.u8(T_PREPARE);
            e.str(sql);
        }
        Request::Execute { stmt, params: ps } => {
            e.u8(T_EXECUTE);
            e.u32(*stmt);
            params(&mut e, ps);
        }
        Request::Query { sql, params: ps } => {
            e.u8(T_QUERY);
            e.str(sql);
            params(&mut e, ps);
        }
        Request::Metrics => e.u8(T_METRICS),
        Request::Close => e.u8(T_CLOSE),
    }
    e.into_bytes()
}

pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PROTO_VERSION);
    match resp {
        Response::PrepareOk { stmt, schema } => {
            e.u8(T_PREPARE_OK);
            e.u32(*stmt);
            e.schema(schema);
        }
        Response::ResultHeader { schema } => {
            e.u8(T_RESULT_HEADER);
            e.schema(schema);
        }
        Response::RowBatch { rows } => {
            e.u8(T_ROW_BATCH);
            e.rows(rows);
        }
        Response::ResultDone { rows } => {
            e.u8(T_RESULT_DONE);
            e.u64(*rows);
        }
        Response::MetricsText { text } => {
            e.u8(T_METRICS_TEXT);
            e.str(text);
        }
        Response::CloseAck => e.u8(T_CLOSE_ACK),
        Response::Error { code, message } => {
            e.u8(T_ERROR);
            e.u8(*code as u8);
            e.str(message);
        }
    }
    e.into_bytes()
}

/// The `RowBatch` payload of visible rows `rows` of `rel`, read from its
/// columns: byte for byte what [`encode_response`] writes for
/// `Response::RowBatch` over those rows, with no row built.
pub fn encode_row_batch(rel: &Rel, rows: Range<usize>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PROTO_VERSION);
    e.u8(T_ROW_BATCH);
    e.u32(rows.len() as u32);
    for i in rows {
        let r = rel.raw_row(i);
        e.u32(rel.width() as u32);
        for c in 0..rel.width() {
            e.value(&rel.col(c).value(r));
        }
    }
    e.into_bytes()
}

fn header<'a>(payload: &'a [u8]) -> Result<(Dec<'a>, u8), ProtoError> {
    let mut d = Dec::new(payload);
    let v = d.u8().map_err(|e| ProtoError::Codec(e.to_string()))?;
    if v != PROTO_VERSION {
        return Err(ProtoError::Version(v));
    }
    let tag = d.u8().map_err(|e| ProtoError::Codec(e.to_string()))?;
    Ok((d, tag))
}

fn codec<T>(r: Result<T, ferry_storage::StorageError>) -> Result<T, ProtoError> {
    r.map_err(|e| ProtoError::Codec(e.to_string()))
}

fn decode_params(d: &mut Dec<'_>) -> Result<Vec<Value>, ProtoError> {
    let n = codec(d.u32())? as usize;
    // each value is at least one tag byte; a hostile count cannot force
    // a huge allocation
    let mut ps = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ps.push(codec(d.value())?);
    }
    Ok(ps)
}

pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let (mut d, tag) = header(payload)?;
    let req = match tag {
        T_PREPARE => Request::Prepare {
            sql: codec(d.str())?.to_string(),
        },
        T_EXECUTE => {
            let stmt = codec(d.u32())?;
            let params = decode_params(&mut d)?;
            Request::Execute { stmt, params }
        }
        T_QUERY => {
            let sql = codec(d.str())?.to_string();
            let params = decode_params(&mut d)?;
            Request::Query { sql, params }
        }
        T_METRICS => Request::Metrics,
        T_CLOSE => Request::Close,
        t => return Err(ProtoError::UnknownTag(t)),
    };
    codec(d.finish())?;
    Ok(req)
}

pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let (mut d, tag) = header(payload)?;
    let resp = match tag {
        T_PREPARE_OK => {
            let stmt = codec(d.u32())?;
            let schema = codec(d.schema())?;
            Response::PrepareOk { stmt, schema }
        }
        T_RESULT_HEADER => Response::ResultHeader {
            schema: codec(d.schema())?,
        },
        T_ROW_BATCH => Response::RowBatch {
            rows: codec(d.rows())?,
        },
        T_RESULT_DONE => Response::ResultDone {
            rows: codec(d.u64())?,
        },
        T_METRICS_TEXT => Response::MetricsText {
            text: codec(d.str())?.to_string(),
        },
        T_CLOSE_ACK => Response::CloseAck,
        T_ERROR => {
            let code = codec(d.u8())?;
            let code = ErrorCode::from_u8(code)
                .ok_or_else(|| ProtoError::Codec(format!("unknown error code {code}")))?;
            let message = codec(d.str())?.to_string();
            Response::Error { code, message }
        }
        t => return Err(ProtoError::UnknownTag(t)),
    };
    codec(d.finish())?;
    Ok(resp)
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
    use ferry_algebra::Ty;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Prepare {
                sql: "SELECT 1 AS x".into(),
            },
            Request::Execute {
                stmt: 7,
                params: vec![Value::Int(-3), Value::str("it's"), Value::Bool(true)],
            },
            Request::Query {
                sql: "SELECT 2 AS y".into(),
                params: vec![],
            },
            Request::Metrics,
            Request::Close,
        ]
    }

    fn all_responses() -> Vec<Response> {
        let schema = Schema::of(&[("n", Ty::Int), ("s", Ty::Str)]);
        vec![
            Response::PrepareOk {
                stmt: 1,
                schema: schema.clone(),
            },
            Response::ResultHeader { schema },
            Response::RowBatch {
                rows: vec![vec![Value::Int(1), Value::str("a")]],
            },
            Response::ResultDone { rows: 1 },
            Response::MetricsText {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::CloseAck,
            Response::Error {
                code: ErrorCode::Busy,
                message: "connection limit reached".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn version_and_tag_are_checked() {
        let mut bytes = encode_request(&Request::Metrics);
        bytes[0] = 9;
        assert_eq!(decode_request(&bytes), Err(ProtoError::Version(9)));
        let mut bytes = encode_request(&Request::Metrics);
        bytes[1] = 42;
        assert_eq!(decode_request(&bytes), Err(ProtoError::UnknownTag(42)));
        // a response tag sent to the request decoder is unknown, and
        // vice versa
        let bytes = encode_response(&Response::CloseAck);
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::UnknownTag(_))
        ));
        let bytes = encode_request(&Request::Close);
        assert!(matches!(
            decode_response(&bytes),
            Err(ProtoError::UnknownTag(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in all_requests() {
            let mut bytes = encode_request(&req);
            bytes.push(0xEE);
            assert!(
                matches!(decode_request(&bytes), Err(ProtoError::Codec(_))),
                "{req:?}"
            );
        }
    }

    #[test]
    fn truncations_never_panic() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(decode_request(&bytes[..cut]).is_err(), "{req:?} at {cut}");
            }
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(decode_response(&bytes[..cut]).is_err(), "{resp:?} at {cut}");
            }
        }
    }
}
