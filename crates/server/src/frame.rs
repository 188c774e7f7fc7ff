//! Wire framing: `ferry-storage`'s `[len: u32 LE][crc32: u32 LE]
//! [payload]` record format lifted from durable files onto a TCP
//! stream. The CRC covers the length prefix and the payload, so a bit
//! flip in either is detected as [`FrameError::Malformed`] — and since
//! a stream (unlike a file) cannot be re-scanned for the next valid
//! frame, any framing-level damage tears down the connection.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ferry_storage::frame::{crc32, write_frame, FRAME_HEADER};
use std::io::{ErrorKind, Read, Write};

/// Ceiling on one wire frame's payload (16 MiB) — deliberately tighter
/// than the storage layer's 64 MiB: a network peer is less trusted than
/// our own WAL, and this bounds per-connection allocation on hostile
/// input.
pub const MAX_WIRE_LEN: u32 = 16 << 20;

/// How reading a frame can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Framing-level damage: oversized length, CRC mismatch, or EOF in
    /// the middle of a frame. The stream cannot be resynchronised; the
    /// connection must close.
    Malformed(String),
    /// A transport error from the socket.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Malformed(d) => write!(f, "malformed frame: {d}"),
            FrameError::Io(d) => write!(f, "io error: {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What the read-side poll callback decides when the socket read times
/// out. The callback is invoked with `mid_frame = true` when part of a
/// frame has already been consumed (stopping there means the frame is
/// lost), `false` at a frame boundary (stopping there is clean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    Continue,
    Stop,
}

/// Write one frame wrapping `payload` and flush.
pub fn write_wire_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_WIRE_LEN as usize {
        return Err(FrameError::Malformed(format!(
            "payload of {} bytes exceeds the wire ceiling ({MAX_WIRE_LEN})",
            payload.len()
        )));
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    write_frame(&mut buf, payload).map_err(|e| FrameError::Malformed(e.to_string()))?;
    w.write_all(&buf)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.to_string()))
}

enum FillEnd {
    Full,
    Eof,
    Stopped,
}

/// Read exactly `buf.len()` bytes, consulting `poll` on every socket
/// timeout tick (sessions run with a short `read_timeout` so shutdown
/// can interrupt an idle read).
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    got: &mut usize,
    mid_frame: bool,
    poll: &mut dyn FnMut(bool) -> Poll,
) -> Result<FillEnd, FrameError> {
    while let Some(rest) = buf.get_mut(*got..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => return Ok(FillEnd::Eof),
            Ok(n) => *got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if poll(mid_frame || *got > 0) == Poll::Stop {
                    return Ok(FillEnd::Stopped);
                }
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(FillEnd::Full)
}

/// Read one frame's payload. Returns `Ok(None)` when `poll` stopped the
/// read (graceful shutdown); [`FrameError::Closed`] on a clean peer
/// close at a frame boundary; [`FrameError::Malformed`] on any framing
/// damage, including an EOF mid-frame.
pub fn read_wire_frame(
    r: &mut impl Read,
    poll: &mut dyn FnMut(bool) -> Poll,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    match fill(r, &mut header, &mut got, false, poll)? {
        FillEnd::Full => {}
        FillEnd::Eof if got == 0 => return Err(FrameError::Closed),
        FillEnd::Eof => {
            return Err(FrameError::Malformed(format!(
                "connection closed {got} bytes into a frame header"
            )))
        }
        FillEnd::Stopped => return Ok(None),
    }
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let stored = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_WIRE_LEN {
        return Err(FrameError::Malformed(format!(
            "frame length {len} exceeds the wire ceiling ({MAX_WIRE_LEN})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    match fill(r, &mut payload, &mut got, true, poll)? {
        FillEnd::Full => {}
        FillEnd::Eof => {
            return Err(FrameError::Malformed(format!(
                "connection closed {got} bytes into a {len}-byte payload"
            )))
        }
        FillEnd::Stopped => return Ok(None),
    }
    if crc32(crc32(0, &len.to_le_bytes()), &payload) != stored {
        return Err(FrameError::Malformed("checksum mismatch".into()));
    }
    Ok(Some(payload))
}

/// Blocking read with no stop condition — the client side, where no
/// read timeout is set.
pub fn read_wire_frame_blocking(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    match read_wire_frame(r, &mut |_| Poll::Continue)? {
        Some(p) => Ok(p),
        None => Err(FrameError::Closed),
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
    use std::io::Cursor;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = framed(b"hello");
        let got = read_wire_frame_blocking(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn clean_eof_is_closed() {
        let r = read_wire_frame_blocking(&mut Cursor::new(Vec::new()));
        assert_eq!(r, Err(FrameError::Closed));
    }

    #[test]
    fn every_truncation_is_malformed() {
        let buf = framed(b"payload-bytes");
        for cut in 1..buf.len() {
            let r = read_wire_frame_blocking(&mut Cursor::new(buf[..cut].to_vec()));
            assert!(
                matches!(r, Err(FrameError::Malformed(_))),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let buf = framed(b"sensitive");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let r = read_wire_frame_blocking(&mut Cursor::new(bad));
            assert!(
                matches!(r, Err(FrameError::Malformed(_))),
                "flip at {i}: {r:?}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let r = read_wire_frame_blocking(&mut Cursor::new(buf));
        assert!(matches!(r, Err(FrameError::Malformed(_))));
    }

    #[test]
    fn oversized_payload_refused_on_write() {
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_WIRE_LEN as usize + 1];
        assert!(matches!(
            write_wire_frame(&mut sink, &big),
            Err(FrameError::Malformed(_))
        ));
        assert!(sink.is_empty());
    }
}
