//! Checksummed, length-prefixed frames — the unit of torn-write detection.
//!
//! Both durable files (WAL and snapshot) are a fixed 8-byte header
//! followed by a sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! The CRC (IEEE 802.3, implemented in-house — no crates.io access)
//! covers the payload *and* the length prefix, so a bit flip in `len` is
//! detected as a checksum failure rather than sending the scanner to a
//! garbage offset.
//!
//! [`scan`] walks a byte buffer and classifies how it ends:
//!
//! * **clean** — every frame checks out to the last byte;
//! * **torn** — the final frame is incomplete or fails its CRC and
//!   nothing valid follows: the signature of a crash mid-append. The
//!   caller truncates the file back to the last good frame;
//! * **corrupt** — a frame fails its CRC but a *valid* frame follows it.
//!   That is not a torn tail, it is data loss in the middle of the log;
//!   recovery must fail with a typed error rather than silently drop
//!   committed suffixes.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::StorageError;

/// Bytes of the `[len][crc]` prefix of every frame.
pub const FRAME_HEADER: usize = 8;

/// Hard ceiling on one frame's payload (64 MiB). A length beyond this is
/// treated as corruption — it bounds allocation on hostile/garbled input.
/// [`write_frame`] enforces the same ceiling, so a record too large to
/// replay is rejected (and never acked) instead of written.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// How far past a damaged frame [`scan`] probes for a valid successor
/// when classifying torn tail vs mid-log corruption. Damage from a
/// single torn write or bit flip is confined to one frame, so a genuine
/// successor frame must start within one maximal frame of the damage.
const PROBE_WINDOW: usize = FRAME_HEADER + MAX_FRAME_LEN as usize;

/// Ceiling on the payload bytes CRC'd while probing. Each candidate
/// offset otherwise costs a CRC over its claimed length — quadratic in
/// the tail on adversarial garbage. Candidates that would overdraw the
/// budget are skipped (best effort: realistic single-frame damage is
/// classified exactly; a crafted tail degrades to "torn").
const PROBE_CRC_BUDGET: u64 = 4 * MAX_FRAME_LEN as u64;

/// CRC-32 (IEEE, reflected, polynomial 0xEDB88320), table-driven. The
/// table is built at compile time, so its indexing cannot panic at run
/// time: an out-of-range index would fail the build.
#[allow(clippy::indexing_slicing)]
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 of `bytes`, continuing from `seed` (pass 0 to start).
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in bytes {
        // the index is masked to 0..=255, and the table has 256 entries
        #[allow(clippy::indexing_slicing)]
        let entry = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

/// Append one frame wrapping `payload` onto `out`. A payload over
/// [`MAX_FRAME_LEN`] is refused with nothing written: the scanner rejects
/// such lengths on replay, so writing one would produce an acked record
/// that recovery can never read back.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), StorageError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(StorageError::Codec(format!(
            "frame payload of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN}); \
             the record would be unreadable on replay",
            payload.len()
        )));
    }
    let len = payload.len() as u32;
    let crc = crc32(crc32(0, &len.to_le_bytes()), payload);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// How a frame sequence ends (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// All bytes accounted for by valid frames.
    Clean,
    /// Invalid/incomplete final frame starting at `offset` (relative to
    /// the start of the scanned region); bytes before it are good.
    Torn { offset: u64 },
}

/// The payloads of a frame sequence plus its tail classification.
#[derive(Debug)]
pub struct ScanOutcome<'a> {
    pub frames: Vec<&'a [u8]>,
    pub tail: Tail,
    /// Bytes covered by valid frames (torn tails start here).
    pub good_bytes: u64,
}

/// The payload of the frame at the start of `buf`, if one with a valid
/// checksum starts there.
fn frame_at(buf: &[u8]) -> Option<&[u8]> {
    let ([l0, l1, l2, l3, c0, c1, c2, c3], rest) = buf.split_first_chunk::<FRAME_HEADER>()?;
    let len = u32::from_le_bytes([*l0, *l1, *l2, *l3]);
    if len > MAX_FRAME_LEN {
        return None;
    }
    let payload = rest.get(..len as usize)?;
    let stored = u32::from_le_bytes([*c0, *c1, *c2, *c3]);
    (crc32(crc32(0, &len.to_le_bytes()), payload) == stored).then_some(payload)
}

/// Walk `buf` frame by frame. Returns the valid payload sequence and the
/// tail classification; mid-log corruption (an invalid frame with a valid
/// frame after it) is a hard [`StorageError::Corrupt`].
pub fn scan(buf: &[u8]) -> Result<ScanOutcome<'_>, StorageError> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        if let Some(payload) = buf.get(pos..).and_then(frame_at) {
            frames.push(payload);
            pos += FRAME_HEADER + payload.len();
            continue;
        }
        // The frame at `pos` is bad. Torn tail or mid-log corruption?
        // A torn write damages only the *last* frame, so probe later
        // offsets: any valid frame beyond `pos` means bytes we know were
        // once committed are unreadable — that is corruption. The probe
        // is bounded (start window + CRC budget, see the constants) so
        // recovery stays linear in the tail instead of quadratic.
        let max_start = buf.len().saturating_sub(FRAME_HEADER);
        let window_end = max_start.min(pos.saturating_add(PROBE_WINDOW));
        let mut budget = PROBE_CRC_BUDGET;
        for probe in pos + 1..=window_end {
            let Some(tail) = buf.get(probe..) else { break };
            let Some((len, _)) = tail.split_first_chunk() else {
                break;
            };
            let len = u32::from_le_bytes(*len);
            if len > MAX_FRAME_LEN
                || tail.len().saturating_sub(FRAME_HEADER) < len as usize
                || u64::from(len) > budget
            {
                continue;
            }
            budget -= u64::from(len);
            if frame_at(tail).is_some() {
                return Err(StorageError::Corrupt(format!(
                    "invalid frame at offset {pos} followed by a valid frame at {probe}: \
                     mid-log corruption, not a torn tail"
                )));
            }
        }
        return Ok(ScanOutcome {
            frames,
            tail: Tail::Torn { offset: pos as u64 },
            good_bytes: pos as u64,
        });
    }
    Ok(ScanOutcome {
        frames,
        tail: Tail::Clean,
        good_bytes: pos as u64,
    })
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

    #[test]
    fn crc_known_vector() {
        // the canonical IEEE CRC-32 check value
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // incremental == one-shot
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), crc32(0, b"123456789"));
    }

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        buf
    }

    #[test]
    fn oversize_payload_is_refused_with_nothing_written() {
        let mut buf = Vec::new();
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = write_frame(&mut buf, &payload).unwrap_err();
        assert!(matches!(err, StorageError::Codec(_)), "{err}");
        assert!(
            buf.is_empty(),
            "a refused frame must not leave bytes behind"
        );
    }

    #[test]
    fn scan_roundtrip() {
        let buf = frames(&[b"alpha", b"", b"gamma-gamma"]);
        let out = scan(&buf).unwrap();
        assert_eq!(out.frames, vec![&b"alpha"[..], b"", b"gamma-gamma"]);
        assert_eq!(out.tail, Tail::Clean);
        assert_eq!(out.good_bytes, buf.len() as u64);
    }

    #[test]
    fn every_truncation_point_is_a_torn_tail() {
        let buf = frames(&[b"first", b"second"]);
        let first_len = FRAME_HEADER + 5;
        for cut in 0..buf.len() {
            let out = scan(&buf[..cut]).unwrap();
            let expect_frames = usize::from(cut >= first_len) + usize::from(cut == buf.len());
            assert_eq!(out.frames.len(), expect_frames, "cut at {cut}");
            if cut == 0 || cut == first_len {
                // clean cut exactly at a frame boundary
                assert_eq!(out.tail, Tail::Clean);
            } else if cut < buf.len() {
                assert!(matches!(out.tail, Tail::Torn { .. }), "cut at {cut}");
                let good = if cut < first_len { 0 } else { first_len as u64 };
                assert_eq!(out.good_bytes, good);
            }
        }
    }

    #[test]
    fn bit_flip_in_last_frame_is_torn() {
        let mut buf = frames(&[b"first", b"second"]);
        let n = buf.len();
        buf[n - 2] ^= 0x10; // inside the last payload
        let out = scan(&buf).unwrap();
        assert_eq!(out.frames.len(), 1);
        assert_eq!(
            out.tail,
            Tail::Torn {
                offset: (FRAME_HEADER + 5) as u64
            }
        );
    }

    #[test]
    fn bit_flip_mid_log_is_corruption() {
        let mut buf = frames(&[b"first", b"second"]);
        buf[FRAME_HEADER + 1] ^= 0x01; // inside the FIRST payload
        match scan(&buf) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn length_flip_is_detected() {
        let mut buf = frames(&[b"only"]);
        buf[0] ^= 0x04; // corrupt the length prefix itself
        let out = scan(&buf).unwrap();
        assert_eq!(out.frames.len(), 0);
        assert_eq!(out.tail, Tail::Torn { offset: 0 });
    }

    #[test]
    fn insane_length_is_bounded() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 12]);
        let out = scan(&buf).unwrap();
        assert_eq!(out.frames.len(), 0);
        assert!(matches!(out.tail, Tail::Torn { offset: 0 }));
    }
}
