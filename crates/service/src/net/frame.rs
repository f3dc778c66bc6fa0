//! Length-prefixed framing for the wire plane (DESIGN.md §13).
//!
//! Every message on a connection — either direction — is one frame:
//!
//! ```text
//! ┌────────────┬───────────┬────────────┬─────────┬──────────────────┐
//! │ u32 length │  u64 seq  │ u32 tenant │ u8 kind │     payload      │
//! │  (of body) │           │            │         │ (length−13 bytes)│
//! └────────────┴───────────┴────────────┴─────────┴──────────────────┘
//! ```
//!
//! all little-endian. `length` covers the body (seq + tenant + kind +
//! payload), not itself; `seq` is the connection-local request sequence
//! number, echoed on the matching reply; `tenant` addresses one tenant of
//! the deployment (DESIGN.md §14) and is echoed on the reply. The decoder
//! enforces a configurable `max_frame_len` **before** allocating anything:
//! a hostile or corrupt length prefix answers [`FrameError::TooLong`] —
//! which the server turns into a protocol-error frame — instead of an
//! unbounded allocation. Frames shorter than the 13-byte body header are
//! equally rejected without being read.

use fairdms_datastore::wire::{Reader, WriteExt};
use std::io::{self, Read};

/// Bytes of the `u32` length prefix.
pub const LEN_PREFIX: usize = 4;
/// Bytes of the fixed body header (`u64` seq + `u32` tenant + `u8` kind).
pub const BODY_HEADER: usize = 13;

/// Frame kinds. Clients send only [`FrameKind::Request`]; the server
/// answers with one of the reply kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an encoded [`crate::api::Request`].
    Request,
    /// Server → client: the encoded successful [`crate::api::Reply`] for
    /// the echoed `seq`.
    ReplyOk,
    /// Server → client: the encoded [`crate::api::ServiceError`] for the
    /// echoed `seq`.
    ReplyErr,
    /// Server → client: the connection limit was reached; sent once with
    /// `seq = 0` on an over-limit socket, which is then closed.
    Busy,
    /// Server → client: the peer broke the protocol (bad length, bad
    /// tag, undecodable message). Payload is a UTF-8 diagnostic; the
    /// connection closes after this frame.
    ProtocolError,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::ReplyOk => 2,
            FrameKind::ReplyErr => 3,
            FrameKind::Busy => 4,
            FrameKind::ProtocolError => 5,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameKind::Request,
            2 => FrameKind::ReplyOk,
            3 => FrameKind::ReplyErr,
            4 => FrameKind::Busy,
            5 => FrameKind::ProtocolError,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Connection-local sequence number (echoed on replies).
    pub seq: u64,
    /// Addressed tenant (echoed on replies); 0 for single-tenant use.
    pub tenant: u32,
    /// Message kind.
    pub kind: FrameKind,
    /// Message payload (codec bytes; empty for `Busy`).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly on a frame boundary (not an error).
    Eof,
    /// The transport failed (reset, timeout, mid-frame EOF).
    Io(io::Error),
    /// The length prefix exceeds the configured maximum — a hostile or
    /// corrupt peer; nothing was allocated or consumed past the prefix.
    TooLong {
        /// Declared body length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The length prefix is smaller than the fixed body header.
    TooShort(u32),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLong { len, max } => {
                write!(f, "frame length {len} exceeds max_frame_len {max}")
            }
            FrameError::TooShort(len) => {
                write!(
                    f,
                    "frame length {len} below the {BODY_HEADER}-byte body header"
                )
            }
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
        }
    }
}

impl FrameError {
    /// Whether this error is the peer's fault (a protocol violation that
    /// deserves a [`FrameKind::ProtocolError`] answer) as opposed to a
    /// transport failure or clean close.
    pub fn is_protocol_violation(&self) -> bool {
        matches!(
            self,
            FrameError::TooLong { .. } | FrameError::TooShort(_) | FrameError::BadKind(_)
        )
    }
}

/// Appends one encoded frame to `out` and returns the frame's total wire
/// size in bytes.
pub fn write_frame(
    out: &mut Vec<u8>,
    seq: u64,
    tenant: u32,
    kind: FrameKind,
    payload: &[u8],
) -> usize {
    let body = BODY_HEADER + payload.len();
    assert!(body <= u32::MAX as usize, "frame body over u32::MAX bytes");
    out.put_u32(body as u32);
    out.put_u64(seq);
    out.put_u32(tenant);
    out.put_u8(kind.to_u8());
    out.extend_from_slice(payload);
    LEN_PREFIX + body
}

/// Reads one frame from `r`, enforcing `max_frame_len` on the declared
/// body length before any allocation. A clean EOF on the frame boundary
/// returns [`FrameError::Eof`]; EOF inside a frame is [`FrameError::Io`]
/// (the peer vanished mid-message).
pub fn read_frame(r: &mut impl Read, max_frame_len: u32) -> Result<Frame, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX];
    // Distinguish boundary EOF (first byte missing) from a torn frame.
    let mut got = 0;
    while got < LEN_PREFIX {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len < BODY_HEADER as u32 {
        return Err(FrameError::TooShort(len));
    }
    if len > max_frame_len {
        return Err(FrameError::TooLong {
            len,
            max: max_frame_len,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(FrameError::Io)?;
    let mut rd = Reader::new(&body);
    let seq = rd.u64().expect("length checked");
    let tenant = rd.u32().expect("length checked");
    let kind_byte = rd.u8().expect("length checked");
    let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
    let payload = body.split_off(BODY_HEADER);
    Ok(Frame {
        seq,
        tenant,
        kind,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 42, 7, FrameKind::Request, b"hello");
        assert_eq!(n, buf.len());
        let f = read_frame(&mut Cursor::new(&buf), 1024).unwrap();
        assert_eq!(f.seq, 42);
        assert_eq!(f.tenant, 7);
        assert_eq!(f.kind, FrameKind::Request);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        // u32::MAX declared length: must answer TooLong, not OOM/panic.
        let buf = u32::MAX.to_le_bytes();
        match read_frame(&mut Cursor::new(&buf[..]), 1 << 20) {
            Err(FrameError::TooLong { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("expected TooLong, got {other:?}"),
        }
    }

    #[test]
    fn undersized_length_prefix_is_rejected() {
        let buf = 3u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf[..]), 1 << 20),
            Err(FrameError::TooShort(3))
        ));
    }

    #[test]
    fn eof_on_boundary_vs_inside_frame() {
        assert!(matches!(
            read_frame(&mut Cursor::new(&[][..]), 1024),
            Err(FrameError::Eof)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, FrameKind::ReplyOk, b"xyz");
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut]), 1024).unwrap_err();
            assert!(
                matches!(err, FrameError::Io(_)),
                "cut at {cut}: {err:?} should be Io"
            );
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, 0, FrameKind::Busy, &[]);
        buf[LEN_PREFIX + 12] = 0xEE; // corrupt the kind byte
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024),
            Err(FrameError::BadKind(0xEE))
        ));
    }
}
