//! The versioned frame codec: every transport message is one
//! `magic | version | kind | from | to | length | payload` frame.
//!
//! Hardening contract: decoding **never panics** on malformed bytes — bad
//! magic, unsupported versions, absurd declared lengths and truncated
//! payloads all surface as typed [`FrameError`]s, and the length cap is
//! enforced *before* any allocation, so a hostile peer cannot make a node
//! reserve gigabytes with a 20-byte header.

use std::io::{self, Read, Write};

use crate::NodeId;

/// The 4-byte frame magic (`CHRO`, for Chiaroscuro).
pub const MAGIC: [u8; 4] = *b"CHRO";

/// The codec version this build speaks.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes: magic (4) + version (2) + kind (1) +
/// reserved (1) + from (4) + to (4) + payload length (4).
pub const HEADER_BYTES: usize = 20;

/// Hard cap on a declared payload length.  Generous for the protocol's
/// largest payloads (a provisioning blob or a full unit vector is tens of
/// kilobytes at paper-scale keys) while keeping a malformed or hostile
/// length field from driving an allocation.
pub const MAX_PAYLOAD_BYTES: usize = 16 << 20;

/// One transport message: a typed, addressed, length-prefixed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Event discriminant (see [`crate::event::NodeEvent::kind`]).
    pub kind: u8,
    /// Sender address.
    pub from: NodeId,
    /// Recipient address.
    pub to: NodeId,
    /// Opaque event payload.
    pub payload: Vec<u8>,
}

/// Everything that can go wrong decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame declares a codec version this build does not speak.
    UnsupportedVersion(u16),
    /// The declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The length the header declared.
        declared: u32,
        /// The cap it violated.
        cap: usize,
    },
    /// The buffer ends before the declared payload does.
    Truncated {
        /// Bytes the frame needs in total.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The frame's kind byte names no known event.
    UnknownKind(u8),
    /// The payload does not parse as the event its kind byte names.
    BadPayload(&'static str),
    /// A well-formed event the receiver's state gives no meaning to: a
    /// node's second `Hello`, an exchange before its iteration starts, a
    /// `ReadoutReply` sent to a node.
    OutOfOrder {
        /// The event's kind byte (see [`crate::event::NodeEvent::kind`]).
        kind: u8,
        /// The receiver's state when the event arrived.
        state: &'static str,
    },
    /// The underlying stream failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v} (this build speaks {VERSION})")
            }
            FrameError::Oversized { declared, cap } => {
                write!(f, "declared payload of {declared} bytes exceeds the {cap}-byte cap")
            }
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needs {needed} bytes, got {got}")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown event kind {k}"),
            FrameError::BadPayload(what) => write!(f, "malformed event payload: {what}"),
            FrameError::OutOfOrder { kind, state } => {
                write!(f, "event kind {kind} out of order: the receiver is {state}")
            }
            FrameError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

impl Frame {
    /// Total encoded size in bytes (header + payload).
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// Encodes the frame: fixed header, then the payload.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD_BYTES`] — a local
    /// programming error, not a wire condition (decoding rejects it
    /// gracefully).
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_PAYLOAD_BYTES,
            "refusing to encode a {}-byte payload past the {}-byte cap",
            self.payload.len(),
            MAX_PAYLOAD_BYTES
        );
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.push(self.kind);
        buf.push(0); // reserved
        buf.extend_from_slice(&self.from.to_be_bytes());
        buf.extend_from_slice(&self.to.to_be_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Decodes one frame from a buffer holding **exactly** one frame.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_BYTES {
            return Err(FrameError::Truncated { needed: HEADER_BYTES, got: bytes.len() });
        }
        let (header, rest) = bytes.split_at(HEADER_BYTES);
        let declared = Self::parse_header(header)?;
        let needed = HEADER_BYTES + declared as usize;
        if bytes.len() != needed {
            return Err(FrameError::Truncated { needed, got: bytes.len() });
        }
        Ok(Frame {
            kind: header[6],
            from: NodeId::from_be_bytes([header[8], header[9], header[10], header[11]]),
            to: NodeId::from_be_bytes([header[12], header[13], header[14], header[15]]),
            payload: rest.to_vec(),
        })
    }

    /// Validates a fixed header and returns the declared payload length.
    fn parse_header(header: &[u8]) -> Result<u32, FrameError> {
        let magic = [header[0], header[1], header[2], header[3]];
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = u16::from_be_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let declared = u32::from_be_bytes([header[16], header[17], header[18], header[19]]);
        if declared as usize > MAX_PAYLOAD_BYTES {
            return Err(FrameError::Oversized { declared, cap: MAX_PAYLOAD_BYTES });
        }
        Ok(declared)
    }

    /// Reads one frame from a byte stream: the fixed header first, then —
    /// only once the declared length has passed the cap — the payload.
    ///
    /// A clean end-of-stream *before the first header byte* surfaces as
    /// [`FrameError::Io`] with [`io::ErrorKind::UnexpectedEof`]; an
    /// end-of-stream mid-frame is a [`FrameError::Truncated`].
    pub fn read_from<R: Read + ?Sized>(reader: &mut R) -> Result<Frame, FrameError> {
        let mut header = [0u8; HEADER_BYTES];
        read_exact_or_truncated(reader, &mut header, HEADER_BYTES)?;
        let declared = Self::parse_header(&header)? as usize;
        let mut payload = vec![0u8; declared];
        read_exact_or_truncated(reader, &mut payload, HEADER_BYTES + declared)?;
        Ok(Frame {
            kind: header[6],
            from: NodeId::from_be_bytes([header[8], header[9], header[10], header[11]]),
            to: NodeId::from_be_bytes([header[12], header[13], header[14], header[15]]),
            payload,
        })
    }

    /// Writes the encoded frame to a byte stream (one `write_all`, so a
    /// frame is never interleaved mid-header on a shared stream).
    pub fn write_to<W: Write + ?Sized>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(&self.encode())
    }
}

/// `read_exact` that reports a mid-frame end-of-stream as a typed
/// truncation (with the frame's total size) instead of a bare I/O error.
fn read_exact_or_truncated<R: Read + ?Sized>(
    reader: &mut R,
    buf: &mut [u8],
    frame_bytes: usize,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && frame_bytes == HEADER_BYTES {
                    Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed between frames",
                    )))
                } else {
                    Err(FrameError::Truncated {
                        needed: frame_bytes,
                        got: frame_bytes - buf.len() + filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame { kind: 4, from: 7, to: 2, payload: vec![1, 2, 3, 4, 5] }
    }

    /// An out-of-order event names its kind and the receiver's state, and
    /// crosses an `io::Error` boundary as `InvalidData`, as every other
    /// non-I/O variant does.
    #[test]
    fn out_of_order_names_the_event_and_the_state() {
        let error = FrameError::OutOfOrder { kind: 4, state: "blank" };
        assert_eq!(error.to_string(), "event kind 4 out of order: the receiver is blank");
        let io_error = io::Error::from(error);
        assert_eq!(io_error.kind(), io::ErrorKind::InvalidData);
        assert_eq!(io_error.to_string(), "event kind 4 out of order: the receiver is blank");
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = sample();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn stream_round_trip() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        sample().write_to(&mut buf).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), sample());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), sample());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::BadMagic(_))));
        assert!(matches!(Frame::read_from(&mut &bytes[..]), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = sample().encode();
        bytes[4..6].copy_from_slice(&7u16.to_be_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::UnsupportedVersion(7))
        ));
    }

    #[test]
    fn absurd_declared_length_is_rejected_before_allocation() {
        let mut bytes = sample().encode();
        bytes[16..20].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { declared: u32::MAX, .. })
        ));
        // The streaming reader must reject from the header alone — if it
        // tried to allocate/read u32::MAX bytes this would not return.
        assert!(matches!(
            Frame::read_from(&mut &bytes[..]),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let bytes = sample().encode();
        // Short header.
        assert!(matches!(
            Frame::decode(&bytes[..10]),
            Err(FrameError::Truncated { needed: HEADER_BYTES, got: 10 })
        ));
        // Header intact, payload cut short.
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 2]),
            Err(FrameError::Truncated { .. })
        ));
        // Same over a stream.
        assert!(matches!(
            Frame::read_from(&mut &bytes[..bytes.len() - 2]),
            Err(FrameError::Truncated { .. })
        ));
        // Trailing garbage after the declared payload is also malformed.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(Frame::decode(&long), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn no_input_ever_panics_the_decoder() {
        // Fuzz-ish sweep: every prefix of a valid frame plus byte-flipped
        // variants must decode to Ok or a typed error, never panic.
        let bytes = sample().encode();
        for end in 0..=bytes.len() {
            let _ = Frame::decode(&bytes[..end]);
            let _ = Frame::read_from(&mut &bytes[..end]);
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            let _ = Frame::decode(&flipped);
            let _ = Frame::read_from(&mut &flipped[..]);
        }
    }

    #[test]
    #[should_panic(expected = "refusing to encode")]
    fn oversized_local_payloads_fail_loudly_at_encode_time() {
        let frame = Frame { kind: 1, from: 0, to: 1, payload: vec![0; MAX_PAYLOAD_BYTES + 1] };
        let _ = frame.encode();
    }
}
