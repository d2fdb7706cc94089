//! The pluggable transport substrate: how frames reach a node.
//!
//! Two implementations share one codec.  [`InMemoryTransport`] moves
//! *encoded* frames through `std::sync::mpsc` channels — it deliberately
//! round-trips every frame through [`Frame::encode`]/[`Frame::decode`] so
//! that byte accounting and codec bugs are identical to the socket path.
//! [`FramedSocketTransport`] wraps any `Read + Write` byte stream
//! (`TcpStream`, `UnixStream`) and speaks the same versioned frames.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::frame::{Frame, FrameError};

/// A bidirectional, ordered frame link between two endpoints.
///
/// Implementations must deliver frames reliably and in order; `recv`
/// blocks until a frame arrives or the peer disconnects.  Byte counters
/// report *encoded* sizes (header included), so in-memory and socket
/// deployments account identically.
pub trait Transport {
    /// Sends one frame to the peer.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receives the next frame from the peer, blocking until one arrives.
    fn recv(&mut self) -> io::Result<Frame>;

    /// Total encoded bytes sent over this link.
    fn bytes_sent(&self) -> u64;

    /// Total encoded bytes received over this link.
    fn bytes_received(&self) -> u64;
}

/// A channel-backed transport endpoint used by [`crate::bus::LocalBus`].
///
/// Frames are encoded on send and decoded on receive so this path
/// exercises the exact same codec as the socket transport.
pub struct InMemoryTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    sent: u64,
    received: u64,
}

impl InMemoryTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (InMemoryTransport, InMemoryTransport) {
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        let a = InMemoryTransport {
            tx: tx_b,
            rx: rx_a,
            sent: 0,
            received: 0,
        };
        let b = InMemoryTransport {
            tx: tx_a,
            rx: rx_b,
            sent: 0,
            received: 0,
        };
        (a, b)
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = frame.encode();
        self.sent += bytes.len() as u64;
        self.tx
            .send(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer mailbox dropped"))
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let bytes =
            self.rx.recv().map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer disconnected"))?;
        self.received += bytes.len() as u64;
        Frame::decode(&bytes).map_err(io::Error::from)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// A transport speaking versioned frames over any byte stream.
///
/// Works over `TcpStream` and `UnixStream` alike; the multi-process
/// example uses Unix-domain sockets.
pub struct FramedSocketTransport<S> {
    stream: S,
    sent: u64,
    received: u64,
}

impl<S: io::Read + io::Write> FramedSocketTransport<S> {
    /// Wraps a connected byte stream.
    pub fn new(stream: S) -> FramedSocketTransport<S> {
        FramedSocketTransport { stream, sent: 0, received: 0 }
    }
}

impl<S: io::Read + io::Write> Transport for FramedSocketTransport<S> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.stream)?;
        self.stream.flush()?;
        self.sent += frame.encoded_len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let frame = Frame::read_from(&mut self.stream).map_err(|err| match err {
            FrameError::Io(io_err) => io_err,
            other => io::Error::from(other),
        })?;
        self.received += frame.encoded_len() as u64;
        Ok(frame)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_BYTES;

    fn sample(kind: u8, len: usize) -> Frame {
        Frame { kind, from: 1, to: 2, payload: vec![kind; len] }
    }

    #[test]
    fn in_memory_pair_delivers_frames_in_order_with_honest_byte_counts() {
        let (mut a, mut b) = InMemoryTransport::pair();
        let first = sample(1, 10);
        let second = sample(2, 0);
        a.send(&first).unwrap();
        a.send(&second).unwrap();
        assert_eq!(b.recv().unwrap(), first);
        assert_eq!(b.recv().unwrap(), second);
        let expected = (first.encoded_len() + second.encoded_len()) as u64;
        assert_eq!(a.bytes_sent(), expected);
        assert_eq!(b.bytes_received(), expected);
        assert_eq!(a.bytes_received(), 0);
        assert_eq!(b.bytes_sent(), 0);
    }

    #[test]
    fn in_memory_recv_reports_disconnected_peers() {
        let (a, mut b) = InMemoryTransport::pair();
        drop(a);
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[cfg(unix)]
    #[test]
    fn socket_transport_round_trips_frames_over_a_unix_stream() {
        let (left, right) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut a = FramedSocketTransport::new(left);
        let mut b = FramedSocketTransport::new(right);
        let frame = sample(4, 4096);
        a.send(&frame).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got, frame);
        assert_eq!(a.bytes_sent(), (HEADER_BYTES + 4096) as u64);
        assert_eq!(b.bytes_received(), a.bytes_sent());

        b.send(&sample(9, 0)).unwrap();
        assert_eq!(a.recv().unwrap(), sample(9, 0));
    }

    #[cfg(unix)]
    #[test]
    fn socket_recv_surfaces_clean_eof_as_an_io_error() {
        let (left, right) = std::os::unix::net::UnixStream::pair().unwrap();
        drop(left);
        let mut b = FramedSocketTransport::new(right);
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
