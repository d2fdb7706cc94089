//! Property suite for the transport boundary: no byte sequence — random
//! garbage, mutated valid frames, truncated streams — may ever panic the
//! frame decoder, the event decoder, or a serving actor loop.  Attacker
//! input must always surface as a typed error (or a clean drop), never as
//! a crash.

use std::io::{self, Read, Write};

use proptest::prelude::*;

use chiaroscuro_node::{
    serve, Actor, Frame, FramedSocketTransport, FrameGuard, NodeEvent, NodeId, Phase, COORDINATOR,
};

/// Builds one event of each wire variant, parameterised by a payload.
fn event_variant(index: usize, payload: Vec<u8>) -> NodeEvent {
    let phase = if index.is_multiple_of(2) { Phase::Means } else { Phase::Correction };
    match index % 9 {
        0 => NodeEvent::Hello { config: payload },
        1 => NodeEvent::IterationStart { payload },
        2 => NodeEvent::InitiateExchange { phase, contact: payload.len() as NodeId },
        3 => NodeEvent::ExchangeRequest { phase, state: payload },
        4 => NodeEvent::ExchangeReply { phase, state: payload },
        5 => NodeEvent::CorrectionProposal { payload },
        6 => NodeEvent::ReadoutRequest { include_units: payload.len().is_multiple_of(2) },
        7 => NodeEvent::ReadoutReply { payload },
        _ => NodeEvent::Shutdown,
    }
}

/// A byte stream scripted from a fixed input buffer; writes go to a sink.
/// Stands in for a socket whose peer sends exactly `input` then hangs up.
struct ScriptedStream {
    input: io::Cursor<Vec<u8>>,
    written: Vec<u8>,
}

impl ScriptedStream {
    fn new(input: Vec<u8>) -> Self {
        ScriptedStream { input: io::Cursor::new(input), written: Vec::new() }
    }
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for ScriptedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts events; replies to `Hello` so the loop exercises its send path.
#[derive(Default)]
struct Counting {
    handled: usize,
}

impl Actor for Counting {
    fn on_event(&mut self, from: NodeId, event: NodeEvent) -> Vec<(NodeId, NodeEvent)> {
        self.handled += 1;
        match event {
            NodeEvent::Hello { config } => vec![(from, NodeEvent::ReadoutReply { payload: config })],
            _ => Vec::new(),
        }
    }
}

proptest! {
    #[test]
    fn random_bytes_never_panic_the_frame_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256usize),
    ) {
        // Ok or a typed FrameError — any panic fails the whole test.
        let _ = Frame::decode(&bytes);
        let _ = Frame::read_from(&mut &bytes[..]);
    }

    #[test]
    fn mutated_event_frames_never_panic_frame_or_event_decoding(
        variant in 0..9usize,
        payload in prop::collection::vec(any::<u8>(), 0..48usize),
        positions in prop::collection::vec(any::<usize>(), 1..8usize),
        masks in prop::collection::vec(1..=255u8, 1..8usize),
    ) {
        let event = event_variant(variant, payload);
        let mut bytes = event.into_frame(COORDINATOR, 5).encode();
        for (pos, mask) in positions.iter().zip(masks.iter()) {
            let i = pos % bytes.len();
            bytes[i] ^= mask;
        }
        // A mutated frame either fails with a typed error at one of the
        // two decode layers or round-trips to *some* valid event — never
        // a panic either way.
        if let Ok(frame) = Frame::decode(&bytes) {
            let _ = NodeEvent::from_frame(&frame);
        }
        if let Ok(frame) = Frame::read_from(&mut &bytes[..]) {
            let _ = NodeEvent::from_frame(&frame);
        }
    }

    #[test]
    fn every_truncation_of_a_valid_frame_errors_cleanly(
        variant in 0..9usize,
        payload in prop::collection::vec(any::<u8>(), 1..48usize),
        cut in any::<usize>(),
    ) {
        let bytes = event_variant(variant, payload).into_frame(COORDINATOR, 5).encode();
        let cut = cut % bytes.len(); // strictly shorter than the frame
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        prop_assert!(Frame::read_from(&mut &bytes[..cut]).is_err());
    }

    #[test]
    fn serve_loop_never_panics_on_arbitrary_byte_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..512usize),
    ) {
        let mut transport = FramedSocketTransport::new(ScriptedStream::new(bytes));
        let mut actor = Counting::default();
        // The stream is finite, so the loop always returns: a clean
        // Shutdown (if the garbage happens to spell one) or an error.
        let _ = serve(5, &mut transport, &mut actor);
    }

    #[test]
    fn serve_loop_survives_valid_frames_with_a_corrupted_tail(
        variant in 0..9usize,
        payload in prop::collection::vec(any::<u8>(), 0..32usize),
        garbage in prop::collection::vec(any::<u8>(), 1..64usize),
    ) {
        // A well-formed prefix must be processed; the corrupted tail must
        // end the loop with an error, not a panic.
        let event = event_variant(variant, payload);
        let expect_prefix = !matches!(event, NodeEvent::Shutdown);
        let mut bytes = event.into_frame(COORDINATOR, 5).encode();
        bytes.extend_from_slice(&garbage);
        let mut transport = FramedSocketTransport::new(ScriptedStream::new(bytes));
        let mut actor = Counting::default();
        let result = serve(5, &mut transport, &mut actor);
        if expect_prefix {
            prop_assert_eq!(actor.handled, 1, "the valid frame precedes the garbage");
            prop_assert!(result.is_err(), "the garbage tail cannot end in a clean Shutdown");
        }
    }

    #[test]
    fn guarded_serve_loop_never_panics_on_arbitrary_byte_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..512usize),
        window in 0..8usize,
    ) {
        let mut transport = FramedSocketTransport::new(ScriptedStream::new(bytes));
        let mut actor = Counting::default();
        let mut guard = FrameGuard::new(5).with_replay_window(window);
        let _ = chiaroscuro_node::serve_guarded(&mut transport, &mut actor, &mut guard);
    }
}
