//! Typed protocol events: what a node actor responds to.
//!
//! The event layer is deliberately thin: control fields (phases, contact
//! addresses, flags) are typed here, while protocol state — ciphertext
//! vectors, provisioning blobs, readouts — crosses as opaque bytes
//! serialised by the cipher-aware layer (`chiaroscuro_crypto::wire` via
//! `chiaroscuro_core`).  This keeps the transport crate free of any crypto
//! dependency and the frame codec identical for every backend.

use crate::frame::{Frame, FrameError};
use crate::NodeId;

/// Which gossip phase an exchange belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The EESum epidemic sum over the encrypted contribution vectors.
    Means,
    /// The min-identifier dissemination of the noise-surplus correction.
    Correction,
}

impl Phase {
    fn to_byte(self) -> u8 {
        match self {
            Phase::Means => 0,
            Phase::Correction => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(Phase::Means),
            2 => Ok(Phase::Correction),
            _ => Err(FrameError::BadPayload("unknown gossip phase")),
        }
    }
}

/// A typed protocol event, the unit of actor interaction.
///
/// Lifecycle: the coordinator provisions each actor with one [`Hello`],
/// then per iteration sends [`IterationStart`], drives the planned gossip
/// schedule via [`InitiateExchange`] (actors exchange state peer-to-peer
/// through [`ExchangeRequest`]/[`ExchangeReply`] pairs — two wire messages
/// per exchange, matching the paper's message accounting), injects
/// [`CorrectionProposal`]s for the dissemination phase, and collects
/// [`ReadoutRequest`]/[`ReadoutReply`] at the end.  [`Shutdown`] terminates
/// the serve loop.
///
/// [`Hello`]: NodeEvent::Hello
/// [`IterationStart`]: NodeEvent::IterationStart
/// [`InitiateExchange`]: NodeEvent::InitiateExchange
/// [`ExchangeRequest`]: NodeEvent::ExchangeRequest
/// [`ExchangeReply`]: NodeEvent::ExchangeReply
/// [`CorrectionProposal`]: NodeEvent::CorrectionProposal
/// [`ReadoutRequest`]: NodeEvent::ReadoutRequest
/// [`ReadoutReply`]: NodeEvent::ReadoutReply
/// [`Shutdown`]: NodeEvent::Shutdown
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// Coordinator → node: one-time provisioning (population, spec, public
    /// cipher material, the node's own series) as an opaque blob.
    Hello {
        /// Serialised provisioning configuration.
        config: Vec<u8>,
    },
    /// Coordinator → node: begin one clustering iteration (centroids,
    /// noise scales, the node's device seed) as an opaque blob.
    IterationStart {
        /// Serialised iteration inputs.
        payload: Vec<u8>,
    },
    /// Coordinator → initiator: perform one gossip exchange with `contact`.
    InitiateExchange {
        /// The gossip phase the exchange belongs to.
        phase: Phase,
        /// The peer to exchange with.
        contact: NodeId,
    },
    /// Initiator → contact: the initiator's serialised phase state.
    ExchangeRequest {
        /// The gossip phase the exchange belongs to.
        phase: Phase,
        /// Serialised initiator-side state.
        state: Vec<u8>,
    },
    /// Contact → initiator: the merged phase state after the exchange (both
    /// peers leave every pairwise protocol with identical state, so the
    /// initiator adopts the reply wholesale).
    ExchangeReply {
        /// The gossip phase the exchange belongs to.
        phase: Phase,
        /// Serialised merged state.
        state: Vec<u8>,
    },
    /// Coordinator → node: the node's noise-surplus correction proposal for
    /// the dissemination phase (drawn from the run's master RNG stream to
    /// keep the monolithic draw order).
    CorrectionProposal {
        /// Serialised correction (id + sum/count vectors).
        payload: Vec<u8>,
    },
    /// Coordinator → node: report end-of-iteration state.
    ReadoutRequest {
        /// Whether to include the full (possibly large) unit vector of the
        /// means state — requested only from the reference node.
        include_units: bool,
    },
    /// Node → coordinator: the serialised end-of-iteration readout.
    ReadoutReply {
        /// Serialised readout (weights, counter, dissemination state,
        /// optional unit vector).
        payload: Vec<u8>,
    },
    /// Coordinator → node: terminate the serve loop.
    Shutdown,
}

impl NodeEvent {
    /// The frame kind byte of this event.
    pub fn kind(&self) -> u8 {
        match self {
            NodeEvent::Hello { .. } => 1,
            NodeEvent::IterationStart { .. } => 2,
            NodeEvent::InitiateExchange { .. } => 3,
            NodeEvent::ExchangeRequest { .. } => 4,
            NodeEvent::ExchangeReply { .. } => 5,
            NodeEvent::CorrectionProposal { .. } => 6,
            NodeEvent::ReadoutRequest { .. } => 7,
            NodeEvent::ReadoutReply { .. } => 8,
            NodeEvent::Shutdown => 9,
        }
    }

    /// Serialises the event's payload (everything but the kind byte, which
    /// travels in the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            NodeEvent::Hello { config } => config.clone(),
            NodeEvent::IterationStart { payload } => payload.clone(),
            NodeEvent::InitiateExchange { phase, contact } => {
                let mut buf = Vec::with_capacity(5);
                buf.push(phase.to_byte());
                buf.extend_from_slice(&contact.to_be_bytes());
                buf
            }
            NodeEvent::ExchangeRequest { phase, state }
            | NodeEvent::ExchangeReply { phase, state } => {
                let mut buf = Vec::with_capacity(1 + state.len());
                buf.push(phase.to_byte());
                buf.extend_from_slice(state);
                buf
            }
            NodeEvent::CorrectionProposal { payload } => payload.clone(),
            NodeEvent::ReadoutRequest { include_units } => vec![u8::from(*include_units)],
            NodeEvent::ReadoutReply { payload } => payload.clone(),
            NodeEvent::Shutdown => Vec::new(),
        }
    }

    /// Decodes an event from its kind byte and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<NodeEvent, FrameError> {
        match kind {
            1 => Ok(NodeEvent::Hello { config: payload.to_vec() }),
            2 => Ok(NodeEvent::IterationStart { payload: payload.to_vec() }),
            3 => {
                if payload.len() != 5 {
                    return Err(FrameError::BadPayload("InitiateExchange needs 5 bytes"));
                }
                Ok(NodeEvent::InitiateExchange {
                    phase: Phase::from_byte(payload[0])?,
                    contact: NodeId::from_be_bytes([payload[1], payload[2], payload[3], payload[4]]),
                })
            }
            4 | 5 => {
                let Some((&phase, state)) = payload.split_first() else {
                    return Err(FrameError::BadPayload("exchange frame without a phase byte"));
                };
                let phase = Phase::from_byte(phase)?;
                let state = state.to_vec();
                Ok(if kind == 4 {
                    NodeEvent::ExchangeRequest { phase, state }
                } else {
                    NodeEvent::ExchangeReply { phase, state }
                })
            }
            6 => Ok(NodeEvent::CorrectionProposal { payload: payload.to_vec() }),
            7 => match payload {
                [0] => Ok(NodeEvent::ReadoutRequest { include_units: false }),
                [1] => Ok(NodeEvent::ReadoutRequest { include_units: true }),
                [_] => Err(FrameError::BadPayload("a flag byte must be 0 or 1")),
                _ => Err(FrameError::BadPayload("ReadoutRequest needs 1 byte")),
            },
            8 => Ok(NodeEvent::ReadoutReply { payload: payload.to_vec() }),
            9 => {
                if !payload.is_empty() {
                    return Err(FrameError::BadPayload("Shutdown carries no payload"));
                }
                Ok(NodeEvent::Shutdown)
            }
            other => Err(FrameError::UnknownKind(other)),
        }
    }

    /// Wraps the event in an addressed frame.
    pub fn into_frame(self, from: NodeId, to: NodeId) -> Frame {
        Frame { kind: self.kind(), from, to, payload: self.encode_payload() }
    }

    /// Decodes the event a frame carries.
    pub fn from_frame(frame: &Frame) -> Result<NodeEvent, FrameError> {
        NodeEvent::decode(frame.kind, &frame.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: &NodeEvent) {
        let frame = event.clone().into_frame(3, 9);
        assert_eq!(frame.from, 3);
        assert_eq!(frame.to, 9);
        let decoded = NodeEvent::from_frame(&Frame::decode(&frame.encode()).unwrap()).unwrap();
        assert_eq!(decoded, *event);
    }

    #[test]
    fn every_event_round_trips_through_the_codec() {
        round_trip(&NodeEvent::Hello { config: vec![9, 8, 7] });
        round_trip(&NodeEvent::IterationStart { payload: vec![1; 40] });
        round_trip(&NodeEvent::InitiateExchange { phase: Phase::Means, contact: 17 });
        round_trip(&NodeEvent::ExchangeRequest { phase: Phase::Means, state: vec![5; 16] });
        round_trip(&NodeEvent::ExchangeReply { phase: Phase::Correction, state: Vec::new() });
        round_trip(&NodeEvent::CorrectionProposal { payload: vec![0xAB; 24] });
        round_trip(&NodeEvent::ReadoutRequest { include_units: true });
        round_trip(&NodeEvent::ReadoutRequest { include_units: false });
        round_trip(&NodeEvent::ReadoutReply { payload: vec![2; 8] });
        round_trip(&NodeEvent::Shutdown);
    }

    #[test]
    fn malformed_event_payloads_are_typed_errors() {
        assert!(matches!(NodeEvent::decode(0, &[]), Err(FrameError::UnknownKind(0))));
        assert!(matches!(NodeEvent::decode(42, &[]), Err(FrameError::UnknownKind(42))));
        assert!(matches!(NodeEvent::decode(3, &[0, 1]), Err(FrameError::BadPayload(_))));
        assert!(matches!(NodeEvent::decode(3, &[9, 0, 0, 0, 1]), Err(FrameError::BadPayload(_))));
        assert!(matches!(NodeEvent::decode(4, &[]), Err(FrameError::BadPayload(_))));
        assert!(matches!(NodeEvent::decode(7, &[]), Err(FrameError::BadPayload(_))));
        assert!(matches!(NodeEvent::decode(7, &[0, 0]), Err(FrameError::BadPayload(_))));
        // A flag byte is strictly 0 or 1, as everywhere else on this wire.
        for byte in 2..=u8::MAX {
            assert!(matches!(NodeEvent::decode(7, &[byte]), Err(FrameError::BadPayload(_))), "flag byte {byte}");
        }
        assert!(matches!(NodeEvent::decode(9, &[1]), Err(FrameError::BadPayload(_))));
        // The phase bytes are 0 (means) and 2 (correction); 1 names no phase.
        let unknown = |decoded| matches!(decoded, Err(FrameError::BadPayload("unknown gossip phase")));
        for kind in [4, 5] {
            assert!(unknown(NodeEvent::decode(kind, &[1, 0xAB])), "exchange kind {kind}");
        }
        assert!(unknown(NodeEvent::decode(3, &[1, 0, 0, 0, 1])));
    }
}
