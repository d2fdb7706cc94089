//! Message-driven node actors and the pluggable transport substrate.
//!
//! The paper's protocol is genuinely decentralized — each device owns its
//! key share, Diptych state and gossip engine — and this crate provides the
//! deployment-shaped half of that claim: a node is an [`actor::Actor`]
//! *driven by typed protocol events* ([`event::NodeEvent`]) rather than a
//! struct called by a monolithic runner, and events travel as versioned
//! length-prefixed frames ([`frame::Frame`]) over a [`transport::Transport`]
//! — either channel-backed in memory ([`transport::InMemoryTransport`],
//! used by the [`bus::LocalBus`] coordinator) or over real byte streams
//! ([`transport::FramedSocketTransport`], TCP or Unix-domain sockets).
//!
//! The crate is deliberately protocol-agnostic: it knows about frames,
//! events, mailboxes and serving loops, not about ciphertexts or k-means.
//! The Chiaroscuro node actor itself lives in `chiaroscuro_core` (it needs
//! the cipher backend), and opaque protocol payloads cross this layer as
//! byte blobs serialised by `chiaroscuro_crypto::wire`.
//!
//! Topology: every node holds exactly one transport link to the
//! coordinator, which routes frames between nodes by their `to` address
//! (a star overlay standing in for the Newscast mesh — the contact
//! *selection* stays uniform over the online population, only the delivery
//! substrate is centralised, mirroring how the PeerSim harness of the
//! paper delivers messages).

// Contract P1: every byte this crate parses may come from a peer, so a
// malformed frame is a typed error, never an `unwrap`/`expect` panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod actor;
pub mod bus;
pub mod event;
pub mod frame;
pub mod transport;

/// A node address: dense indices `0..population` for node actors.
pub type NodeId = u32;

/// The coordinator's reserved address (never a valid node index).
pub const COORDINATOR: NodeId = NodeId::MAX;

pub use actor::{serve, serve_guarded, Actor, FrameGuard, RejectedFrames};
pub use bus::LocalBus;
pub use event::{NodeEvent, Phase};
pub use frame::{Frame, FrameError};
pub use transport::{FramedSocketTransport, InMemoryTransport, Transport};
