//! The actor-driven execution path: [`DistributedRun::via_actors`] runs the
//! same iteration driver as the monolithic [`DistributedRun::execute`], on
//! an executor for which every participant is a [`ChiaroscuroNodeActor`]
//! behind a [`chiaroscuro_node::Transport`] link and every piece of
//! per-node protocol state lives on the node's side of that link.
//!
//! # Topology and scheduling
//!
//! The coordinator holds one link per node (a star overlay standing in for
//! the Newscast mesh) and wraps them in a node store whose `apply_exchange`
//! is a relay; each `gossip(Phase)` call is one [`run_phase`] over that
//! store, exactly as the monolith runs it over in-process state — one
//! recipe, one planner, one stop rule, one fault schedule, one set of
//! counters — on the round engine or the event-driven one, whichever the
//! run's network model selects.  Each exchange the engine applies is
//! delivered as:
//!
//! ```text
//! coordinator ── InitiateExchange(phase, contact) ──▶ initiator
//! initiator  ──  ExchangeRequest(phase, state)    ──▶ contact   (routed)
//! contact    ──  ExchangeReply(phase, merged)     ──▶ initiator (routed)
//! ```
//!
//! The two routed messages are the protocol traffic (the monolith's
//! `2 × exchanges` message accounting); `InitiateExchange` is uncounted
//! control traffic, standing in for the node's own gossip timer.
//!
//! Under an active adversary ([`ChiaroscuroParams::adversary`]) the engine
//! voids a seeded subset of the planned exchanges before they reach the
//! store, so on a link a voided exchange is simply never relayed — the
//! simulator's own definition of a void (both endpoints keep their
//! pre-exchange state, nothing is counted).  These are schedule-level
//! faults; byte-level injection on the links themselves is not modelled.
//!
//! [`ChiaroscuroParams::adversary`]: crate::config::ChiaroscuroParams::adversary
//!
//! # Determinism contract
//!
//! A pinned scenario driven through `via_actors` reproduces the monolithic
//! `execute` **bit for bit** from the same seed — identical centroids,
//! identical per-iteration network statistics, identical audit log — under
//! both the in-memory and the socket transports.  The contract holds by
//! construction, with or without an adversary: the sequence and every
//! master-RNG draw outside the gossip schedules belong to the one driver,
//! the gossip schedules are drawn by the gossip engine itself, and each
//! actor builds its contribution from its delivered participant seed with
//! the function the in-process executor uses; no RNG lives on a thread
//! boundary.
//!
//! Only the driver ever threshold-decrypts: nodes are provisioned with
//! exported *public* material, so the key shares never cross a link.  The
//! coordinator reads the nodes out twice per iteration: `views` and `units`
//! (the reference node alone) after the means phase, and every node's
//! correction row at the end of the dissemination, to check the nodes
//! against its shadow identifiers and the proposal the driver took as the
//! winner.

use std::ops::Range;

use rand::Rng;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena, MinIdLayout};
use chiaroscuro_gossip::engine::{ProtocolStore, StateStore};
use chiaroscuro_gossip::sim::{run_phase, AdversaryState, PhaseOpts, PhaseStats};
use chiaroscuro_node::{
    FrameError, FramedSocketTransport, LocalBus, NodeEvent, NodeId, Phase, Transport, COORDINATOR,
};
use chiaroscuro_timeseries::TimeSeries;

use crate::actor::{
    decode_readout, encode_correction, ChiaroscuroNodeActor, IterationInputs, NodeSpec, Readout,
    MEANS_FRAME_OVERHEAD_BYTES,
};
use crate::config::TransportKind;
use crate::diptych::closest_centroid;
use crate::iteration::{drive, fold_contribution, Executor, RunContext};
use crate::noise::NoiseCorrection;
use crate::runner::{no_corrections, DistributedRun, RunOutcome};

impl<'a, B: CipherBackend> DistributedRun<'a, B> {
    /// Executes the run through per-node actors over the transport selected
    /// by [`ChiaroscuroParams::transport`]: an in-process [`LocalBus`]
    /// (channel links, one thread per node) or Unix-domain socket pairs
    /// with framed byte streams.  Bit-identical to [`Self::execute`] from
    /// the same seed (see the module docs for why).
    ///
    /// [`ChiaroscuroParams::transport`]: crate::config::ChiaroscuroParams::transport
    ///
    /// # Panics
    /// Panics on transport I/O failure, and on non-Unix platforms when the
    /// socket transport is selected.
    pub fn via_actors(&self, seed: u64) -> RunOutcome {
        let mut rng = crate::seedmix::run_rng(seed);
        let actors: Vec<ChiaroscuroNodeActor<B>> =
            (0..self.data.len()).map(|_| ChiaroscuroNodeActor::new()).collect();
        match self.params.transport {
            TransportKind::InMemory => {
                let mut bus = LocalBus::spawn(actors);
                let outcome = self.execute_via_links(bus.links_mut(), 0, &mut rng);
                bus.shutdown().expect("the node actors must shut down cleanly");
                outcome
            }
            // The socket deployment shape, in-process: one Unix-domain
            // socket pair per node, every frame crossing a real byte stream.
            // The multi-process example replays exactly this wire protocol
            // with the serve loops in forked processes.
            #[cfg(unix)]
            TransportKind::UnixSocket => {
                let mut bus = LocalBus::spawn_over(actors, || {
                    let (coordinator_side, node_side) = std::os::unix::net::UnixStream::pair()
                        .expect("socketpair(2) cannot fail for in-process links");
                    (FramedSocketTransport::new(coordinator_side), FramedSocketTransport::new(node_side))
                });
                let outcome =
                    self.execute_via_links(bus.links_mut(), MEANS_FRAME_OVERHEAD_BYTES, &mut rng);
                bus.shutdown().expect("the node serve loops must exit cleanly");
                outcome
            }
            #[cfg(not(unix))]
            TransportKind::UnixSocket => panic!("TransportKind::UnixSocket requires a Unix platform"),
        }
    }

    /// Drives the full execution sequence over caller-provided transport
    /// links — one per participant, each with a freshly spawned
    /// [`ChiaroscuroNodeActor`] serve loop on its far end (in a thread, a
    /// forked process, or a remote host).  [`Self::via_actors`] is this
    /// method plus link setup; the multi-process example calls it directly
    /// over sockets whose serve loops live in child processes.
    ///
    /// This is the one iteration driver (`crate::iteration`) on the link
    /// executor, so the outcome is bit-identical to [`Self::execute`] from
    /// the same seed.  `frame_overhead` is added to each reported gossip
    /// payload size (socket deployments transmit a frame header per
    /// protocol message — pass [`MEANS_FRAME_OVERHEAD_BYTES`]; pass 0 for
    /// in-memory links to report the monolith's figure unchanged).
    ///
    /// # Panics
    /// Panics on a link-count mismatch and on transport I/O failure.
    pub fn execute_via_links<T: Transport, R: Rng + ?Sized>(
        &self,
        links: &mut [T],
        frame_overhead: usize,
        rng: &mut R,
    ) -> RunOutcome {
        assert_eq!(links.len(), self.data.len(), "one transport link per participant");
        let mut outcome = drive(self, &mut LinkExecutor { links, shadow: no_corrections(), winner: Vec::new() }, rng);
        for stats in &mut outcome.network {
            stats.sum_payload_bytes += frame_overhead;
        }
        outcome
    }
}

/// The deployed population as a node store: every piece of per-node state
/// lives behind a transport link, and applying an exchange is relaying it
/// through the star as a request/reply pair.  The protocol it is driven
/// with is the wire [`Phase`] tag — the update rule itself runs on the
/// nodes.
struct LinkStore<'l, T> {
    links: &'l mut [T],
    /// The coordinator's shadow of the nodes' proposals: every relayed
    /// correction exchange is applied to it too, by the nodes' own min-id
    /// rule, so the phase stops on agreement without a readout per round.
    shadow: &'l mut MinIdArena,
}

impl<T> StateStore for LinkStore<'_, T> {
    fn population(&self) -> usize {
        self.links.len()
    }
}

impl<T: Transport> ProtocolStore<Phase> for LinkStore<'_, T> {
    /// Tells the initiator to start, routes its request to the contact and
    /// the merged reply back.  Strict lockstep — the coordinator never
    /// interleaves two exchanges, exactly like an in-place store's
    /// sequential pair updates.
    fn apply_exchange(&mut self, phase: &Phase, initiator: usize, contact: usize) {
        send(
            &mut self.links[initiator],
            initiator,
            NodeEvent::InitiateExchange { phase: *phase, contact: contact as NodeId },
        );
        let request = self.links[initiator]
            .recv()
            .unwrap_or_else(|e| panic!("receiving node {initiator}'s exchange request failed: {e}"));
        assert_eq!(request.to, contact as NodeId, "the initiator must address its planned contact");
        self.links[contact]
            .send(&request)
            .unwrap_or_else(|e| panic!("routing to node {contact} failed: {e}"));
        let reply = self.links[contact]
            .recv()
            .unwrap_or_else(|e| panic!("receiving node {contact}'s exchange reply failed: {e}"));
        assert_eq!(reply.to, initiator as NodeId, "the contact must reply to the initiator");
        self.links[initiator]
            .send(&reply)
            .unwrap_or_else(|e| panic!("routing to node {initiator} failed: {e}"));
        if *phase == Phase::Correction {
            self.shadow.apply_exchange(&DisseminationProtocol, initiator, contact);
        }
    }
}

/// The link executor: the deployed population plus the coordinator's
/// shadow of the nodes' correction proposals.
struct LinkExecutor<'l, T> {
    links: &'l mut [T],
    /// Each node's proposal identifier, from `propose` on: a [`MinIdArena`]
    /// with an empty payload, which the correction phase drives through the
    /// min-id rule to stop on agreement.
    shadow: MinIdArena,
    /// The row proposed with the smallest identifier: what every node that
    /// ends the phase holding that identifier must carry.
    winner: Vec<u64>,
}

impl<T: Transport> LinkExecutor<'_, T> {
    /// Requests the readouts of `nodes` (with their accumulated unit vectors
    /// when `include_units`) and decodes each through `read`.  Every
    /// request goes out before the first reply is awaited, so the nodes
    /// answer concurrently instead of one socket round trip after another.
    #[expect(
        clippy::expect_used,
        reason = "the Executor methods cannot return an error: until a ProtocolError can, a readout \
                  that fails to arrive or decode stops the run instead of entering the decrypted aggregate"
    )]
    fn readout_round<B: CipherBackend, V>(
        &mut self,
        ctx: &RunContext<'_, B>,
        nodes: Range<usize>,
        include_units: bool,
        read: impl Fn(Readout<B>) -> Result<V, FrameError>,
    ) -> Vec<V> {
        let links = &mut self.links[nodes.clone()];
        for (node, link) in nodes.zip(links.iter_mut()) {
            send(link, node, NodeEvent::ReadoutRequest { include_units });
        }
        links
            .iter_mut()
            .map(|link| match NodeEvent::from_frame(&link.recv()?)? {
                NodeEvent::ReadoutReply { payload } => read(decode_readout(&ctx.kit, &payload)?),
                other => Err(FrameError::OutOfOrder { kind: other.kind(), state: "awaiting a readout reply" }),
            })
            .collect::<Result<_, FrameError>>()
            .expect("every node answers the readout request with a well-formed readout")
    }

    /// Reads every node's correction row back at the end of the phase: each
    /// node's identifier must equal the shadow's, and whoever holds the
    /// smallest identifier must hold the row proposed with it, bit for bit.
    fn check_corrections<B: CipherBackend>(&mut self, ctx: &RunContext<'_, B>) {
        let row = |readout: Readout<B>| {
            readout.correction.ok_or(FrameError::BadPayload("the readout carries no correction row"))
        };
        let rows = self.readout_round(ctx, 0..self.links.len(), false, row);
        for (node, row) in rows.iter().enumerate() {
            assert_eq!(row[0], self.shadow.id(node), "the coordinator's shadow ids must match the nodes'");
            assert!(
                row[0] != self.winner[0] || *row == self.winner,
                "every node holding the winning identifier must carry the same payload"
            );
        }
    }
}

impl<T: Transport, B: CipherBackend> Executor<B> for LinkExecutor<'_, T> {
    /// Public material only; the key shares stay with the driver's backend.
    /// Each node receives the device half of the run's plan as it stands.
    fn provision(&mut self, ctx: &RunContext<'_, B>) {
        let public = ctx.kit.backend.export_public();
        for (node, link) in self.links.iter_mut().enumerate() {
            let spec = NodeSpec {
                plan: ctx.run.plan.device,
                public: public.clone(),
                series: ctx.run.data.series()[node].values().to_vec(),
            };
            send(link, node, NodeEvent::Hello { config: spec.encode() });
        }
    }

    fn contribute(
        &mut self,
        ctx: &RunContext<'_, B>,
        centroids: &[TimeSeries],
        participant_seeds: &[u64],
        sum_scale: f64,
        count_scale: f64,
    ) -> Vec<usize> {
        let centroids_flat: Vec<f64> =
            centroids.iter().flat_map(|c| c.values().iter().copied()).collect();
        for (node, link) in self.links.iter_mut().enumerate() {
            let inputs = IterationInputs {
                participant_seed: participant_seeds[node],
                weight_seed: node == ctx.run.plan.weight_seed,
                sum_scale,
                count_scale,
                centroids_flat: centroids_flat.clone(),
            };
            send(link, node, NodeEvent::IterationStart { payload: inputs.encode() });
        }
        // The label each actor assigned itself is a pure function of the
        // centroids and its series; the coordinator recomputes it for the
        // reporting-only PRE metrics instead of asking.
        ctx.run.data.series().iter().map(|s| closest_centroid(centroids, s)).collect()
    }

    /// Runs the phase over the links on the engine the run's network model
    /// selects.  The correction phase stops on agreement over the shadow
    /// proposals, then checks the nodes' rows; the means phase runs its
    /// budget.
    fn gossip<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        phase: Phase,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats {
        let mut agreed = |store: &LinkStore<'_, T>| store.shadow.converged();
        let until = (phase == Phase::Correction).then_some(&mut agreed as &mut dyn FnMut(&_) -> bool);
        let store = LinkStore { links: &mut *self.links, shadow: &mut self.shadow };
        let opts = PhaseOpts { until, adversary };
        let stats = run_phase(&ctx.run.params.network, store, ctx.churn, &phase, ctx.run.plan.exchanges, rng, opts).1;
        if phase == Phase::Correction {
            self.check_corrections(ctx);
        }
        stats
    }

    /// One readout round over every node.
    fn views(&mut self, ctx: &RunContext<'_, B>) -> impl Iterator<Item = f64> {
        self.readout_round(ctx, 0..self.links.len(), false, |readout| Ok(readout.weight)).into_iter()
    }

    /// One readout of the reference node alone, with its units.  The node
    /// actors gossip the protocol's two halves, so the reference returns
    /// `2·means_units + 1` units; they are folded here, by the rule the
    /// in-process executor applies at contribution.
    fn units(&mut self, ctx: &RunContext<'_, B>, reference: usize) -> Vec<B::Unit> {
        let units = |readout: Readout<B>| {
            readout.units.ok_or(FrameError::BadPayload("the reference's readout carries no units"))
        };
        let split = self.readout_round(ctx, reference..reference + 1, true, units).into_iter().flatten().collect();
        fold_contribution(ctx.kit.backend.as_ref(), split, ctx.run.plan.means_units)
    }

    fn propose(&mut self, _ctx: &RunContext<'_, B>, proposals: Vec<NoiseCorrection>) {
        for ((node, link), c) in self.links.iter_mut().enumerate().zip(&proposals) {
            let payload = encode_correction(&MinIdLayout::row(c.id, c.payload()));
            send(link, node, NodeEvent::CorrectionProposal { payload });
        }
        // The coordinator shadows only the identifiers; payloads stay on
        // the nodes and are cross-checked at the end of the phase.
        self.shadow = MinIdArena::build(proposals.len(), 0, |node, _| proposals[node].id);
        let winner = &proposals[self.shadow.winning_node()];
        self.winner = MinIdLayout::row(winner.id, winner.payload());
    }
}

/// Sends one coordinator-originated event down a node's link.
fn send<T: Transport>(link: &mut T, node: usize, event: NodeEvent) {
    link.send(&event.into_frame(COORDINATOR, node as NodeId))
        .unwrap_or_else(|e| panic!("sending to node {node} failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use chiaroscuro_crypto::backend::{BackendSetup, DamgardJurik};
    use chiaroscuro_node::Actor;
    use chiaroscuro_timeseries::{TimeSeriesSet, ValueRange};
    use crate::config::ChiaroscuroParams;
    use chiaroscuro_dp::budget::BudgetStrategy;

    fn tiny_setup() -> (TimeSeriesSet, ChiaroscuroParams) {
        let series = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    TimeSeries::constant(4, 12.0)
                } else {
                    TimeSeries::constant(4, 68.0)
                }
            })
            .collect();
        let data = TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0));
        let params = ChiaroscuroParams::builder()
            .k(2)
            .max_iterations(2)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(10)
            .exchanges(8)
            .epsilon(40.0)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
            .build();
        (data, params)
    }

    /// Honesty check for the network stats under a socket transport: the
    /// modeled per-message byte figure
    /// (`sum_payload_ciphertexts × unit_bytes + MEANS_FRAME_OVERHEAD_BYTES`)
    /// must equal the encoded length of the frame a provisioned actor
    /// *actually* produces for a means exchange — measured here by driving
    /// a real actor through Hello → IterationStart → InitiateExchange and
    /// encoding the resulting `ExchangeRequest`.
    #[test]
    fn modeled_socket_payload_bytes_match_an_actual_means_frame() {
        let (data, params) = tiny_setup();
        let run = DistributedRun::<DamgardJurik>::with_backend(params.clone(), &data);
        let mut rng = StdRng::seed_from_u64(5);
        let setup = BackendSetup {
            key_bits: params.key_bits,
            damgard_jurik_s: params.damgard_jurik_s,
            population: data.len(),
            key_share_threshold: params.key_share_threshold,
            packed_layout: Some(run.plan.packer.layout()),
        };
        let backend = DamgardJurik::setup(&setup, &mut rng);
        let k = params.k;

        let spec = NodeSpec {
            plan: run.plan.device,
            public: backend.export_public(),
            series: data.series()[0].values().to_vec(),
        };
        let mut actor = ChiaroscuroNodeActor::<DamgardJurik>::new();
        assert!(actor.on_event(COORDINATOR, NodeEvent::Hello { config: spec.encode() }).is_empty());
        let centroids_flat: Vec<f64> =
            data.series()[..k].iter().flat_map(|c| c.values().iter().copied()).collect();
        let inputs = IterationInputs {
            participant_seed: 99,
            weight_seed: true,
            sum_scale: 1.5,
            count_scale: 0.5,
            centroids_flat,
        };
        actor.on_event(COORDINATOR, NodeEvent::IterationStart { payload: inputs.encode() });
        let mut replies =
            actor.on_event(COORDINATOR, NodeEvent::InitiateExchange { phase: Phase::Means, contact: 1 });
        assert_eq!(replies.len(), 1);
        let (to, request) = replies.remove(0);
        assert_eq!(to, 1);
        let frame = request.into_frame(0, to);

        let modeled = run.plan.contribution_units * backend.unit_bytes() + MEANS_FRAME_OVERHEAD_BYTES;
        assert_eq!(frame.encoded_len(), modeled, "modeled socket payload must equal the transmitted frame");
    }

    /// A link that keeps a copy of every `Hello` payload sent down it.
    struct HelloTap<'l, T> {
        link: &'l mut T,
        hello: Vec<u8>,
    }

    impl<T: Transport> Transport for HelloTap<'_, T> {
        fn send(&mut self, frame: &chiaroscuro_node::Frame) -> std::io::Result<()> {
            if let Ok(NodeEvent::Hello { config }) = NodeEvent::from_frame(frame) {
                self.hello.extend_from_slice(&config);
            }
            self.link.send(frame)
        }

        fn recv(&mut self) -> std::io::Result<chiaroscuro_node::Frame> {
            self.link.recv()
        }

        fn bytes_sent(&self) -> u64 {
            self.link.bytes_sent()
        }

        fn bytes_received(&self) -> u64 {
            self.link.bytes_received()
        }
    }

    /// Every node's `Hello` payload of one actor run, concatenated in node
    /// order, as its length and FNV-1a digest.
    fn hello_bytes<B: CipherBackend>(params: ChiaroscuroParams, data: &TimeSeriesSet, seed: u64) -> (usize, u64) {
        let run = DistributedRun::<B>::with_backend(params, data);
        let actors: Vec<ChiaroscuroNodeActor<B>> = (0..data.len()).map(|_| ChiaroscuroNodeActor::new()).collect();
        let mut bus = LocalBus::spawn(actors);
        let mut taps: Vec<_> = bus.links_mut().iter_mut().map(|link| HelloTap { link, hello: Vec::new() }).collect();
        run.execute_via_links(&mut taps, 0, &mut crate::seedmix::run_rng(seed));
        let bytes: Vec<u8> = taps.into_iter().flat_map(|tap| tap.hello).collect();
        bus.shutdown().expect("the node actors shut down");
        let digest =
            bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3));
        (bytes.len(), digest)
    }

    /// The provisioning bytes on the wire, pinned for a Damgård–Jurik run
    /// and a surrogate run: how the coordinator derives and ships the run
    /// shape may change, the bytes every node receives may not.
    #[test]
    fn hello_payloads_keep_their_pinned_bytes() {
        use chiaroscuro_crypto::backend::PlaintextSurrogate;
        let (data, params) = tiny_setup();
        assert_eq!(hello_bytes::<DamgardJurik>(params, &data, 3), (2_448, 0x97C7_DA84_B8C4_C0CD));
        let data = TimeSeriesSet::new(
            (0..20).map(|i| TimeSeries::constant(6, f64::from(i % 5) * 15.0 + 2.5)).collect(),
            ValueRange::new(0.0, 75.0),
        );
        let params = ChiaroscuroParams::builder()
            .k(3)
            .max_iterations(1)
            .key_share_threshold(4)
            .num_noise_shares(16)
            .epsilon(5.0)
            .build();
        assert_eq!(hello_bytes::<PlaintextSurrogate>(params, &data, 9), (2_240, 0xF2F1_407D_9E54_65CD));
    }
}
