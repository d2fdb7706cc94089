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
//! is a relay; [`run_phase`] then runs each phase over that store exactly as
//! the monolith runs it over in-process state — one recipe, one planner,
//! one stop rule, one fault schedule, one set of counters — on the round
//! engine or the event-driven one, whichever the run's network model
//! selects.  Each exchange the engine applies is delivered as:
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
//! exported *public* material, so the key shares never cross a link.

use rand::Rng;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_gossip::engine::{ProtocolStore, StateStore};
use chiaroscuro_gossip::sim::{run_phase, AdversaryState, PhaseOpts, PhaseStats};
use chiaroscuro_gossip::sum::SumState;
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
use crate::iteration::{drive, Executor, RunContext};
use crate::noise::NoiseCorrection;
use crate::runner::{DistributedRun, RunOutcome};

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
        let mut outcome = drive(self, &mut LinkExecutor { links, readouts: Vec::new() }, rng);
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
    /// The coordinator's shadow of the nodes' proposal identifiers, when the
    /// phase stops on agreement: the min-id rule is mirrored per relayed
    /// exchange, which saves a readout per round.
    ids: Option<&'l mut [u64]>,
}

impl<T> LinkStore<'_, T> {
    /// Whether the tracked identifiers all agree (`false` when none are).
    fn agreed(&self) -> bool {
        self.ids.as_ref().is_some_and(|ids| ids.iter().all(|&id| id == ids[0]))
    }
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
        if let Some(ids) = &mut self.ids {
            let merged = ids[initiator].min(ids[contact]);
            ids[initiator] = merged;
            ids[contact] = merged;
        }
    }
}

/// The link executor: the deployed population plus what the coordinator
/// has read out of it.
struct LinkExecutor<'l, T: Transport, B: CipherBackend> {
    links: &'l mut [T],
    /// Every node's view once the epidemic weights and counters are frozen
    /// (dissemination never touches them).
    readouts: Vec<Readout<B>>,
}

impl<T: Transport, B: CipherBackend> LinkExecutor<'_, T, B> {
    /// Runs one phase over the links on the engine the run's network model
    /// selects.  With `ids` the phase stops on agreement over them; without,
    /// it runs its budget.
    fn relay_phase<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        phase: Phase,
        rng: &mut R,
        ids: Option<&mut [u64]>,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats {
        let mut agreed = LinkStore::agreed;
        let until = ids.is_some().then_some(&mut agreed as &mut dyn FnMut(&_) -> bool);
        let store = LinkStore { links: &mut *self.links, ids };
        let opts = PhaseOpts { until, adversary };
        run_phase(&ctx.run.params.network, store, ctx.churn, &phase, ctx.exchanges, rng, opts).1
    }

    /// Requests and decodes every node's readout (`with_units` additionally
    /// asks that one node for its accumulated unit vector).  Every request
    /// goes out before the first reply is awaited, so the nodes answer
    /// concurrently instead of one socket round trip after another.
    #[expect(
        clippy::expect_used,
        reason = "Executor::settle cannot return an error: until a ProtocolError can, a readout that \
                  fails to arrive or decode stops the run instead of entering the decrypted aggregate"
    )]
    fn read_out(&mut self, ctx: &RunContext<'_, B>, with_units: Option<usize>) -> Vec<Readout<B>> {
        let (k, n) = (ctx.run.params.k, ctx.run.data.series_length());
        let backend: &B = &ctx.kit.backend;
        for (node, link) in self.links.iter_mut().enumerate() {
            send(link, node, NodeEvent::ReadoutRequest { include_units: with_units == Some(node) });
        }
        self.links
            .iter_mut()
            .map(|link| match NodeEvent::from_frame(&link.recv()?)? {
                NodeEvent::ReadoutReply { payload } => decode_readout::<B>(backend, &payload, k, n),
                _ => Err(FrameError::BadPayload("expected a readout reply")),
            })
            .collect::<Result<_, FrameError>>()
            .expect("every node answers the readout request with a well-formed readout")
    }
}

impl<T: Transport, B: CipherBackend> Executor<B> for LinkExecutor<'_, T, B> {
    /// Public material only; the key shares stay with the driver's backend.
    fn provision(&mut self, ctx: &RunContext<'_, B>) {
        let params = &ctx.run.params;
        let packing = (params.packing_capacity_bits(), ctx.run.packing_budget());
        let public = ctx.kit.backend.export_public();
        for (node, link) in self.links.iter_mut().enumerate() {
            let spec = NodeSpec {
                k: params.k as u32,
                series_length: ctx.run.data.series_length() as u32,
                encoding_digits: params.encoding_digits,
                num_noise_shares: params.num_noise_shares as u32,
                packing,
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
                weight_seed: node == ctx.weight_seed,
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

    fn means_phase<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats {
        self.relay_phase(ctx, Phase::Means, rng, None, adversary)
    }

    fn counter_phase<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> PhaseStats {
        let stats = self.relay_phase(ctx, Phase::Counter, rng, None, adversary);
        self.readouts = self.read_out(ctx, None);
        stats
    }

    fn weight(&self, node: usize) -> f64 {
        self.readouts[node].weight
    }

    fn counter_estimate(&self, node: usize) -> Option<f64> {
        let Readout { sigma, omega, .. } = self.readouts[node];
        SumState { sigma, omega }.estimate()
    }

    fn settle<R: Rng + ?Sized>(
        &mut self,
        ctx: &RunContext<'_, B>,
        proposals: Vec<NoiseCorrection>,
        reference: usize,
        rng: &mut R,
        adversary: Option<&mut AdversaryState>,
    ) -> (Vec<f64>, PhaseStats, Vec<B::Unit>) {
        for ((node, link), c) in self.links.iter_mut().enumerate().zip(&proposals) {
            let payload = encode_correction(c.id, &c.sum_correction, &c.count_correction);
            send(link, node, NodeEvent::CorrectionProposal { payload });
        }
        // The coordinator shadows only the identifiers; payloads stay on
        // the nodes and are cross-checked below.
        let mut ids: Vec<u64> = proposals.iter().map(|c| c.id).collect();
        let stats = self.relay_phase(ctx, Phase::Correction, rng, Some(&mut ids), adversary);

        let mut readouts = self.read_out(ctx, Some(reference));
        let winner_id = *ids.iter().min().expect("non-empty population");
        let mut winning_row: Option<&[f64]> = None;
        for (node, readout) in readouts.iter().enumerate() {
            let (id, row) = readout.correction.as_ref().expect("every node holds a correction state");
            assert_eq!(*id, ids[node], "the coordinator's shadow ids must match the nodes'");
            if *id == winner_id {
                let expected = *winning_row.get_or_insert(row);
                assert_eq!(
                    &row[..],
                    expected,
                    "every node holding the winning identifier must carry the same payload"
                );
            }
        }
        let winning = winning_row.expect("the winning identifier is held somewhere").to_vec();
        let units =
            readouts[reference].units.take().expect("the reference node reports its accumulated units");
        (winning, stats, units)
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
        let packer = run.plan_packing();
        let mut rng = StdRng::seed_from_u64(5);
        let setup = BackendSetup {
            key_bits: params.key_bits,
            damgard_jurik_s: params.damgard_jurik_s,
            population: data.len(),
            key_share_threshold: params.key_share_threshold,
            packed_layout: Some(packer.layout()),
        };
        let backend = DamgardJurik::setup(&setup, &mut rng);
        let n = data.series_length();
        let k = params.k;

        let spec = NodeSpec {
            k: k as u32,
            series_length: n as u32,
            encoding_digits: params.encoding_digits,
            num_noise_shares: params.num_noise_shares as u32,
            packing: (params.packing_capacity_bits(), run.packing_budget()),
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

        let ciphertexts = 2 * packer.ciphertexts_for(k * (n + 1)) + 1;
        let modeled = ciphertexts * backend.unit_bytes() + MEANS_FRAME_OVERHEAD_BYTES;
        assert_eq!(frame.encoded_len(), modeled, "modeled socket payload must equal the transmitted frame");
    }
}
