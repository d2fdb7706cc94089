//! The Chiaroscuro node actor: one participant as a message-driven state
//! machine over the `chiaroscuro_node` event/transport substrate.
//!
//! [`ChiaroscuroNodeActor`] owns exactly the state one device holds in the
//! deployed protocol — its time series, a seed-derived RNG stream, its
//! Diptych/EESum contribution, the push-pull counter and the min-id
//! correction state — and reacts to typed [`NodeEvent`]s.  The coordinator
//! (see [`crate::cluster`]) plans the gossip schedule; each planned exchange
//! reaches the initiator as [`NodeEvent::InitiateExchange`] and is carried
//! out peer-to-peer as one [`NodeEvent::ExchangeRequest`] plus one
//! [`NodeEvent::ExchangeReply`] — two wire messages, exactly the accounting
//! of the monolithic engine.  Because every pairwise protocol of the run
//! (EESum, push-pull sum, min-id dissemination) leaves both peers with
//! identical state, the contact can apply the exchange locally and the
//! initiator adopts the replied merged state wholesale, bit for bit.
//!
//! Determinism contract: an actor's entire contribution is a function of
//! the `participant_seed` delivered in [`NodeEvent::IterationStart`] — the
//! actor builds it with the very function the in-process executor maps over
//! its simulated population.  Actors never see the run's
//! master RNG, and they never threshold-decrypt (their backend is rebuilt
//! from public material only; the key shares stay with the coordinator).
//!
//! Event payloads cross the transport as explicit big-endian fields (f64s
//! as IEEE-754 bit patterns, unit vectors via
//! [`chiaroscuro_crypto::wire::serialize_units`]), so a frame produced on
//! one side of a socket decodes identically on the other.  Decoding lives
//! in the private `decode` sub-module and fails closed: exchange state
//! bytes originate at peers, so a malformed payload is a typed
//! [`FrameError`], never a panic inside a decoder.

use std::sync::Arc;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder};
use chiaroscuro_crypto::wire::serialize_units;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdState};
use chiaroscuro_gossip::eesum::{EesState, EesSumProtocol};
use chiaroscuro_gossip::engine::PairwiseProtocol;
use chiaroscuro_gossip::sum::{PushPullSum, SumState};
use chiaroscuro_node::frame::HEADER_BYTES;
use chiaroscuro_node::{Actor, FrameError, NodeEvent, NodeId, Phase};
use chiaroscuro_timeseries::TimeSeries;

use crate::evalue::BackendVector;
use crate::iteration::{device_contribution, DeviceKit};

mod decode;

pub(crate) use decode::decode_readout;
use decode::{decode_correction, decode_phase_state, PhaseState};

/// Encoded-frame overhead of one means-phase exchange message beyond the
/// raw unit payload: the frame header plus the phase byte, the EESum
/// weight (8) and exchange counter (4), and the unit-vector count/width
/// prefix (8).  When a socket transport is configured the cluster driver
/// adds this to the modeled `sum_payload_bytes`, so the reported figure is
/// the bytes actually written per protocol message (exact for encrypted
/// backends, whose units serialise at precisely `unit_bytes` each).
pub const MEANS_FRAME_OVERHEAD_BYTES: usize = HEADER_BYTES + 1 + 8 + 4 + 8;

// --- little-endian-free byte helpers (everything is big-endian) ---

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_be_bytes());
}

// --- provisioning (Hello) ---

/// Everything a node actor needs to participate: run shape, public cipher
/// material, and the node's own series (in a deployment the series never
/// leaves the device — here the coordinator is the simulation harness that
/// holds the dataset, so provisioning stands in for local data).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeSpec {
    pub(crate) k: u32,
    pub(crate) series_length: u32,
    pub(crate) encoding_digits: u32,
    pub(crate) num_noise_shares: u32,
    /// The lane-packing plan inputs (capacity bits and lane budget):
    /// [`PackedEncoder::plan`] is a pure function, so shipping the inputs
    /// and re-planning on the node yields the coordinator's exact layout
    /// without serialising the encoder itself.
    pub(crate) packing: Option<(u64, LaneBudget)>,
    pub(crate) public: Vec<u8>,
    pub(crate) series: Vec<f64>,
}

impl NodeSpec {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.k);
        put_u32(&mut buf, self.series_length);
        put_u32(&mut buf, self.encoding_digits);
        put_u32(&mut buf, self.num_noise_shares);
        match &self.packing {
            Some((capacity_bits, budget)) => {
                buf.push(1);
                put_u64(&mut buf, *capacity_bits);
                put_u64(&mut buf, budget.contributors as u64);
                put_u32(&mut buf, budget.doubling_budget);
                put_f64(&mut buf, budget.max_abs_value);
                put_u32(&mut buf, budget.biased_vectors);
            }
            None => buf.push(0),
        }
        put_u32(&mut buf, self.public.len() as u32);
        buf.extend_from_slice(&self.public);
        put_u32(&mut buf, self.series.len() as u32);
        for &v in &self.series {
            put_f64(&mut buf, v);
        }
        buf
    }
}

// --- per-iteration inputs (IterationStart) ---

/// One iteration's inputs to a node: its device seed, whether it seeds the
/// epidemic weights, the iteration's Laplace scales and the current
/// cleartext centroids.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IterationInputs {
    pub(crate) participant_seed: u64,
    /// Whether this node is the one that seeds both epidemic weights (EESum
    /// and push-pull counter) with 1.
    pub(crate) weight_seed: bool,
    pub(crate) sum_scale: f64,
    pub(crate) count_scale: f64,
    /// `k × n` centroid values, cluster-major.
    pub(crate) centroids_flat: Vec<f64>,
}

impl IterationInputs {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(25 + 8 * self.centroids_flat.len());
        put_u64(&mut buf, self.participant_seed);
        buf.push(u8::from(self.weight_seed));
        put_f64(&mut buf, self.sum_scale);
        put_f64(&mut buf, self.count_scale);
        for &v in &self.centroids_flat {
            put_f64(&mut buf, v);
        }
        buf
    }
}

// --- correction proposals ---

pub(crate) fn encode_correction(id: u64, sums: &[f64], counts: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 8 * (sums.len() + counts.len()));
    put_u64(&mut buf, id);
    for &v in sums.iter().chain(counts.iter()) {
        put_f64(&mut buf, v);
    }
    buf
}

// --- end-of-iteration readout ---

/// One node's end-of-iteration view, as reported in a
/// [`NodeEvent::ReadoutReply`].
#[derive(Debug, Clone)]
pub(crate) struct Readout<B: CipherBackend> {
    /// EESum weight (scaled; the divisor cancels in `value / weight`).
    pub(crate) weight: f64,
    /// Push-pull counter σ.
    pub(crate) sigma: f64,
    /// Push-pull counter ω.
    pub(crate) omega: f64,
    /// Min-id correction state `(id, flat payload)`, once proposals exist.
    pub(crate) correction: Option<(u64, Vec<f64>)>,
    /// The accumulated means/noise unit vector (reference node only).
    pub(crate) units: Option<Vec<B::Unit>>,
}

// --- the actor ---

/// Provisioned per-node material, installed by [`NodeEvent::Hello`].
#[derive(Debug)]
struct Provision<B: CipherBackend> {
    kit: DeviceKit<B>,
    k: usize,
    series_length: usize,
    series: TimeSeries,
}

/// One Chiaroscuro participant as a message-driven actor (see the module
/// docs for the event lifecycle and the determinism contract).
#[derive(Debug)]
pub struct ChiaroscuroNodeActor<B: CipherBackend> {
    provision: Option<Provision<B>>,
    ees: Option<EesState<BackendVector<B>>>,
    counter: Option<SumState>,
    correction: Option<MinIdState<Vec<f64>>>,
}

impl<B: CipherBackend> Default for ChiaroscuroNodeActor<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: CipherBackend> ChiaroscuroNodeActor<B> {
    /// A blank actor; every capability arrives via [`NodeEvent::Hello`],
    /// and its identity is the link it serves.
    pub fn new() -> Self {
        Self { provision: None, ees: None, counter: None, correction: None }
    }

    fn provision(&self) -> &Provision<B> {
        self.provision.as_ref().expect("the actor must be provisioned (Hello) first")
    }

    fn install(&mut self, spec: NodeSpec) {
        let backend = Arc::new(
            B::import_public(&spec.public)
                .expect("the provisioned public cipher material must be well-formed"),
        );
        let encoder = FixedPointEncoder::new(spec.encoding_digits);
        let packer = spec.packing.as_ref().map(|(capacity_bits, budget)| {
            PackedEncoder::plan(*capacity_bits, &encoder, budget)
                .expect("the coordinator validated this lane layout before provisioning")
        });
        assert_eq!(spec.series.len(), spec.series_length as usize, "series length mismatch");
        self.provision = Some(Provision {
            kit: DeviceKit {
                backend,
                encoder,
                packer,
                num_noise_shares: spec.num_noise_shares as usize,
            },
            k: spec.k as usize,
            series_length: spec.series_length as usize,
            series: TimeSeries::new(spec.series),
        });
    }

    /// Builds this device's contribution from its delivered seed — the
    /// same `device_contribution` the in-process executor maps over the
    /// population — and resets the per-iteration protocol state.
    fn start_iteration(&mut self, inputs: &IterationInputs) {
        let p = self.provision.as_ref().expect("IterationStart before Hello");
        let centroids: Vec<TimeSeries> = inputs
            .centroids_flat
            .chunks_exact(p.series_length)
            .map(|c| TimeSeries::new(c.to_vec()))
            .collect();
        assert_eq!(centroids.len(), p.k, "IterationStart must carry k centroids");
        let (_assigned, flat) = device_contribution(
            &p.kit,
            &centroids,
            &p.series,
            inputs.participant_seed,
            inputs.sum_scale,
            inputs.count_scale,
        );
        let value = BackendVector::new(p.kit.backend.clone(), flat);
        // One node seeds both epidemic weights, as in the simulated phases.
        let (ees, counter) = if inputs.weight_seed {
            (EesState::new_seed(value), SumState::new_seed(1.0))
        } else {
            (EesState::new(value), SumState::new(1.0))
        };
        self.ees = Some(ees);
        self.counter = Some(counter);
        self.correction = None;
    }

    fn serialize_phase_state(&self, phase: Phase) -> Vec<u8> {
        match phase {
            Phase::Means => {
                let ees = self.ees.as_ref().expect("no means state before IterationStart");
                let mut buf = Vec::new();
                put_f64(&mut buf, ees.weight);
                put_u32(&mut buf, ees.exchanges);
                buf.extend_from_slice(&serialize_units::<B>(
                    self.provision().kit.backend.as_ref(),
                    ees.value.units(),
                ));
                buf
            }
            Phase::Counter => {
                let s = self.counter.as_ref().expect("no counter state before IterationStart");
                let mut buf = Vec::with_capacity(16);
                put_f64(&mut buf, s.sigma);
                put_f64(&mut buf, s.omega);
                buf
            }
            Phase::Correction => {
                let s = self.correction.as_ref().expect("no correction proposal installed");
                encode_correction(s.id, &s.payload, &[])
            }
        }
    }

    fn phase_state(&self, phase: Phase, bytes: &[u8]) -> Result<PhaseState<B>, FrameError> {
        let p = self.provision();
        decode_phase_state(&p.kit.backend, phase, bytes, p.k, p.series_length)
    }

    /// Contact side of one exchange: merge the initiator's state into our
    /// own with the real pairwise protocol (initiator first — the engines'
    /// argument order), then report the merged state, which both peers end
    /// the exchange holding.
    fn apply_exchange(&mut self, phase: Phase, initiator_state: &[u8]) -> Result<Vec<u8>, FrameError> {
        match self.phase_state(phase, initiator_state)? {
            PhaseState::Means(mut peer) => {
                let own = self.ees.as_mut().expect("exchange before IterationStart");
                EesSumProtocol.exchange(&mut peer, own);
            }
            PhaseState::Counter(mut peer) => {
                let own = self.counter.as_mut().expect("exchange before IterationStart");
                PushPullSum.exchange(&mut peer, own);
            }
            PhaseState::Correction(mut peer) => {
                let own = self.correction.as_mut().expect("exchange before any proposal");
                DisseminationProtocol.exchange(&mut peer, own);
            }
        }
        Ok(self.serialize_phase_state(phase))
    }

    /// Initiator side, reply half: adopt the merged state wholesale.
    fn adopt(&mut self, phase: Phase, merged: &[u8]) -> Result<(), FrameError> {
        match self.phase_state(phase, merged)? {
            PhaseState::Means(state) => self.ees = Some(state),
            PhaseState::Counter(state) => self.counter = Some(state),
            PhaseState::Correction(state) => self.correction = Some(state),
        }
        Ok(())
    }

    fn readout(&self, include_units: bool) -> Vec<u8> {
        let ees = self.ees.as_ref().expect("readout before IterationStart");
        let counter = self.counter.as_ref().expect("readout before IterationStart");
        let mut buf = Vec::new();
        put_f64(&mut buf, ees.weight);
        put_f64(&mut buf, counter.sigma);
        put_f64(&mut buf, counter.omega);
        match &self.correction {
            Some(c) => {
                buf.push(1);
                put_u64(&mut buf, c.id);
                for &v in &c.payload {
                    put_f64(&mut buf, v);
                }
            }
            None => buf.push(0),
        }
        if include_units {
            buf.push(1);
            buf.extend_from_slice(&serialize_units::<B>(
                self.provision().kit.backend.as_ref(),
                ees.value.units(),
            ));
        } else {
            buf.push(0);
        }
        buf
    }

    /// Reacts to one event; a payload that does not decode is a typed error
    /// and leaves the actor's state untouched.
    fn handle(&mut self, from: NodeId, event: NodeEvent) -> Result<Vec<(NodeId, NodeEvent)>, FrameError> {
        Ok(match event {
            NodeEvent::Hello { config } => {
                self.install(NodeSpec::decode(&config)?);
                Vec::new()
            }
            NodeEvent::IterationStart { payload } => {
                let p = self.provision();
                let inputs = IterationInputs::decode(&payload, p.k, p.series_length)?;
                self.start_iteration(&inputs);
                Vec::new()
            }
            NodeEvent::InitiateExchange { phase, contact } => {
                let state = self.serialize_phase_state(phase);
                vec![(contact, NodeEvent::ExchangeRequest { phase, state })]
            }
            NodeEvent::ExchangeRequest { phase, state } => {
                let merged = self.apply_exchange(phase, &state)?;
                vec![(from, NodeEvent::ExchangeReply { phase, state: merged })]
            }
            NodeEvent::ExchangeReply { phase, state } => {
                self.adopt(phase, &state)?;
                Vec::new()
            }
            NodeEvent::CorrectionProposal { payload } => {
                let p = self.provision();
                let (id, row) = decode_correction(&payload, p.k, p.series_length)?;
                self.correction = Some(MinIdState::new(id, row));
                Vec::new()
            }
            NodeEvent::ReadoutRequest { include_units } => {
                let payload = self.readout(include_units);
                vec![(from, NodeEvent::ReadoutReply { payload })]
            }
            NodeEvent::Shutdown | NodeEvent::ReadoutReply { .. } => Vec::new(),
        })
    }
}

impl<B: CipherBackend> Actor for ChiaroscuroNodeActor<B> {
    #[expect(
        clippy::expect_used,
        reason = "Actor::on_event cannot return an error: until a ProtocolError can travel back, a payload \
                  that fails to decode stops this node's serve loop loudly instead of being merged"
    )]
    fn on_event(&mut self, from: NodeId, event: NodeEvent) -> Vec<(NodeId, NodeEvent)> {
        self.handle(from, event).expect("malformed actor payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_crypto::backend::{BackendSetup, DamgardJurik, PlaintextSurrogate};
    use num_bigint::BigUint;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const K: usize = 2;
    const N: usize = 3;

    fn spec() -> NodeSpec {
        NodeSpec {
            k: 3,
            series_length: 4,
            encoding_digits: 3,
            num_noise_shares: 12,
            packing: Some((
                254,
                LaneBudget {
                    contributors: 16,
                    doubling_budget: 96,
                    max_abs_value: 80.0,
                    biased_vectors: 2,
                },
            )),
            public: vec![1, 2, 3, 4, 5],
            series: vec![1.5, -2.25, 0.0, 7.0],
        }
    }

    fn inputs() -> IterationInputs {
        IterationInputs {
            participant_seed: 0xDEAD_BEEF_0BAD_F00D,
            weight_seed: true,
            sum_scale: 123.456,
            count_scale: -0.0,
            centroids_flat: vec![10.0, f64::MIN_POSITIVE, -3.5, 0.1, 1e300, 2.0],
        }
    }

    fn backend<B: CipherBackend>() -> Arc<B> {
        let setup = BackendSetup {
            key_bits: 128,
            damgard_jurik_s: 1,
            population: 4,
            key_share_threshold: 2,
            packed_layout: None,
        };
        Arc::new(B::setup(&setup, &mut StdRng::seed_from_u64(17)))
    }

    /// An actor of a `K × N` run after one iteration start and a correction
    /// proposal: it serialises a well-formed payload of every kind.
    fn provisioned<B: CipherBackend>(backend: &Arc<B>) -> ChiaroscuroNodeActor<B> {
        let mut rng = StdRng::seed_from_u64(18);
        let units = (1..=4u32).map(|v| backend.encrypt(&BigUint::from(v), &mut rng)).collect();
        ChiaroscuroNodeActor {
            provision: Some(Provision {
                kit: DeviceKit {
                    backend: Arc::clone(backend),
                    encoder: FixedPointEncoder::new(3),
                    packer: None,
                    num_noise_shares: 4,
                },
                k: K,
                series_length: N,
                series: TimeSeries::constant(N, 1.0),
            }),
            ees: Some(EesState::new_seed(BackendVector::new(Arc::clone(backend), units))),
            counter: Some(SumState::new_seed(1.0)),
            correction: Some(MinIdState::new(7, vec![0.5; K * N + K])),
        }
    }

    /// The entry points of `actor::decode`, by index.
    const DECODERS: usize = 7;

    /// Whether decoder `which` accepts `bytes`.
    fn accepts<B: CipherBackend>(backend: &Arc<B>, which: usize, bytes: &[u8]) -> bool {
        let phase = |phase| decode_phase_state(backend, phase, bytes, K, N).is_ok();
        match which {
            0 => NodeSpec::decode(bytes).is_ok(),
            1 => IterationInputs::decode(bytes, K, N).is_ok(),
            2 => decode_correction(bytes, K, N).is_ok(),
            3 => decode_readout(backend.as_ref(), bytes, K, N).is_ok(),
            4 => phase(Phase::Means),
            5 => phase(Phase::Counter),
            _ => phase(Phase::Correction),
        }
    }

    /// Well-formed payloads, each with the index of the decoder it is for.
    fn well_formed<B: CipherBackend>(backend: &Arc<B>) -> Vec<(usize, Vec<u8>)> {
        let actor = provisioned(backend);
        vec![
            (0, spec().encode()),
            (0, NodeSpec { packing: None, ..spec() }.encode()),
            (1, inputs().encode()),
            (2, encode_correction(42, &[0.25; K * N], &[-1.5, 2.0])),
            (3, actor.readout(false)),
            (3, actor.readout(true)),
            (4, actor.serialize_phase_state(Phase::Means)),
            (5, actor.serialize_phase_state(Phase::Counter)),
            (6, actor.serialize_phase_state(Phase::Correction)),
        ]
    }

    fn bad_payload<T>(decoded: Result<T, FrameError>, what: &str) {
        match decoded {
            Err(FrameError::BadPayload(reason)) => assert!(reason.contains(what), "{reason} lacks {what}"),
            Err(other) => panic!("expected BadPayload({what}), got {other}"),
            Ok(_) => panic!("expected BadPayload({what}), got a decoded value"),
        }
    }

    #[test]
    fn node_spec_round_trips_with_and_without_packing() {
        let spec = spec();
        assert_eq!(NodeSpec::decode(&spec.encode()).unwrap(), spec);
        let legacy = NodeSpec { packing: None, ..spec };
        assert_eq!(NodeSpec::decode(&legacy.encode()).unwrap(), legacy);
    }

    #[test]
    fn iteration_inputs_round_trip_bit_exactly() {
        let inputs = inputs();
        let decoded = IterationInputs::decode(&inputs.encode(), 3, 2).unwrap();
        assert_eq!(decoded.participant_seed, inputs.participant_seed);
        assert!(decoded.weight_seed);
        assert_eq!(decoded.sum_scale.to_bits(), inputs.sum_scale.to_bits());
        assert_eq!(decoded.count_scale.to_bits(), inputs.count_scale.to_bits());
        assert_eq!(decoded.centroids_flat, inputs.centroids_flat);
    }

    #[test]
    fn correction_payloads_round_trip() {
        let sums = vec![0.25; 6];
        let counts = vec![-1.5, 2.0];
        let bytes = encode_correction(42, &sums, &counts);
        let (id, row) = decode_correction(&bytes, 2, 3).unwrap();
        assert_eq!(id, 42);
        assert_eq!(row[..6], sums[..]);
        assert_eq!(row[6..], counts[..]);
    }

    fn malformed_payloads_are_typed_errors<B: CipherBackend>() {
        let backend = backend::<B>();
        let actor = provisioned(&backend);

        // Truncated: every strict prefix of every well-formed payload.
        bad_payload(decode_correction(&[0, 0, 0], K, N), "truncated");
        for (which, payload) in well_formed(&backend) {
            assert!(accepts(&backend, which, &payload), "decoder {which} rejected its own payload");
            for cut in 0..payload.len() {
                assert!(!accepts(&backend, which, &payload[..cut]), "decoder {which} took a {cut}-byte prefix");
            }
        }

        // Trailing bytes, including after a readout that carries no units.
        let with_tail = |mut bytes: Vec<u8>| {
            bytes.push(0);
            bytes
        };
        bad_payload(NodeSpec::decode(&with_tail(spec().encode())), "trailing");
        bad_payload(IterationInputs::decode(&with_tail(inputs().encode()), 3, 2), "trailing");
        bad_payload(decode_correction(&with_tail(encode_correction(1, &[0.0; K * N], &[0.0; K])), K, N), "trailing");
        bad_payload(decode_readout(backend.as_ref(), &with_tail(actor.readout(false)), K, N), "trailing");
        bad_payload(decode_readout(backend.as_ref(), &with_tail(actor.readout(true)), K, N), "unit vector");
        for phase in [Phase::Counter, Phase::Correction] {
            let bytes = with_tail(actor.serialize_phase_state(phase));
            bad_payload(decode_phase_state(&backend, phase, &bytes, K, N), "trailing");
        }

        // Flag bytes are 0 or 1: packing (offset 16), weight seed (8), and the
        // readout's correction (24) and units (last byte without units) flags.
        let with_byte = |mut bytes: Vec<u8>, at: usize, value: u8| {
            bytes[at] = value;
            bytes
        };
        bad_payload(NodeSpec::decode(&with_byte(spec().encode(), 16, 2)), "flag");
        bad_payload(IterationInputs::decode(&with_byte(inputs().encode(), 8, 2), 3, 2), "flag");
        let readout = actor.readout(false);
        let last = readout.len() - 1;
        bad_payload(decode_readout(backend.as_ref(), &with_byte(readout.clone(), 24, 0xFF), K, N), "flag");
        bad_payload(decode_readout(backend.as_ref(), &with_byte(readout, last, 2), K, N), "flag");

        // An epidemic vector is never empty: a zero-unit means state is
        // rejected here rather than tripping `BackendVector::new`.
        let mut empty_means = Vec::new();
        put_f64(&mut empty_means, 1.0);
        put_u32(&mut empty_means, 0);
        empty_means.extend_from_slice(&[0; 8]);
        bad_payload(decode_phase_state(&backend, Phase::Means, &empty_means, K, N), "unit vector");
    }

    #[test]
    fn malformed_payloads_are_typed_errors_on_both_backends() {
        malformed_payloads_are_typed_errors::<DamgardJurik>();
        malformed_payloads_are_typed_errors::<PlaintextSurrogate>();
    }

    /// A malformed peer state reaches `on_event` as a loud stop of this
    /// node (the one annotated boundary), not as a merged value.
    #[test]
    #[should_panic(expected = "malformed actor payload")]
    fn the_actor_boundary_stops_on_a_malformed_exchange_request() {
        let mut actor = provisioned(&backend::<PlaintextSurrogate>());
        actor.on_event(1, NodeEvent::ExchangeRequest { phase: Phase::Counter, state: vec![0; 15] });
    }

    proptest! {
        /// Arbitrary bytes, and well-formed payloads cut, extended and
        /// overwritten at arbitrary offsets, never panic a decoder.
        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            noise in prop::collection::vec(any::<u8>(), 0..160),
            pick in any::<usize>(),
            cut in any::<usize>(),
        ) {
            fn fuzz<B: CipherBackend>(noise: &[u8], pick: usize, cut: usize) {
                let backend = backend::<B>();
                let samples = well_formed(&backend);
                let (_, sample) = &samples[pick % samples.len()];
                let cut = cut % (sample.len() + 1);
                let spliced: Vec<u8> = sample[..cut].iter().chain(noise).copied().collect();
                let mut overwritten = sample.clone();
                for (byte, &n) in overwritten[cut..].iter_mut().zip(noise) {
                    *byte = n;
                }
                for which in 0..DECODERS {
                    for bytes in [noise, &spliced, &overwritten] {
                        accepts(&backend, which, bytes);
                    }
                }
            }
            fuzz::<DamgardJurik>(&noise, pick, cut);
            fuzz::<PlaintextSurrogate>(&noise, pick, cut);
        }
    }
}
