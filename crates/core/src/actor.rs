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
//! one side of a socket decodes identically on the other.

use std::sync::Arc;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder};
use chiaroscuro_crypto::wire::{deserialize_units, serialize_units};
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdState};
use chiaroscuro_gossip::eesum::{EesState, EesSumProtocol};
use chiaroscuro_gossip::engine::PairwiseProtocol;
use chiaroscuro_gossip::sum::{PushPullSum, SumState};
use chiaroscuro_node::frame::HEADER_BYTES;
use chiaroscuro_node::{Actor, NodeEvent, NodeId, Phase};
use chiaroscuro_timeseries::TimeSeries;

use crate::evalue::BackendVector;
use crate::iteration::{device_contribution, DeviceKit};

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

/// A panicking big-endian reader: event payloads are produced by this
/// crate's own coordinator, so a malformed one is a protocol bug worth a
/// loud stop, not a recoverable condition (byte-level hardening lives in
/// the frame codec, which rejects malformed *frames* before this layer).
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(self.bytes.len() >= n, "truncated actor payload: needed {n} more bytes");
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        head
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    fn f64s(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.f64()).collect()
    }

    fn rest(self) -> &'a [u8] {
        self.bytes
    }

    fn finish(self) {
        assert!(self.bytes.is_empty(), "trailing garbage in actor payload");
    }
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

    pub(crate) fn decode(bytes: &[u8]) -> Self {
        let mut r = Reader::new(bytes);
        let k = r.u32();
        let series_length = r.u32();
        let encoding_digits = r.u32();
        let num_noise_shares = r.u32();
        let packing = match r.u8() {
            0 => None,
            1 => Some((
                r.u64(),
                LaneBudget {
                    contributors: r.u64() as usize,
                    doubling_budget: r.u32(),
                    max_abs_value: r.f64(),
                    biased_vectors: r.u32(),
                },
            )),
            other => panic!("unknown packing flag {other} in node spec"),
        };
        let public_len = r.u32() as usize;
        let public = r.take(public_len).to_vec();
        let series_len = r.u32() as usize;
        let series = r.f64s(series_len);
        r.finish();
        Self { k, series_length, encoding_digits, num_noise_shares, packing, public, series }
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

    pub(crate) fn decode(bytes: &[u8], k: usize, series_length: usize) -> Self {
        let mut r = Reader::new(bytes);
        let participant_seed = r.u64();
        let weight_seed = r.u8() != 0;
        let sum_scale = r.f64();
        let count_scale = r.f64();
        let centroids_flat = r.f64s(k * series_length);
        r.finish();
        Self { participant_seed, weight_seed, sum_scale, count_scale, centroids_flat }
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

fn decode_correction(bytes: &[u8], k: usize, series_length: usize) -> (u64, Vec<f64>) {
    let mut r = Reader::new(bytes);
    let id = r.u64();
    let payload = r.f64s(k * series_length + k);
    r.finish();
    (id, payload)
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

pub(crate) fn decode_readout<B: CipherBackend>(
    backend: &B,
    bytes: &[u8],
    k: usize,
    series_length: usize,
) -> Readout<B> {
    let mut r = Reader::new(bytes);
    let weight = r.f64();
    let sigma = r.f64();
    let omega = r.f64();
    let correction = match r.u8() {
        0 => None,
        _ => {
            let id = r.u64();
            let payload = r.f64s(k * series_length + k);
            Some((id, payload))
        }
    };
    let units = match r.u8() {
        0 => None,
        _ => Some(
            deserialize_units::<B>(backend, r.rest())
                .expect("a readout's unit vector must deserialize under the run's backend"),
        ),
    };
    Readout { weight, sigma, omega, correction, units }
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

    fn deserialize_phase_state(&self, phase: Phase, bytes: &[u8]) -> PhaseState<B> {
        let p = self.provision();
        match phase {
            Phase::Means => {
                let mut r = Reader::new(bytes);
                let weight = r.f64();
                let exchanges = r.u32();
                let units = deserialize_units::<B>(p.kit.backend.as_ref(), r.rest())
                    .expect("a means exchange payload must deserialize under the run's backend");
                PhaseState::Means(EesState {
                    value: BackendVector::new(p.kit.backend.clone(), units),
                    weight,
                    exchanges,
                })
            }
            Phase::Counter => {
                let mut r = Reader::new(bytes);
                let state = SumState { sigma: r.f64(), omega: r.f64() };
                r.finish();
                PhaseState::Counter(state)
            }
            Phase::Correction => {
                // A correction payload is one flat row; decode it with
                // k·n = len, k = 0 to reuse the shared codec shape.
                let mut r = Reader::new(bytes);
                let id = r.u64();
                let len = p.k * p.series_length + p.k;
                let payload = r.f64s(len);
                r.finish();
                PhaseState::Correction(MinIdState::new(id, payload))
            }
        }
    }

    /// Contact side of one exchange: merge the initiator's state into our
    /// own with the real pairwise protocol (initiator first — the engines'
    /// argument order), then report the merged state, which both peers end
    /// the exchange holding.
    fn apply_exchange(&mut self, phase: Phase, initiator_state: &[u8]) -> Vec<u8> {
        match self.deserialize_phase_state(phase, initiator_state) {
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
        self.serialize_phase_state(phase)
    }

    /// Initiator side, reply half: adopt the merged state wholesale.
    fn adopt(&mut self, phase: Phase, merged: &[u8]) {
        match self.deserialize_phase_state(phase, merged) {
            PhaseState::Means(state) => self.ees = Some(state),
            PhaseState::Counter(state) => self.counter = Some(state),
            PhaseState::Correction(state) => self.correction = Some(state),
        }
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
}

/// A decoded phase state (the three protocols the run gossips).
enum PhaseState<B: CipherBackend> {
    Means(EesState<BackendVector<B>>),
    Counter(SumState),
    Correction(MinIdState<Vec<f64>>),
}

impl<B: CipherBackend> Actor for ChiaroscuroNodeActor<B> {
    fn on_event(&mut self, from: NodeId, event: NodeEvent) -> Vec<(NodeId, NodeEvent)> {
        match event {
            NodeEvent::Hello { config } => {
                self.install(NodeSpec::decode(&config));
                Vec::new()
            }
            NodeEvent::IterationStart { payload } => {
                let p = self.provision();
                let inputs = IterationInputs::decode(&payload, p.k, p.series_length);
                self.start_iteration(&inputs);
                Vec::new()
            }
            NodeEvent::InitiateExchange { phase, contact } => {
                let state = self.serialize_phase_state(phase);
                vec![(contact, NodeEvent::ExchangeRequest { phase, state })]
            }
            NodeEvent::ExchangeRequest { phase, state } => {
                let merged = self.apply_exchange(phase, &state);
                vec![(from, NodeEvent::ExchangeReply { phase, state: merged })]
            }
            NodeEvent::ExchangeReply { phase, state } => {
                self.adopt(phase, &state);
                Vec::new()
            }
            NodeEvent::CorrectionProposal { payload } => {
                let p = self.provision();
                let (id, row) = decode_correction(&payload, p.k, p.series_length);
                self.correction = Some(MinIdState::new(id, row));
                Vec::new()
            }
            NodeEvent::ReadoutRequest { include_units } => {
                let payload = self.readout(include_units);
                vec![(from, NodeEvent::ReadoutReply { payload })]
            }
            NodeEvent::Shutdown | NodeEvent::ReadoutReply { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_spec_round_trips_with_and_without_packing() {
        let spec = NodeSpec {
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
        };
        assert_eq!(NodeSpec::decode(&spec.encode()), spec);
        let legacy = NodeSpec { packing: None, ..spec };
        assert_eq!(NodeSpec::decode(&legacy.encode()), legacy);
    }

    #[test]
    fn iteration_inputs_round_trip_bit_exactly() {
        let inputs = IterationInputs {
            participant_seed: 0xDEAD_BEEF_0BAD_F00D,
            weight_seed: true,
            sum_scale: 123.456,
            count_scale: -0.0,
            centroids_flat: vec![10.0, f64::MIN_POSITIVE, -3.5, 0.1, 1e300, 2.0],
        };
        let decoded = IterationInputs::decode(&inputs.encode(), 3, 2);
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
        let (id, row) = decode_correction(&bytes, 2, 3);
        assert_eq!(id, 42);
        assert_eq!(row[..6], sums[..]);
        assert_eq!(row[6..], counts[..]);
    }

    #[test]
    #[should_panic(expected = "truncated actor payload")]
    fn truncated_payloads_stop_loudly() {
        let _ = decode_correction(&[0, 0, 0], 2, 3);
    }
}
