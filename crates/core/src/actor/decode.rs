//! Fail-closed decoding of every actor payload.
//!
//! Provisioning and iteration inputs come from the coordinator, but the
//! `ExchangeRequest`/`ExchangeReply` state bytes originate at peers, so
//! nothing in this module may panic on its input: a short, over-long or
//! otherwise malformed payload is a [`FrameError::BadPayload`], every flag
//! byte is `0` or `1`, every decoder consumes its payload exactly, and a
//! length read from the wire is checked against the bytes present before
//! anything is allocated for it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_crypto::packing::LaneBudget;
use chiaroscuro_crypto::wire::deserialize_units;
use chiaroscuro_gossip::dissemination::MinIdState;
use chiaroscuro_gossip::eesum::EesState;
use chiaroscuro_gossip::sum::SumState;
use chiaroscuro_node::{FrameError, Phase};

use super::{IterationInputs, NodeSpec, Readout};
use crate::evalue::BackendVector;

type Decoded<T> = Result<T, FrameError>;

const TRUNCATED: FrameError = FrameError::BadPayload("truncated actor payload");

/// A big-endian cursor over one payload.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let (head, tail) = self.bytes.split_at_checked(n).ok_or(TRUNCATED)?;
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let (head, tail) = self.bytes.split_first_chunk::<N>().ok_or(TRUNCATED)?;
        self.bytes = tail;
        Ok(*head)
    }

    fn flag(&mut self) -> Decoded<bool> {
        match self.array::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(FrameError::BadPayload("a flag byte must be 0 or 1")),
        }
    }

    fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> Decoded<f64> {
        self.u64().map(f64::from_bits)
    }

    /// `n` values (`None`: the caller's count arithmetic overflowed), taken
    /// as one slice first so a wire-supplied `n` can never reserve more than
    /// the payload holds.
    fn f64s(&mut self, n: Option<usize>) -> Decoded<Vec<f64>> {
        let len = n.and_then(|n| n.checked_mul(8)).ok_or(FrameError::BadPayload("value count overflows"))?;
        let (values, _) = self.take(len)?.as_chunks::<8>();
        Ok(values.iter().map(|v| f64::from_bits(u64::from_be_bytes(*v))).collect())
    }

    /// A correction row: the proposal identifier, then `k·n` sums and `k`
    /// counts.
    fn correction(&mut self, k: usize, series_length: usize) -> Decoded<(u64, Vec<f64>)> {
        Ok((self.u64()?, self.f64s(k.checked_mul(series_length).and_then(|sums| sums.checked_add(k)))?))
    }

    /// The rest of the payload as a non-empty unit vector (an epidemic
    /// vector is never empty).
    fn units<B: CipherBackend>(self, backend: &B) -> Decoded<Vec<B::Unit>> {
        deserialize_units::<B>(backend, self.bytes)
            .filter(|units| !units.is_empty())
            .ok_or(FrameError::BadPayload("unit vector rejected by the run's backend"))
    }

    fn finish(self) -> Decoded<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(FrameError::BadPayload("trailing bytes in actor payload"))
        }
    }
}

impl NodeSpec {
    pub(crate) fn decode(bytes: &[u8]) -> Decoded<Self> {
        let mut r = Reader { bytes };
        let k = r.u32()?;
        let series_length = r.u32()?;
        let encoding_digits = r.u32()?;
        let num_noise_shares = r.u32()?;
        let packing = if r.flag()? {
            Some((
                r.u64()?,
                LaneBudget {
                    contributors: usize::try_from(r.u64()?)
                        .map_err(|_| FrameError::BadPayload("contributor count overflows"))?,
                    doubling_budget: r.u32()?,
                    max_abs_value: r.f64()?,
                    biased_vectors: r.u32()?,
                },
            ))
        } else {
            None
        };
        let public_len = r.u32()? as usize;
        let public = r.take(public_len)?.to_vec();
        let series_len = r.u32()? as usize;
        let series = r.f64s(Some(series_len))?;
        r.finish()?;
        Ok(Self { k, series_length, encoding_digits, num_noise_shares, packing, public, series })
    }
}

impl IterationInputs {
    pub(crate) fn decode(bytes: &[u8], k: usize, series_length: usize) -> Decoded<Self> {
        let mut r = Reader { bytes };
        let participant_seed = r.u64()?;
        let weight_seed = r.flag()?;
        let sum_scale = r.f64()?;
        let count_scale = r.f64()?;
        let centroids_flat = r.f64s(k.checked_mul(series_length))?;
        r.finish()?;
        Ok(Self { participant_seed, weight_seed, sum_scale, count_scale, centroids_flat })
    }
}

pub(crate) fn decode_correction(bytes: &[u8], k: usize, series_length: usize) -> Decoded<(u64, Vec<f64>)> {
    let mut r = Reader { bytes };
    let correction = r.correction(k, series_length)?;
    r.finish()?;
    Ok(correction)
}

pub(crate) fn decode_readout<B: CipherBackend>(
    backend: &B,
    bytes: &[u8],
    k: usize,
    series_length: usize,
) -> Decoded<Readout<B>> {
    let mut r = Reader { bytes };
    let weight = r.f64()?;
    let sigma = r.f64()?;
    let omega = r.f64()?;
    let correction = if r.flag()? { Some(r.correction(k, series_length)?) } else { None };
    let units = if r.flag()? {
        Some(r.units(backend)?)
    } else {
        r.finish()?;
        None
    };
    Ok(Readout { weight, sigma, omega, correction, units })
}

/// A decoded phase state (the three protocols the run gossips).
pub(crate) enum PhaseState<B: CipherBackend> {
    Means(EesState<BackendVector<B>>),
    Counter(SumState),
    Correction(MinIdState<Vec<f64>>),
}

/// Decodes the state bytes of one `ExchangeRequest`/`ExchangeReply`.
pub(crate) fn decode_phase_state<B: CipherBackend>(
    backend: &Arc<B>,
    phase: Phase,
    bytes: &[u8],
    k: usize,
    series_length: usize,
) -> Decoded<PhaseState<B>> {
    let mut r = Reader { bytes };
    Ok(match phase {
        Phase::Means => {
            let weight = r.f64()?;
            let exchanges = r.u32()?;
            let units = r.units(backend.as_ref())?;
            PhaseState::Means(EesState {
                value: BackendVector::new(Arc::clone(backend), units),
                weight,
                exchanges,
            })
        }
        Phase::Counter => {
            let state = SumState { sigma: r.f64()?, omega: r.f64()? };
            r.finish()?;
            PhaseState::Counter(state)
        }
        Phase::Correction => {
            let (id, payload) = r.correction(k, series_length)?;
            r.finish()?;
            PhaseState::Correction(MinIdState::new(id, payload))
        }
    })
}
