//! Fail-closed decoding of every actor payload.
//!
//! Provisioning and iteration inputs come from the coordinator, but the
//! `ExchangeRequest`/`ExchangeReply` state bytes originate at peers, so
//! nothing in this module may panic on its input: a short, over-long or
//! otherwise malformed payload is a [`FrameError::BadPayload`], every flag
//! byte is `0` or `1`, every decoder consumes its payload exactly, and a
//! length read from the wire is checked against the bytes present before
//! anything is allocated for it.  The parent module's `deny` of `unwrap`,
//! `expect` and `panic!` covers this one.

use std::sync::Arc;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_crypto::encoding::MAX_DECIMAL_DIGITS;
use chiaroscuro_crypto::packing::LaneBudget;
use chiaroscuro_crypto::wire::deserialize_units;
use chiaroscuro_dp::noise_share::NoiseShareGenerator;
use chiaroscuro_gossip::eesum::EesState;
use chiaroscuro_node::FrameError;

use super::{IterationInputs, NodeSpec, Readout};
use crate::evalue::BackendVector;
use crate::iteration::DeviceKit;
use crate::plan::DevicePlan;

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

    /// `n` cells (`None`: the caller's count arithmetic overflowed), taken
    /// as one slice first so a wire-supplied `n` can never reserve more than
    /// the payload holds.
    fn u64s(&mut self, n: Option<usize>) -> Decoded<Vec<u64>> {
        let len = n.and_then(|n| n.checked_mul(8)).ok_or(FrameError::BadPayload("value count overflows"))?;
        let (cells, _) = self.take(len)?.as_chunks::<8>();
        Ok(cells.iter().map(|cell| u64::from_be_bytes(*cell)).collect())
    }

    /// `n` values, as [`Self::u64s`] reads cells.
    fn f64s(&mut self, n: Option<usize>) -> Decoded<Vec<f64>> {
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    /// A correction row: the proposal identifier, then `k·n` sums and `k`
    /// counts as `f64` bit patterns.
    fn correction(&mut self, plan: &DevicePlan) -> Decoded<Vec<u64>> {
        let DevicePlan { k, series_length, .. } = *plan;
        let payload = k.checked_mul(series_length).and_then(|sums| sums.checked_add(k));
        self.u64s(payload.and_then(|payload| payload.checked_add(1)))
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
    /// Decodes a provisioning payload and rejects every field the node could
    /// not install: no cluster or no measure, no noise share, a lane budget
    /// [`DevicePlan::packer`] would refuse to plan, more decimal digits
    /// than an `f64` holds, or a series of the wrong length.  (The public
    /// material and the lane capacity are checked when the node installs
    /// them.)
    pub(crate) fn decode(bytes: &[u8]) -> Decoded<Self> {
        let mut r = Reader { bytes };
        // Fields are read in the order they are written, which is the wire
        // order.
        let plan = DevicePlan {
            k: r.u32()? as usize,
            series_length: r.u32()? as usize,
            encoding_digits: r.u32()?,
            num_noise_shares: r.u32()? as usize,
            capacity_bits: r.u64()?,
            budget: LaneBudget {
                contributors: usize::try_from(r.u64()?)
                    .map_err(|_| FrameError::BadPayload("contributor count overflows"))?,
                doubling_budget: r.u32()?,
                max_abs_value: r.f64()?,
                biased_vectors: r.u32()?,
            },
        };
        let public_len = r.u32()? as usize;
        let public = r.take(public_len)?.to_vec();
        let series_len = r.u32()? as usize;
        let series = r.f64s(Some(series_len))?;
        r.finish()?;
        let DevicePlan { k, series_length, encoding_digits, num_noise_shares, budget, .. } = plan;
        if k == 0 || series_length == 0 {
            return Err(FrameError::BadPayload("a run needs at least one cluster and one measure"));
        }
        if num_noise_shares == 0 {
            return Err(FrameError::BadPayload("a run needs at least one noise share"));
        }
        if budget.contributors == 0 || budget.biased_vectors == 0 {
            return Err(FrameError::BadPayload("a lane budget needs a contributor and a biased vector"));
        }
        if !(budget.max_abs_value.is_finite() && budget.max_abs_value >= 0.0) {
            return Err(FrameError::BadPayload("a lane budget's magnitude bound must be finite, non-negative"));
        }
        if encoding_digits > MAX_DECIMAL_DIGITS {
            return Err(FrameError::BadPayload("more decimal digits than an f64 holds"));
        }
        if series.len() != series_length {
            return Err(FrameError::BadPayload("series length mismatch"));
        }
        Ok(Self { plan, public, series })
    }
}

impl IterationInputs {
    /// Decodes one iteration's inputs and rejects a Laplace scale the noise
    /// shares cannot be drawn at (one that is not finite and positive) or
    /// the provisioned lanes cannot hold: one whose share magnitude bound
    /// exceeds the plan's `max_abs_value`, the rule `RunPlan::new` sized
    /// that budget by.
    pub(crate) fn decode(bytes: &[u8], plan: &DevicePlan) -> Decoded<Self> {
        let mut r = Reader { bytes };
        let participant_seed = r.u64()?;
        let weight_seed = r.flag()?;
        let sum_scale = r.f64()?;
        let count_scale = r.f64()?;
        let centroids_flat = r.f64s(plan.k.checked_mul(plan.series_length))?;
        r.finish()?;
        if ![sum_scale, count_scale].iter().all(|scale| scale.is_finite() && *scale > 0.0) {
            return Err(FrameError::BadPayload("a Laplace scale must be finite and positive"));
        }
        let bound = |scale| NoiseShareGenerator::new(plan.num_noise_shares, scale).magnitude_bound();
        if bound(sum_scale).max(bound(count_scale)) > plan.budget.max_abs_value {
            return Err(FrameError::BadPayload("a Laplace scale exceeds the provisioned lane budget"));
        }
        Ok(Self { participant_seed, weight_seed, sum_scale, count_scale, centroids_flat })
    }
}

pub(crate) fn decode_correction(bytes: &[u8], plan: &DevicePlan) -> Decoded<Vec<u64>> {
    let mut r = Reader { bytes };
    let correction = r.correction(plan)?;
    r.finish()?;
    Ok(correction)
}

pub(crate) fn decode_readout<B: CipherBackend>(kit: &DeviceKit<B>, bytes: &[u8]) -> Decoded<Readout<B>> {
    let mut r = Reader { bytes };
    let weight = r.f64()?;
    let correction = if r.flag()? { Some(r.correction(&kit.plan)?) } else { None };
    let units = if r.flag()? {
        Some(r.units(kit.backend.as_ref())?)
    } else {
        r.finish()?;
        None
    };
    Ok(Readout { weight, correction, units })
}

/// Decodes the state bytes of one means-phase `ExchangeRequest` or
/// `ExchangeReply` (a correction-phase state is a [`decode_correction`]
/// row).
pub(crate) fn decode_means<B: CipherBackend>(kit: &DeviceKit<B>, bytes: &[u8]) -> Decoded<EesState<BackendVector<B>>> {
    let mut r = Reader { bytes };
    let weight = r.f64()?;
    let exchanges = r.u32()?;
    let units = r.units(kit.backend.as_ref())?;
    Ok(EesState { value: BackendVector::new(Arc::clone(&kit.backend), units), weight, exchanges })
}
