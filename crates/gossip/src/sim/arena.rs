//! The EESum row layout: million-node Algorithm-2 populations on one slab.
//!
//! [`EesUnitArena`] is a [`RowSlab`] read through [`EesUnitLayout`]: a node's
//! whole EESum state is one row of `u64` cells,
//!
//! ```text
//! [ weight ω·2^n as f64 bits | exchange counter n | unit 0 limbs … | unit 1 limbs … | … ]
//! ```
//!
//! so the entire population lives in one allocation and an exchange touches
//! two contiguous windows (see [`crate::slab`] for why not per-node boxes).
//!
//! The layout applies the **exact** Algorithm-2 update rule the per-node
//! [`EesState`](crate::eesum::EesState) implementation applies: scale the
//! lagging peer by `2^Δn` (a limb shift), add the values (limb-wise integer
//! addition — lane-packed payloads are plain non-negative integers, see
//! `chiaroscuro_crypto::packing`) and leave the combined state on both
//! peers — one fused sweep over the two limb windows — then sum the
//! weights and bump the exchange counter.  A lockstep test pins
//! bit-equality with the `Vec<EesState<_>>` path under a shared random
//! schedule, and a property test with the multi-pass kernel the sweep
//! replaced.
//!
//! Each node holds `units_per_node` fixed-width *units* (the lane-packed
//! data blocks plus the overflow-counter block of one gossip contribution)
//! of `limbs_per_unit` little-endian 64-bit limbs.  The width is sized by
//! the caller from the planned lane layout; a shift or addition that would
//! carry out of a unit window panics loudly (the epidemic exceeded its
//! doubling budget) instead of corrupting a neighbouring unit.

use crate::eesum::EesSumProtocol;
use crate::slab::{RowLayout, RowSlab};

/// Cells at the head of a row, before the unit limbs: the weight's bit
/// pattern and the exchange counter.
const HEAD: usize = 2;

/// The shape of an EESum row: two scalar cells (the weight's bit pattern,
/// the exchange counter), then `units_per_node` units of `limbs_per_unit`
/// little-endian limbs.
#[derive(Debug, Clone, PartialEq)]
pub struct EesUnitLayout {
    units_per_node: usize,
    limbs_per_unit: usize,
}

/// Flat storage of per-node EESum states over fixed-width multi-limb
/// integer units.
pub type EesUnitArena = RowSlab<EesUnitLayout>;

impl EesUnitLayout {
    /// [`EesUnitArena::set_unit_from_digits`] on a row already in hand — the
    /// row [`RowSlab::fill_rows`] passes its callback.
    ///
    /// # Panics
    /// Panics if the iterator yields more digits than the unit width, the
    /// unit is out of bounds or the row is shorter than the layout's.
    pub fn set_unit_from_digits(&self, row: &mut [u64], unit: usize, digits_le: impl Iterator<Item = u64>) {
        let mut digits = digits_le.fuse();
        for limb in &mut row[self.unit_offset(unit)..][..self.limbs_per_unit] {
            *limb = digits.next().unwrap_or(0);
        }
        assert!(digits.next().is_none(), "unit value exceeds the arena's {}-limb unit width", self.limbs_per_unit);
    }

    /// Where `unit` starts inside a node's row.
    fn unit_offset(&self, unit: usize) -> usize {
        assert!(unit < self.units_per_node, "unit {unit} out of {}", self.units_per_node);
        HEAD + unit * self.limbs_per_unit
    }
}

impl RowSlab<EesUnitLayout> {
    /// Creates a zeroed arena for `population` nodes of `units_per_node`
    /// units of `limbs_per_unit` limbs each.  Node 0 seeds the epidemic
    /// weight with 1, exactly as [`crate::eesum::initial_states`] does.
    ///
    /// # Panics
    /// Panics on a degenerate shape (fewer than two nodes, zero units or
    /// zero limbs).
    pub fn new(population: usize, units_per_node: usize, limbs_per_unit: usize) -> Self {
        Self::seeded_at(population, units_per_node, limbs_per_unit, 0)
    }

    /// [`Self::new`] with node `seed` seeding the epidemic weight, exactly as
    /// [`crate::eesum::initial_states_seeded_at`] does.
    ///
    /// # Panics
    /// As [`Self::new`], and if `seed` is not a node.
    pub fn seeded_at(population: usize, units_per_node: usize, limbs_per_unit: usize, seed: usize) -> Self {
        assert!(population >= 2, "gossip needs at least two participants");
        assert!(units_per_node >= 1, "a node carries at least one unit");
        assert!(limbs_per_unit >= 1, "a unit needs at least one limb");
        let layout = EesUnitLayout { units_per_node, limbs_per_unit };
        let mut arena = Self::zeroed(layout, HEAD + units_per_node * limbs_per_unit, population);
        arena.row_mut(seed)[0] = 1f64.to_bits();
        arena
    }

    /// Units per node.
    pub fn units_per_node(&self) -> usize {
        self.layout().units_per_node
    }

    /// Limbs per unit.
    pub fn limbs_per_unit(&self) -> usize {
        self.layout().limbs_per_unit
    }

    /// Writes one unit of one node from little-endian limbs (shorter slices
    /// are zero-extended).
    ///
    /// # Panics
    /// Panics if the limbs do not fit the unit width or the indices are out
    /// of bounds.
    pub fn set_unit(&mut self, node: usize, unit: usize, limbs_le: &[u64]) {
        self.set_unit_from_digits(node, unit, limbs_le.iter().copied());
    }

    /// Writes one unit of one node from a little-endian digit iterator
    /// (e.g. `BigUint::iter_u64_digits`), zero-filling the remaining limbs
    /// — the allocation-free twin of [`Self::set_unit`] for bulk fills.
    ///
    /// # Panics
    /// Panics if the iterator yields more digits than the unit width or
    /// the indices are out of bounds.
    pub fn set_unit_from_digits(&mut self, node: usize, unit: usize, digits_le: impl Iterator<Item = u64>) {
        self.layout().clone().set_unit_from_digits(self.row_mut(node), unit, digits_le);
    }

    /// The little-endian limbs of one unit of one node.
    pub fn unit_limbs(&self, node: usize, unit: usize) -> &[u64] {
        &self.row(node)[self.layout().unit_offset(unit)..][..self.limbs_per_unit()]
    }

    /// The scaled epidemic weight `ω · 2^n` of a node.
    pub fn weight(&self, node: usize) -> f64 {
        f64::from_bits(self.row(node)[0])
    }

    /// The exchange counter of a node.
    pub fn exchange_counter(&self, node: usize) -> u32 {
        self.row(node)[1] as u32
    }
}

/// The value half of an Algorithm-2 exchange as one sweep over both node
/// windows: per unit, low limb to high, the lagging peer's limb is scaled
/// (`shifted = lag << diff | spill`), the leading peer's is added
/// (`sum = shifted + lead + carry`) and `sum` is written to both windows —
/// scale, add and push-pull mirror in a single pass.  `diff == 0` is the
/// same sweep with a zero shift; the rare `diff >= 64` (a counter gap of 64
/// exchanges) first moves the lagging unit up by whole limbs.
///
/// # Panics
/// Panics instead of corrupting a neighbouring unit if the scaling pushes
/// set bits out of a unit window (the epidemic exceeded the doubling budget
/// the lane plan promised) or the addition carries out of one (it exceeded
/// the planned lane capacity).
fn scale_add_mirror(lag: &mut [u64], lead: &mut [u64], limbs_per_unit: usize, diff: u32) {
    let (limb_shift, shift) = (((diff / 64) as usize).min(limbs_per_unit), diff % 64);
    let wrapped = (1u64 << shift) - 1;
    for (lag, lead) in lag.chunks_exact_mut(limbs_per_unit).zip(lead.chunks_exact_mut(limbs_per_unit)) {
        let mut lost = 0u64;
        if limb_shift > 0 {
            let kept = limbs_per_unit - limb_shift;
            lost = lag[kept..].iter().fold(0, |bits, &limb| bits | limb);
            lag.copy_within(..kept, limb_shift);
            lag[..limb_shift].fill(0);
        }
        let (mut spill, mut carry) = (0u64, 0u64);
        for (a, b) in lag.iter_mut().zip(lead.iter_mut()) {
            // One rotate yields both halves of the shift: the bits at and
            // above `shift` are `lag << shift`, those below it wrapped
            // round and spill into the next limb.
            let rotated = a.rotate_left(shift);
            let sum = u128::from(rotated & !wrapped | spill) + u128::from(*b) + u128::from(carry);
            (spill, carry) = (rotated & wrapped, (sum >> 64) as u64);
            (*a, *b) = (sum as u64, sum as u64);
        }
        assert!(
            lost | spill == 0,
            "EESum doubling budget exceeded: scaling by 2^{diff} would overflow a \
             {limbs_per_unit}-limb arena unit"
        );
        assert_eq!(
            carry, 0,
            "EESum accumulation overflowed a {limbs_per_unit}-limb arena unit: the \
             epidemic exceeded the planned lane capacity"
        );
    }
}

impl RowLayout<EesSumProtocol> for EesUnitLayout {
    fn exchange_rows(&self, _protocol: &EesSumProtocol, initiator: &mut [u64], contact: &mut [u64]) {
        let (i_head, i_limbs) = initiator.split_at_mut(HEAD);
        let (c_head, c_limbs) = contact.split_at_mut(HEAD);
        let (mut i_weight, mut c_weight) = (f64::from_bits(i_head[0]), f64::from_bits(c_head[0]));
        let (i_n, c_n) = (i_head[1] as u32, c_head[1] as u32);
        // Lines 1–5 of Algorithm 2: scale the lagging state to the common
        // exchange count (identical to EesState::scale_to) ...
        let diff = i_n.abs_diff(c_n);
        let (lag, lag_weight, lead) =
            if i_n < c_n { (i_limbs, &mut i_weight, c_limbs) } else { (c_limbs, &mut c_weight, i_limbs) };
        *lag_weight *= 2f64.powi(diff as i32);
        // ... and line 6: combine, bump the counter, and leave the combined
        // state on both peers (push-pull symmetry).
        scale_add_mirror(lag, lead, self.limbs_per_unit, diff);
        let head = [(i_weight + c_weight).to_bits(), u64::from(i_n.max(c_n) + 1)];
        i_head.copy_from_slice(&head);
        c_head.copy_from_slice(&head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eesum::{initial_states, EesState, EpidemicValue};
    use crate::engine::{ProtocolStore, StateStore, PARALLEL_EXCHANGE_THRESHOLD};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A reference epidemic value over u128 "units" (two limbs each) that
    /// the per-node Vec path can drive for lockstep comparison.
    #[derive(Debug, Clone, PartialEq)]
    struct WideVector(Vec<u128>);

    impl EpidemicValue for WideVector {
        fn scale_pow2(&mut self, exponent: u32) {
            for v in &mut self.0 {
                *v = v.checked_shl(exponent).expect("test values stay in range");
            }
        }

        fn add_assign(&mut self, other: &Self) {
            for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
                *a += b;
            }
        }
    }

    fn arena_from(values: &[WideVector], limbs_per_unit: usize) -> EesUnitArena {
        let units = values[0].0.len();
        let mut arena = EesUnitArena::new(values.len(), units, limbs_per_unit);
        for (node, v) in values.iter().enumerate() {
            for (unit, &x) in v.0.iter().enumerate() {
                arena.set_unit(node, unit, &[x as u64, (x >> 64) as u64]);
            }
        }
        arena
    }

    fn arena_unit_u128(arena: &EesUnitArena, node: usize, unit: usize) -> u128 {
        let limbs = arena.unit_limbs(node, unit);
        for &l in limbs.iter().skip(2) {
            assert_eq!(l, 0, "test value exceeds the u128 comparison range");
        }
        u128::from(limbs[0]) | (u128::from(*limbs.get(1).unwrap_or(&0)) << 64)
    }

    /// The multi-pass exchange the fused sweep replaced, kept as the
    /// reference the kernel proptest compares against: scale the lagging
    /// window (top-bit scan, whole-limb move, bit shift), add the contact
    /// into the initiator, copy the sum back.
    fn reference_exchange(arena: &mut EesUnitArena, initiator: usize, contact: usize) {
        fn scale_units(window: &mut [u64], limbs_per_unit: usize, diff: u32) {
            let limb_shift = (diff / 64) as usize;
            let bit_shift = diff % 64;
            for unit in window.chunks_exact_mut(limbs_per_unit) {
                for (index, &limb) in unit.iter().enumerate().rev() {
                    if limb == 0 {
                        continue;
                    }
                    let top_bit = index as u64 * 64 + (64 - limb.leading_zeros() as u64);
                    assert!(
                        top_bit + u64::from(diff) <= limbs_per_unit as u64 * 64,
                        "EESum doubling budget exceeded"
                    );
                    break;
                }
                if limb_shift > 0 {
                    for i in (0..limbs_per_unit).rev() {
                        unit[i] = if i >= limb_shift { unit[i - limb_shift] } else { 0 };
                    }
                }
                if bit_shift > 0 {
                    let mut carry = 0u64;
                    for limb in unit.iter_mut() {
                        let new_carry = *limb >> (64 - bit_shift);
                        *limb = (*limb << bit_shift) | carry;
                        carry = new_carry;
                    }
                }
            }
        }
        fn add_units(dst: &mut [u64], src: &[u64], limbs_per_unit: usize) {
            for (d_unit, s_unit) in
                dst.chunks_exact_mut(limbs_per_unit).zip(src.chunks_exact(limbs_per_unit))
            {
                let mut carry = 0u128;
                for (d, &s) in d_unit.iter_mut().zip(s_unit.iter()) {
                    let sum = u128::from(*d) + u128::from(s) + carry;
                    *d = sum as u64;
                    carry = sum >> 64;
                }
                assert_eq!(carry, 0, "EESum accumulation overflowed");
            }
        }
        // Read both rows out into the shape the kernel was written for
        // (limb window, weight, counter) and write them back afterwards.
        let limbs_per_unit = arena.limbs_per_unit();
        let split = |arena: &EesUnitArena, node: usize| {
            (arena.row(node)[HEAD..].to_vec(), arena.weight(node), arena.exchange_counter(node))
        };
        let (mut i_limbs, mut i_weight, mut i_n) = split(arena, initiator);
        let (mut c_limbs, mut c_weight, mut c_n) = split(arena, contact);
        let (i_limbs, i_weight, i_n) = (i_limbs.as_mut_slice(), &mut i_weight, &mut i_n);
        let (c_limbs, c_weight, c_n) = (c_limbs.as_mut_slice(), &mut c_weight, &mut c_n);
        let target = (*i_n).max(*c_n);
        let i_diff = target - *i_n;
        if i_diff > 0 {
            scale_units(i_limbs, limbs_per_unit, i_diff);
            *i_weight *= 2f64.powi(i_diff as i32);
        }
        let c_diff = target - *c_n;
        if c_diff > 0 {
            scale_units(c_limbs, limbs_per_unit, c_diff);
            *c_weight *= 2f64.powi(c_diff as i32);
        }
        add_units(i_limbs, c_limbs, limbs_per_unit);
        *i_weight += *c_weight;
        *i_n = target + 1;
        c_limbs.copy_from_slice(i_limbs);
        *c_weight = *i_weight;
        *c_n = *i_n;
        for (node, limbs, weight, n) in [(initiator, i_limbs, i_weight, i_n), (contact, c_limbs, c_weight, c_n)] {
            set_head(arena, node, *weight, *n);
            arena.row_mut(node)[HEAD..].copy_from_slice(limbs);
        }
    }

    /// Overwrites a node's weight and exchange counter.
    fn set_head(arena: &mut EesUnitArena, node: usize, weight: f64, exchanges: u32) {
        arena.row_mut(node)[..HEAD].copy_from_slice(&[weight.to_bits(), u64::from(exchanges)]);
    }

    /// Overwrites a node's exchange counter.
    fn set_counter(arena: &mut EesUnitArena, node: usize, exchanges: u32) {
        set_head(arena, node, arena.weight(node), exchanges);
    }

    /// The population's limbs, weight bit patterns and exchange counters,
    /// each in node order.
    fn parts(arena: &EesUnitArena) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        let nodes = 0..arena.population();
        (
            arena.rows().flat_map(|row| &row[HEAD..]).copied().collect(),
            nodes.clone().map(|node| arena.weight(node).to_bits()).collect(),
            nodes.map(|node| arena.exchange_counter(node)).collect(),
        )
    }

    /// A two-node, one-unit arena: node 0 holds `lag` and trails node 1,
    /// which holds `lead`, by `diff` exchanges.
    fn lagging_pair(limbs_per_unit: usize, diff: u32, lag: &[u64], lead: &[u64]) -> EesUnitArena {
        let mut arena = EesUnitArena::new(2, 1, limbs_per_unit);
        arena.set_unit(0, 0, lag);
        arena.set_unit(1, 0, lead);
        set_counter(&mut arena, 1, diff);
        arena
    }

    /// `2^bit` as little-endian limbs.
    fn pow2(bit: u32) -> Vec<u64> {
        let mut limbs = vec![0u64; bit as usize / 64 + 1];
        limbs[bit as usize / 64] = 1 << (bit % 64);
        limbs
    }

    /// The panic message of one exchange between the two nodes, if it panics.
    fn exchange_panic(mut arena: EesUnitArena) -> Option<String> {
        std::panic::catch_unwind(move || arena.apply_exchange(&EesSumProtocol, 0, 1)).err().map(|payload| {
            payload.downcast_ref::<String>().cloned().expect("the kernel panics with a formatted message")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused sweep leaves both windows, weights and counters
        /// bit-equal to the multi-pass reference, whichever side lags, at
        /// the shift amounts either side of every limb boundary.
        #[test]
        fn fused_sweep_matches_the_multi_pass_reference(
            units in 1usize..=4,
            limbs_per_unit in 1usize..=5,
            diff_index in 0usize..7,
            initiator_lags in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let diff = [0u32, 1, 63, 64, 65, 127, 130][diff_index];
            let width = limbs_per_unit as u32 * 64;
            let (lag, lead) = if initiator_lags { (0, 1) } else { (1, 0) };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = EesUnitArena::new(2, units, limbs_per_unit);
            // Random limbs, top bits cleared so that neither the scaling nor
            // the sum leaves the window: lag < 2^(width-diff-1), lead < 2^(width-1).
            let mut fill = |arena: &mut EesUnitArena, node: usize, bits: u32| {
                for unit in 0..units {
                    let limbs: Vec<u64> = (0..limbs_per_unit as u32)
                        .map(|i| match bits.saturating_sub(64 * i) {
                            0 => 0,
                            kept if kept >= 64 => rng.gen(),
                            kept => rng.gen::<u64>() >> (64 - kept),
                        })
                        .collect();
                    arena.set_unit(node, unit, &limbs);
                }
            };
            fill(&mut arena, lag, width.saturating_sub(diff + 1));
            fill(&mut arena, lead, width - 1);
            let weights = [0.375, 1.5];
            set_head(&mut arena, lag, weights[lag], 3);
            set_head(&mut arena, lead, weights[lead], 3 + diff);
            let mut reference = arena.clone();
            arena.apply_exchange(&EesSumProtocol, 0, 1);
            reference_exchange(&mut reference, 0, 1);
            let ((limbs, weights, exchanges), expected) = (parts(&arena), parts(&reference));
            prop_assert_eq!(limbs, expected.0);
            prop_assert_eq!(arena.unit_limbs(0, 0), arena.unit_limbs(1, 0), "push-pull symmetry");
            prop_assert_eq!(weights, expected.1);
            prop_assert_eq!(exchanges, expected.2);
        }
    }

    #[test]
    fn doubling_budget_is_exact_to_the_bit() {
        // A 2-limb unit is 128 bits wide: a value using exactly
        // `128 - diff` bits scales to the window's top bit and passes; one
        // more bit must panic, whether it leaves by the bit shift (diff <
        // 64), by the whole-limb move (diff = 64) or by both.
        for diff in [1u32, 5, 63, 64, 70, 127] {
            let mut fits = lagging_pair(2, diff, &pow2(127 - diff), &[0]);
            fits.apply_exchange(&EesSumProtocol, 0, 1);
            assert_eq!(fits.unit_limbs(0, 0), &[0, 1 << 63], "2^{} scaled by 2^{diff}", 127 - diff);
            assert_eq!(fits.unit_limbs(1, 0), &[0, 1 << 63]);
            let message = exchange_panic(lagging_pair(2, diff, &pow2(128 - diff), &[0]))
                .unwrap_or_else(|| panic!("2^{} scaled by 2^{diff} must not fit", 128 - diff));
            assert!(message.contains("doubling budget exceeded"), "{message}");
        }
        // A gap wider than the window fits only the zero value.
        lagging_pair(2, 200, &[0], &[7]).apply_exchange(&EesSumProtocol, 0, 1);
        let message = exchange_panic(lagging_pair(2, 200, &[1], &[7])).expect("1 · 2^200 leaves 128 bits");
        assert!(message.contains("doubling budget exceeded"), "{message}");
    }

    #[test]
    fn accumulation_capacity_is_exact_to_the_unit() {
        // `lag · 2^diff + lead = 2^128 - 1` fills the window and passes;
        // one more must panic instead of carrying into the next unit.
        for diff in [0u32, 1, 63, 64, 70] {
            let limbs = |v: u128| [v as u64, (v >> 64) as u64];
            let (lag, below) = (limbs(u128::MAX >> diff), (1u128 << diff) - 1);
            let mut full = lagging_pair(2, diff, &lag, &limbs(below));
            full.apply_exchange(&EesSumProtocol, 0, 1);
            assert_eq!(full.unit_limbs(0, 0), &[u64::MAX, u64::MAX], "diff {diff}");
            assert_eq!(full.unit_limbs(1, 0), &[u64::MAX, u64::MAX], "diff {diff}");
            let message = exchange_panic(lagging_pair(2, diff, &lag, &limbs(below + 1)))
                .unwrap_or_else(|| panic!("2^128 must not fit (diff {diff})"));
            assert!(message.contains("overflowed"), "{message}");
        }
    }

    #[test]
    fn arena_exchange_is_in_lockstep_with_the_per_node_states() {
        // The load-bearing equivalence: a shared random exchange schedule
        // must leave the arena and the Vec<EesState<_>> path bit-identical
        // in values, weights and exchange counters.
        let population = 24;
        let values: Vec<WideVector> =
            (0..population).map(|i| WideVector(vec![i as u128 + 1, 1000 + i as u128])).collect();
        let mut vec_states: Vec<EesState<WideVector>> = initial_states(values.clone());
        let mut arena = arena_from(&values, 3);

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..400 {
            let i = rng.gen_range(0..population);
            let mut j = rng.gen_range(0..population - 1);
            if j >= i {
                j += 1;
            }
            vec_states.apply_exchange(&EesSumProtocol, i, j);
            arena.apply_exchange(&EesSumProtocol, i, j);
        }

        for (node, state) in vec_states.iter().enumerate() {
            assert_eq!(arena.weight(node), state.weight, "weight of node {node}");
            assert_eq!(arena.exchange_counter(node), state.exchanges, "counter of node {node}");
            for (unit, &expected) in state.value.0.iter().enumerate() {
                assert_eq!(
                    arena_unit_u128(&arena, node, unit),
                    expected,
                    "unit {unit} of node {node}"
                );
            }
        }
    }

    #[test]
    fn multi_limb_shifts_cross_word_boundaries_exactly() {
        // Initiator 1 (value 1) has a 70-exchange head start, so contact 0
        // must scale by 2^70 — a shift that crosses a whole limb boundary —
        // before the addition.
        let mut arena = EesUnitArena::new(2, 1, 3);
        arena.set_unit(0, 0, &[0xDEAD_BEEF, 0, 0]);
        arena.set_unit(1, 0, &[1, 0, 0]);
        set_counter(&mut arena, 1, 70);
        let before = arena_unit_u128(&arena, 0, 0);
        arena.apply_exchange(&EesSumProtocol, 1, 0);
        let combined = arena_unit_u128(&arena, 0, 0);
        assert_eq!(combined, arena_unit_u128(&arena, 1, 0), "push-pull symmetry");
        assert_eq!(combined, 1u128 + (before << 70));
        assert_eq!(arena.exchange_counter(0), 71);
        assert_eq!(arena.exchange_counter(1), 71);
    }

    #[test]
    #[should_panic(expected = "doubling budget exceeded")]
    fn shift_overflow_panics_instead_of_corrupting_neighbouring_units() {
        let mut arena = EesUnitArena::new(2, 2, 1);
        arena.set_unit(0, 0, &[1u64 << 60]);
        set_counter(&mut arena, 1, 10); // forces node 0 to scale by 2^10 on exchange
        arena.apply_exchange(&EesSumProtocol, 1, 0);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn addition_carry_out_panics() {
        let mut arena = EesUnitArena::new(2, 1, 1);
        arena.set_unit(0, 0, &[u64::MAX]);
        arena.set_unit(1, 0, &[u64::MAX]);
        arena.apply_exchange(&EesSumProtocol, 0, 1);
    }

    #[test]
    fn weights_conserve_unscaled_mass() {
        let values: Vec<WideVector> = (0..16).map(|i| WideVector(vec![i as u128])).collect();
        let mut arena = arena_from(&values, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let i = rng.gen_range(0..16);
            let mut j = rng.gen_range(0..15);
            if j >= i {
                j += 1;
            }
            arena.apply_exchange(&EesSumProtocol, i, j);
        }
        let total: f64 =
            (0..16).map(|n| arena.weight(n) / 2f64.powi(arena.exchange_counter(n) as i32)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total unscaled weight = {total}");
    }

    #[test]
    fn parallel_batch_application_matches_serial_application() {
        // A node-disjoint batch big enough to trip the parallel threshold
        // must leave the arena bit-identical to serial in-order application
        // (the wave-parallel path of the sharded engine relies on this).
        let population = 4096;
        let mut serial = EesUnitArena::new(population, 1, 2);
        for node in 0..population {
            serial.set_unit(node, 0, &[node as u64 + 1]);
        }
        // Stagger some counters so the batch exercises the scaling path too.
        for node in 0..population / 4 {
            set_counter(&mut serial, node * 4, 3);
        }
        let mut parallel = serial.clone();
        let pairs: Vec<(u32, u32)> =
            (0..population as u32 / 2).map(|k| (2 * k, 2 * k + 1)).collect();
        assert!(pairs.len() >= PARALLEL_EXCHANGE_THRESHOLD, "must trip the parallel path");
        for &(i, c) in &pairs {
            serial.apply_exchange(&EesSumProtocol, i as usize, c as usize);
        }
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        parallel.apply_exchanges(&pool, &EesSumProtocol, &pairs);
        assert_eq!(parts(&parallel), parts(&serial));
    }

    #[test]
    fn set_unit_from_digits_matches_set_unit() {
        let mut by_slice = EesUnitArena::new(2, 2, 4);
        let mut by_iter = by_slice.clone();
        by_slice.set_unit(1, 1, &[5, 6]);
        by_iter.set_unit_from_digits(1, 1, [5u64, 6].into_iter());
        assert_eq!(by_iter, by_slice);
        // Stale high limbs are cleared exactly like set_unit.
        by_slice.set_unit(1, 1, &[9]);
        by_iter.set_unit_from_digits(1, 1, std::iter::once(9u64));
        assert_eq!(by_iter, by_slice);
    }

    #[test]
    fn set_unit_zero_extends_shorter_values() {
        let mut arena = EesUnitArena::new(2, 1, 4);
        arena.set_unit(0, 0, &[7]);
        assert_eq!(arena.unit_limbs(0, 0), &[7, 0, 0, 0]);
        arena.set_unit(0, 0, &[1, 2, 3, 4]);
        arena.set_unit(0, 0, &[9]);
        assert_eq!(arena.unit_limbs(0, 0), &[9, 0, 0, 0], "stale high limbs must be cleared");
    }
}
