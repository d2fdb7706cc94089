//! The round-based gossip simulation engine.
//!
//! The engine plays the role of PeerSim in the paper's evaluation: it holds
//! one protocol state per simulated participant and, at every round, lets
//! each online participant initiate one pairwise exchange with a randomly
//! selected online contact.  The number of messages (two per exchange, one
//! per direction) and the number of rounds are tracked so that the latency
//! figures can be reproduced.
//!
//! Like the event-driven engine of [`crate::sim`], the round engine is
//! generic over its storage: it plans a state-independent schedule
//! ([`plan_round_with_mask`]) and applies each exchange through
//! [`ProtocolStore::apply_exchange`], so the same round loop drives per-node
//! `Vec`s, the row slabs of [`crate::slab`], and a store whose exchange is a
//! request/reply relayed to node actors behind transport links.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::churn::ChurnModel;
use crate::metrics::ExchangeMetrics;
use crate::sim::adversary::{classify_exchange, AdversaryState, ExchangeFate};

/// A protocol whose whole behaviour is a symmetric pairwise exchange between
/// an initiator and its contact (push-pull gossip).
pub trait PairwiseProtocol<N> {
    /// Performs one push-pull exchange between two participants' states.
    fn exchange(&self, initiator: &mut N, contact: &mut N);
}

/// Population-sized storage of per-node protocol states.
///
/// The engines only ever need two things from their storage: the population
/// size and the ability to apply one exchange between two indices
/// ([`ProtocolStore`]).  Abstracting storage behind these traits lets the
/// same event loop drive either the natural `Vec<N>` array-of-structs
/// layout or a [`RowSlab`](crate::slab::RowSlab)
/// ([`EesUnitArena`](crate::sim::arena::EesUnitArena),
/// [`MinIdArena`](crate::dissemination::MinIdArena)) whose million-node
/// footprint is one flat allocation.
pub trait StateStore {
    /// Number of nodes held.
    fn population(&self) -> usize;

    /// Hints that `node`'s state is about to be exchanged (software
    /// prefetch).  The default does nothing; slab-backed stores whose rows
    /// live far apart in memory override it so an apply loop can hide the
    /// DRAM latency of upcoming random rows.
    fn prefetch_node(&self, _node: usize) {}
}

/// Storage that can apply one pairwise protocol exchange in place, and a
/// **node-disjoint batch** of them in whatever way suits it.
///
/// `Vec<N>` implements this for every [`PairwiseProtocol`] (the exchange
/// borrows the two states with [`pair_mut`]); a
/// [`RowSlab`](crate::slab::RowSlab) implements it for every protocol its
/// [`RowLayout`](crate::slab::RowLayout) encodes.
pub trait ProtocolStore<P>: StateStore {
    /// Applies one atomic push-pull exchange between `initiator` and
    /// `contact` (distinct, in-bounds indices).
    fn apply_exchange(&mut self, protocol: &P, initiator: usize, contact: usize);

    /// Applies every `(initiator, contact)` exchange of a node-disjoint
    /// batch, using up to `pool`'s workers.  The resulting states must be
    /// identical to applying the batch serially in slice order, which is
    /// what the default does.
    ///
    /// The sharded async engine ([`crate::sim::shard`]) decomposes each
    /// barrier's ordered exchange list into waves in which no node index
    /// appears twice; within a wave the exchanges touch disjoint state and
    /// commute, so running them concurrently reproduces the serial in-order
    /// result bit for bit.  Overrides rely on that contract: **every
    /// `apply_exchanges` call guarantees the pairs are node-disjoint** (no
    /// index occurs in more than one pair of the batch).  Both overrides in
    /// this crate — `Vec<N>` and [`RowSlab`](crate::slab::RowSlab) — are one
    /// call to `apply_disjoint_rows`, the only place that hands two threads
    /// windows into one allocation.
    ///
    /// # Panics
    /// Panics on an out-of-bounds index or a pair with `initiator ==
    /// contact`.
    fn apply_exchanges(&mut self, _pool: &rayon::ThreadPool, protocol: &P, pairs: &[(u32, u32)]) {
        for &(initiator, contact) in pairs {
            self.apply_exchange(protocol, initiator as usize, contact as usize);
        }
    }
}

impl<N> StateStore for Vec<N> {
    fn population(&self) -> usize {
        self.len()
    }
}

impl<N, P> ProtocolStore<P> for Vec<N>
where
    N: Send,
    P: PairwiseProtocol<N> + Sync,
{
    fn apply_exchange(&mut self, protocol: &P, initiator: usize, contact: usize) {
        let (a, b) = pair_mut(self, initiator, contact);
        protocol.exchange(a, b);
    }

    fn apply_exchanges(&mut self, pool: &rayon::ThreadPool, protocol: &P, pairs: &[(u32, u32)]) {
        apply_disjoint_rows(pool, self, 1, pairs, |_| {}, |a, b| protocol.exchange(&mut a[0], &mut b[0]));
    }
}

/// Below this many exchanges a batch is applied on the calling thread.
///
/// What a pooled batch pays is per call, not per exchange: the pool claims
/// blocks of a batch, so the cost is one scoped-thread spawn and join per
/// worker beyond the caller — ≈ 60 µs at the median for a two-thread pool on
/// the 2-vCPU reference box (`pool.map_overhead_us`) — against ≈ 300 ns for
/// the widest exchange this crate applies (an `EesUnitArena` means exchange)
/// and ≈ 6 ns for the lightest (two `f64` averages), whose break-evens lie
/// near 400 and 20 000 exchanges.  The value was set by sweeping it on the
/// 20 000-node sharded workload (`chiarobench`'s `sim_sharded`, wave applies
/// in ms per iteration, means / counter / dissemination): 256 → 44–50 /
/// 4.9–6.3 / 7.9–8.6, 1 024 → 43 / 4.6 / 7.0, 4 096 → 47–48 / 3.1 / 5.5 —
/// the heavy phase dominates the sum, and 1 024 serves it best.
pub(crate) const PARALLEL_EXCHANGE_THRESHOLD: usize = 1024;

/// How many pairs ahead both apply paths hint the rows they will exchange.
const PREFETCH_AHEAD: usize = 8;

/// The one ordered apply loop of both engines: applies `pairs` one by one
/// in iteration order on the calling thread.  The pairs hit random node
/// rows, so each step first hints the pair [`PREFETCH_AHEAD`] steps on
/// ([`StateStore::prefetch_node`]): a no-op for `Vec` stores, most of the
/// DRAM latency hidden for slab-backed ones.
pub(crate) fn apply_in_order<S, P>(
    nodes: &mut S,
    protocol: &P,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
) where
    S: ProtocolStore<P>,
{
    let mut ahead = pairs.clone().skip(PREFETCH_AHEAD);
    for (initiator, contact) in pairs {
        if let Some((i, c)) = ahead.next() {
            nodes.prefetch_node(i);
            nodes.prefetch_node(c);
        }
        nodes.apply_exchange(protocol, initiator, contact);
    }
}

/// The one wavefront batch-apply behind every parallel
/// [`ProtocolStore::apply_exchanges`], and the crate's one disjoint-window
/// site.  `cells` is a row-major slab of `stride`-wide node rows (a `Vec<N>`
/// of per-node states is the `stride == 1` case).  The function validates the pairs, re-checks
/// node-disjointness in debug builds, then calls `exchange(initiator row,
/// contact row)` once per pair — in slice order on the calling thread when
/// the pool has one worker or the batch is below
/// [`PARALLEL_EXCHANGE_THRESHOLD`], on the pool otherwise.  On either path
/// each step first hands `hint` the start of both rows of the pair
/// [`PREFETCH_AHEAD`] positions on, as [`apply_in_order`] does: the store
/// passes its [`StateStore::prefetch_node`] block (a no-op for `Vec`
/// stores).  A hint gets an address, never a reference: the row it names
/// may be under another worker's exchange.
///
/// The caller's side of the contract is
/// [`ProtocolStore::apply_exchanges`]'s: no node index occurs in two pairs of
/// the batch.
///
/// # Panics
/// Panics on an out-of-bounds index or a pair with `initiator == contact`.
pub(crate) fn apply_disjoint_rows<T: Send>(
    pool: &rayon::ThreadPool,
    cells: &mut [T],
    stride: usize,
    pairs: &[(u32, u32)],
    hint: impl Fn(*const T) + Sync,
    exchange: impl Fn(&mut [T], &mut [T]) + Sync,
) {
    let population = cells.len() / stride;
    for &(i, c) in pairs {
        assert!(
            i != c && (i as usize) < population && (c as usize) < population,
            "bad exchange pair ({i}, {c})"
        );
    }
    // The release scheduler guarantees disjointness by construction; this
    // catches a future scheduler bug *before* the window writes turn it
    // into undefined behaviour.  Runs on every batch (including the small
    // ones the serial path takes), and compiles to nothing in release builds.
    #[cfg(debug_assertions)]
    {
        let mut seen = std::collections::BTreeSet::new();
        for node in pairs.iter().flat_map(|&(i, c)| [i, c]) {
            assert!(seen.insert(node), "exchange batch is not node-disjoint: node {node} appears twice");
        }
    }
    let slab = SendPtr(cells.as_mut_ptr());
    let apply = |&(i, c): &(u32, u32)| {
        // Capture the SendPtr wrapper whole (2021 disjoint-field capture
        // would otherwise grab the raw pointer, which is not Send).
        let base = slab;
        // SAFETY: both indices were checked above to be distinct and below
        // `population`, so the two `stride`-wide windows lie inside `cells`
        // (exclusively borrowed for this call) and do not overlap; the batch
        // is node-disjoint (trait contract, re-checked in debug builds), so
        // no concurrent call builds a window over either row.
        let (initiator, contact) = unsafe {
            (
                std::slice::from_raw_parts_mut(base.0.add(i as usize * stride), stride),
                std::slice::from_raw_parts_mut(base.0.add(c as usize * stride), stride),
            )
        };
        exchange(initiator, contact);
    };
    let step = |k: usize| {
        if let Some(&(i, c)) = pairs.get(k + PREFETCH_AHEAD) {
            let base = slab; // the whole wrapper, as in `apply`
            let base = base.0.cast_const();
            hint(base.wrapping_add(i as usize * stride));
            hint(base.wrapping_add(c as usize * stride));
        }
        apply(&pairs[k]);
    };
    if pool.current_num_threads() <= 1 || pairs.len() < PARALLEL_EXCHANGE_THRESHOLD {
        (0..pairs.len()).for_each(step);
    } else {
        pool.map_range(pairs.len(), step);
    }
}

/// The slab's base pointer in a form worker closures may share; private to
/// [`apply_disjoint_rows`], the only place that dereferences it.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: `apply_disjoint_rows` only ever turns the pointer into windows over
// node-disjoint rows, so sending or sharing the wrapper across threads never
// produces two live references to the same node.  `T: Send` keeps the pointee
// itself movable.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access is only ever to disjoint rows.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The round-based engine driving one protocol over a population of nodes
/// held in any [`StateStore`] — per-node `Vec`s, a row slab,
/// or a store whose nodes live behind transport links.
#[derive(Debug, Clone)]
pub struct GossipEngine<S> {
    nodes: S,
    churn: ChurnModel,
    metrics: ExchangeMetrics,
}

impl<S: StateStore> GossipEngine<S> {
    /// Creates an engine over the given node store.
    ///
    /// # Panics
    /// Panics if the store holds fewer than two nodes.
    pub fn new(nodes: S, churn: ChurnModel) -> Self {
        assert!(nodes.population() >= 2, "gossip needs at least two participants");
        Self { nodes, churn, metrics: ExchangeMetrics::default() }
    }

    /// Immutable access to the node store.
    pub fn nodes(&self) -> &S {
        &self.nodes
    }

    /// Accumulated message/round metrics.
    pub fn metrics(&self) -> &ExchangeMetrics {
        &self.metrics
    }

    /// Runs one gossip round: every online node, in random order, initiates
    /// one exchange with a uniformly chosen online contact.
    ///
    /// Connectivity is sampled **once per round** (one online mask for the
    /// whole population, PeerSim semantics), then consulted for both the
    /// initiator and the contact checks — a node is either reachable for the
    /// entire round or unreachable for the entire round, never both.
    ///
    /// Contacts are drawn uniformly over the online set, as in every engine
    /// of this crate — the well-mixed-overlay approximation standard for
    /// aggregation analyses, which keeps million-node simulations tractable.
    pub fn run_round<P, R>(&mut self, protocol: &P, rng: &mut R)
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
    {
        let online = self.churn.sample_mask(self.nodes.population(), rng);
        self.round(protocol, &online, rng, None);
    }

    /// One round against an explicit per-round connectivity mask
    /// (`online[i]` ⇔ node `i` participates this round), under an optional
    /// adversary.  The exchange schedule (and
    /// thus the caller's RNG stream) is planned exactly as without one; the
    /// adversary only decides, per planned exchange and from its own
    /// dedicated sub-stream, whether the exchange applies or is voided
    /// (leaving both endpoints untouched and uncounted).
    fn round<P, R>(
        &mut self,
        protocol: &P,
        online: &[bool],
        rng: &mut R,
        mut adversary: Option<&mut AdversaryState>,
    ) where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
    {
        let mut plan = plan_round_with_mask(self.nodes.population(), online, rng);
        plan.retain(|&(initiator, contact)| {
            classify_exchange(&mut adversary, initiator, contact) == ExchangeFate::Apply
        });
        apply_in_order(&mut self.nodes, protocol, plan.iter().copied());
        for _ in &plan {
            self.metrics.record_exchange();
        }
        self.metrics.record_round();
    }

    /// Runs `rounds` rounds.
    pub fn run_rounds<P, R>(&mut self, protocol: &P, rounds: u32, rng: &mut R)
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
    {
        for _ in 0..rounds {
            self.run_round(protocol, rng);
        }
    }

    /// Runs rounds until `done` holds over the node store or `max_rounds`
    /// is reached; returns whether the predicate was satisfied.  Under an
    /// adversary (see [`crate::sim::adversary`]) a seeded subset of the
    /// planned exchanges is voided; `None` plans and applies every one.
    pub fn run_until<P, R, F>(
        &mut self,
        protocol: &P,
        max_rounds: u32,
        rng: &mut R,
        mut done: F,
        mut adversary: Option<&mut AdversaryState>,
    ) -> bool
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
        F: FnMut(&S) -> bool,
    {
        for _ in 0..max_rounds {
            if done(&self.nodes) {
                return true;
            }
            let online = self.churn.sample_mask(self.nodes.population(), rng);
            self.round(protocol, &online, rng, adversary.as_deref_mut());
        }
        done(&self.nodes)
    }

    /// Consumes the engine, returning the node store and the metrics.
    pub fn into_parts(self) -> (S, ExchangeMetrics) {
        (self.nodes, self.metrics)
    }
}

/// Plans one gossip round against an explicit connectivity mask without
/// touching any node state: the ordered `(initiator, contact)` exchange
/// schedule the round performs.
///
/// The schedule is *state-independent* and consumes **exactly** the RNG
/// draws a [`GossipEngine`] round makes after sampling its online mask
/// (the engine is implemented on top of this function): the full 0..population order is shuffled, then
/// every online initiator draws one uniform contact over the online set
/// minus itself.  A coordinator can therefore precompute the schedule and
/// deliver each exchange as a pair of messages — the actor deployment path —
/// while remaining bit-identical to driving the in-place engine from the
/// same RNG.
///
/// With fewer than two online nodes no exchange is possible and **no RNG
/// draw is consumed**: the plan is empty (the round still counts as a round
/// for the caller's metrics, as in the engine).
///
/// # Panics
/// Panics if the mask length differs from `population`.
pub fn plan_round_with_mask<R: Rng + ?Sized>(
    population: usize,
    online: &[bool],
    rng: &mut R,
) -> Vec<(usize, usize)> {
    assert_eq!(online.len(), population, "one mask entry per node");
    // Precompute the online index set once per round: contact selection
    // is then a single unbiased uniform draw per initiator.  The old
    // bounded rejection loop (8 uniform draws over the whole population)
    // could miss every online peer under heavy churn — silently dropping
    // exchanges that §6.1.5 says should happen — and consumed a variable
    // number of RNG draws per initiator.
    let online_indices: Vec<usize> = (0..population).filter(|&i| online[i]).collect();
    if online_indices.len() < 2 {
        // Nobody (or a lone node) online: no exchange is possible.
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..population).collect();
    order.shuffle(rng);
    let mut plan = Vec::with_capacity(online_indices.len());
    for initiator in order {
        if !online[initiator] {
            continue;
        }
        // Uniform draw over the online set minus the initiator: draw
        // from the first |online|−1 slots and remap a hit on the
        // initiator to the excluded last slot, so every online peer has
        // probability exactly 1/(|online|−1).
        let draw = rng.gen_range(0..online_indices.len() - 1);
        let mut contact = online_indices[draw];
        if contact == initiator {
            contact = *online_indices.last().expect("at least two online nodes");
        }
        plan.push((initiator, contact));
    }
    plan
}

/// Borrows two distinct elements of a slice mutably.
///
/// # Panics
/// Panics if `i == j` or either index is out of bounds.
pub fn pair_mut<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "cannot mutably borrow the same element twice");
    if i < j {
        let (left, right) = slice.split_at_mut(j);
        (&mut left[i], &mut right[0])
    } else {
        let (left, right) = slice.split_at_mut(i);
        (&mut right[0], &mut left[j])
    }
}

/// Borrows the `stride`-wide rows of two distinct nodes of a flat
/// row-major slab mutably — [`pair_mut`] for slab stores, so
/// their hot loops run over slices (no per-element bounds checks or offset
/// math).
///
/// # Panics
/// Panics if `a == b` or either row is out of bounds.
pub(crate) fn rows_mut<T>(slab: &mut [T], stride: usize, a: usize, b: usize) -> (&mut [T], &mut [T]) {
    assert_ne!(a, b, "cannot mutably borrow the same row twice");
    if a < b {
        let (left, right) = slab.split_at_mut(b * stride);
        (&mut left[a * stride..(a + 1) * stride], &mut right[..stride])
    } else {
        let (left, right) = slab.split_at_mut(a * stride);
        (&mut right[..stride], &mut left[b * stride..(b + 1) * stride])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy protocol: both peers keep the max of their values.
    struct MaxProtocol;

    impl PairwiseProtocol<u64> for MaxProtocol {
        fn exchange(&self, a: &mut u64, b: &mut u64) {
            let m = (*a).max(*b);
            *a = m;
            *b = m;
        }
    }

    #[test]
    fn pair_mut_returns_correct_elements() {
        let mut v = vec![10, 20, 30, 40];
        {
            let (a, b) = pair_mut(&mut v, 0, 3);
            assert_eq!((*a, *b), (10, 40));
            *a = 1;
            *b = 4;
        }
        assert_eq!(v, vec![1, 20, 30, 4]);
        let (a, b) = pair_mut(&mut v, 2, 1);
        assert_eq!((*a, *b), (30, 20));
    }

    #[test]
    #[should_panic(expected = "same element")]
    fn pair_mut_rejects_equal_indices() {
        let mut v = vec![1, 2];
        pair_mut(&mut v, 1, 1);
    }

    /// The exchange the helper's own tests apply: order-sensitive within a
    /// pair (initiator and contact are not interchangeable) and touching
    /// every cell of both rows.
    fn mix_rows(initiator: &mut [u64], contact: &mut [u64]) {
        for (a, b) in initiator.iter_mut().zip(contact.iter_mut()) {
            *a = a.wrapping_mul(31).wrapping_add(*b);
            *b ^= a.rotate_left(7);
        }
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    /// Debug builds re-check the node-disjointness contract before any
    /// window is built: an overlapping batch must panic even on the small
    /// serial path (release builds compile the check out entirely).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not node-disjoint")]
    fn overlapping_exchange_batch_panics_in_debug() {
        let mut cells: Vec<u64> = vec![3, 1, 4, 1];
        // Node 1 appears in two pairs of the same wavefront.
        apply_disjoint_rows(&pool(2), &mut cells, 1, &[(0, 1), (1, 2)], |_| {}, mix_rows);
    }

    #[test]
    fn disjoint_exchange_batch_passes_the_debug_check() {
        let mut cells: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        apply_disjoint_rows(&pool(2), &mut cells, 2, &[(0, 1), (3, 2)], |_| {}, |i, c| {
            let max = [i[0].max(c[0]), i[1].max(c[1])];
            i.copy_from_slice(&max);
            c.copy_from_slice(&max);
        });
        assert_eq!(cells, vec![4, 1, 4, 1, 5, 9, 5, 9]);
        // The same helper behind the `Vec<N>` store, at stride 1.
        let mut nodes: Vec<u64> = vec![3, 1, 4, 1];
        nodes.apply_exchanges(&pool(2), &MaxProtocol, &[(0, 1), (2, 3)]);
        assert_eq!(nodes, vec![3, 3, 4, 4]);
    }

    #[test]
    fn out_of_bounds_and_self_pairs_panic_before_any_window_is_built() {
        // Three rows of stride 2: row 3 is out of bounds (as is any index a
        // trailing partial row would have), and a node cannot meet itself.
        for bad in [(0, 3), (3, 0), (1, 1), (0, u32::MAX)] {
            let mut cells = vec![7u64; 7];
            let untouched = cells.clone();
            let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply_disjoint_rows(&pool(2), &mut cells, 2, &[(0, 2), bad], |_| {}, mix_rows);
            }))
            .expect_err("a bad pair must panic");
            let message = message.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("bad exchange pair"), "{bad:?}: {message}");
            assert_eq!(cells, untouched, "{bad:?}: validation precedes every exchange");
        }
    }

    proptest::proptest! {
        /// Whatever the stride, the pool and the side of
        /// `PARALLEL_EXCHANGE_THRESHOLD` the batch falls on, a node-disjoint
        /// batch leaves the slab as in-order application over safe
        /// `rows_mut` windows does, and the prefetch hint is handed the row
        /// starts of exactly the pairs `PREFETCH_AHEAD` positions on: every
        /// hinted address is a row of the slab.
        #[test]
        fn apply_disjoint_rows_matches_in_order_serial_application(
            stride_index in 0usize..3,
            threads_index in 0usize..4,
            above_threshold in proptest::prelude::any::<bool>(),
            spare_nodes in 0usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let (stride, threads) = ([1, 3, 17][stride_index], [1, 2, 3, 7][threads_index]);
            let mut rng = StdRng::seed_from_u64(seed);
            let batch = if above_threshold {
                rng.gen_range(PARALLEL_EXCHANGE_THRESHOLD..PARALLEL_EXCHANGE_THRESHOLD + 300)
            } else {
                rng.gen_range(0..PARALLEL_EXCHANGE_THRESHOLD)
            };
            let population = 2 * batch + spare_nodes;
            let mut nodes: Vec<u32> = (0..population as u32).collect();
            nodes.shuffle(&mut rng);
            let pairs: Vec<(u32, u32)> = nodes.chunks_exact(2).take(batch).map(|p| (p[0], p[1])).collect();
            let mut cells: Vec<u64> = (0..population * stride).map(|_| rng.gen()).collect();
            let mut expected = cells.clone();
            for &(i, c) in &pairs {
                let (i, c) = rows_mut(&mut expected, stride, i as usize, c as usize);
                mix_rows(i, c);
            }
            let base = cells.as_ptr() as usize;
            let hinted = std::sync::Mutex::new(Vec::new());
            let hint = |row: *const u64| hinted.lock().unwrap().push(row as usize);
            apply_disjoint_rows(&pool(threads), &mut cells, stride, &pairs, hint, mix_rows);
            proptest::prop_assert_eq!(cells, expected);
            let row_bytes = stride * std::mem::size_of::<u64>();
            let mut hinted: Vec<usize> = hinted
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|address| {
                    let offset = address.checked_sub(base).expect("a hint below the slab");
                    assert_eq!(offset % row_bytes, 0, "{address:#x}: not a row start");
                    let node = offset / row_bytes;
                    assert!(node < population, "hinted node {node} of {population}");
                    node
                })
                .collect();
            let mut upcoming: Vec<usize> =
                pairs.iter().skip(PREFETCH_AHEAD).flat_map(|&(i, c)| [i as usize, c as usize]).collect();
            hinted.sort_unstable();
            upcoming.sort_unstable();
            proptest::prop_assert_eq!(hinted, upcoming);
        }
    }

    #[test]
    fn max_spreads_epidemically() {
        let mut rng = StdRng::seed_from_u64(1);
        let nodes: Vec<u64> = (0..500).map(|i| i as u64).collect();
        let mut engine = GossipEngine::new(nodes, ChurnModel::NONE);
        let converged =
            engine.run_until(&MaxProtocol, 30, &mut rng, |nodes| nodes.iter().all(|&v| v == 499), None);
        assert!(converged, "the max should spread to everyone within 30 rounds");
        // Epidemic spreading is logarithmic: 500 nodes need far fewer than 30 rounds.
        assert!(engine.metrics().rounds() <= 20);
    }

    #[test]
    fn message_count_tracks_exchanges() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = GossipEngine::new(vec![0u64; 100], ChurnModel::NONE);
        engine.run_rounds(&MaxProtocol, 5, &mut rng);
        let metrics = engine.metrics();
        assert_eq!(metrics.rounds(), 5);
        // Without churn every node initiates once per round: 100 exchanges,
        // 200 messages per round.
        assert_eq!(metrics.exchanges(), 500);
        assert_eq!(metrics.messages(), 1_000);
        assert!((metrics.messages_per_node(100) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn planned_schedule_matches_the_engine_and_its_rng_draws() {
        // The plan must consume exactly the engine's RNG draws: running a
        // round from a plan and running it in place from twin RNGs must
        // leave the RNG streams — and the node states — identical.
        for (seed, churn) in [(11u64, 0.0), (12, 0.3), (13, 0.97)] {
            let model = if churn == 0.0 { ChurnModel::NONE } else { ChurnModel::new(churn) };
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut engine = GossipEngine::new((0..97u64).collect::<Vec<_>>(), model);
            let mut mirror: Vec<u64> = (0..97).collect();
            for _ in 0..6 {
                let mask = model.sample_mask(97, &mut rng_a);
                let plan = plan_round_with_mask(97, &mask, &mut rng_a);
                engine.run_round(&MaxProtocol, &mut rng_b);
                for &(i, c) in &plan {
                    assert!(mask[i] && mask[c] && i != c, "bad pair ({i}, {c})");
                    let (a, b) = pair_mut(&mut mirror, i, c);
                    MaxProtocol.exchange(a, b);
                }
                assert_eq!(&mirror, engine.nodes(), "states diverged at churn {churn}");
                // Twin RNGs must still agree after each round.
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }
    }

    #[test]
    fn churn_reduces_exchange_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut no_churn = GossipEngine::new(vec![0u64; 200], ChurnModel::NONE);
        no_churn.run_rounds(&MaxProtocol, 10, &mut rng);
        let mut churny = GossipEngine::new(vec![0u64; 200], ChurnModel::new(0.5));
        churny.run_rounds(&MaxProtocol, 10, &mut rng);
        assert!(churny.metrics().exchanges() < no_churn.metrics().exchanges());
    }

    #[test]
    fn messages_are_exactly_twice_the_exchanges_at_any_churn_level() {
        // The latency figures (§6.3.2) convert exchange counts into message
        // counts assuming one request and one reply per push-pull exchange;
        // that 2x invariant must hold whatever the churn model drops.
        for (seed, churn) in [(1u64, 0.0), (2, 0.1), (3, 0.35), (4, 0.6)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = if churn == 0.0 { ChurnModel::NONE } else { ChurnModel::new(churn) };
            let mut engine = GossipEngine::new(vec![0u64; 64], model);
            engine.run_rounds(&MaxProtocol, 7, &mut rng);
            let metrics = engine.metrics();
            assert_eq!(metrics.messages(), 2 * metrics.exchanges(), "churn = {churn}");
            assert_eq!(metrics.rounds(), 7, "rounds are counted even when churn empties them");
            assert!(
                metrics.exchanges() <= 7 * 64,
                "at most one initiated exchange per node per round"
            );
            let per_node = metrics.messages_per_node(64);
            assert!((per_node - metrics.messages() as f64 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn round_accounting_accumulates_across_protocol_phases() {
        // The runner phases several protocols over the same population and
        // sums their metrics; merged counters must preserve the invariant.
        let mut rng = StdRng::seed_from_u64(9);
        let mut first = GossipEngine::new(vec![0u64; 32], ChurnModel::NONE);
        first.run_rounds(&MaxProtocol, 3, &mut rng);
        let mut second = GossipEngine::new(vec![0u64; 32], ChurnModel::new(0.2));
        second.run_rounds(&MaxProtocol, 4, &mut rng);
        let mut total = *first.metrics();
        total.merge(second.metrics());
        assert_eq!(total.rounds(), 7);
        assert_eq!(total.exchanges(), first.metrics().exchanges() + second.metrics().exchanges());
        assert_eq!(total.messages(), 2 * total.exchanges());
    }

    /// Records every exchanged pair of node labels (for mask assertions).
    /// A `Mutex`, not a `RefCell`: a `Vec` store may apply a batch on a
    /// pool, so its protocols are `Sync`.
    struct RecordingProtocol(std::sync::Mutex<Vec<(u64, u64)>>);

    impl PairwiseProtocol<u64> for RecordingProtocol {
        fn exchange(&self, a: &mut u64, b: &mut u64) {
            self.0.lock().unwrap().push((*a, *b));
        }
    }

    #[test]
    fn offline_nodes_never_touch_an_exchange_within_a_round() {
        // Regression for the per-contact churn re-roll: with one mask per
        // round, a node that is offline can appear in no exchange at all,
        // neither as initiator nor as contact.
        let mut rng = StdRng::seed_from_u64(21);
        let nodes: Vec<u64> = (0..40).collect();
        let mut engine = GossipEngine::new(nodes, ChurnModel::new(0.4));
        let mask: Vec<bool> = (0..40).map(|i| i % 3 != 0).collect();
        let protocol = RecordingProtocol(std::sync::Mutex::default());
        engine.round(&protocol, &mask, &mut rng, None);
        let pairs = protocol.0.into_inner().unwrap();
        assert!(!pairs.is_empty(), "online majority must exchange");
        for (a, b) in pairs {
            assert!(mask[a as usize], "offline node {a} initiated or received an exchange");
            assert!(mask[b as usize], "offline node {b} initiated or received an exchange");
        }
    }

    #[test]
    fn sparse_online_sets_never_lose_exchanges() {
        // Regression for the bounded retry loop: with only 2 of 1000 nodes
        // online, 8 uniform draws over the whole population almost never hit
        // the single eligible contact, so rounds silently lost exchanges.
        // One uniform draw over the online-index set always succeeds.
        let mut rng = StdRng::seed_from_u64(5);
        let mut engine = GossipEngine::new(vec![0u64; 1_000], ChurnModel::NONE);
        let mut mask = vec![false; 1_000];
        mask[0] = true;
        mask[999] = true;
        for _ in 0..10 {
            engine.round(&MaxProtocol, &mask, &mut rng, None);
        }
        // Every online initiator completes its exchange, every round.
        assert_eq!(engine.metrics().exchanges(), 2 * 10);
    }

    #[test]
    fn contact_sampling_is_uniform_over_the_online_set() {
        // Each online peer (minus the initiator) must be picked with equal
        // probability — the swap-remap draw must not favour the last slot.
        let mut rng = StdRng::seed_from_u64(6);
        let nodes: Vec<u64> = (0..10).collect();
        let mut engine = GossipEngine::new(nodes, ChurnModel::NONE);
        // Only even nodes online; record who exchanges with whom.
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let mut contact_counts = [0u64; 10];
        let rounds = 20_000;
        for _ in 0..rounds {
            let protocol = RecordingProtocol(std::sync::Mutex::default());
            engine.round(&protocol, &mask, &mut rng, None);
            for (a, b) in protocol.0.into_inner().unwrap() {
                contact_counts[a as usize] += 1;
                contact_counts[b as usize] += 1;
            }
        }
        // 5 online nodes; each participates once as initiator and on
        // average once as contact per round: expected = 2 * rounds.
        for (i, &count) in contact_counts.iter().enumerate() {
            if i % 2 == 0 {
                let expected = 2 * rounds as u64;
                let deviation = (count as i64 - expected as i64).abs() as f64 / expected as f64;
                assert!(deviation < 0.05, "node {i} count {count} vs expected {expected}");
            } else {
                assert_eq!(count, 0, "offline node {i} must never appear");
            }
        }
    }

    #[test]
    fn lone_online_node_cannot_exchange() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut engine = GossipEngine::new(vec![0u64; 50], ChurnModel::NONE);
        let mut mask = vec![false; 50];
        mask[13] = true;
        engine.round(&MaxProtocol, &mask, &mut rng, None);
        assert_eq!(engine.metrics().exchanges(), 0);
        assert_eq!(engine.metrics().rounds(), 1, "the empty round is still counted");
    }

    #[test]
    fn run_round_samples_exactly_one_mask_per_round() {
        // run_round must be equivalent to sampling one connectivity mask up
        // front and running the round against it — not re-rolling churn at
        // every contact retry.  Drive both formulations from the same seed
        // and assert they stay in lockstep for several churny rounds.
        let churn = ChurnModel::new(0.35);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut implicit = GossipEngine::new((0..64u64).collect::<Vec<_>>(), churn);
        let mut explicit = GossipEngine::new((0..64u64).collect::<Vec<_>>(), churn);
        for _ in 0..10 {
            implicit.run_round(&MaxProtocol, &mut rng_a);
            let mask = churn.sample_mask(64, &mut rng_b);
            explicit.round(&MaxProtocol, &mask, &mut rng_b, None);
        }
        assert_eq!(rng_a, rng_b, "run_round must consume exactly one mask of churn draws");
        assert_eq!(implicit.nodes(), explicit.nodes());
        assert_eq!(implicit.metrics().exchanges(), explicit.metrics().exchanges());
    }

    #[test]
    fn run_until_stops_early_when_done() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = GossipEngine::new(vec![7u64; 50], ChurnModel::NONE);
        let converged =
            engine.run_until(&MaxProtocol, 100, &mut rng, |nodes| nodes.iter().all(|&v| v == 7), None);
        assert!(converged);
        assert_eq!(engine.metrics().rounds(), 0, "predicate already true: no rounds needed");
    }
}
