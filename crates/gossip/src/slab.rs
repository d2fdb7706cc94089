//! One flat slab for every population-sized protocol state.
//!
//! The natural per-node representation of a gossip state — a struct holding
//! a `Vec` of big integers or of `f64`s — costs several heap allocations
//! *per node*: at 10⁶ nodes that is tens of millions of small allocations,
//! pointer-chasing on every exchange, and an allocator-dominated footprint.
//! [`RowSlab`] keeps a whole population in **one** allocation instead: every
//! node owns one fixed-width row of `u64` cells, and everything the node
//! knows — scalars and payload alike — lives in that row, so an exchange
//! touches two contiguous windows and nothing else.
//!
//! What the cells of a row mean is the business of a [`RowLayout`]: a small
//! value describing the row's shape, whose one method applies a protocol's
//! pairwise exchange to two rows.  The slab implements the two store
//! traits of [`crate::engine`] once, for every layout; the crate's two
//! layouts are [`EesUnitLayout`](crate::sim::arena::EesUnitLayout)
//! (Algorithm 2 over fixed-width limb units) and
//! [`MinIdLayout`](crate::dissemination::MinIdLayout) (§4.2.2's
//! smallest-identifier rule over `f64` payloads).  A layout defined in
//! another crate — Damgård–Jurik units as Montgomery limb windows — plugs
//! into the same slab and the same engines without any `unsafe` of its own.

use crate::engine::{apply_disjoint_rows, rows_mut, ProtocolStore, StateStore};

/// The meaning of one [`RowSlab`] row under protocol `P`.
pub trait RowLayout<P> {
    /// Applies one push-pull exchange of `protocol` to the rows of two
    /// distinct nodes (each exactly the slab's stride wide).
    fn exchange_rows(&self, protocol: &P, initiator: &mut [u64], contact: &mut [u64]);
}

/// A population of fixed-width `u64` rows in one allocation, read through
/// the layout `L`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSlab<L> {
    layout: L,
    stride: usize,
    cells: Vec<u64>,
}

impl<L> RowSlab<L> {
    /// A slab of `population` all-zero rows of `stride` cells.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn zeroed(layout: L, stride: usize, population: usize) -> Self {
        assert!(stride >= 1, "a row holds at least one cell");
        Self { layout, stride, cells: vec![0; population * stride] }
    }

    /// The layout the rows are read through.
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// The row of one node.
    ///
    /// # Panics
    /// Panics if `node` is out of bounds.
    pub fn row(&self, node: usize) -> &[u64] {
        &self.cells[node * self.stride..(node + 1) * self.stride]
    }

    /// The row of one node, mutably.
    ///
    /// # Panics
    /// Panics if `node` is out of bounds.
    pub fn row_mut(&mut self, node: usize) -> &mut [u64] {
        &mut self.cells[node * self.stride..(node + 1) * self.stride]
    }

    /// Every row, in node order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.cells.chunks_exact(self.stride)
    }

    /// Calls `fill(node, row)` once for every node, on `pool`'s workers, and
    /// returns the results in node order.  Workers claim blocks of 256
    /// consecutive rows, so each writes its rows in place and holds nothing
    /// but what one `fill` call makes.
    pub fn fill_rows<U: Send>(
        &mut self,
        pool: &rayon::ThreadPool,
        fill: impl Fn(usize, &mut [u64]) -> U + Sync,
    ) -> Vec<U> {
        let stride = self.stride;
        let blocks = pool.map_chunks_mut(&mut self.cells, FILL_BLOCK_ROWS * stride, |block, rows| {
            let first = block * FILL_BLOCK_ROWS;
            rows.chunks_exact_mut(stride).enumerate().map(|(r, row)| fill(first + r, row)).collect::<Vec<_>>()
        });
        blocks.into_iter().flatten().collect()
    }
}

/// Rows per block of [`RowSlab::fill_rows`]: enough that a block's lock and
/// cursor claim are paid once per 256 `fill` calls, few enough that a
/// 2 000-node population still spreads over eight blocks.
const FILL_BLOCK_ROWS: usize = 256;

impl<L> StateStore for RowSlab<L> {
    fn population(&self) -> usize {
        self.cells.len() / self.stride
    }

    fn prefetch_node(&self, node: usize) {
        debug_assert!(node < self.population());
        prefetch_row(self.cells.as_ptr().wrapping_add(node * self.stride), self.stride);
    }
}

/// The most bytes of one row [`prefetch_row`] hints: 16 cache lines.
const MAX_HINTED_BYTES: usize = 1024;

/// Hints every 64-byte cache line of the `stride`-cell row starting at
/// `row`, up to [`MAX_HINTED_BYTES`]: the one prefetch block behind both
/// apply paths ([`StateStore::prefetch_node`] for the ordered loop, the hint
/// `apply_disjoint_rows` is handed for the wavefront one).  An exchange
/// sweeps both rows end to end, and hinting only the head line leaves the
/// rest of a random row to demand misses; hints past the cap only queue
/// behind the first lines' fills while the hardware streamer follows a row
/// that long on its own.
fn prefetch_row(row: *const u64, stride: usize) {
    let bytes = (stride * std::mem::size_of::<u64>()).min(MAX_HINTED_BYTES);
    // The last byte's line too: a row need not start on a line boundary.
    #[cfg(target_arch = "x86_64")]
    for offset in (0..bytes).step_by(64).chain([bytes - 1]) {
        // SAFETY: prefetch is a pure cache hint with no memory access
        // semantics: it never faults and reads or writes nothing, so any
        // address is sound; the ones hinted here lie inside the row.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(row.cast::<i8>().wrapping_add(offset), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (row, bytes);
}

impl<P: Sync, L: RowLayout<P> + Sync> ProtocolStore<P> for RowSlab<L> {
    fn apply_exchange(&mut self, protocol: &P, initiator: usize, contact: usize) {
        let (initiator, contact) = rows_mut(&mut self.cells, self.stride, initiator, contact);
        self.layout.exchange_rows(protocol, initiator, contact);
    }

    fn apply_exchanges(&mut self, pool: &rayon::ThreadPool, protocol: &P, pairs: &[(u32, u32)]) {
        let (layout, stride) = (&self.layout, self.stride);
        let hint = |row| prefetch_row(row, stride);
        apply_disjoint_rows(pool, &mut self.cells, stride, pairs, hint, |initiator, contact| {
            layout.exchange_rows(protocol, initiator, contact);
        });
    }
}
