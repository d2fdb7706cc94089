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
}

impl<L> StateStore for RowSlab<L> {
    fn population(&self) -> usize {
        self.cells.len() / self.stride
    }

    fn prefetch_node(&self, node: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            debug_assert!(node < self.population());
            // SAFETY: prefetch is a pure cache hint with no memory access
            // semantics, and the address is in-bounds for the slab.  One
            // line is enough: it holds the row's scalars, and the hardware
            // streamer follows the row once its head is resident.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(self.cells.as_ptr().add(node * self.stride).cast::<i8>(), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = node;
    }
}

impl<P: Sync, L: RowLayout<P> + Sync> ProtocolStore<P> for RowSlab<L> {
    fn apply_exchange(&mut self, protocol: &P, initiator: usize, contact: usize) {
        let (initiator, contact) = rows_mut(&mut self.cells, self.stride, initiator, contact);
        self.layout.exchange_rows(protocol, initiator, contact);
    }

    fn apply_exchanges(&mut self, pool: &rayon::ThreadPool, protocol: &P, pairs: &[(u32, u32)]) {
        let layout = &self.layout;
        apply_disjoint_rows(pool, &mut self.cells, self.stride, pairs, |initiator, contact| {
            layout.exchange_rows(protocol, initiator, contact);
        });
    }
}
