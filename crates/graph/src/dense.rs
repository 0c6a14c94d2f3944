//! Dense square matrices over a [`Semiring`] with the two kernels the
//! paper's node-processing steps need:
//!
//! * [`SemiMatrix::floyd_warshall`] — all-pairs path weights (Algorithm
//!   4.1 step ii runs this on `H_S`; the paper cites Floyd–Warshall with
//!   `O(|S|³ log |S|)` PRAM work / `O(|S|³)` sequential operations);
//! * [`SemiMatrix::square_step`] — one min-plus "path doubling" step
//!   `A ← A ⊕ A⊗A` (Algorithm 4.3 step ii(1)).
//!
//! `floyd_warshall` runs an order-preserving **k-tiled** schedule
//! (full-matrix sweeps drop from `n` to `n / TILE`), and `square_step`
//! runs in **relax form** (`ikj`): each output row folds whole rows
//! `A[k, ·]` into itself, double-buffered into a persistent scratch owned
//! by the matrix (no per-call `clone()`). See DESIGN.md §8.
//!
//! The tiling is *not* the textbook three-phase blocked FW: that variant
//! closes panels before outer tiles, which re-associates path-weight sums
//! and under `f64` min-plus can change result bits. Instead every cell here
//! sees exactly the naive kernel's candidate sequence (`k` ascending, same
//! operands, same `0̄` skip, `combine(old, cand)` with `old` first), so
//! production and naive outputs are **bit-identical at every thread
//! count** — the retained [`SemiMatrix::floyd_warshall_naive`] /
//! [`SemiMatrix::square_step_naive`] reference kernels and the root
//! `tests/kernels.rs` differential suite enforce this.
//!
//! Both kernels report an honest [`KernelOutcome`]: `ops` counts the
//! combine/extend pairs actually executed (the `0̄`-row skip is real work
//! saved, not hidden), and `changed` reflects whether any entry improved.
//! Callers charge the PRAM cost model from `ops`. The diagonal check for an
//! **absorbing cycle** (negative cycle under the tropical semiring) hooks
//! into the paper's comment (i) negative-cycle detection.
//!
//! Both production kernels spend their time in one relax primitive over a
//! row segment. Its implementation is chosen from what the code observes,
//! never from a setting: the [`simd`] submodule's AVX-512F or AVX2 relax
//! when the semiring advertises a [`LaneAlgebra`] over `f64` and the CPU
//! supports the level ([`simd_active`]), the scalar relax otherwise. The
//! vector relax is bit-identical to the scalar one by construction — see
//! DESIGN.md §13.

pub mod simd;

use crate::semiring::{LaneAlgebra, Semiring};
use crate::slab::AlignedVec;
use rayon::prelude::*;
use simd::SimdLevel;
use std::any::TypeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Edge length of the `k`-tile of `floyd_warshall` and the row-tile
/// granularity of `square_step` change flags.
pub const TILE: usize = 32;
/// Rows per parallel task in the FW outer phase: coarse enough to
/// amortize scheduling, fine enough to load-balance.
const FW_ROWCHUNK: usize = 8;
/// Column-block width of the FW outer phase: with pivots outermost, one
/// `FW_ROWCHUNK × FW_JBLOCK` row block (8 KiB of `f64`) plus one panel
/// segment (1 KiB) stay L1-resident across all of a tile's pivots.
const FW_JBLOCK: usize = 128;
/// Minimum order before `floyd_warshall` fans rows out to the pool.
const PAR_FW_MIN_N: usize = 128;
/// Minimum order before `square_step` fans row-tiles out to the pool.
const PAR_SQ_MIN_N: usize = 64;

/// Which relax implementation a kernel invocation uses. Resolved once at
/// kernel entry ([`auto_sel`]), then threaded through the inner loops so
/// the per-call cost is a two-way branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum RelaxSel {
    /// The shared scalar `relax_block` (always available, every semiring).
    Scalar,
    /// Vector relax from [`simd`] — only selected when the semiring
    /// advertises a [`LaneAlgebra`], its weights are `f64`, and the CPU
    /// supports the level.
    Simd(LaneAlgebra, SimdLevel),
}

/// The relax [`SemiMatrix::floyd_warshall`] / [`SemiMatrix::square_step`]
/// select for semiring `S` on this CPU.
fn auto_sel<S: Semiring>() -> RelaxSel {
    if TypeId::of::<S::W>() == TypeId::of::<f64>() {
        if let (Some(alg), Some(level)) = (S::lane_algebra(), simd::detect()) {
            return RelaxSel::Simd(alg, level);
        }
    }
    RelaxSel::Scalar
}

/// True when the kernels will run the vector relax for `S` — the E16
/// bench records it, so a scalar host's numbers are labelled as such.
pub fn simd_active<S: Semiring>() -> bool {
    matches!(auto_sel::<S>(), RelaxSel::Simd(..))
}

#[inline]
fn dispatch_relax<S: Semiring>(sel: RelaxSel, dst: &mut [S::W], dik: S::W, src: &[S::W]) -> bool {
    match sel {
        RelaxSel::Scalar => relax_block::<S>(dst, dik, src),
        RelaxSel::Simd(alg, level) => simd::relax_slice::<S>(alg, level, dst, dik, src),
    }
}

/// Outcome of a dense kernel: primitive operation count and whether some
/// diagonal entry strictly improved on the empty path (an absorbing
/// cycle).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelOutcome {
    /// Inner-loop combine/extend pairs actually executed (skipped `0̄`
    /// rows are not counted).
    pub ops: u64,
    /// `true` if an absorbing (e.g. negative) cycle was detected.
    pub absorbing_cycle: bool,
    /// `true` if any entry changed relative to the input matrix.
    pub changed: bool,
}

/// A dense `n × n` matrix of semiring weights, row-major.
///
/// Owns persistent scratch buffers (double-buffer target, per-row-tile
/// change flags) so repeated kernel calls on the same matrix allocate
/// nothing in steady state. `Clone` copies only the payload; the clone
/// starts with empty scratch.
///
/// Payload and scratch live in 64-byte-aligned [`AlignedVec`] storage
/// (the `graph::slab` cache-line constant), so whole rows start on cache
/// lines and — when the stride cooperates — SIMD row sweeps run on
/// aligned addresses. Correctness never depends on alignment (the vector
/// relax uses unaligned loads); this is purely a locality measure.
#[derive(Debug)]
pub struct SemiMatrix<S: Semiring> {
    n: usize,
    data: AlignedVec<S::W>,
    /// Double-buffer target for `square_step` / panel snapshots for
    /// `floyd_warshall`. Contents are meaningless between calls.
    scratch: AlignedVec<S::W>,
    /// Per-row-tile change flags from the *last* `square_step` (empty =
    /// unknown). Lets the next `square_step` of a doubling sequence skip
    /// candidate `k` ranges that provably cannot improve anything.
    tile_changed: Vec<bool>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Semiring> Clone for SemiMatrix<S> {
    fn clone(&self) -> Self {
        SemiMatrix {
            n: self.n,
            data: self.data.clone(),
            scratch: AlignedVec::new(),
            tile_changed: self.tile_changed.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

/// `dst[j] ← combine(dst[j], extend(dik, src[j]))` over a block; returns
/// whether any entry changed. Shared by the naive and production kernels
/// so their per-cell operation is literally the same code.
#[inline]
fn relax_block<S: Semiring>(dst: &mut [S::W], dik: S::W, src: &[S::W]) -> bool {
    let mut any = false;
    for (c, &s) in dst.iter_mut().zip(src) {
        let cur = *c;
        let merged = S::combine(cur, S::extend(dik, s));
        any |= merged != cur;
        *c = merged;
    }
    any
}

impl<S: Semiring> SemiMatrix<S> {
    /// Matrix of all-`0̄` (no paths), with `1̄` on the diagonal (empty
    /// paths).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::empty(n);
        for i in 0..n {
            m.data[i * n + i] = S::one();
        }
        m
    }

    /// Adopt an existing row-major payload (length `n²`). The payload is
    /// copied once into cache-line-aligned storage.
    pub fn from_flat(n: usize, data: Vec<S::W>) -> Self {
        assert_eq!(data.len(), n * n, "payload must be n×n");
        SemiMatrix {
            n,
            data: AlignedVec::from_slice(&data),
            scratch: AlignedVec::new(),
            tile_changed: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Matrix of all-`0̄`, including the diagonal.
    pub fn empty(n: usize) -> Self {
        let mut data = AlignedVec::new();
        data.resize(n * n, S::zero());
        SemiMatrix {
            n,
            data,
            scratch: AlignedVec::new(),
            tile_changed: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Reshape to an `n × n` identity, reusing the existing allocations.
    pub fn reset_identity(&mut self, n: usize) {
        self.reset_empty(n);
        for i in 0..n {
            self.data[i * n + i] = S::one();
        }
    }

    /// Reshape to an `n × n` all-`0̄` matrix, reusing the existing
    /// allocations.
    pub fn reset_empty(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, S::zero());
        self.tile_changed.clear();
    }

    /// Order of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> S::W {
        self.data[i * self.n + j]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, w: S::W) {
        self.data[i * self.n + j] = w;
        self.tile_changed.clear();
    }

    /// `combine` `w` into entry `(i, j)` (keep the better of old and new).
    #[inline]
    pub fn relax(&mut self, i: usize, j: usize, w: S::W) {
        let e = &mut self.data[i * self.n + j];
        *e = S::combine(*e, w);
        self.tile_changed.clear();
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[S::W] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole payload, row-major (tests compare kernel outputs bit for
    /// bit through this).
    pub fn data(&self) -> &[S::W] {
        &self.data
    }

    /// Bytes held by the payload and scratch buffers (capacity, not len) —
    /// feeds the workspace peak-memory accounting.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<S::W>() * (self.data.capacity() + self.scratch.capacity())
            + self.tile_changed.capacity()
    }

    /// In-place Floyd–Warshall. Diagonal should start at `1̄` (use
    /// [`SemiMatrix::identity`] + `relax` of the edges).
    ///
    /// Cache-blocked over `k`-tiles of [`TILE`]: for each tile the tile's
    /// own rows are closed sequentially (snapshotting each row `k` at its
    /// pre-step state into a panel), then all other rows apply the whole
    /// tile in one parallel sweep, reading their `d(i,k)` pivots in `k`
    /// order exactly as the naive kernel would. Per-cell candidate order
    /// is identical to [`SemiMatrix::floyd_warshall_naive`], so the result
    /// is bit-identical at every thread count; the win is `n/TILE`
    /// full-matrix sweeps instead of `n`, plus an L1-blocked inner loop.
    /// The tile widths are the constants [`TILE`] and `FW_JBLOCK`.
    ///
    /// The relax primitive is the [`simd`] one when the semiring and CPU
    /// allow it (see [`simd_active`]), the scalar one otherwise.
    pub fn floyd_warshall(&mut self) -> KernelOutcome {
        self.floyd_warshall_with(auto_sel::<S>())
    }

    fn floyd_warshall_with(&mut self, sel: RelaxSel) -> KernelOutcome {
        let n = self.n;
        if n == 0 {
            return KernelOutcome::default();
        }
        self.tile_changed.clear();
        let tile = TILE.min(n);
        let mut panel = std::mem::take(&mut self.scratch);
        panel.clear();
        panel.resize(tile * n, S::zero());
        let ops = AtomicU64::new(0);
        let changed = AtomicBool::new(false);

        let mut t0 = 0usize;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            let tb = t1 - t0;

            // Phase 1 — tile rows, sequential, naive order. Row `k` is
            // snapshotted at its pre-step-`k` state, which is exactly what
            // the naive kernel's per-`k` row copy holds (step `k` may
            // change row `k` itself when the diagonal is absorbing, so the
            // snapshot, not the live row, is the operand both schedules
            // must read).
            for k in t0..t1 {
                let pk = k - t0;
                panel[pk * n..pk * n + n].copy_from_slice(&self.data[k * n..k * n + n]);
                let mut ops1 = 0u64;
                let mut ch1 = false;
                for r in t0..t1 {
                    let row = &mut self.data[r * n..r * n + n];
                    let drk = row[k];
                    if S::is_zero(drk) {
                        continue;
                    }
                    ops1 += n as u64;
                    ch1 |= dispatch_relax::<S>(sel, row, drk, &panel[pk * n..pk * n + n]);
                }
                ops.fetch_add(ops1, Ordering::Relaxed);
                if ch1 {
                    changed.store(true, Ordering::Relaxed);
                }
            }

            // Phase 2 — all rows outside the tile apply pivots
            // k = t0..t1 in ascending order. Pass A sweeps the tile's own
            // columns first, reading each `d(i,k)` *after* pivots < k have
            // been applied to it (naive order) and latching it; pass B
            // replays the latched pivots over the remaining columns in
            // L1-sized blocks.
            let outer_chunk = |ci: usize, chunk: &mut [S::W]| -> (u64, bool) {
                let base_row = ci * FW_ROWCHUNK;
                let mut diks = [[S::zero(); TILE]; FW_ROWCHUNK];
                let mut o = 0u64;
                let mut ch = false;
                for (ri, row) in chunk.chunks_mut(n).enumerate() {
                    let i = base_row + ri;
                    if i >= t0 && i < t1 {
                        continue;
                    }
                    for k in t0..t1 {
                        let pk = k - t0;
                        let dik = row[k];
                        diks[ri][pk] = dik;
                        if S::is_zero(dik) {
                            continue;
                        }
                        o += tb as u64;
                        ch |= dispatch_relax::<S>(
                            sel,
                            &mut row[t0..t1],
                            dik,
                            &panel[pk * n + t0..pk * n + t1],
                        );
                    }
                }
                let mut jb0 = 0usize;
                while jb0 < n {
                    let jb1 = (jb0 + FW_JBLOCK).min(n);
                    // Split the block around the tile's columns (already
                    // done in pass A). Pivots run *outside* the row loop
                    // so each panel segment is read once per chunk rather
                    // than once per row; per cell the pivots still arrive
                    // in ascending `k` order, so the candidate sequence —
                    // and hence every bit — matches the naive schedule.
                    for (s0, s1) in [(jb0, jb1.min(t0)), (jb0.max(t1), jb1)] {
                        if s0 >= s1 {
                            continue;
                        }
                        for pk in 0..tb {
                            let prow = &panel[pk * n + s0..pk * n + s1];
                            for (ri, row) in chunk.chunks_mut(n).enumerate() {
                                let i = base_row + ri;
                                if i >= t0 && i < t1 {
                                    continue;
                                }
                                let dik = diks[ri][pk];
                                if S::is_zero(dik) {
                                    continue;
                                }
                                o += (s1 - s0) as u64;
                                ch |= dispatch_relax::<S>(sel, &mut row[s0..s1], dik, prow);
                            }
                        }
                    }
                    jb0 = jb1;
                }
                (o, ch)
            };

            if n >= PAR_FW_MIN_N {
                self.data
                    .par_chunks_mut(n * FW_ROWCHUNK)
                    .enumerate()
                    .for_each(|(ci, chunk)| {
                        let (o, c) = outer_chunk(ci, chunk);
                        ops.fetch_add(o, Ordering::Relaxed);
                        if c {
                            changed.store(true, Ordering::Relaxed);
                        }
                    });
            } else {
                for (ci, chunk) in self.data.chunks_mut(n * FW_ROWCHUNK).enumerate() {
                    let (o, c) = outer_chunk(ci, chunk);
                    ops.fetch_add(o, Ordering::Relaxed);
                    if c {
                        changed.store(true, Ordering::Relaxed);
                    }
                }
            }
            t0 = t1;
        }

        self.scratch = panel;
        let absorbing = (0..n).any(|i| S::better(self.get(i, i), S::one()));
        KernelOutcome {
            ops: ops.into_inner(),
            absorbing_cycle: absorbing,
            changed: changed.into_inner(),
        }
    }

    /// The untiled Floyd–Warshall, retained as the bit-identity
    /// reference and the bench baseline (it keeps the seed's per-`k`
    /// `row_k` copy so the measured speedup is against the real former
    /// kernel, with accounting made honest).
    pub fn floyd_warshall_naive(&mut self) -> KernelOutcome {
        let n = self.n;
        if n == 0 {
            return KernelOutcome::default();
        }
        self.tile_changed.clear();
        let ops = AtomicU64::new(0);
        let changed = AtomicBool::new(false);
        for k in 0..n {
            // Split out row k so rows can be updated in parallel without
            // aliasing it.
            let row_k = self.row(k).to_vec();
            let process_row = |row_i: &mut [S::W]| {
                let dik = row_i[k];
                if S::is_zero(dik) {
                    return;
                }
                ops.fetch_add(n as u64, Ordering::Relaxed);
                if relax_block::<S>(row_i, dik, &row_k) {
                    changed.store(true, Ordering::Relaxed);
                }
            };
            if n >= PAR_FW_MIN_N {
                self.data
                    .par_chunks_mut(n)
                    .for_each(process_row);
            } else {
                for i in 0..n {
                    process_row(&mut self.data[i * n..(i + 1) * n]);
                }
            }
        }
        let absorbing = (0..n).any(|i| S::better(self.get(i, i), S::one()));
        KernelOutcome {
            ops: ops.into_inner(),
            absorbing_cycle: absorbing,
            changed: changed.into_inner(),
        }
    }

    /// One path-doubling step `A ← A ⊕ (A ⊗ A)`; reports whether anything
    /// changed (Algorithm 4.3's iteration can stop early when no node
    /// changes).
    ///
    /// Relax form (`ikj`) rather than dot-product form (`ijk`): the inner
    /// loop is one row sweep `out[i, ·] ← combine(out[i, ·], extend(a[i,k],
    /// a[k, ·]))` over contiguous rows, so an all-`0̄` pivot costs one
    /// test, and the result goes into the persistent double-buffer
    /// scratch. The relax primitive is the [`simd`] one when the semiring
    /// and CPU allow it (see [`simd_active`]), the scalar one otherwise.
    ///
    /// Bit-identity argument: `out[i, ·]` starts as a copy of `a[i, ·]`,
    /// and candidates arrive per cell in exactly the naive order (`k`
    /// ascending, same `0̄` skips, current value first in `combine`) — the
    /// loop interchange only changes *which cells sit between* two
    /// consecutive candidates of a cell, never a cell's own sequence. The
    /// per-row change flag is computed as a final-vs-initial `!=` sweep —
    /// the same comparison the naive kernel does — rather than accumulated
    /// per relax, because a cell can leave and re-enter its original bits
    /// (e.g. `5 → NaN → 5` via an `∞ + (−∞)` candidate) and the naive
    /// kernel reports that as unchanged. `ops` accounting is `n` per
    /// scanned non-`0̄` pivot, which is exactly the naive total.
    ///
    /// Change is tracked per row-tile of [`TILE`] rows; inside a doubling
    /// sequence, rows whose tile did not change last step only need to
    /// rescan candidate `k` ranges from tiles that *did* change — for a
    /// selective semiring every skipped candidate was already folded into
    /// the current entry with identical bits, so the pruned step stays
    /// bit-identical to the naive one (see DESIGN.md §8 for the argument).
    pub fn square_step(&mut self) -> KernelOutcome {
        self.square_step_with(auto_sel::<S>())
    }

    fn square_step_with(&mut self, sel: RelaxSel) -> KernelOutcome {
        let n = self.n;
        if n == 0 {
            return KernelOutcome::default();
        }
        let n_tiles = n.div_ceil(TILE);

        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.resize(n * n, S::zero());

        let hint: Option<&[bool]> = if S::is_selective() && self.tile_changed.len() == n_tiles {
            Some(&self.tile_changed)
        } else {
            None
        };
        let new_flags: Vec<AtomicBool> = (0..n_tiles).map(|_| AtomicBool::new(false)).collect();
        let ops = AtomicU64::new(0);
        let data = &self.data;

        let process_tile = |ti: usize, rows: &mut [S::W]| {
            let full = hint.is_none_or(|h| h[ti]);
            let mut o = 0u64;
            let mut ch = false;
            for (ri, out_row) in rows.chunks_mut(n).enumerate() {
                let i = ti * TILE + ri;
                let a = &data[i * n..(i + 1) * n];
                out_row.copy_from_slice(a);
                let scan = |out_row: &mut [S::W], k0: usize, k1: usize| -> u64 {
                    let mut o = 0u64;
                    for k in k0..k1 {
                        let dik = a[k];
                        if S::is_zero(dik) {
                            continue;
                        }
                        o += n as u64;
                        dispatch_relax::<S>(sel, out_row, dik, &data[k * n..(k + 1) * n]);
                    }
                    o
                };
                if full {
                    o += scan(out_row, 0, n);
                } else if let Some(h) = hint {
                    // Only `k` in row-tiles that changed last step can
                    // contribute a candidate not already folded in.
                    for (kt, &chg) in h.iter().enumerate() {
                        if !chg {
                            continue;
                        }
                        o += scan(out_row, kt * TILE, ((kt + 1) * TILE).min(n));
                    }
                }
                // Final-vs-initial sweep with write-back: where the fold
                // ended `!=`-distinguishable from the input the row
                // changed; where it ended numerically equal (which
                // includes `-0.0` vs `+0.0` after a NaN round trip) the
                // *input* bits are restored, exactly as the naive
                // kernel's write-if-changed does.
                for (x, y) in out_row.iter_mut().zip(a) {
                    if *x != *y {
                        ch = true;
                    } else {
                        *x = *y;
                    }
                }
            }
            ops.fetch_add(o, Ordering::Relaxed);
            if ch {
                new_flags[ti].store(true, Ordering::Relaxed);
            }
        };

        if n >= PAR_SQ_MIN_N {
            out.par_chunks_mut(n * TILE)
                .enumerate()
                .for_each(|(ti, rows)| process_tile(ti, rows));
        } else {
            for (ti, rows) in out.chunks_mut(n * TILE).enumerate() {
                process_tile(ti, rows);
            }
        }

        let old = std::mem::replace(&mut self.data, out);
        self.scratch = old;
        self.tile_changed.clear();
        self.tile_changed
            .extend(new_flags.iter().map(|f| f.load(Ordering::Relaxed)));
        let changed = self.tile_changed.iter().any(|&c| c);

        let absorbing = (0..n).any(|i| S::better(self.get(i, i), S::one()));
        KernelOutcome {
            ops: ops.into_inner(),
            absorbing_cycle: absorbing,
            changed,
        }
    }

    /// The untiled `square_step`, retained as the bit-identity
    /// reference and bench baseline: full-matrix `clone`, strided
    /// `old[k*n + j]` reads, no change-flag pruning; accounting made
    /// honest.
    pub fn square_step_naive(&mut self) -> KernelOutcome {
        let n = self.n;
        if n == 0 {
            return KernelOutcome::default();
        }
        self.tile_changed.clear();
        let old = self.data.clone();
        let ops = AtomicU64::new(0);
        let changed = AtomicBool::new(false);
        let body = |i: usize, row_i: &mut [S::W]| {
            let mut local_change = false;
            let mut o = 0u64;
            for j in 0..n {
                let mut acc = row_i[j];
                for k in 0..n {
                    let ik = old[i * n + k];
                    if S::is_zero(ik) {
                        continue;
                    }
                    o += 1;
                    acc = S::combine(acc, S::extend(ik, old[k * n + j]));
                }
                if acc != row_i[j] {
                    row_i[j] = acc;
                    local_change = true;
                }
            }
            ops.fetch_add(o, Ordering::Relaxed);
            if local_change {
                changed.store(true, Ordering::Relaxed);
            }
        };
        if n >= PAR_SQ_MIN_N {
            self.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row_i)| body(i, row_i));
        } else {
            let mut data = std::mem::take(&mut self.data);
            for i in 0..n {
                body(i, &mut data[i * n..(i + 1) * n]);
            }
            self.data = data;
        }
        let absorbing = (0..n).any(|i| S::better(self.get(i, i), S::one()));
        KernelOutcome {
            ops: ops.into_inner(),
            absorbing_cycle: absorbing,
            changed: changed.into_inner(),
        }
    }

    /// All-pairs path weights by repeated squaring: `⌈log₂ n⌉` doubling
    /// steps (the classic `Õ(n³)` "transitive-closure bottleneck"
    /// algorithm the paper's introduction contrasts against). Later steps
    /// are pruned by the per-tile change flags of earlier ones.
    pub fn repeated_squaring(&mut self) -> KernelOutcome {
        let mut total = KernelOutcome::default();
        let mut span = 1usize;
        while span < self.n.max(1) {
            let out = self.square_step();
            total.ops += out.ops;
            total.absorbing_cycle |= out.absorbing_cycle;
            total.changed |= out.changed;
            span *= 2;
            if !out.changed {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{Boolean, Tropical};

    fn sample() -> SemiMatrix<Tropical> {
        // 0 →(1) 1 →(2) 2, 0 →(10) 2, 2 →(1) 3.
        let mut m = SemiMatrix::<Tropical>::identity(4);
        m.relax(0, 1, 1.0);
        m.relax(1, 2, 2.0);
        m.relax(0, 2, 10.0);
        m.relax(2, 3, 1.0);
        m
    }

    /// Deterministic pseudo-random matrix with `0̄` holes and negative
    /// weights, order `n`.
    fn random_matrix(n: usize, seed: u64) -> SemiMatrix<Tropical> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = SemiMatrix::<Tropical>::identity(n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let r = next();
                if r % 4 == 0 {
                    continue; // leave a 0̄ hole
                }
                // Weights in [0.5, 8.5); keep them positive so random
                // instances stay free of absorbing cycles (signed weights
                // are covered by the dedicated cycle tests).
                let w = 0.5 + (r % 1024) as f64 / 128.0;
                m.set(i, j, w);
            }
        }
        m
    }

    fn assert_bits_equal(a: &SemiMatrix<Tropical>, b: &SemiMatrix<Tropical>, context: &str) {
        assert_eq!(a.n(), b.n(), "{context}: order");
        for (idx, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: cell {} ({x} vs {y})",
                idx
            );
        }
    }

    #[test]
    fn floyd_warshall_shortest_paths() {
        let mut m = sample();
        let out = m.floyd_warshall();
        assert!(!out.absorbing_cycle);
        assert!(out.changed);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(0, 3), 4.0);
        assert_eq!(m.get(3, 0), f64::INFINITY);
        assert_eq!(m.get(1, 1), 0.0);
        // Honest accounting: ops must equal the naive reference's count
        // (same pivots executed, same `0̄` skips), not n³.
        let naive = sample().floyd_warshall_naive();
        assert_eq!(out.ops, naive.ops);
        assert!(out.ops > 0);
        assert!(out.ops < 64, "the 0̄ skip must be visible in the count");
    }

    #[test]
    fn kernels_report_no_change_on_fixpoint() {
        let mut m = sample();
        m.floyd_warshall();
        let again = m.floyd_warshall();
        assert!(!again.changed, "closure is a fixpoint");
        let sq = m.square_step();
        assert!(!sq.changed);
        let sq_naive = m.square_step_naive();
        assert!(!sq_naive.changed);
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        // Past PAR_FW_MIN_N so the pool actually fans out.
        let n = 5 * TILE;
        let base = random_matrix(n, 99);
        let reference = {
            let mut m = base.clone();
            rayon::with_max_threads(1, || m.floyd_warshall());
            m
        };
        for threads in [1usize, 2, 4, 8] {
            let mut m = base.clone();
            rayon::with_max_threads(threads, || m.floyd_warshall());
            assert_bits_equal(&reference, &m, &format!("fw at {threads} threads"));
            let mut sq = base.clone();
            let mut sq_ref = base.clone();
            rayon::with_max_threads(threads, || sq.repeated_squaring());
            rayon::with_max_threads(1, || sq_ref.repeated_squaring());
            assert_bits_equal(&sq_ref, &sq, &format!("squaring at {threads} threads"));
        }
    }

    #[test]
    fn reset_reuses_buffers_without_state_leaks() {
        let mut m = random_matrix(3 * TILE + 5, 5);
        m.floyd_warshall();
        m.square_step();
        let cap_before = m.data.capacity();
        m.reset_identity(TILE + 1);
        let mut fresh = SemiMatrix::<Tropical>::identity(TILE + 1);
        assert_bits_equal(&fresh, &m, "reset_identity");
        assert!(m.data.capacity() >= cap_before.min((TILE + 1) * (TILE + 1)));
        // A dirtied-then-reset matrix must behave exactly like a fresh one.
        for (i, j, w) in [(0, 1, 2.0), (1, 2, 0.5), (2, 0, 4.0)] {
            m.relax(i, j, w);
            fresh.relax(i, j, w);
        }
        let om = m.floyd_warshall();
        let of = fresh.floyd_warshall();
        assert_bits_equal(&fresh, &m, "post-reset closure");
        assert_eq!(om, of);
    }

    #[test]
    fn repeated_squaring_matches_floyd_warshall() {
        let mut a = sample();
        let mut b = sample();
        a.floyd_warshall();
        b.repeated_squaring();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a.get(i, j), b.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn negative_cycle_detected() {
        let mut m = SemiMatrix::<Tropical>::identity(3);
        m.relax(0, 1, 1.0);
        m.relax(1, 2, -3.0);
        m.relax(2, 0, 1.0);
        let out = m.floyd_warshall();
        assert!(out.absorbing_cycle);
        let mut m = SemiMatrix::<Tropical>::identity(3);
        m.relax(0, 1, 1.0);
        m.relax(1, 2, -3.0);
        m.relax(2, 0, 1.0);
        let out = m.repeated_squaring();
        assert!(out.absorbing_cycle);
    }

    #[test]
    fn zero_weight_cycle_is_not_absorbing() {
        let mut m = SemiMatrix::<Tropical>::identity(2);
        m.relax(0, 1, 2.0);
        m.relax(1, 0, -2.0);
        let out = m.floyd_warshall();
        assert!(!out.absorbing_cycle);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn boolean_closure_via_squaring() {
        let mut m = SemiMatrix::<Boolean>::identity(5);
        for i in 0..4 {
            m.relax(i, i + 1, true);
        }
        m.repeated_squaring();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), j >= i);
            }
        }
    }

    #[test]
    fn parallel_paths_take_better() {
        let mut m = SemiMatrix::<Tropical>::identity(2);
        m.relax(0, 1, 5.0);
        m.relax(0, 1, 3.0);
        assert_eq!(m.get(0, 1), 3.0);
    }

    /// Both relax implementations against naive, across tile boundaries.
    /// The scalar relax is the fallback of every host without AVX2 and of
    /// every non-`f64` semiring, but on a SIMD host the public kernels
    /// never select it for `Tropical`, so drive both selections through
    /// the same FW and the same pruned doubling sequence to the fixpoint:
    /// bits, `ops`, change flags and the per-tile hint state must agree
    /// at every step, every step must match the naive sequence, and the
    /// first (unpruned) step must match its `ops`.
    #[test]
    fn scalar_and_selected_relax_match_naive_across_tile_boundaries() {
        let auto = auto_sel::<Tropical>();
        for n in [1, TILE - 1, TILE, TILE + 1, 2 * TILE, 3 * TILE + 5] {
            let base = random_matrix(n, 300 + n as u64);

            let mut scalar = base.clone();
            let mut vector = base.clone();
            let mut naive = base.clone();
            let os = scalar.floyd_warshall_with(RelaxSel::Scalar);
            let ov = vector.floyd_warshall_with(auto);
            let on = naive.floyd_warshall_naive();
            assert_bits_equal(&scalar, &vector, &format!("fw n={n}"));
            assert_bits_equal(&scalar, &naive, &format!("scalar fw vs naive n={n}"));
            assert_eq!(os, ov, "fw outcome n={n}");
            assert_eq!(os, on, "scalar fw outcome vs naive n={n}");

            let mut scalar = base.clone();
            let mut vector = base.clone();
            let mut naive = base.clone();
            for step in 0.. {
                let os = scalar.square_step_with(RelaxSel::Scalar);
                let ov = vector.square_step_with(auto);
                let on = naive.square_step_naive();
                let ctx = format!("square n={n} step={step}");
                assert_bits_equal(&scalar, &vector, &ctx);
                assert_bits_equal(&scalar, &naive, &format!("{ctx} vs naive"));
                assert_eq!(os, ov, "{ctx}: outcome");
                assert_eq!(
                    scalar.tile_changed, vector.tile_changed,
                    "{ctx}: tile flags"
                );
                assert_eq!(os.changed, on.changed, "{ctx}: changed vs naive");
                if step == 0 {
                    assert_eq!(os.ops, on.ops, "{ctx}: unpruned ops vs naive");
                } else {
                    assert!(os.ops <= on.ops, "{ctx}: pruned ops exceed naive");
                }
                if !os.changed {
                    break;
                }
            }
        }
    }

    #[test]
    fn only_f64_lane_semirings_select_the_vector_relax() {
        use crate::semiring::TropicalInt;
        assert_eq!(simd_active::<Tropical>(), simd::detect().is_some());
        assert!(!simd_active::<TropicalInt>());
        assert!(!simd_active::<Boolean>());
    }

    /// Adversarial weights (±∞ so `extend` can manufacture NaN, signed
    /// zeros, denormals, negatives) across every f64 semiring: FW and one
    /// step must match naive bit for bit, and a pruned sequence must
    /// match the same sequence run with the scalar relax.
    #[test]
    fn auto_kernels_bit_identical_on_hostile_weights_all_f64_semirings() {
        use crate::semiring::{Bottleneck, MaxPlus, Reliability};
        fn check<S: Semiring<W = f64>>(tag: &str) {
            let pool = [
                0.0,
                -0.0,
                1.5,
                -2.25,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE / 4.0,
                -4.0e-310,
                0.75,
                -3.5,
            ];
            for n in [TILE - 1, TILE + 1, 2 * TILE + 3] {
                let mut state = (n as u64 * 31 + 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut flat = Vec::with_capacity(n * n);
                for _ in 0..n * n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    flat.push(pool[(state % pool.len() as u64) as usize]);
                }
                let base = SemiMatrix::<S>::from_flat(n, flat);
                let mut auto_fw = base.clone();
                let mut naive_fw = base.clone();
                let oa = auto_fw.floyd_warshall();
                let on = naive_fw.floyd_warshall_naive();
                assert_eq!(oa.ops, on.ops, "{tag} fw ops n={n}");
                assert_eq!(oa.changed, on.changed, "{tag} fw changed n={n}");
                for (idx, (x, y)) in auto_fw.data().iter().zip(naive_fw.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{tag} fw n={n} cell {idx}: {x} vs {y}"
                    );
                }
                let mut auto_sq = base.clone();
                let mut naive_sq = base.clone();
                let oa = auto_sq.square_step();
                let on = naive_sq.square_step_naive();
                assert_eq!(oa.ops, on.ops, "{tag} square ops n={n}");
                assert_eq!(oa.changed, on.changed, "{tag} square changed n={n}");
                for (idx, (x, y)) in auto_sq.data().iter().zip(naive_sq.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{tag} square n={n} cell {idx}: {x} vs {y}"
                    );
                }
                // Pruned sequence, scalar vs selected relax: NaN voids the
                // naive equivalence of pruning, never the agreement of
                // the two relax implementations.
                let mut scalar = base.clone();
                let mut auto = base.clone();
                for step in 0..8 {
                    let os = scalar.square_step_with(RelaxSel::Scalar);
                    let oa = auto.square_step_with(auto_sel::<S>());
                    assert_eq!(os, oa, "{tag} pruned n={n} step={step}");
                    assert_eq!(scalar.tile_changed, auto.tile_changed, "{tag} flags n={n}");
                    for (idx, (x, y)) in scalar.data().iter().zip(auto.data()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{tag} pruned n={n} step={step} cell {idx}: {x} vs {y}"
                        );
                    }
                    if !os.changed {
                        break;
                    }
                }
            }
        }
        check::<Tropical>("tropical");
        check::<MaxPlus>("maxplus");
        check::<Bottleneck>("bottleneck");
        check::<Reliability>("reliability");
    }

    #[test]
    fn large_matrix_parallel_path() {
        // Exercise the rayon branch (n ≥ 128): a directed ring.
        let n = 130;
        let mut m = SemiMatrix::<Tropical>::identity(n);
        for i in 0..n {
            m.relax(i, (i + 1) % n, 1.0);
        }
        let out = m.floyd_warshall();
        assert!(!out.absorbing_cycle);
        assert_eq!(m.get(0, n - 1), (n - 1) as f64);
        assert_eq!(m.get(5, 4), (n - 1) as f64);
        let mut naive = SemiMatrix::<Tropical>::identity(n);
        for i in 0..n {
            naive.relax(i, (i + 1) % n, 1.0);
        }
        naive.floyd_warshall_naive();
        assert_bits_equal(&naive, &m, "ring fw");
    }
}
