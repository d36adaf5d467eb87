//! Packed, register-tiled matrix multiplication — the BLAS stand-in.
//!
//! Every tensor contraction in the workspace bottoms out here (the paper's
//! "GEMM/MKL" time category in Fig. 7). The kernel follows the BLIS
//! decomposition: `B` is packed once into `KC`-deep panels of `NR`-wide
//! column strips, `A` is packed per `MC × KC` block into `MR`-tall
//! micro-panels, and an unrolled `MR × NR` register-tiled microkernel does
//! all the flops.
//!
//! The packed path stores operands as *planes* of `f64`: a real plane
//! always, plus an imaginary plane when the element type is complex. The
//! microkernel itself is `f64`-only and compiled in several
//! `#[target_feature]` variants selected at runtime
//! ([`crate::simd::simd_level`]); `Complex64` multiplies run as four plane
//! passes over the same microkernel (`re += ar·br`, `re -= ai·bi`,
//! `im += ar·bi`, `im += ai·br`) instead of falling back to scalar complex
//! arithmetic.
//!
//! A multiply is tagged by [`gemm_path`] from `(k, n)` **only** — never
//! from `m` — so row-disjoint chunks of it agree on the tag, which fixes
//! how the `tt-dist` thread pool cuts rows into panels:
//!
//! * `n == 1` — [`GemmPath::Gemv`] (the Davidson matvec shape),
//! * small `k·n` — [`GemmPath::Scalar`]: never packed, packing overhead
//!   would dominate on the many tiny blocks of block-sparse DMRG,
//! * otherwise — [`GemmPath::Packed`].
//!
//! Inside a panel, [`panel_kernel`] picks the row-panel kernel from the tag,
//! the panel's rows and `(k, n)`: a GEMV loop, the unpacked `TM × TN`
//! register tile (every `Scalar`-tagged panel, and every small one with
//! `k ≤ KC`: no `B` packing), or the packed microkernel. The choice may
//! depend on the rows because for `k ≤ KC` all of them add each element's
//! products in the same ascending order: Sequential, Threaded and
//! multi-process execution stay bitwise-identical (the `tt-dist` contract).
//!
//! Transposed operands are handled during packing / via strided loads
//! ([`Layout::Transposed`] no longer materializes a transposed copy).
//! The row-panel kernels' epilogue writes each finished register tile
//! through a [`RunView`] of the output ([`ViewMut`]): a contraction's
//! output permutation is never a pass of its own, and its result never
//! exists in natural order. A fresh result *stores* a tile, an accumulate
//! step *adds* it ([`Epilogue`]); either way every element receives its
//! whole register sum once, so the bits are those of the natural-order
//! product permuted and then stored or added. Flops are charged to the
//! global counter ([`crate::counter`]) as `2·m·n·k` by the public entry
//! points.

use crate::dense::DenseTensor;
use crate::scalar::Scalar;
use crate::simd::{simd_level, SimdLevel};
use crate::view::{Epilogue, RunView, ViewMut};
use crate::{Error, Result};
use std::marker::PhantomData;

/// Operand layout marker (row-major is native; `Transposed` reads the
/// operand through swapped strides — no copy is made).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Use the operand as stored.
    Normal,
    /// Use the (conjugate-free) transpose of the operand.
    Transposed,
}

/// Microkernel tile rows (register blocking).
pub const MR: usize = 2;
/// Microkernel tile columns (register blocking). The `2 × 16` `f64`
/// accumulator tile occupies 8 of the 16 AVX2 vector registers, leaving
/// room for the `A` broadcasts and `B` strip loads (a `4 × 16` tile
/// measures ~20% slower: all 16 registers go to accumulators and the
/// loads spill).
pub const NR: usize = 16;
/// Row-panel height: `A` is packed `MC × KC` at a time. Row-parallel
/// callers should align chunk boundaries to `MC` so every chunking packs
/// identical panels. Multiple of [`MR`].
pub const MC: usize = 128;
/// Depth of one packed panel (the `k`-blocking). Sized so an `MC × KC`
/// `f64` A-block (~256 KiB) stays L2-resident.
pub const KC: usize = 256;

/// Below this `k·n` a multiply is tagged [`GemmPath::Scalar`] (threshold
/// compares only chunking-invariant dims, keeping the tag
/// row-independent). The tag fixes the row panels; which kernel runs
/// inside a panel is [`panel_kernel`]'s choice.
const PACK_MIN_KN: usize = 2048;

/// Rows of the unpacked kernel's register tile.
const TM: usize = 4;
/// Columns of the unpacked kernel's register tile: two AVX2 vectors per
/// row, so the `4 × 8` `f64` accumulator tile takes 8 of the 16 vector
/// registers and `B` is read as unit-stride row pieces.
const TN: usize = 8;

/// Largest `rows · k · n` a [`GemmPath::Packed`] row panel runs unpacked.
/// `bench_kernels`' `gemm_small` / `gemm_small_packed` rows bracket the
/// crossover: at the List sweep's shapes the unpacked tile runs 1.25–4.8×
/// as fast as packing `B` and running the microkernel (4×6×1521: 16.6 vs
/// 3.5 GFlop/s), at 256³ (2²⁴) it runs at 0.85×. Between them, 128³ and
/// 128×256×128 (2²²) still ran unpacked 1.35–1.5× as fast, 160×256×160 and
/// 200³ packed ~1.1× as fast.
const SMALL_MAX_MNK: usize = 1 << 22;

/// The kernel family a `(k, n)` multiply is tagged with. Deliberately
/// independent of `m`: the tag fixes the row panels (MC-aligned on the
/// packed path), and row-chunked parallel execution must agree with
/// sequential.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// Fused output width 1: matrix–vector product.
    Gemv,
    /// Small `k·n`: never packed. Its panels run the unpacked register
    /// tile, which adds each element's products in ascending `l` onto `C`
    /// for every `k`.
    Scalar,
    /// Packed panels + register-tiled microkernel; small panels with
    /// `k ≤ KC` run unpacked (see [`panel_kernel`]).
    Packed,
}

/// Choose the execution path for a multiply with contracted dim `k` and
/// output width `n`.
pub fn gemm_path(k: usize, n: usize) -> GemmPath {
    if n == 1 {
        GemmPath::Gemv
    } else if k * n < PACK_MIN_KN {
        GemmPath::Scalar
    } else {
        GemmPath::Packed
    }
}

/// The kernel that runs one row panel of a multiply tagged `path`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PanelKernel {
    /// One register-summed dot product per row ([`gemv_into`]).
    Gemv,
    /// The unpacked `TM × TN` register tile ([`gemm_small_into`]).
    Small,
    /// `B` packed, the `MR × NR` microkernel ([`gemm_packed_into`]).
    Packed,
}

/// The kernel for a `rows`-row panel of a `(k, n)` multiply tagged `path`.
///
/// The choice may depend on `rows` because it never moves a bit: for
/// `k ≤ KC` every kernel sums each element's products in ascending `l` in
/// a register that starts at `+0.0` and writes that sum once. Only the
/// packed kernel splits a sum (at `KC`), so a `Packed`-tagged `k > KC`
/// panel never runs unpacked; a `Scalar`-tagged panel is never packed,
/// whatever its `k`.
pub fn panel_kernel(path: GemmPath, rows: usize, k: usize, n: usize) -> PanelKernel {
    match path {
        GemmPath::Gemv => PanelKernel::Gemv,
        GemmPath::Scalar => PanelKernel::Small,
        GemmPath::Packed if k <= KC && rows.saturating_mul(k * n) <= SMALL_MAX_MNK => {
            PanelKernel::Small
        }
        GemmPath::Packed => PanelKernel::Packed,
    }
}

// ---------------------------------------------------------------------------
// packing
// ---------------------------------------------------------------------------

/// One `KC`-deep block of a packed `B`, produced by [`PackedB::pack_block`]
/// so callers with a thread pool can pack blocks concurrently and assemble
/// them with [`PackedB::from_blocks`]. Plane layout matches [`PackedB`].
pub struct PackedBlock {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// `B` packed for the microkernel: for each `KC`-deep row block (in
/// ascending `k` order), `NR`-wide column strips stored contiguously, each
/// strip row-major `kc × NR` with zero-padding in the last partial strip.
///
/// Storage is plane-split `f64`: the real parts of every element in packing
/// order, plus (for complex `T` only) the imaginary parts in the same
/// order. The split is what lets the `f64` SIMD microkernel run complex
/// multiplies as four real plane passes.
pub struct PackedB<T: Scalar> {
    re: Vec<f64>,
    im: Vec<f64>,
    k: usize,
    n: usize,
    _elem: PhantomData<T>,
}

impl<T: Scalar> PackedB<T> {
    /// Pack an effective `k × n` matrix whose element `(l, j)` lives at
    /// `b[l*rs + j*cs]` (so `rs = n, cs = 1` for a row-major `B` and
    /// `rs = 1, cs = k_storage` reads a stored matrix transposed).
    pub fn pack(k: usize, n: usize, b: &[T], rs: usize, cs: usize) -> Self {
        let blocks = (0..Self::block_count(k))
            .map(|blk| Self::pack_block(k, n, b, rs, cs, blk))
            .collect();
        Self::from_blocks(k, n, blocks)
    }

    /// Number of `KC`-deep blocks a depth-`k` packing consists of — the
    /// unit of work for parallel packing.
    pub fn block_count(k: usize) -> usize {
        k.div_ceil(KC).max(1)
    }

    /// Pack the single `KC`-deep block `blk` (covering packed rows
    /// `[blk·KC, min((blk+1)·KC, k))`). Blocks are independent; packing
    /// them on separate threads and assembling with [`Self::from_blocks`]
    /// yields the same bytes as [`Self::pack`].
    pub fn pack_block(
        k: usize,
        n: usize,
        b: &[T],
        rs: usize,
        cs: usize,
        blk: usize,
    ) -> PackedBlock {
        let strips = n.div_ceil(NR);
        let pc = blk * KC;
        let kc = (pc + KC).min(k).saturating_sub(pc);
        let complex = T::is_complex();
        let mut re = Vec::with_capacity(kc * strips * NR);
        let mut im = Vec::with_capacity(if complex { kc * strips * NR } else { 0 });
        for strip in 0..strips {
            let j0 = strip * NR;
            for l in 0..kc {
                let row = (pc + l) * rs;
                for c in 0..NR {
                    let j = j0 + c;
                    let v = if j < n { b[row + j * cs] } else { T::zero() };
                    re.push(v.real());
                    if complex {
                        im.push(v.imag());
                    }
                }
            }
        }
        PackedBlock { re, im }
    }

    /// Assemble a packing from per-block pieces (must be every block of
    /// `Self::block_count(k)`, in ascending block order).
    pub fn from_blocks(k: usize, n: usize, blocks: Vec<PackedBlock>) -> Self {
        debug_assert_eq!(blocks.len(), Self::block_count(k));
        let strips = n.div_ceil(NR);
        let mut re = Vec::with_capacity(k * strips * NR);
        let mut im = Vec::new();
        for blk in blocks {
            re.extend_from_slice(&blk.re);
            im.extend_from_slice(&blk.im);
        }
        Self {
            re,
            im,
            k,
            n,
            _elem: PhantomData,
        }
    }

    /// Contracted dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Real plane of the `kc × NR` strip for k-block starting at `pc` and
    /// column strip `strip`.
    #[inline]
    fn strip_re(&self, pc: usize, kc: usize, strip: usize) -> &[f64] {
        let strips = self.n.div_ceil(NR);
        let off = pc * strips * NR + strip * kc * NR;
        &self.re[off..off + kc * NR]
    }

    /// Imaginary plane of the same strip (complex packings only).
    #[inline]
    fn strip_im(&self, pc: usize, kc: usize, strip: usize) -> &[f64] {
        let strips = self.n.div_ceil(NR);
        let off = pc * strips * NR + strip * kc * NR;
        &self.im[off..off + kc * NR]
    }
}

/// Pack rows `[i0, i0+rows)` × cols `[p0, p0+kc)` of an effective matrix
/// (element `(i, l)` at `a[i*rs + l*cs]`) into `MR`-tall micro-panels:
/// panel-major, then `l`-major, then the `MR` rows (zero-padded) — split
/// into `f64` planes (`im` is filled only for complex `T`).
#[allow(clippy::too_many_arguments)]
fn pack_a_block<T: Scalar>(
    re: &mut Vec<f64>,
    im: &mut Vec<f64>,
    a: &[T],
    rs: usize,
    cs: usize,
    i0: usize,
    rows: usize,
    p0: usize,
    kc: usize,
) {
    re.clear();
    im.clear();
    let complex = T::is_complex();
    for ip in 0..rows.div_ceil(MR) {
        for l in 0..kc {
            let col = (p0 + l) * cs;
            for r in 0..MR {
                let row = ip * MR + r;
                let v = if row < rows {
                    a[(i0 + row) * rs + col]
                } else {
                    T::zero()
                };
                re.push(v.real());
                if complex {
                    im.push(v.imag());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// microkernel variants + dispatch
// ---------------------------------------------------------------------------

/// The register-tiled `MR × NR` microkernel body: `acc ±= Ap · Bp` over a
/// `kc`-deep packed micro-panel pair (`SUB` selects the subtracting form,
/// used for the `re -= ai·bi` pass of complex multiplies).
///
/// The accumulator tile is copied into a local `regs` array for the loop
/// and written back once at the end. The copy is load-bearing: operating
/// through the `&mut` reference directly defeats LLVM's scalar-replacement
/// pass in some inlining contexts and the whole tile silently scalarizes
/// (measured 5× slower); the local array is reliably promoted to vector
/// registers.
///
/// `f64`-only by design: complex data reaches this kernel as split
/// real/imaginary planes. There is no FMA contraction (rustc never fuses
/// `mul`+`add` without explicit intrinsics), so every `#[target_feature]`
/// wrapper below computes bitwise-identical values — the feature gates
/// change only how wide the independent accumulator lanes are vectorized.
#[inline(always)]
fn microkernel_body<const SUB: bool>(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    let mut regs = *acc;
    for l in 0..kc {
        let av: &[f64; MR] = ap[l * MR..l * MR + MR].try_into().expect("MR panel");
        let bv: &[f64; NR] = bp[l * NR..l * NR + NR].try_into().expect("NR strip");
        for (regr, &ar) in regs.iter_mut().zip(av.iter()) {
            for (regv, &bc) in regr.iter_mut().zip(bv.iter()) {
                if SUB {
                    *regv -= ar * bc;
                } else {
                    *regv += ar * bc;
                }
            }
        }
    }
    *acc = regs;
}

/// Baseline variant: ambient codegen flags only. `unsafe fn` purely for
/// signature uniformity with the feature-gated variants (callable safely
/// on any CPU).
unsafe fn microkernel_baseline<const SUB: bool>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    microkernel_body::<SUB>(kc, ap, bp, acc);
}

/// AVX2+FMA variant. Safety: caller must have verified `avx2` and `fma`
/// via feature detection (see [`crate::simd`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2<const SUB: bool>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    microkernel_body::<SUB>(kc, ap, bp, acc);
}

/// AVX-512 variant (opt-in via `TT_SIMD=avx512`). Safety: caller must have
/// verified `avx512f`/`avx512vl`/`avx512dq` via feature detection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
unsafe fn microkernel_avx512<const SUB: bool>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    microkernel_body::<SUB>(kc, ap, bp, acc);
}

type MicroFn = unsafe fn(usize, &[f64], &[f64], &mut [[f64; NR]; MR]);

/// The adding and subtracting microkernel entry points for one SIMD level.
#[derive(Copy, Clone)]
struct MicroKernel {
    add: MicroFn,
    sub: MicroFn,
}

fn micro_kernel_for(level: SimdLevel) -> MicroKernel {
    match level {
        SimdLevel::Baseline => MicroKernel {
            add: microkernel_baseline::<false>,
            sub: microkernel_baseline::<true>,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => MicroKernel {
            add: microkernel_avx2::<false>,
            sub: microkernel_avx2::<true>,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => MicroKernel {
            add: microkernel_avx512::<false>,
            sub: microkernel_avx512::<true>,
        },
        // simd_level() never reports AVX levels off x86_64, but keep the
        // match total for any direct caller
        #[cfg(not(target_arch = "x86_64"))]
        _ => MicroKernel {
            add: microkernel_baseline::<false>,
            sub: microkernel_baseline::<true>,
        },
    }
}

// ---------------------------------------------------------------------------
// unpacked small-GEMM kernel + dispatch
// ---------------------------------------------------------------------------

/// A row panel `A[i0..i1, :] · B` as the unpacked kernel reads it:
/// element `(i, l)` of `A` at `a[i·a_rs + l·a_cs]`, `B` the contiguous
/// row-major `k × n` matrix.
#[derive(Copy, Clone)]
struct SmallPanel<'a> {
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    a: &'a [f64],
    a_rs: usize,
    a_cs: usize,
    b: &'a [f64],
}

/// One `R × W` tile of the unpacked kernel: rows `i..i + R`, columns
/// `j0..j0 + W`. The tile is held in a local array across the whole `k`
/// loop — the copy LLVM keeps in registers, as in [`microkernel_body`] —
/// and written through `out` once. Each element gets
/// `0 + a₀b₀ + a₁b₁ + …` in ascending `l`: the scalar loop's order on a
/// zeroed `C`.
#[inline(always)]
fn small_tile<const R: usize, const W: usize>(
    p: SmallPanel,
    i: usize,
    j0: usize,
    out: &mut ViewMut<f64>,
    how: Epilogue,
) {
    let n = p.n;
    let mut regs = [[0.0f64; W]; R];
    for l in 0..p.k {
        let bv: &[f64; W] = p.b[l * n + j0..l * n + j0 + W]
            .try_into()
            .expect("W-wide B piece");
        for (r, reg) in regs.iter_mut().enumerate() {
            let ar = p.a[(i + r) * p.a_rs + l * p.a_cs];
            for (rv, &bc) in reg.iter_mut().zip(bv.iter()) {
                *rv += ar * bc;
            }
        }
    }
    out.put(i, j0, regs, how);
}

/// All columns of rows `i..i + R`: `TN`-wide tiles, then one tile each of
/// width 4, 2 and 1 for the remainder.
#[inline(always)]
fn small_strip<const R: usize>(p: SmallPanel, i: usize, out: &mut ViewMut<f64>, how: Epilogue) {
    let mut j0 = 0;
    while j0 + TN <= p.n {
        small_tile::<R, TN>(p, i, j0, out, how);
        j0 += TN;
    }
    if j0 + 4 <= p.n {
        small_tile::<R, 4>(p, i, j0, out, how);
        j0 += 4;
    }
    if j0 + 2 <= p.n {
        small_tile::<R, 2>(p, i, j0, out, how);
        j0 += 2;
    }
    if j0 < p.n {
        small_tile::<R, 1>(p, i, j0, out, how);
    }
}

/// The unpacked kernel over a whole panel: `TM`-row strips, then one strip
/// of the remaining 1–3 rows.
#[inline(always)]
fn small_rows_body(p: SmallPanel, out: &mut ViewMut<f64>, how: Epilogue) {
    let mut i = p.i0;
    while i + TM <= p.i1 {
        small_strip::<TM>(p, i, out, how);
        i += TM;
    }
    match p.i1 - i {
        3 => small_strip::<3>(p, i, out, how),
        2 => small_strip::<2>(p, i, out, how),
        1 => small_strip::<1>(p, i, out, how),
        _ => {}
    }
}

/// Baseline variant (ambient codegen flags).
///
/// # Safety
///
/// None: `unsafe fn` only for signature uniformity with the feature-gated
/// variants; callable on any CPU.
unsafe fn small_rows_baseline(p: SmallPanel, out: &mut ViewMut<f64>, how: Epilogue) {
    small_rows_body(p, out, how);
}

/// AVX2+FMA variant.
///
/// # Safety
///
/// The CPU must support `avx2` and `fma` (see [`crate::simd`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn small_rows_avx2(p: SmallPanel, out: &mut ViewMut<f64>, how: Epilogue) {
    small_rows_body(p, out, how);
}

/// AVX-512 variant.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512vl` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
unsafe fn small_rows_avx512(p: SmallPanel, out: &mut ViewMut<f64>, how: Epilogue) {
    small_rows_body(p, out, how);
}

type SmallFn = unsafe fn(SmallPanel, &mut ViewMut<f64>, Epilogue);

fn small_kernel_for(level: SimdLevel) -> SmallFn {
    match level {
        SimdLevel::Baseline => small_rows_baseline,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => small_rows_avx2,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => small_rows_avx512,
        #[cfg(not(target_arch = "x86_64"))]
        _ => small_rows_baseline,
    }
}

/// Packed-path macro kernel for output rows `[i0, i1)`: packs `A` blocks on
/// the fly and drives the microkernel against a pre-packed `B`, writing
/// every finished tile through `out`.
///
/// Per output element the accumulation order is: ascending `KC`-block, one
/// register-summed partial per block — independent of how rows were split
/// across calls, which is what keeps threaded execution bitwise equal to
/// sequential. The first block's partial is written as `how` says and
/// later ones are added, so a stored element holds `p₀ + p₁ + …`. An added
/// one must receive that sum whole, not partial by partial: with more than
/// one block the partials of an `MC`-row block gather in a zeroed panel
/// first, which is then added through `out`. Complex elements take four
/// plane passes per tile (`re += ar·br`, `re -= ai·bi`, `im += ar·bi`,
/// `im += ai·br`) and write back one complex partial per `KC` block.
#[allow(clippy::too_many_arguments)]
fn packed_rows<T: Scalar>(
    i0: usize,
    i1: usize,
    a: &[T],
    a_rs: usize,
    a_cs: usize,
    pb: &PackedB<T>,
    out: &mut ViewMut<T>,
    how: Epilogue,
) {
    let mk = micro_kernel_for(simd_level());
    let (k, n) = (pb.k, pb.n);
    let strips = n.div_ceil(NR);
    let complex = T::is_complex();
    let mut apack_re: Vec<f64> = Vec::with_capacity(MC * KC);
    let mut apack_im: Vec<f64> = Vec::with_capacity(if complex { MC * KC } else { 0 });
    let gather = how == Epilogue::Add && k > KC;
    let mut gathered = vec![T::zero(); if gather { MC.min(i1 - i0) * n } else { 0 }];
    for ic in (i0..i1).step_by(MC) {
        let rows = (ic + MC).min(i1) - ic;
        for pc in (0..k).step_by(KC) {
            let kc = (pc + KC).min(k) - pc;
            pack_a_block(
                &mut apack_re,
                &mut apack_im,
                a,
                a_rs,
                a_cs,
                ic,
                rows,
                pc,
                kc,
            );
            for s in 0..strips {
                let j0 = s * NR;
                let ncols = NR.min(n - j0);
                let bp_re = pb.strip_re(pc, kc, s);
                for ip in 0..rows.div_ceil(MR) {
                    let panel = ip * MR * kc..(ip + 1) * MR * kc;
                    let ap_re = &apack_re[panel.clone()];
                    let mut acc_re = [[0.0f64; NR]; MR];
                    let mut acc_im = [[0.0f64; NR]; MR];
                    // SAFETY: `mk` was selected by `simd_level()`, which
                    // only reports levels whose features were detected.
                    unsafe {
                        (mk.add)(kc, ap_re, bp_re, &mut acc_re);
                        if complex {
                            let bp_im = pb.strip_im(pc, kc, s);
                            let ap_im = &apack_im[panel];
                            (mk.sub)(kc, ap_im, bp_im, &mut acc_re);
                            (mk.add)(kc, ap_re, bp_im, &mut acc_im);
                            (mk.add)(kc, ap_im, bp_re, &mut acc_im);
                        }
                    }
                    let rmax = MR.min(rows - ip * MR);
                    let mut tile = [[T::zero(); NR]; MR];
                    for (r, row) in tile[..rmax].iter_mut().enumerate() {
                        for (j, t) in row[..ncols].iter_mut().enumerate() {
                            *t = T::from_re_im(acc_re[r][j], acc_im[r][j]);
                        }
                    }
                    let tile = tile[..rmax].iter().map(|row| &row[..]);
                    if gather {
                        for (r, vals) in tile.enumerate() {
                            let at = (ip * MR + r) * n + j0;
                            let dst = &mut gathered[at..at + ncols];
                            if pc == 0 {
                                dst.copy_from_slice(&vals[..ncols]);
                            } else {
                                dst.iter_mut().zip(vals).for_each(|(d, &t)| *d += t);
                            }
                        }
                    } else {
                        let part = if pc == 0 { how } else { Epilogue::Add };
                        out.put_rows(ic + ip * MR, j0, ncols, tile, part);
                    }
                }
            }
        }
        if gather {
            out.put_rows(ic, 0, n, gathered.chunks_exact(n).take(rows), Epilogue::Add);
        }
    }
}

/// Scalar-path kernel for output rows `[i0, i1)`: plain `(i, l, j)` loop
/// with per-element ascending-`l` accumulation (chunking-invariant). `c`
/// holds only rows `[i0, i1)`.
#[allow(clippy::too_many_arguments)]
fn scalar_rows<T: Scalar>(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    a: &[T],
    a_rs: usize,
    a_cs: usize,
    b: &[T],
    b_rs: usize,
    b_cs: usize,
    c: &mut [T],
) {
    for i in i0..i1 {
        let crow = &mut c[(i - i0) * n..(i - i0) * n + n];
        for l in 0..k {
            let ail = a[i * a_rs + l * a_cs];
            if b_cs == 1 {
                let brow = &b[l * b_rs..l * b_rs + n];
                for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                    *cj += ail * bj;
                }
            } else {
                for (j, cj) in crow.iter_mut().enumerate() {
                    *cj += ail * b[l * b_rs + j * b_cs];
                }
            }
        }
    }
}

/// GEMV-path kernel (`n == 1`) for output rows `[i0, i1)`: one dot product
/// per row, register-accumulated then written once through `out`.
#[allow(clippy::too_many_arguments)]
fn gemv_rows<T: Scalar>(
    i0: usize,
    i1: usize,
    k: usize,
    a: &[T],
    a_rs: usize,
    a_cs: usize,
    b: &[T],
    b_rs: usize,
    out: &mut ViewMut<T>,
    how: Epilogue,
) {
    for i in i0..i1 {
        let mut acc = T::zero();
        if a_cs == 1 {
            let arow = &a[i * a_rs..i * a_rs + k];
            if b_rs == 1 {
                for (&ail, &bl) in arow.iter().zip(b.iter()) {
                    acc += ail * bl;
                }
            } else {
                for (l, &ail) in arow.iter().enumerate() {
                    acc += ail * b[l * b_rs];
                }
            }
        } else {
            for l in 0..k {
                acc += a[i * a_rs + l * a_cs] * b[l * b_rs];
            }
        }
        out.put(i, 0, [[acc]], how);
    }
}

// ---------------------------------------------------------------------------
// public entry points
// ---------------------------------------------------------------------------

/// `C += A · B` for row-major flat slices (accumulating form): the
/// row-panel kernels on the identity view of `c`.
pub fn gemm_acc_slices<T: Scalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], c: &mut [T]) {
    crate::counter::add_flops(2 * (m as u64) * (n as u64) * (k as u64));
    if m == 0 || n == 0 {
        return;
    }
    let path = gemm_path(k, n);
    if path == GemmPath::Scalar {
        return scalar_rows(0, m, k, n, a, k, 1, b, n, 1, c);
    }
    let view = RunView::matrix(m, n, n);
    let out = &mut ViewMut::whole(&view, c).expect("C holds m × n elements");
    match path {
        GemmPath::Gemv => gemv_rows(0, m, k, a, k, 1, b, n, out, Epilogue::Add),
        _ => packed_rows(
            0,
            m,
            a,
            k,
            1,
            &PackedB::pack(k, n, b, n, 1),
            out,
            Epilogue::Add,
        ),
    }
}

/// Rows `[i0, i1)` of `A · B` against a pre-packed `B`, each finished
/// tile written through `out` as `how` says — the packed row-panel entry
/// point parallel callers fan out over a thread pool. `i0` should be
/// [`MC`]-aligned so every chunking packs identical `A` panels; `a` is
/// the full effective matrix viewed through strides `(a_rs, a_cs)`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_into<T: Scalar>(
    i0: usize,
    i1: usize,
    a: &[T],
    a_rs: usize,
    a_cs: usize,
    pb: &PackedB<T>,
    out: &mut ViewMut<T>,
    how: Epilogue,
) {
    crate::counter::add_flops(2 * ((i1 - i0) as u64) * (pb.n as u64) * (pb.k as u64));
    packed_rows(i0, i1, a, a_rs, a_cs, pb, out, how);
}

/// Rows `[i0, i1)` of `A · B` on the unpacked `TM × TN` register tile,
/// each finished tile written through `out` as `how` says — the
/// row-panel entry point [`panel_kernel`] picks for small panels. `a` is
/// the full effective matrix viewed through strides `(a_rs, a_cs)`, so a
/// transposed `A` is read in place; `b` is the contiguous row-major
/// `k × n` matrix. Every element's products are summed in ascending `l`
/// from `+0.0` for every `k`: a store holds the plain `(i, l, j)` loop's
/// bits on a zeroed `C`, an add adds them.
#[allow(clippy::too_many_arguments)]
pub fn gemm_small_into(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    b: &[f64],
    out: &mut ViewMut<f64>,
    how: Epilogue,
) {
    crate::counter::add_flops(2 * ((i1 - i0) as u64) * (n as u64) * (k as u64));
    let p = SmallPanel {
        i0,
        i1,
        k,
        n,
        a,
        a_rs,
        a_cs,
        b,
    };
    // SAFETY: the variant was selected by `simd_level()`, which only
    // reports levels whose features were detected.
    unsafe { small_kernel_for(simd_level())(p, out, how) };
}

/// Rows `[i0, i1)` of `A · b`, the `n == 1` row-panel entry point
/// (Davidson matvec shape): `A` contiguous `· × k`, `b`'s element `l` at
/// `b[l*b_rs]`, each row's sum written through `out` as `how` says.
#[allow(clippy::too_many_arguments)]
pub fn gemv_into<T: Scalar>(
    i0: usize,
    i1: usize,
    k: usize,
    a: &[T],
    b: &[T],
    b_rs: usize,
    out: &mut ViewMut<T>,
    how: Epilogue,
) {
    crate::counter::add_flops(2 * ((i1 - i0) as u64) * (k as u64));
    gemv_rows(i0, i1, k, a, k, 1, b, b_rs, out, how);
}

/// General matrix multiply on [`DenseTensor`] matrices with optional
/// transposition of either operand: `C = op(A) · op(B)`.
///
/// Transposed operands are read through swapped strides during packing —
/// no transposed copy is materialized.
pub fn gemm<T: Scalar>(
    a: &DenseTensor<T>,
    la: Layout,
    b: &DenseTensor<T>,
    lb: Layout,
) -> Result<DenseTensor<T>> {
    if a.order() != 2 || b.order() != 2 {
        return Err(Error::ShapeMismatch(format!(
            "gemm wants matrices, got orders {} and {}",
            a.order(),
            b.order()
        )));
    }
    // effective dims and strides: element (i, l) of op(A) at a[i*rs + l*cs]
    let (m, ka, a_rs, a_cs) = match la {
        Layout::Normal => (a.dims()[0], a.dims()[1], a.dims()[1], 1),
        Layout::Transposed => (a.dims()[1], a.dims()[0], 1, a.dims()[1]),
    };
    let (kb, n, b_rs, b_cs) = match lb {
        Layout::Normal => (b.dims()[0], b.dims()[1], b.dims()[1], 1),
        Layout::Transposed => (b.dims()[1], b.dims()[0], 1, b.dims()[1]),
    };
    if ka != kb {
        return Err(Error::ShapeMismatch(format!(
            "gemm inner dims {ka} != {kb}"
        )));
    }
    crate::counter::add_flops(2 * (m as u64) * (n as u64) * (ka as u64));
    let mut c = DenseTensor::zeros([m, n]);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (ad, bd) = (a.data(), b.data());
    let path = gemm_path(ka, n);
    if path == GemmPath::Scalar {
        scalar_rows(0, m, ka, n, ad, a_rs, a_cs, bd, b_rs, b_cs, c.data_mut());
        return Ok(c);
    }
    let view = RunView::matrix(m, n, n);
    let out = &mut ViewMut::whole(&view, c.data_mut())?;
    if path == GemmPath::Gemv {
        gemv_rows(0, m, ka, ad, a_rs, a_cs, bd, b_rs, out, Epilogue::Store);
    } else {
        let pb = PackedB::pack(ka, n, bd, b_rs, b_cs);
        packed_rows(0, m, ad, a_rs, a_cs, &pb, out, Epilogue::Store);
    }
    Ok(c)
}

/// Convenience: `C = A · B` for `f64` matrices.
pub fn gemm_f64(a: &DenseTensor<f64>, b: &DenseTensor<f64>) -> Result<DenseTensor<f64>> {
    gemm(a, Layout::Normal, b, Layout::Normal)
}

/// Matrix–vector product `y = A·x` (row-major `m×n` times length-`n`).
pub fn gemv<T: Scalar>(a: &DenseTensor<T>, x: &[T]) -> Result<Vec<T>> {
    if a.order() != 2 {
        return Err(Error::ShapeMismatch("gemv wants a matrix".into()));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    if x.len() != n {
        return Err(Error::ShapeMismatch(format!(
            "gemv dims {n} vs vector {}",
            x.len()
        )));
    }
    crate::counter::add_flops(2 * (m as u64) * (n as u64));
    let mut y = vec![T::zero(); m];
    let view = RunView::matrix(m, 1, 1);
    let out = &mut ViewMut::whole(&view, &mut y)?;
    gemv_rows(0, m, n, a.data(), n, 1, x, 1, out, Epilogue::Store);
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(a: &DenseTensor<f64>, b: &DenseTensor<f64>) -> DenseTensor<f64> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = DenseTensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                c.set(&[i, j], s);
            }
        }
        c
    }

    #[test]
    fn small_exact() {
        let a = DenseTensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseTensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm_f64(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_neutral() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseTensor::<f64>::random([5, 5], &mut rng);
        let i = DenseTensor::<f64>::eye(5);
        assert!(gemm_f64(&a, &i).unwrap().allclose(&a, 1e-14));
        assert!(gemm_f64(&i, &a).unwrap().allclose(&a, 1e-14));
    }

    #[test]
    fn blocked_matches_naive_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        // shapes straddling the scalar/packed threshold and the MR/NR/MC/KC
        // tile edges, including k > KC (multi-panel accumulation)
        for (m, k, n) in [
            (1, 1, 1),
            (3, 7, 5),
            (65, 129, 33),
            (70, 40, 90),
            (5, 300, 33),
            (130, 260, 17),
            (4, 8, 2048),
        ] {
            let a = DenseTensor::<f64>::random([m, k], &mut rng);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let c = gemm_f64(&a, &b).unwrap();
            assert!(c.allclose(&naive(&a, &b), 1e-11), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn transposed_layouts() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = DenseTensor::<f64>::random([4, 6], &mut rng);
        let b = DenseTensor::<f64>::random([4, 3], &mut rng);
        // A^T (6x4) * B (4x3)
        let c = gemm(&a, Layout::Transposed, &b, Layout::Normal).unwrap();
        let at = a.permute(&[1, 0]).unwrap();
        assert!(c.allclose(&naive(&at, &b), 1e-12));
        // B^T (3x4) * A (4x6)
        let d = gemm(&b, Layout::Transposed, &a, Layout::Normal).unwrap();
        let bt = b.permute(&[1, 0]).unwrap();
        assert!(d.allclose(&naive(&bt, &a), 1e-12));
    }

    #[test]
    fn transposed_layouts_packed_path() {
        // large enough that gemm_path picks Packed: transposes must be
        // handled during packing, for every layout combination
        let mut rng = StdRng::seed_from_u64(51);
        let a = DenseTensor::<f64>::random([67, 41], &mut rng);
        let b = DenseTensor::<f64>::random([67, 63], &mut rng);
        assert_eq!(gemm_path(67, 63), GemmPath::Packed);
        let at = a.permute(&[1, 0]).unwrap();
        let bt = b.permute(&[1, 0]).unwrap();
        // Aᵀ·B
        let c = gemm(&a, Layout::Transposed, &b, Layout::Normal).unwrap();
        assert!(c.allclose(&naive(&at, &b), 1e-11));
        // Aᵀ·(Bᵀ)ᵀ — pass the materialized Bᵀ as Transposed
        let d = gemm(&a, Layout::Transposed, &bt, Layout::Transposed).unwrap();
        assert!(d.allclose(&naive(&at, &b), 1e-11));
        // A·B via both-normal on the same shapes
        let e = gemm(&at, Layout::Normal, &b, Layout::Normal).unwrap();
        assert!(e.allclose(&naive(&at, &b), 1e-11));
    }

    #[test]
    fn packed_rows_chunking_is_bitwise_invariant() {
        // the row-panel entry point must give bit-identical results no
        // matter how rows are split at MC boundaries
        let mut rng = StdRng::seed_from_u64(52);
        let (m, k, n) = (3 * MC + 17, 300, 70);
        let a = DenseTensor::<f64>::random([m, k], &mut rng);
        let b = DenseTensor::<f64>::random([k, n], &mut rng);
        let mut whole = vec![0.0; m * n];
        gemm_acc_slices(m, k, n, a.data(), b.data(), &mut whole);
        let pb = PackedB::pack(k, n, b.data(), n, 1);
        let mut chunked = vec![0.0; m * n];
        let view = RunView::matrix(m, n, n);
        let ranges: Vec<_> = (0..m)
            .step_by(MC)
            .map(|r0| (r0, (r0 + MC).min(m)))
            .collect();
        let bands = ViewMut::bands(&view, &mut chunked, &ranges).unwrap();
        for (mut band, (r0, r1)) in bands.into_iter().zip(ranges) {
            gemm_packed_into(r0, r1, a.data(), k, 1, &pb, &mut band, Epilogue::Store);
        }
        assert_eq!(whole, chunked, "row chunking changed bits");
    }

    #[test]
    fn complex_packed_rows_chunking_is_bitwise_invariant() {
        // same contract for the four-pass complex plane path
        use crate::Complex64 as C;
        let mut rng = StdRng::seed_from_u64(57);
        let (m, k, n) = (2 * MC + 5, 280, 40);
        let a = DenseTensor::<C>::random([m, k], &mut rng);
        let b = DenseTensor::<C>::random([k, n], &mut rng);
        let mut whole = vec![C::zero(); m * n];
        gemm_acc_slices(m, k, n, a.data(), b.data(), &mut whole);
        let pb = PackedB::pack(k, n, b.data(), n, 1);
        let mut chunked = vec![C::zero(); m * n];
        let view = RunView::matrix(m, n, n);
        let ranges: Vec<_> = (0..m)
            .step_by(MC)
            .map(|r0| (r0, (r0 + MC).min(m)))
            .collect();
        let bands = ViewMut::bands(&view, &mut chunked, &ranges).unwrap();
        for (mut band, (r0, r1)) in bands.into_iter().zip(ranges) {
            gemm_packed_into(r0, r1, a.data(), k, 1, &pb, &mut band, Epilogue::Store);
        }
        assert_eq!(whole, chunked, "complex row chunking changed bits");
    }

    #[test]
    fn block_packing_matches_monolithic() {
        // parallel per-block packing must assemble to the same planes
        use crate::Complex64 as C;
        let mut rng = StdRng::seed_from_u64(58);
        let (k, n) = (3 * KC + 31, 45);
        let b = DenseTensor::<f64>::random([k, n], &mut rng);
        let whole = PackedB::pack(k, n, b.data(), n, 1);
        let blocks = (0..PackedB::<f64>::block_count(k))
            .map(|blk| PackedB::<f64>::pack_block(k, n, b.data(), n, 1, blk))
            .collect();
        let assembled = PackedB::<f64>::from_blocks(k, n, blocks);
        assert_eq!(whole.re, assembled.re);
        let bc = DenseTensor::<C>::random([k, n], &mut rng);
        let wc = PackedB::pack(k, n, bc.data(), n, 1);
        let blocks = (0..PackedB::<C>::block_count(k))
            .map(|blk| PackedB::<C>::pack_block(k, n, bc.data(), n, 1, blk))
            .collect();
        let ac = PackedB::<C>::from_blocks(k, n, blocks);
        assert_eq!(wc.re, ac.re);
        assert_eq!(wc.im, ac.im);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn microkernel_variants_agree_bitwise() {
        // the determinism contract is per-variant, but the variants are in
        // fact bitwise identical (no FMA contraction, fixed order) — lock
        // that in so a silent codegen change is caught
        let mut rng = StdRng::seed_from_u64(59);
        let kc = 173;
        let ap = DenseTensor::<f64>::random([kc * MR, 1], &mut rng);
        let bp = DenseTensor::<f64>::random([kc * NR, 1], &mut rng);
        let mut base = [[0.25f64; NR]; MR];
        unsafe { microkernel_baseline::<false>(kc, ap.data(), bp.data(), &mut base) };
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let mut v2 = [[0.25f64; NR]; MR];
            unsafe { microkernel_avx2::<false>(kc, ap.data(), bp.data(), &mut v2) };
            assert_eq!(base, v2, "avx2 variant diverged from baseline");
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            let mut v5 = [[0.25f64; NR]; MR];
            unsafe { microkernel_avx512::<false>(kc, ap.data(), bp.data(), &mut v5) };
            assert_eq!(base, v5, "avx512 variant diverged from baseline");
        }
    }

    #[test]
    fn gemm_small_panel_rule_never_unpacks_split_sums() {
        // only the packed kernel splits a sum (at KC): whatever its size, a
        // Packed-tagged k > KC panel stays packed, while a Scalar-tagged
        // panel (which the packed kernel never runs) is always unpacked
        for k in [0, 1, 7, KC - 1, KC, KC + 1, 2 * KC + 3, 1000] {
            for n in [1, 2, 7, 8, 33, 1521, 4096] {
                let path = gemm_path(k, n);
                for rows in [0, 1, 3, TM, 39, MC, 513, 4096] {
                    let kernel = panel_kernel(path, rows, k, n);
                    let at = format!("{path:?} {rows}x{k}x{n}");
                    match path {
                        GemmPath::Gemv => assert_eq!(kernel, PanelKernel::Gemv, "{at}"),
                        GemmPath::Scalar => assert_eq!(kernel, PanelKernel::Small, "{at}"),
                        GemmPath::Packed if k > KC => {
                            assert_eq!(kernel, PanelKernel::Packed, "{at}")
                        }
                        GemmPath::Packed => assert_ne!(kernel, PanelKernel::Gemv, "{at}"),
                    }
                }
            }
        }
        // the List sweep's shapes run unpacked, the cubes past the
        // crossover packed, and the crossover is 2²² multiply-adds
        for (m, k, n) in [
            (4, 6, 1521),
            (8, 7, 1521),
            (30, 8, 30),
            (39, 234, 39),
            (273, 39, 39),
            (128, 256, 128),
        ] {
            assert_eq!(panel_kernel(gemm_path(k, n), m, k, n), PanelKernel::Small);
        }
        for (m, k, n) in [(129, 256, 128), (256, 256, 256), (512, 256, 512)] {
            assert_eq!(panel_kernel(gemm_path(k, n), m, k, n), PanelKernel::Packed);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_small_variants_agree_bitwise() {
        // per-variant determinism is the promise; like the microkernel,
        // the unpacked tile is in fact bitwise identical across variants,
        // and in the scalar loop's order for every k — including the
        // k > KC depth of a Scalar-tagged multiply (n ≤ 7) — its sum
        // added once onto a non-zero C
        let mut rng = StdRng::seed_from_u64(60);
        for (m, k, n) in [(2 * TM + 3, 173, 3 * TN + 7), (TM + 1, 2 * KC + 3, 3)] {
            let a = DenseTensor::<f64>::random([k, m], &mut rng);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let c0 = DenseTensor::<f64>::random([m, n], &mut rng);
            let p = SmallPanel {
                i0: 0,
                i1: m,
                k,
                n,
                a: a.data(),
                a_rs: 1,
                a_cs: m,
                b: b.data(),
            };
            let view = RunView::matrix(m, n, n);
            let run = |variant: SmallFn| {
                let mut c = c0.data().to_vec();
                let out = &mut ViewMut::whole(&view, &mut c).unwrap();
                // SAFETY: each variant is run only once its CPU features
                // are detected (the baseline needs none)
                unsafe { variant(p, out, Epilogue::Add) };
                c
            };
            let base = run(small_rows_baseline);
            let mut scalar = vec![0.0; m * n];
            scalar_rows(0, m, k, n, a.data(), 1, m, b.data(), n, 1, &mut scalar);
            let added: Vec<f64> = c0.data().iter().zip(&scalar).map(|(c, s)| c + s).collect();
            assert_eq!(base, added, "baseline variant left the scalar order");
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                assert_eq!(
                    base,
                    run(small_rows_avx2),
                    "avx2 variant diverged from baseline"
                );
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                assert_eq!(
                    base,
                    run(small_rows_avx512),
                    "avx512 variant diverged from baseline"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = DenseTensor::<f64>::zeros([2, 3]);
        let b = DenseTensor::<f64>::zeros([4, 2]);
        assert!(gemm_f64(&a, &b).is_err());
    }

    #[test]
    fn counts_flops() {
        let a = DenseTensor::<f64>::zeros([8, 4]);
        let b = DenseTensor::<f64>::zeros([4, 16]);
        let g = counter::FlopGuard::start();
        gemm_f64(&a, &b).unwrap();
        assert_eq!(g.elapsed(), 2 * 8 * 4 * 16);
    }

    #[test]
    fn complex_gemm() {
        use crate::Complex64 as C;
        let a = DenseTensor::from_vec([1, 2], vec![C::new(0.0, 1.0), C::new(1.0, 0.0)]).unwrap();
        let b = DenseTensor::from_vec([2, 1], vec![C::new(0.0, 1.0), C::new(2.0, 0.0)]).unwrap();
        let c = gemm(&a, Layout::Normal, &b, Layout::Normal).unwrap();
        // i*i + 1*2 = -1 + 2 = 1
        assert!((c.at(&[0, 0]) - C::new(1.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn complex_gemm_packed_path() {
        use crate::Complex64 as C;
        let mut rng = StdRng::seed_from_u64(53);
        let a = DenseTensor::<C>::random([19, 80], &mut rng);
        let b = DenseTensor::<C>::random([19, 40], &mut rng);
        assert_eq!(gemm_path(19, 40), GemmPath::Scalar);
        assert_eq!(gemm_path(80, 40), GemmPath::Packed);
        let c = gemm(&a, Layout::Transposed, &b, Layout::Normal).unwrap();
        // reference via the naive loop on materialized Aᵀ
        let at = a.permute(&[1, 0]).unwrap();
        let mut max = 0.0f64;
        for i in 0..80 {
            for j in 0..40 {
                let mut s = C::new(0.0, 0.0);
                for l in 0..19 {
                    s += at.at(&[i, l]) * b.at(&[l, j]);
                }
                max = max.max((c.at(&[i, j]) - s).abs());
            }
        }
        assert!(max < 1e-11, "max dev {max}");
    }

    #[test]
    fn complex_packed_matches_naive_odd_sizes() {
        // plane-split complex kernel across tile edges, k > KC, padding
        use crate::Complex64 as C;
        let mut rng = StdRng::seed_from_u64(54);
        for (m, k, n) in [(3, 130, 17), (65, 300, 33), (130, 2 * KC + 9, 18)] {
            let a = DenseTensor::<C>::random([m, k], &mut rng);
            let b = DenseTensor::<C>::random([k, n], &mut rng);
            let c = gemm(&a, Layout::Normal, &b, Layout::Normal).unwrap();
            let mut max = 0.0f64;
            for i in 0..m {
                for j in 0..n {
                    let mut s = C::new(0.0, 0.0);
                    for l in 0..k {
                        s += a.at(&[i, l]) * b.at(&[l, j]);
                    }
                    max = max.max((c.at(&[i, j]) - s).abs());
                }
            }
            assert!(max < 1e-10, "{m}x{k}x{n} max dev {max}");
        }
    }

    #[test]
    fn gemv_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = DenseTensor::<f64>::random([7, 9], &mut rng);
        let x = DenseTensor::<f64>::random([9, 1], &mut rng);
        let y = gemv(&a, x.data()).unwrap();
        let y2 = gemm_f64(&a, &x).unwrap();
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - y2.at(&[i, 0])).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_path_taken_for_width_one() {
        assert_eq!(gemm_path(5000, 1), GemmPath::Gemv);
        // and it agrees with the scalar reference
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseTensor::<f64>::random([33, 700], &mut rng);
        let x = DenseTensor::<f64>::random([700, 1], &mut rng);
        let y = gemm_f64(&a, &x).unwrap();
        assert!(y.allclose(&naive(&a, &x), 1e-10));
    }

    #[test]
    fn acc_form_accumulates() {
        // gemm_acc_slices must add into existing C on every path
        let mut rng = StdRng::seed_from_u64(8);
        for (k, n) in [(3, 4), (300, 33), (700, 1)] {
            let m = 6;
            let a = DenseTensor::<f64>::random([m, k], &mut rng);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let mut c = vec![1.0f64; m * n];
            gemm_acc_slices(m, k, n, a.data(), b.data(), &mut c);
            let reference = naive(&a, &b);
            for (i, &ci) in c.iter().enumerate() {
                assert!(
                    (ci - 1.0 - reference.data()[i]).abs() < 1e-10,
                    "path {:?}",
                    gemm_path(k, n)
                );
            }
        }
    }
}
