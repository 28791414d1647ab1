//! Runtime-dispatched SIMD kernels under the word-parallel layer.
//!
//! The scalar word kernels in [`words`](crate::words) process 64 spike
//! positions per instruction; this module pushes below that, to 256-bit
//! (AVX2), 512-bit (AVX-512) and 128-bit (NEON) rows. CPU features are
//! detected **once at runtime** (`is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`) and the best available tier is selected
//! into a [`KernelDispatch`] table of plain function pointers; the scalar
//! word path is the universal fallback, so every binary runs everywhere.
//!
//! The operation set mirrors what the hot callers actually do:
//!
//! * [`KernelDispatch::popcount`] — bulk popcount over a word slice
//!   (tensor-wide spike counts, density, sparsity statistics).
//! * [`KernelDispatch::and_popcount`] — fused AND + popcount over two
//!   aligned word slices (the binary `Q·Kᵀ` attention score, ECP scoring).
//! * [`KernelDispatch::add_assign`] — dense `dst[i] += src[i]` over `f32`
//!   rows (the synaptic-integration inner loop of `spike_matmul`).
//! * [`KernelDispatch::masked_add`] — spike-masked accumulate
//!   `dst[d] += w` for every set bit `d` (the SSA `S·V` select-accumulate).
//! * [`KernelDispatch::masked_inc`] — spike-masked integer increment
//!   (Token-Time-Bundle tag construction).
//! * [`KernelDispatch::lif_step`] — the spike generator: one LIF update
//!   (integrate → clamp → fire → reset) of a whole neuron layer, with the
//!   fired lanes packed straight into `u64` spike words.
//! * [`KernelDispatch::row_accumulate`] — output-stationary sum of selected
//!   weight rows (one token's synaptic integration in `spike_matmul`): the
//!   partial sums of a column tile stay in registers across *all* of the
//!   token's active inputs and are stored once.
//! * [`KernelDispatch::scaled_accumulate`] — its scaled sibling
//!   `Σₖ aₖ·W[k, :]`, one output row of the dense `DenseMatrix::matmul`.
//!
//! **Bit-identity contract.** Every tier of every kernel must produce
//! results bit-for-bit identical to the scalar tier on every input. For the
//! popcount family this is trivial (integer arithmetic). For the `f32`
//! kernels the implementations are written so that each output lane receives
//! *exactly the same sequence of additions* as the scalar loop: `add_assign`
//! is element-wise (no reassociation), and `masked_add` uses blend/merge
//! semantics — untouched lanes keep their exact bit pattern rather than
//! having `+0.0` added (which would flip a `-0.0` lane to `+0.0`).
//! `lif_step` issues, per lane and in exactly this order,
//! `u = (v + x) − leak`, `u = u > floor ? u : floor`, `fired = u > threshold`
//! (strict), `v = fired ? reset : u` — separate add and subtract (never
//! fused), the compare-select form of `max` (what `vmaxps` computes, NaN
//! and signed zeros included), no reassociation. The two accumulate kernels
//! tile over *columns* only: every output element starts from `+0.0` and
//! receives its rows in list order (`row_accumulate`) or ascending `k` with
//! `aₖ == 0.0` skipped (`scaled_accumulate`), the product rounded before
//! the add — a separate multiply and add, never an FMA. The per-tier differential
//! proptest suite (`tests/simd_differential.rs`) pins this on every tier
//! the host supports.
//!
//! # Safety
//!
//! This is the only module in the workspace that uses `unsafe`. Three
//! invariants keep it sound, each enforced structurally:
//!
//! 1. A `#[target_feature]` entry point is only ever installed in a
//!    [`KernelDispatch`] table after the matching feature bundle was
//!    observed via runtime detection ([`SimdTier::is_available`]), so the
//!    instructions are guaranteed to exist on the executing CPU.
//! 2. All loads/stores are *unaligned* variants over lanes derived from
//!    slice bounds checked in safe code before the unsafe block.
//! 3. Masked kernels never read or write past `dst.len()`; trailing lanes
//!    fall back to the scalar loop. `lif_step` vectorises whole 64-lane
//!    groups only, bounded by all three slice lengths, and hands the
//!    remainder to the scalar word routine.
//! 4. The accumulate kernels read `weight` through raw pointers at
//!    `row · cols + column`. Their table entries are `unsafe fn`s reachable
//!    only through [`KernelDispatch::row_accumulate`] /
//!    [`KernelDispatch::scaled_accumulate`], which check every row index
//!    (respectively the coefficient count) against `weight.len()` before
//!    the kernel runs.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// One SIMD capability tier, ordered from fallback to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar `u64` word kernels — always available.
    Scalar,
    /// AArch64 NEON: 128-bit rows, `vcnt` byte popcount.
    Neon,
    /// x86-64 AVX2: 256-bit rows, `vpshufb` nibble-LUT popcount
    /// (the per-vector step of the Harley–Seal / Muła method).
    Avx2,
    /// x86-64 AVX-512: 512-bit rows, native `vpopcntq`
    /// (requires `avx512f` + `avx512vpopcntdq`).
    Avx512,
}

impl SimdTier {
    /// Stable lowercase label, used in engine descriptors, benchmark
    /// records and log lines.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Neon => "neon",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Whether the executing CPU supports this tier (runtime detection).
    pub fn is_available(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            #[cfg(target_arch = "aarch64")]
            SimdTier::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
        }
    }

    /// All tiers this host can run, fallback first.
    pub fn available() -> Vec<SimdTier> {
        [
            SimdTier::Scalar,
            SimdTier::Neon,
            SimdTier::Avx2,
            SimdTier::Avx512,
        ]
        .into_iter()
        .filter(|t| t.is_available())
        .collect()
    }
}

/// The four scalars of the discretised LIF update (Eq. 1–2 of the paper),
/// as [`KernelDispatch::lif_step`] consumes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifParams {
    /// Constant leak subtracted from the membrane potential each step.
    pub leak: f32,
    /// Lower clamp of the membrane potential.
    pub floor: f32,
    /// Firing threshold; the comparison is strict (`>`).
    pub threshold: f32,
    /// Potential a fired lane is reset to.
    pub reset: f32,
}

/// A resolved table of kernel entry points for one [`SimdTier`].
///
/// Obtained from [`active`] (best tier for this host, selected once) or
/// [`kernels_for`] (a specific available tier, for differential testing).
/// The function pointers are safe to call on any input: the table is only
/// constructed for tiers that passed runtime feature detection.
pub struct KernelDispatch {
    tier: SimdTier,
    popcount: fn(&[u64]) -> u64,
    and_popcount: fn(&[u64], &[u64]) -> u64,
    add_assign: fn(&mut [f32], &[f32]),
    masked_add: fn(&mut [f32], &[u64], f32),
    masked_inc: fn(&mut [u32], &[u64]),
    lif_step: fn(&mut [f32], &[f32], &LifParams, &mut [u64]),
    row_accumulate: unsafe fn(&mut [f32], &[f32], &[usize]),
    scaled_accumulate: unsafe fn(&mut [f32], &[f32], &[f32]),
}

impl KernelDispatch {
    /// The tier this table was resolved for.
    pub fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Total number of set bits across `words`.
    #[inline]
    pub fn popcount(&self, words: &[u64]) -> u64 {
        (self.popcount)(words)
    }

    /// `Σ_i (a[i] & b[i]).count_ones()` — the word-aligned binary inner
    /// product.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the slices differ in length.
    #[inline]
    pub fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len(), "and_popcount requires equal lengths");
        (self.and_popcount)(a, b)
    }

    /// Element-wise `dst[i] += src[i]` over `f32` rows.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the slices differ in length.
    #[inline]
    pub fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len(), "add_assign requires equal lengths");
        (self.add_assign)(dst, src);
    }

    /// Spike-masked accumulate: `dst[d] += weight` for every set bit `d` of
    /// `bits` with `d < dst.len()`. Unset lanes keep their exact bit
    /// pattern (blend semantics, not `+0.0`).
    ///
    /// `bits` must hold `dst.len().div_ceil(64)` logical words with all
    /// bits at index `>= dst.len()` clear — the same tail-zero invariant
    /// the packed tensor maintains.
    #[inline]
    pub fn masked_add(&self, dst: &mut [f32], bits: &[u64], weight: f32) {
        debug_assert_eq!(bits.len(), dst.len().div_ceil(64), "masked_add word count");
        debug_assert!(tail_is_clear(bits, dst.len()), "masked_add tail bits set");
        (self.masked_add)(dst, bits, weight);
    }

    /// Spike-masked increment: `dst[d] += 1` for every set bit `d` of
    /// `bits` with `d < dst.len()`. Same contract as
    /// [`KernelDispatch::masked_add`].
    #[inline]
    pub fn masked_inc(&self, dst: &mut [u32], bits: &[u64]) {
        debug_assert_eq!(bits.len(), dst.len().div_ceil(64), "masked_inc word count");
        debug_assert!(tail_is_clear(bits, dst.len()), "masked_inc tail bits set");
        (self.masked_inc)(dst, bits);
    }

    /// One LIF timestep of a whole neuron layer, packed: for every lane `i`,
    /// in exactly this operation order (no FMA, no reassociation),
    ///
    /// ```text
    /// u = (v_mem[i] + input[i]) − leak
    /// u = u > floor ? u : floor
    /// fired = u > threshold            (strict)
    /// v_mem[i] = fired ? reset : u
    /// ```
    ///
    /// and bit `i % 64` of `fired[i / 64]` is set iff lane `i` fired. Every
    /// word of `fired` is overwritten and bits at or beyond `v_mem.len()`
    /// are left clear (the packed tensor's tail invariant).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != v_mem.len()` or `fired` does not hold
    /// exactly `v_mem.len().div_ceil(64)` words.
    #[inline]
    pub fn lif_step(
        &self,
        v_mem: &mut [f32],
        input: &[f32],
        params: &LifParams,
        fired: &mut [u64],
    ) {
        assert_eq!(input.len(), v_mem.len(), "lif_step input length");
        assert_eq!(fired.len(), v_mem.len().div_ceil(64), "lif_step word count");
        (self.lif_step)(v_mem, input, params, fired);
    }

    /// Output-stationary row accumulate: with `cols = out.len()` and
    /// `weight` a row-major `? × cols` matrix, every output element is
    /// overwritten with
    ///
    /// ```text
    /// out[c] = ((0.0 + W[rows[0], c]) + W[rows[1], c]) + …
    /// ```
    ///
    /// in list order (an index may repeat; an empty list leaves the row all
    /// `+0.0`). Per element this is exactly the addition sequence of
    /// zero-filling `out` and calling [`KernelDispatch::add_assign`] once
    /// per listed row, but a column tile's partial sums stay in registers
    /// across the whole list and are stored once.
    ///
    /// # Panics
    ///
    /// Panics if a row index does not address a whole row of `weight`.
    #[inline]
    pub fn row_accumulate(&self, out: &mut [f32], weight: &[f32], rows: &[usize]) {
        if out.is_empty() {
            return;
        }
        let weight_rows = weight.len() / out.len();
        assert!(
            rows.iter().all(|&r| r < weight_rows),
            "row_accumulate index out of range for {weight_rows} weight rows"
        );
        // SAFETY: the table holds this tier's entry only after runtime
        // feature detection, and every `rows[i] · cols + cols` was just
        // checked to lie inside `weight`.
        unsafe { (self.row_accumulate)(out, weight, rows) }
    }

    /// Scaled row accumulate — one output row of a dense matrix product:
    /// with `cols = out.len()` and `weight` a row-major `coeffs.len() × cols`
    /// matrix, every output element is overwritten with
    ///
    /// ```text
    /// out[c] = ((0.0 + a₀·W[0, c]) + a₁·W[1, c]) + …
    /// ```
    ///
    /// over ascending `k`, skipping every `aₖ == 0.0` (either sign). Each
    /// product is rounded before it is added — a separate multiply and add,
    /// never a fused multiply-add.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != coeffs.len() * out.len()`.
    #[inline]
    pub fn scaled_accumulate(&self, out: &mut [f32], weight: &[f32], coeffs: &[f32]) {
        assert_eq!(
            weight.len(),
            coeffs.len() * out.len(),
            "scaled_accumulate needs one weight row per coefficient"
        );
        // SAFETY: the table holds this tier's entry only after runtime
        // feature detection, and `weight` was just checked to hold
        // `coeffs.len()` whole rows of `out.len()` columns.
        unsafe { (self.scaled_accumulate)(out, weight, coeffs) }
    }
}

/// Checks the masked-kernel input contract: bits at or beyond `len` clear.
fn tail_is_clear(bits: &[u64], len: usize) -> bool {
    if len.is_multiple_of(64) {
        return true;
    }
    match bits.last() {
        Some(&last) => last & !((1u64 << (len % 64)) - 1) == 0,
        None => true,
    }
}

/// Minimum number of words before the word kernels route through the
/// dispatch table. Short rows (e.g. a single `D = 128` feature row is two
/// words) are served faster by the inlined scalar loop than by an indirect
/// call, so callers compare against this before dispatching.
pub const DISPATCH_MIN_WORDS: usize = 4;

static SCALAR: KernelDispatch = KernelDispatch {
    tier: SimdTier::Scalar,
    popcount: scalar::popcount,
    and_popcount: scalar::and_popcount,
    add_assign: scalar::add_assign,
    masked_add: scalar::masked_add,
    masked_inc: scalar::masked_inc,
    lif_step: scalar::lif_step,
    row_accumulate: scalar::row_accumulate,
    scaled_accumulate: scalar::scaled_accumulate,
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelDispatch = KernelDispatch {
    tier: SimdTier::Avx2,
    popcount: avx2::popcount,
    and_popcount: avx2::and_popcount,
    add_assign: avx2::add_assign,
    masked_add: avx2::masked_add,
    masked_inc: avx2::masked_inc,
    lif_step: avx2::lif_step,
    row_accumulate: avx2::row_accumulate,
    scaled_accumulate: avx2::scaled_accumulate,
};

#[cfg(target_arch = "x86_64")]
static AVX512: KernelDispatch = KernelDispatch {
    tier: SimdTier::Avx512,
    popcount: avx512::popcount,
    and_popcount: avx512::and_popcount,
    add_assign: avx512::add_assign,
    masked_add: avx512::masked_add,
    masked_inc: avx512::masked_inc,
    lif_step: avx512::lif_step,
    row_accumulate: avx512::row_accumulate,
    scaled_accumulate: avx512::scaled_accumulate,
};

#[cfg(target_arch = "aarch64")]
static NEON: KernelDispatch = KernelDispatch {
    tier: SimdTier::Neon,
    popcount: neon::popcount,
    and_popcount: neon::and_popcount,
    add_assign: neon::add_assign,
    masked_add: neon::masked_add,
    masked_inc: neon::masked_inc,
    lif_step: neon::lif_step,
    row_accumulate: neon::row_accumulate,
    scaled_accumulate: neon::scaled_accumulate,
};

/// The dispatch table for a specific tier, or `None` if the host cannot
/// run it. Lets the differential suite exercise *every* available tier,
/// not just the one [`active`] selected.
pub fn kernels_for(tier: SimdTier) -> Option<&'static KernelDispatch> {
    if !tier.is_available() {
        return None;
    }
    match tier {
        SimdTier::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => Some(&AVX2),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => Some(&AVX512),
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => Some(&NEON),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

/// The best dispatch table for this host, detected once and cached for the
/// life of the process. Never fails: the scalar tier is always available.
pub fn active() -> &'static KernelDispatch {
    static ACTIVE: OnceLock<&'static KernelDispatch> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        SimdTier::available()
            .into_iter()
            .max()
            .and_then(kernels_for)
            .unwrap_or(&SCALAR)
    })
}

/// Generates a SIMD tier's `row_accumulate` / `scaled_accumulate` table
/// entries from its vector intrinsics. The tiling is the same on every
/// tier: tiles of eight vectors of columns, then single vectors, then the
/// scalar column routine — columns are independent, so the tile width never
/// changes a result.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
macro_rules! accumulate_kernels {
    ($feature:literal, $lanes:literal, $splat:ident, $load:ident, $store:ident, $add:ident, $mul:ident) => {
        /// Sums the listed rows over `V` vectors of columns into registers
        /// and stores them once.
        ///
        /// # Safety
        ///
        /// `out` must be valid for `V · lanes` writes, and for every listed
        /// `r`, `weight + r · cols` for `V · lanes` reads.
        #[target_feature(enable = $feature)]
        unsafe fn row_tile<const V: usize>(
            out: *mut f32,
            weight: *const f32,
            cols: usize,
            rows: &[usize],
        ) {
            let mut acc = [$splat(0.0); V];
            for &r in rows {
                let src = weight.add(r * cols);
                for (v, slot) in acc.iter_mut().enumerate() {
                    *slot = $add(*slot, $load(src.add(v * $lanes)));
                }
            }
            for (v, slot) in acc.iter().enumerate() {
                $store(out.add(v * $lanes), *slot);
            }
        }

        /// [`row_tile`] with a coefficient per row: zero coefficients are
        /// skipped and each product is rounded before the add.
        ///
        /// # Safety
        ///
        /// As [`row_tile`], with `r` ranging over `0..coeffs.len()`.
        #[target_feature(enable = $feature)]
        unsafe fn scaled_tile<const V: usize>(
            out: *mut f32,
            weight: *const f32,
            cols: usize,
            coeffs: &[f32],
        ) {
            let mut acc = [$splat(0.0); V];
            for (k, &a) in coeffs.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let a = $splat(a);
                let src = weight.add(k * cols);
                for (v, slot) in acc.iter_mut().enumerate() {
                    // Multiply, then add: an FMA would skip the product's
                    // rounding and change the bits.
                    *slot = $add(*slot, $mul(a, $load(src.add(v * $lanes))));
                }
            }
            for (v, slot) in acc.iter().enumerate() {
                $store(out.add(v * $lanes), *slot);
            }
        }

        /// # Safety
        ///
        /// The tier's CPU features must be present and every `rows[i]` must
        /// address a whole `out.len()`-column row of `weight`
        /// ([`KernelDispatch::row_accumulate`](super::KernelDispatch::row_accumulate)
        /// checks both).
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn row_accumulate(out: &mut [f32], weight: &[f32], rows: &[usize]) {
            let cols = out.len();
            let (dst, src) = (out.as_mut_ptr(), weight.as_ptr());
            let mut c = 0;
            while c + 8 * $lanes <= cols {
                row_tile::<8>(dst.add(c), src.add(c), cols, rows);
                c += 8 * $lanes;
            }
            while c + $lanes <= cols {
                row_tile::<1>(dst.add(c), src.add(c), cols, rows);
                c += $lanes;
            }
            scalar::row_accumulate_tail(out, weight, rows, c);
        }

        /// # Safety
        ///
        /// The tier's CPU features must be present and `weight` must hold
        /// `coeffs.len()` rows of `out.len()` columns
        /// ([`KernelDispatch::scaled_accumulate`](super::KernelDispatch::scaled_accumulate)
        /// checks both).
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn scaled_accumulate(out: &mut [f32], weight: &[f32], coeffs: &[f32]) {
            let cols = out.len();
            let (dst, src) = (out.as_mut_ptr(), weight.as_ptr());
            let mut c = 0;
            while c + 8 * $lanes <= cols {
                scaled_tile::<8>(dst.add(c), src.add(c), cols, coeffs);
                c += 8 * $lanes;
            }
            while c + $lanes <= cols {
                scaled_tile::<1>(dst.add(c), src.add(c), cols, coeffs);
                c += $lanes;
            }
            scalar::scaled_accumulate_tail(out, weight, coeffs, c);
        }
    };
}

/// Portable scalar tier — the universal fallback and the bit-identity
/// reference every other tier is differentially tested against.
mod scalar {
    use super::LifParams;

    pub(super) fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum()
    }

    pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    pub(super) fn masked_add(dst: &mut [f32], bits: &[u64], weight: f32) {
        for (wi, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let d = wi * 64 + rest.trailing_zeros() as usize;
                dst[d] += weight;
                rest &= rest - 1;
            }
        }
    }

    pub(super) fn masked_inc(dst: &mut [u32], bits: &[u64]) {
        for (wi, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let d = wi * 64 + rest.trailing_zeros() as usize;
                dst[d] += 1;
                rest &= rest - 1;
            }
        }
    }

    /// One LIF update of up to 64 lanes; returns their fired bits. This is
    /// the operation-order reference every wider tier reproduces, and the
    /// remainder routine they all share.
    #[inline]
    pub(super) fn lif_word(v_mem: &mut [f32], input: &[f32], p: &LifParams) -> u64 {
        let mut word = 0u64;
        for (lane, (v, &x)) in v_mem.iter_mut().zip(input).enumerate() {
            let charged = (*v + x) - p.leak;
            let clamped = if charged > p.floor { charged } else { p.floor };
            let fired = clamped > p.threshold;
            *v = if fired { p.reset } else { clamped };
            word |= u64::from(fired) << lane;
        }
        word
    }

    pub(super) fn lif_step(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        for ((v, x), out) in v_mem.chunks_mut(64).zip(input.chunks(64)).zip(fired) {
            *out = lif_word(v, x, p);
        }
    }

    pub(super) fn row_accumulate(out: &mut [f32], weight: &[f32], rows: &[usize]) {
        let cols = out.len();
        out.fill(0.0);
        for &r in rows {
            add_assign(out, &weight[r * cols..][..cols]);
        }
    }

    pub(super) fn scaled_accumulate(out: &mut [f32], weight: &[f32], coeffs: &[f32]) {
        let cols = out.len();
        out.fill(0.0);
        for (k, &a) in coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &w) in out.iter_mut().zip(&weight[k * cols..][..cols]) {
                *o += a * w;
            }
        }
    }

    /// Columns `from..` of [`row_accumulate`], one column at a time — the
    /// remainder routine of the wider tiers (same per-element sequence).
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    pub(super) fn row_accumulate_tail(
        out: &mut [f32],
        weight: &[f32],
        rows: &[usize],
        from: usize,
    ) {
        let cols = out.len();
        for (c, o) in out.iter_mut().enumerate().skip(from) {
            *o = rows.iter().fold(0.0, |acc, &r| acc + weight[r * cols + c]);
        }
    }

    /// Columns `from..` of [`scaled_accumulate`]; see [`row_accumulate_tail`].
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    pub(super) fn scaled_accumulate_tail(
        out: &mut [f32],
        weight: &[f32],
        coeffs: &[f32],
        from: usize,
    ) {
        let cols = out.len();
        for (c, o) in out.iter_mut().enumerate().skip(from) {
            let live = coeffs.iter().enumerate().filter(|(_, &a)| a != 0.0);
            *o = live.fold(0.0, |acc, (k, &a)| acc + a * weight[k * cols + c]);
        }
    }
}

/// AVX2 tier: 256-bit rows, four `u64` per vector. Popcount uses the
/// `vpshufb` nibble-LUT technique (per-vector step of Harley–Seal/Muła)
/// with `vpsadbw` folding byte counts into per-lane `u64` sums.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, LifParams};
    use std::arch::x86_64::*;

    pub(super) fn popcount(words: &[u64]) -> u64 {
        // SAFETY: installed in a dispatch table only after runtime AVX2
        // detection (SimdTier::Avx2.is_available()).
        unsafe { popcount_impl(words) }
    }

    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as above — AVX2 presence verified at table selection.
        unsafe { and_popcount_impl(a, b) }
    }

    pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
        // SAFETY: as above — AVX2 presence verified at table selection.
        unsafe { add_assign_impl(dst, src) }
    }

    pub(super) fn masked_add(dst: &mut [f32], bits: &[u64], weight: f32) {
        // SAFETY: as above — AVX2 presence verified at table selection.
        unsafe { masked_add_impl(dst, bits, weight) }
    }

    pub(super) fn masked_inc(dst: &mut [u32], bits: &[u64]) {
        // SAFETY: as above — AVX2 presence verified at table selection.
        unsafe { masked_inc_impl(dst, bits) }
    }

    pub(super) fn lif_step(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        // SAFETY: as above — AVX2 presence verified at table selection.
        unsafe { lif_step_impl(v_mem, input, p, fired) }
    }

    accumulate_kernels!(
        "avx2",
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );

    /// Sums the four `u64` lanes of an accumulator vector.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    /// Per-vector popcount of 32 bytes via the nibble lookup table.
    #[target_feature(enable = "avx2")]
    unsafe fn byte_counts(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn popcount_impl(words: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let mut chunks = words.chunks_exact(4);
        for chunk in &mut chunks {
            let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(byte_counts(v), _mm256_setzero_si256()));
        }
        let mut total = reduce_epi64(acc);
        for &w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn and_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let full = n / 4 * 4;
        let mut i = 0;
        while i < full {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let v = _mm256_and_si256(va, vb);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(byte_counts(v), _mm256_setzero_si256()));
            i += 4;
        }
        let mut total = reduce_epi64(acc);
        while i < n {
            total += u64::from((a[i] & b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn add_assign_impl(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let full = n / 8 * 8;
        let mut i = 0;
        while i < full {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
            i += 8;
        }
        while i < n {
            dst[i] += src[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn masked_add_impl(dst: &mut [f32], bits: &[u64], weight: f32) {
        let wvec = _mm256_set1_ps(weight);
        let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let full = dst.len() / 8 * 8;
        let mut d = 0;
        while d < full {
            let byte = ((bits[d / 64] >> (d % 64)) & 0xff) as i32;
            if byte != 0 {
                let m = _mm256_cmpeq_epi32(
                    _mm256_and_si256(_mm256_set1_epi32(byte), lane_bits),
                    lane_bits,
                );
                let cur = _mm256_loadu_ps(dst.as_ptr().add(d));
                // Blend, not add-zero: unset lanes keep their exact bits.
                let merged =
                    _mm256_blendv_ps(cur, _mm256_add_ps(cur, wvec), _mm256_castsi256_ps(m));
                _mm256_storeu_ps(dst.as_mut_ptr().add(d), merged);
            }
            d += 8;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += weight;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn masked_inc_impl(dst: &mut [u32], bits: &[u64]) {
        let one = _mm256_set1_epi32(1);
        let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let full = dst.len() / 8 * 8;
        let mut d = 0;
        while d < full {
            // Every chunk is written, set bits or not: at spike densities of
            // a few percent a zero-chunk test mispredicts and costs more
            // than the store it would save.
            let byte = ((bits[d / 64] >> (d % 64)) & 0xff) as i32;
            let m = _mm256_cmpeq_epi32(
                _mm256_and_si256(_mm256_set1_epi32(byte), lane_bits),
                lane_bits,
            );
            let cur = _mm256_loadu_si256(dst.as_ptr().add(d) as *const __m256i);
            // Integer add of (mask & 1) is exact: +1 where set, +0 where not.
            let merged = _mm256_add_epi32(cur, _mm256_and_si256(m, one));
            _mm256_storeu_si256(dst.as_mut_ptr().add(d) as *mut __m256i, merged);
            d += 8;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn lif_step_impl(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        let n = v_mem.len().min(input.len()).min(fired.len() * 64);
        let leak = _mm256_set1_ps(p.leak);
        let floor = _mm256_set1_ps(p.floor);
        let threshold = _mm256_set1_ps(p.threshold);
        let reset = _mm256_set1_ps(p.reset);
        let full = n / 64;
        for (w, out) in fired[..full].iter_mut().enumerate() {
            let mut word = 0u64;
            for group in 0..8 {
                let at = w * 64 + group * 8;
                let v = _mm256_loadu_ps(v_mem.as_ptr().add(at));
                let x = _mm256_loadu_ps(input.as_ptr().add(at));
                // `vmaxps(u, floor)` is exactly `u > floor ? u : floor`.
                let u = _mm256_max_ps(_mm256_sub_ps(_mm256_add_ps(v, x), leak), floor);
                let m = _mm256_cmp_ps::<_CMP_GT_OQ>(u, threshold);
                _mm256_storeu_ps(v_mem.as_mut_ptr().add(at), _mm256_blendv_ps(u, reset, m));
                word |= u64::from(_mm256_movemask_ps(m) as u8) << (group * 8);
            }
            *out = word;
        }
        if full * 64 < n {
            fired[full] = scalar::lif_word(&mut v_mem[full * 64..n], &input[full * 64..n], p);
        }
    }
}

/// AVX-512 tier: 512-bit rows, native `vpopcntq` and hardware mask
/// registers (the bit word *is* the lane mask).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{scalar, LifParams};
    use std::arch::x86_64::*;

    pub(super) fn popcount(words: &[u64]) -> u64 {
        // SAFETY: installed in a dispatch table only after runtime
        // avx512f+avx512vpopcntdq detection (SimdTier::Avx512.is_available()).
        unsafe { popcount_impl(words) }
    }

    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as above — AVX-512 presence verified at table selection.
        unsafe { and_popcount_impl(a, b) }
    }

    pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
        // SAFETY: as above — AVX-512 presence verified at table selection.
        unsafe { add_assign_impl(dst, src) }
    }

    pub(super) fn masked_add(dst: &mut [f32], bits: &[u64], weight: f32) {
        // SAFETY: as above — AVX-512 presence verified at table selection.
        unsafe { masked_add_impl(dst, bits, weight) }
    }

    pub(super) fn masked_inc(dst: &mut [u32], bits: &[u64]) {
        // SAFETY: as above — AVX-512 presence verified at table selection.
        unsafe { masked_inc_impl(dst, bits) }
    }

    pub(super) fn lif_step(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        // SAFETY: as above — AVX-512 presence verified at table selection.
        unsafe { lif_step_impl(v_mem, input, p, fired) }
    }

    accumulate_kernels!(
        "avx512f",
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    );

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn popcount_impl(words: &[u64]) -> u64 {
        let mut acc = _mm512_setzero_si512();
        let mut chunks = words.chunks_exact(8);
        for chunk in &mut chunks {
            let v = _mm512_loadu_si512(chunk.as_ptr() as *const _);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u64;
        for &w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn and_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = _mm512_setzero_si512();
        let full = n / 8 * 8;
        let mut i = 0;
        while i < full {
            let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u64;
        while i < n {
            total += u64::from((a[i] & b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn add_assign_impl(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let full = n / 16 * 16;
        let mut i = 0;
        while i < full {
            let d = _mm512_loadu_ps(dst.as_ptr().add(i));
            let s = _mm512_loadu_ps(src.as_ptr().add(i));
            _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_add_ps(d, s));
            i += 16;
        }
        while i < n {
            dst[i] += src[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn masked_add_impl(dst: &mut [f32], bits: &[u64], weight: f32) {
        let wvec = _mm512_set1_ps(weight);
        let full = dst.len() / 16 * 16;
        let mut d = 0;
        while d < full {
            let mask = ((bits[d / 64] >> (d % 64)) & 0xffff) as __mmask16;
            if mask != 0 {
                let cur = _mm512_loadu_ps(dst.as_ptr().add(d));
                // Merge-masked add: unselected lanes pass `cur` through
                // untouched, preserving exact bit patterns.
                let merged = _mm512_mask_add_ps(cur, mask, cur, wvec);
                _mm512_storeu_ps(dst.as_mut_ptr().add(d), merged);
            }
            d += 16;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += weight;
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn masked_inc_impl(dst: &mut [u32], bits: &[u64]) {
        let one = _mm512_set1_epi32(1);
        let full = dst.len() / 16 * 16;
        let mut d = 0;
        while d < full {
            // No zero-chunk skip, as on the AVX2 tier.
            let mask = ((bits[d / 64] >> (d % 64)) & 0xffff) as __mmask16;
            let cur = _mm512_loadu_si512(dst.as_ptr().add(d) as *const _);
            let merged = _mm512_mask_add_epi32(cur, mask, cur, one);
            _mm512_storeu_si512(dst.as_mut_ptr().add(d) as *mut _, merged);
            d += 16;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += 1;
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn lif_step_impl(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        let n = v_mem.len().min(input.len()).min(fired.len() * 64);
        let leak = _mm512_set1_ps(p.leak);
        let floor = _mm512_set1_ps(p.floor);
        let threshold = _mm512_set1_ps(p.threshold);
        let reset = _mm512_set1_ps(p.reset);
        let full = n / 64;
        for (w, out) in fired[..full].iter_mut().enumerate() {
            let mut word = 0u64;
            for group in 0..4 {
                let at = w * 64 + group * 16;
                let v = _mm512_loadu_ps(v_mem.as_ptr().add(at));
                let x = _mm512_loadu_ps(input.as_ptr().add(at));
                // `vmaxps(u, floor)` is exactly `u > floor ? u : floor`.
                let u = _mm512_max_ps(_mm512_sub_ps(_mm512_add_ps(v, x), leak), floor);
                // The compare mask *is* 16 packed spike bits.
                let m = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(u, threshold);
                _mm512_storeu_ps(
                    v_mem.as_mut_ptr().add(at),
                    _mm512_mask_blend_ps(m, u, reset),
                );
                word |= u64::from(m) << (group * 16);
            }
            *out = word;
        }
        if full * 64 < n {
            fired[full] = scalar::lif_word(&mut v_mem[full * 64..n], &input[full * 64..n], p);
        }
    }
}

/// AArch64 NEON tier: 128-bit rows, `vcnt` byte popcount with horizontal
/// `vaddv` folds, `vbsl` bit-select for the masked kernels.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{scalar, LifParams};
    use std::arch::aarch64::*;

    pub(super) fn popcount(words: &[u64]) -> u64 {
        // SAFETY: installed in a dispatch table only after runtime NEON
        // detection (SimdTier::Neon.is_available()).
        unsafe { popcount_impl(words) }
    }

    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as above — NEON presence verified at table selection.
        unsafe { and_popcount_impl(a, b) }
    }

    pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
        // SAFETY: as above — NEON presence verified at table selection.
        unsafe { add_assign_impl(dst, src) }
    }

    pub(super) fn masked_add(dst: &mut [f32], bits: &[u64], weight: f32) {
        // SAFETY: as above — NEON presence verified at table selection.
        unsafe { masked_add_impl(dst, bits, weight) }
    }

    pub(super) fn masked_inc(dst: &mut [u32], bits: &[u64]) {
        // SAFETY: as above — NEON presence verified at table selection.
        unsafe { masked_inc_impl(dst, bits) }
    }

    pub(super) fn lif_step(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        // SAFETY: as above — NEON presence verified at table selection.
        unsafe { lif_step_impl(v_mem, input, p, fired) }
    }

    accumulate_kernels!(
        "neon",
        4,
        vdupq_n_f32,
        vld1q_f32,
        vst1q_f32,
        vaddq_f32,
        vmulq_f32
    );

    #[target_feature(enable = "neon")]
    unsafe fn popcount_impl(words: &[u64]) -> u64 {
        let mut total = 0u64;
        let mut chunks = words.chunks_exact(2);
        for chunk in &mut chunks {
            let v = vld1q_u64(chunk.as_ptr());
            // 16 bytes × ≤8 set bits each: the u8 horizontal sum (≤128)
            // cannot overflow.
            total += u64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))));
        }
        for &w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total
    }

    #[target_feature(enable = "neon")]
    unsafe fn and_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let full = n / 2 * 2;
        let mut total = 0u64;
        let mut i = 0;
        while i < full {
            let v = vandq_u64(vld1q_u64(a.as_ptr().add(i)), vld1q_u64(b.as_ptr().add(i)));
            total += u64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))));
            i += 2;
        }
        while i < n {
            total += u64::from((a[i] & b[i]).count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "neon")]
    unsafe fn add_assign_impl(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let full = n / 4 * 4;
        let mut i = 0;
        while i < full {
            let d = vld1q_f32(dst.as_ptr().add(i));
            let s = vld1q_f32(src.as_ptr().add(i));
            vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, s));
            i += 4;
        }
        while i < n {
            dst[i] += src[i];
            i += 1;
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn masked_add_impl(dst: &mut [f32], bits: &[u64], weight: f32) {
        let wvec = vdupq_n_f32(weight);
        let lane_bits: [u32; 4] = [1, 2, 4, 8];
        let lanes = vld1q_u32(lane_bits.as_ptr());
        let full = dst.len() / 4 * 4;
        let mut d = 0;
        while d < full {
            let nibble = ((bits[d / 64] >> (d % 64)) & 0xf) as u32;
            if nibble != 0 {
                let m = vtstq_u32(vdupq_n_u32(nibble), lanes);
                let cur = vld1q_f32(dst.as_ptr().add(d));
                // Bit-select keeps unset lanes' exact bit patterns.
                let merged = vbslq_f32(m, vaddq_f32(cur, wvec), cur);
                vst1q_f32(dst.as_mut_ptr().add(d), merged);
            }
            d += 4;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += weight;
            }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn masked_inc_impl(dst: &mut [u32], bits: &[u64]) {
        let one = vdupq_n_u32(1);
        let lane_bits: [u32; 4] = [1, 2, 4, 8];
        let lanes = vld1q_u32(lane_bits.as_ptr());
        let full = dst.len() / 4 * 4;
        let mut d = 0;
        while d < full {
            let nibble = ((bits[d / 64] >> (d % 64)) & 0xf) as u32;
            if nibble != 0 {
                let m = vtstq_u32(vdupq_n_u32(nibble), lanes);
                let cur = vld1q_u32(dst.as_ptr().add(d));
                let merged = vaddq_u32(cur, vandq_u32(m, one));
                vst1q_u32(dst.as_mut_ptr().add(d), merged);
            }
            d += 4;
        }
        for b in d..dst.len() {
            if (bits[b / 64] >> (b % 64)) & 1 == 1 {
                dst[b] += 1;
            }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn lif_step_impl(v_mem: &mut [f32], input: &[f32], p: &LifParams, fired: &mut [u64]) {
        let n = v_mem.len().min(input.len()).min(fired.len() * 64);
        let leak = vdupq_n_f32(p.leak);
        let floor = vdupq_n_f32(p.floor);
        let threshold = vdupq_n_f32(p.threshold);
        let reset = vdupq_n_f32(p.reset);
        let lane_bits: [u32; 4] = [1, 2, 4, 8];
        let lanes = vld1q_u32(lane_bits.as_ptr());
        let full = n / 64;
        for (w, out) in fired[..full].iter_mut().enumerate() {
            let mut word = 0u64;
            for group in 0..16 {
                let at = w * 64 + group * 4;
                let v = vld1q_f32(v_mem.as_ptr().add(at));
                let x = vld1q_f32(input.as_ptr().add(at));
                let charged = vsubq_f32(vaddq_f32(v, x), leak);
                // Compare-select, not `vmaxq`: NaN and signed-zero lanes must
                // resolve exactly as `u > floor ? u : floor`.
                let u = vbslq_f32(vcgtq_f32(charged, floor), charged, floor);
                let m = vcgtq_f32(u, threshold);
                vst1q_f32(v_mem.as_mut_ptr().add(at), vbslq_f32(m, reset, u));
                word |= u64::from(vaddvq_u32(vandq_u32(m, lanes))) << (group * 4);
            }
            *out = word;
        }
        if full * 64 < n {
            fired[full] = scalar::lif_word(&mut v_mem[full * 64..n], &input[full * 64..n], p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tier_is_always_available() {
        assert!(SimdTier::Scalar.is_available());
        assert!(SimdTier::available().contains(&SimdTier::Scalar));
        assert!(kernels_for(SimdTier::Scalar).is_some());
    }

    #[test]
    fn active_is_the_widest_available_tier() {
        let best = SimdTier::available().into_iter().max().unwrap();
        assert_eq!(active().tier(), best);
    }

    #[test]
    fn unavailable_tiers_yield_no_kernels() {
        for tier in [
            SimdTier::Scalar,
            SimdTier::Neon,
            SimdTier::Avx2,
            SimdTier::Avx512,
        ] {
            assert_eq!(kernels_for(tier).is_some(), tier.is_available());
        }
    }

    #[test]
    fn every_tier_agrees_on_a_fixed_vector() {
        let a: Vec<u64> = (0..13)
            .map(|i| 0x9e3779b97f4a7c15u64.rotate_left(i))
            .collect();
        let b: Vec<u64> = (0..13)
            .map(|i| 0xc2b2ae3d27d4eb4fu64.rotate_left(2 * i))
            .collect();
        let expect_pop = a.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        let expect_and = a
            .iter()
            .zip(&b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum::<u64>();
        for tier in SimdTier::available() {
            let k = kernels_for(tier).unwrap();
            assert_eq!(k.popcount(&a), expect_pop, "popcount tier {tier:?}");
            assert_eq!(k.and_popcount(&a, &b), expect_and, "and tier {tier:?}");
        }
    }

    #[test]
    fn masked_add_preserves_negative_zero_in_unset_lanes() {
        for tier in SimdTier::available() {
            let k = kernels_for(tier).unwrap();
            let mut dst = vec![-0.0f32; 70];
            let mut bits = vec![0u64; 2];
            bits[0] = 0b1010;
            bits[1] = 0b1; // bit 64
            k.masked_add(&mut dst, &bits, 2.5);
            for (i, &v) in dst.iter().enumerate() {
                if i == 1 || i == 3 || i == 64 {
                    assert_eq!(v, 2.5, "tier {tier:?} lane {i}");
                } else {
                    assert!(
                        v == 0.0 && v.is_sign_negative(),
                        "tier {tier:?} lane {i} lost -0.0: {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdTier::Scalar.label(), "scalar");
        assert_eq!(SimdTier::Avx512.label(), "avx512");
        assert_eq!(SimdTier::Avx2.label(), "avx2");
        assert_eq!(SimdTier::Neon.label(), "neon");
    }
}
