//! Structure-of-arrays numeric kernels shared by every operator.
//!
//! This module is the single home of the inner loops the profiler
//! actually sees: the CSR Laplacian matrix-vector product, the dense
//! dot/axpy/normalize trio under the Lanczos recurrence, and the
//! sweep-cut boundary accumulation. The one CSR snapshot,
//! `mec_graph::CsrAdjacency`, holds its data in SoA form already
//! (parallel `offsets` / `columns` / `weights` arrays), and
//! `mec-spectral` and `mec-engine` read it through the same slices; the
//! kernels take those slices directly so there is exactly one
//! implementation of each loop in the workspace.
//!
//! ## 4-lane bodies and the sequential-reference contract
//!
//! The reductions are hand-unrolled into [`LANES`] independent chains,
//! written for instruction-level parallelism on stable Rust (no
//! `std::simd`; the unrolled forms are what the autovectorizer and
//! out-of-order hardware want). Against the plain sequential loops,
//! which `tests/kernel_parity.rs` keeps as the reference, two parity
//! classes apply:
//!
//! - **bit-exact**: the CSR Laplacian kernel blocks four *rows* per
//!   iteration but keeps each row's own accumulation strictly
//!   sequential, and `axpy`/`scale` stay elementwise — these promise
//!   bit-identical output (covered by exact-equality proptests);
//! - **1-ulp-scaled**: `dot`/`norm` and the sweep boundary fold use
//!   four independent partial sums and `orthogonalize_against`
//!   projects against four basis vectors per pass, which reassociates
//!   the reduction — these promise agreement within a tolerance scaled
//!   to the accumulated magnitude.

/// Number of independent accumulator lanes in the unrolled kernels.
///
/// Four f64 chains cover a 128-bit SIMD unit with two-deep pipelining
/// and match the ~4-cycle latency of a dependent FP add, so the
/// unrolled loops keep the adder busy instead of waiting on one chain.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// dense vector kernels
// ---------------------------------------------------------------------------

/// Dot product `xᵀy` over four partial sums (1-ulp-scaled parity
/// class).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    let chunks = n - n % LANES;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k < chunks {
        a0 += x[k] * y[k];
        a1 += x[k + 1] * y[k + 1];
        a2 += x[k + 2] * y[k + 2];
        a3 += x[k + 3] * y[k + 3];
        k += LANES;
    }
    let mut tail = 0.0;
    for i in chunks..n {
        tail += x[i] * y[i];
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// `y ← y + alpha · x`. Elementwise, so bit-exact.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha · x`. Elementwise, so bit-exact.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Removes from `x` its components along each (assumed orthonormal)
/// vector in `basis`.
///
/// Projects against [`LANES`] basis vectors per pass (classical
/// Gram–Schmidt within the block, with one fused subtraction sweep),
/// then one modified Gram–Schmidt step per leftover vector. The
/// Lanczos recurrence runs one pass per new direction and repeats it
/// only when the pass left less than 1/√2 of the norm it started from
/// (the Daniel–Gragg–Kaufman–Stewart test, Math. Comp. 30(136), 1976):
/// a pass that keeps that much leaves `x` orthogonal to rounding, and
/// after a cancelling one the repeat is the classic "twice is enough"
/// regime where the blocked form is stable. The block form reads `x`
/// once per four basis vectors instead of four times, which is where
/// the win comes from.
///
/// # Panics
///
/// Panics if any basis vector length differs from `x`.
pub fn orthogonalize_against(x: &mut [f64], basis: &[Vec<f64>]) {
    let mut chunks = basis.chunks_exact(LANES);
    for block in &mut chunks {
        let (b0, b1, b2, b3) = (&block[0], &block[1], &block[2], &block[3]);
        assert_eq!(b0.len(), x.len(), "orthogonalize: length mismatch");
        assert_eq!(b1.len(), x.len(), "orthogonalize: length mismatch");
        assert_eq!(b2.len(), x.len(), "orthogonalize: length mismatch");
        assert_eq!(b3.len(), x.len(), "orthogonalize: length mismatch");
        // four independent dot chains over one pass of x
        let (mut c0, mut c1, mut c2, mut c3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (i, &xi) in x.iter().enumerate() {
            c0 += xi * b0[i];
            c1 += xi * b1[i];
            c2 += xi * b2[i];
            c3 += xi * b3[i];
        }
        // one fused subtraction sweep for the whole block
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = ((*xi - c0 * b0[i]) - c1 * b1[i]) - (c2 * b2[i] + c3 * b3[i]);
        }
    }
    for b in chunks.remainder() {
        let c = dot(x, b);
        axpy(-c, b, x);
    }
}

/// Euclidean norm `‖x‖₂`. Same parity class as [`dot`].
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Normalises `x` to unit length in place and returns the original
/// norm. Leaves a zero vector untouched and returns `0.0`.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

// ---------------------------------------------------------------------------
// CSR Laplacian kernel
// ---------------------------------------------------------------------------

/// Graph-Laplacian matvec `y[r] = deg_r · x[x_base + r] − Σ w·x[col]`
/// with the weighted degree accumulated in-loop, for each of the
/// `offsets.len() - 1` rows. A row block passes its slice of the full
/// snapshot's `offsets` (which index the full `columns` / `weights`)
/// and its first row as `x_base`; columns always index the full-length
/// `x`, and `y` is row-block local. Bit-exact: the loop interleaves
/// four rows but keeps every row's accumulation sequential, so a row
/// gives the same bits in any block.
///
/// # Panics
///
/// Panics if `y` has fewer rows than `offsets` describes.
pub fn csr_laplacian_matvec(
    offsets: &[usize],
    columns: &[u32],
    weights: &[f64],
    x: &[f64],
    x_base: usize,
    y: &mut [f64],
) {
    let rows = offsets.len() - 1;
    assert!(y.len() >= rows, "y length mismatch");
    let blocks = rows - rows % LANES;
    let mut r = 0;
    while r < blocks {
        let o = [offsets[r], offsets[r + 1], offsets[r + 2], offsets[r + 3]];
        let end = offsets[r + 4];
        let lens = [o[1] - o[0], o[2] - o[1], o[3] - o[2], end - o[3]];
        let m = lens[0].min(lens[1]).min(lens[2]).min(lens[3]);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for k in 0..m {
            let (w0, w1) = (weights[o[0] + k], weights[o[1] + k]);
            let (w2, w3) = (weights[o[2] + k], weights[o[3] + k]);
            a0 += w0 * x[columns[o[0] + k] as usize];
            d0 += w0;
            a1 += w1 * x[columns[o[1] + k] as usize];
            d1 += w1;
            a2 += w2 * x[columns[o[2] + k] as usize];
            d2 += w2;
            a3 += w3 * x[columns[o[3] + k] as usize];
            d3 += w3;
        }
        for k in m..lens[0] {
            a0 += weights[o[0] + k] * x[columns[o[0] + k] as usize];
            d0 += weights[o[0] + k];
        }
        for k in m..lens[1] {
            a1 += weights[o[1] + k] * x[columns[o[1] + k] as usize];
            d1 += weights[o[1] + k];
        }
        for k in m..lens[2] {
            a2 += weights[o[2] + k] * x[columns[o[2] + k] as usize];
            d2 += weights[o[2] + k];
        }
        for k in m..lens[3] {
            a3 += weights[o[3] + k] * x[columns[o[3] + k] as usize];
            d3 += weights[o[3] + k];
        }
        y[r] = d0 * x[x_base + r] - a0;
        y[r + 1] = d1 * x[x_base + r + 1] - a1;
        y[r + 2] = d2 * x[x_base + r + 2] - a2;
        y[r + 3] = d3 * x[x_base + r + 3] - a3;
        r += LANES;
    }
    for r in blocks..rows {
        let (mut acc, mut deg) = (0.0, 0.0);
        for k in offsets[r]..offsets[r + 1] {
            acc += weights[k] * x[columns[k] as usize];
            deg += weights[k];
        }
        y[r] = deg * x[x_base + r] - acc;
    }
}

// ---------------------------------------------------------------------------
// sweep-cut kernel
// ---------------------------------------------------------------------------

/// Advances the running sweep-cut boundary weight when one vertex moves
/// to the `local` side: every incident edge whose other endpoint is
/// already local leaves the boundary (`cut − w`), every other edge
/// joins it (`cut + w`). `columns`/`weights` are the vertex's SoA
/// adjacency row; `local` is the membership array the sweep maintains.
///
/// The signed row sum accumulates in four independent chains and is
/// added to `cut` once, which reassociates the fold (1-ulp-scaled
/// parity class).
#[inline]
pub fn sweep_boundary_update(cut: f64, columns: &[u32], weights: &[f64], local: &[bool]) -> f64 {
    let n = columns.len();
    let chunks = n - n % LANES;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k < chunks {
        // branchless sign select keeps the four chains independent
        let s0 = if local[columns[k] as usize] {
            -weights[k]
        } else {
            weights[k]
        };
        let s1 = if local[columns[k + 1] as usize] {
            -weights[k + 1]
        } else {
            weights[k + 1]
        };
        let s2 = if local[columns[k + 2] as usize] {
            -weights[k + 2]
        } else {
            weights[k + 2]
        };
        let s3 = if local[columns[k + 3] as usize] {
            -weights[k + 3]
        } else {
            weights[k + 3]
        };
        a0 += s0;
        a1 += s1;
        a2 += s2;
        a3 += s3;
        k += LANES;
    }
    for i in chunks..n {
        let w = weights[i];
        a0 += if local[columns[i] as usize] { -w } else { w };
    }
    cut + ((a0 + a1) + (a2 + a3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_reference() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_validates_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_and_normalize() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm(&x) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn orthogonalize_removes_components() {
        let e1 = vec![1.0, 0.0, 0.0];
        let e2 = vec![0.0, 1.0, 0.0];
        let mut x = vec![3.0, 4.0, 5.0];
        orthogonalize_against(&mut x, &[e1.clone(), e2.clone()]);
        assert!(dot(&x, &e1).abs() < 1e-12);
        assert!(dot(&x, &e2).abs() < 1e-12);
        assert!((x[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_annihilates_constants() {
        // triangle, unit weights
        let offsets = [0usize, 2, 4, 6];
        let columns = [1u32, 2, 0, 2, 0, 1];
        let weights = [1.0; 6];
        let mut y = [9.0; 3];
        csr_laplacian_matvec(&offsets, &columns, &weights, &[5.0; 3], 0, &mut y);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_update_signs() {
        let columns = [0u32, 1, 2];
        let weights = [1.0, 2.0, 4.0];
        let local = [true, false, true];
        // -1 + 2 - 4 = -3 on top of cut = 10
        assert_eq!(sweep_boundary_update(10.0, &columns, &weights, &local), 7.0);
    }
}
