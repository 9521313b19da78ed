//! Lanczos iteration for extreme eigenpairs of symmetric operators.
//!
//! The paper's spectral stage needs the two smallest eigenpairs of each
//! compressed sub-graph's Laplacian (Theorem 1: the minimum cut is read
//! off the second-smallest eigenvalue's eigenvector).
//! [`smallest_eigenpairs_with`] grows one Krylov basis step by step and
//! reads the Ritz pairs off the small tridiagonal matrix the recurrence
//! builds; [`lanczos_with`] exposes the bare recurrence. Full
//! re-orthogonalisation keeps the basis honest, and breakdown restarts
//! the recurrence in a fresh direction, so a basis that grows to the
//! operator's dimension finds repeated eigenvalues too. Before that, a
//! single Krylov sequence sees a repeated eigenvalue once — the reason
//! the spectral bisectors split disconnected graphs before solving.

use crate::kernels::{axpy, dot, normalize, orthogonalize_against};
use crate::tridiag::{tridiagonal_eigenvalues, tridiagonal_eigenvector};
use crate::{jacobi_eigen, DenseMatrix, JacobiOptions, LinalgError, SymOp};
use mec_obs::{FieldValue, TraceSink};

/// Residual norm below which a new Krylov direction counts as lost.
const BREAKDOWN_TOL: f64 = 1e-12;

/// One converged eigenpair.
#[derive(Debug, Clone)]
pub struct Eigenpair {
    /// The eigenvalue.
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Tuning knobs for [`smallest_eigenpairs`] and [`lanczos_with`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Maximum Krylov-subspace dimension (capped at the operator
    /// dimension). Default `400`.
    pub max_dim: usize,
    /// Ritz-pair residual tolerance. Default `1e-10`.
    pub tolerance: f64,
    /// Seed for the deterministic pseudo-random start vector.
    pub seed: u64,
    /// Operator dimension at or below which the eigenpairs come from a
    /// dense solve instead of the recurrence: Jacobi rotations up to 8
    /// nodes, Householder reduction plus implicit QL above. Default
    /// `32`.
    pub dense_cutoff: usize,
    /// When `true`, a caller-supplied start vector (the `warm` argument
    /// of [`lanczos_with`] / [`smallest_eigenpairs_with`]) seeds the
    /// recurrence instead of the pseudo-random one. Default `false`,
    /// which ignores `warm`.
    pub warm_start: bool,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_dim: 400,
            tolerance: 1e-10,
            seed: 0x5eed_c0de,
            dense_cutoff: 32,
            warm_start: false,
        }
    }
}

/// Reusable buffers for repeated Lanczos solves, and the state of the
/// recurrence in progress.
///
/// The recurrence needs one length-`n` vector per Krylov step plus two
/// working vectors; a cold run allocates them all. Threading one
/// `LanczosScratch` through repeated [`lanczos_with`] /
/// [`smallest_eigenpairs_with`] calls recycles every retired basis
/// vector through an internal pool, so a warm solve at the same (or
/// smaller) dimension performs **zero** heap allocations in the
/// recurrence — the property `tests/alloc_budget.rs` pins.
#[derive(Debug, Default)]
pub struct LanczosScratch {
    alphas: Vec<f64>,
    betas: Vec<f64>,
    basis: Vec<Vec<f64>>,
    pool: Vec<Vec<f64>>,
    /// The vector the next step appends to the basis.
    next: Vec<f64>,
    /// Where the next step forms `A · next`.
    work: Vec<f64>,
    /// Start-vector generator state of the run in progress.
    seed: u64,
    /// Breakdown restarts of the run in progress.
    restarts: u64,
}

impl LanczosScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a zeroed length-`n` buffer out of the pool (allocating
    /// only when the pool is dry or too small).
    fn checkout(&mut self, n: usize) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(n, 0.0);
        buf
    }

    /// Starts a recurrence on a dimension-`n` operator: retires the
    /// previous run's basis into the pool and loads the start vector —
    /// `warm` when `opts.warm_start` is set and `warm` is a non-zero
    /// vector of length `n`, the seeded pseudo-random vector otherwise.
    /// Returns whether `warm` seeded the run.
    fn begin(&mut self, n: usize, opts: &LanczosOptions, warm: Option<&[f64]>) -> bool {
        self.pool.append(&mut self.basis);
        self.alphas.clear();
        self.betas.clear();
        self.seed = opts.seed;
        self.restarts = 0;
        self.work.clear();
        self.work.resize(n, 0.0);
        self.next.clear();
        self.next.resize(n, 0.0);
        if let Some(w0) = warm.filter(|w0| opts.warm_start && w0.len() == n) {
            self.next.copy_from_slice(w0);
            if normalize(&mut self.next) > BREAKDOWN_TOL {
                return true;
            }
        }
        random_unit_vector_into(&mut self.next, &mut self.seed);
        false
    }

    /// One three-term step: `A · next` is reduced against the last two
    /// basis vectors and `next` joins the basis. Unless the basis now
    /// holds `cap` vectors, the remainder — re-orthogonalised against
    /// the whole basis, twice for stability — becomes the next vector;
    /// on breakdown the recurrence restarts in a fresh random direction
    /// orthogonal to the basis. Returns `true` when the basis can grow
    /// no further: it holds `cap` vectors or spans the whole space.
    fn step<A: SymOp>(&mut self, op: &A, cap: usize) -> bool {
        op.apply(&self.next, &mut self.work);
        let alpha = dot(&self.next, &self.work);
        self.alphas.push(alpha);
        axpy(-alpha, &self.next, &mut self.work);
        if let Some(prev) = self.basis.last() {
            let beta_prev = *self.betas.last().unwrap_or(&0.0);
            axpy(-beta_prev, prev, &mut self.work);
        }
        let recycled = self.checkout(self.next.len());
        self.basis.push(std::mem::replace(&mut self.next, recycled));
        if self.basis.len() >= cap {
            return true;
        }
        orthogonalize_against(&mut self.work, &self.basis);
        orthogonalize_against(&mut self.work, &self.basis);
        let beta = normalize(&mut self.work);
        if beta > BREAKDOWN_TOL {
            self.betas.push(beta);
            std::mem::swap(&mut self.next, &mut self.work);
        } else {
            // invariant subspace exhausted: restart in a fresh direction
            random_unit_vector_into(&mut self.next, &mut self.seed);
            orthogonalize_against(&mut self.next, &self.basis);
            orthogonalize_against(&mut self.next, &self.basis);
            if normalize(&mut self.next) <= BREAKDOWN_TOL {
                return true; // the whole space is spanned
            }
            self.restarts += 1;
            self.betas.push(0.0);
        }
        self.work.fill(0.0);
        false
    }

    /// Records the finished run's effort on `sink`: the steps run as
    /// the `lanczos.iterations` counter and histogram sample, and the
    /// breakdown restarts, if any, as `lanczos.restarts`.
    fn record(&self, sink: &dyn TraceSink) {
        let steps = self.alphas.len() as u64;
        sink.counter_add("lanczos.iterations", steps);
        sink.histogram_record("lanczos.iterations", steps);
        if self.restarts > 0 {
            sink.counter_add("lanczos.restarts", self.restarts);
        }
    }

    /// Borrows the current run.
    fn run(&self) -> LanczosRun<'_> {
        LanczosRun {
            alphas: &self.alphas,
            betas: &self.betas,
            basis: &self.basis,
        }
    }
}

/// Borrowed view of one Lanczos run living inside a
/// [`LanczosScratch`]: `T = tridiag(beta, alpha, beta)` plus the
/// orthonormal Krylov basis `V` with `A ≈ V T Vᵀ` on the captured
/// subspace.
#[derive(Debug)]
pub struct LanczosRun<'a> {
    /// Diagonal of `T`.
    pub alphas: &'a [f64],
    /// Sub-diagonal of `T` (one shorter than `alphas`).
    pub betas: &'a [f64],
    /// Orthonormal basis vectors spanning the Krylov space.
    pub basis: &'a [Vec<f64>],
}

/// SplitMix64 — deterministic start vectors without a rand dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `v` with the deterministic pseudo-random unit vector —
/// allocation-free so the recurrence can recycle its buffers.
fn random_unit_vector_into(v: &mut [f64], seed: &mut u64) {
    for x in v.iter_mut() {
        *x = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    normalize(v);
}

/// Runs the Lanczos recurrence with full re-orthogonalisation for
/// `steps` iterations (capped at the operator dimension) inside a
/// caller-owned [`LanczosScratch`], restarting on breakdown so that the
/// basis keeps growing even across invariant subspaces. The returned
/// [`LanczosRun`] borrows the arena, and a warm re-run at the same
/// dimension performs no heap allocations.
///
/// `warm` seeds the recurrence when `opts.warm_start` is set (see
/// [`LanczosOptions::warm_start`]). Bumps the `lanczos.iterations`
/// counter by the steps run and `lanczos.restarts` by the breakdown
/// restarts on `sink`.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `steps == 0` while the
/// operator is non-empty.
pub fn lanczos_with<'s, A: SymOp>(
    op: &A,
    steps: usize,
    opts: &LanczosOptions,
    warm: Option<&[f64]>,
    sink: &dyn TraceSink,
    scratch: &'s mut LanczosScratch,
) -> Result<LanczosRun<'s>, LinalgError> {
    let n = op.dim();
    if n > 0 && steps == 0 {
        return Err(LinalgError::DimensionMismatch {
            expected: 1,
            actual: 0,
        });
    }
    scratch.begin(n, opts, warm);
    if n > 0 {
        while !scratch.step(op, steps.min(n)) {}
        scratch.record(sink);
    }
    Ok(scratch.run())
}

/// Computes the `k` smallest eigenpairs of `op`, sorted ascending.
///
/// Small operators (`dim ≤ opts.dense_cutoff`) are solved exactly by a
/// dense solver (Jacobi up to 8 nodes, Householder + QL above); larger
/// ones grow one Lanczos recurrence until the requested Ritz pairs
/// converge to `opts.tolerance`.
///
/// # Errors
///
/// - [`LinalgError::TooManyEigenpairs`] if `k > op.dim()`;
/// - [`LinalgError::NoConvergence`] if the pairs have not converged
///   when the basis reaches `opts.max_dim` vectors.
///
/// # Example
///
/// ```
/// # use mec_linalg::{CsrMatrix, smallest_eigenpairs, LanczosOptions};
/// // 2-node graph Laplacian with edge weight 3: eigenvalues {0, 6}.
/// let l = CsrMatrix::laplacian_from_edges(2, &[(0, 1, 3.0)])?;
/// let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default())?;
/// assert!(pairs[0].value.abs() < 1e-9);
/// assert!((pairs[1].value - 6.0).abs() < 1e-9);
/// # Ok::<(), mec_linalg::LinalgError>(())
/// ```
pub fn smallest_eigenpairs<A: SymOp>(
    op: &A,
    k: usize,
    opts: &LanczosOptions,
) -> Result<Vec<Eigenpair>, LinalgError> {
    smallest_eigenpairs_with(
        op,
        k,
        opts,
        None,
        &mec_obs::NullSink,
        &mut LanczosScratch::new(),
    )
}

/// [`smallest_eigenpairs`] with telemetry, a caller-owned
/// [`LanczosScratch`] and an optional start vector.
///
/// Each convergence checkpoint emits a `lanczos.burst` event (subspace
/// dimension, residual estimate, convergence flag) into `sink`, and
/// each finished recurrence records its checkpoint count in the
/// `lanczos.checkpoints` histogram; dense solves bump
/// `lanczos.dense_solves`, and converged iterative solves bump
/// `lanczos.solves`. The sink never changes the result.
///
/// One recurrence grows the basis step by step and never recomputes a
/// prefix. Convergence checkpoints come at geometrically spaced
/// dimensions; each costs `O(m²)` (eigenvalues-only QL plus `k`
/// inverse-iteration vectors of the tridiagonal matrix) and accepts
/// the pairs once every Ritz residual `beta · |s[m-1]|` is within
/// `opts.tolerance`. Repeated solves stop allocating in the recurrence
/// once `scratch` is warm. `warm` seeds the recurrence when
/// `opts.warm_start` is set; a seeded run checks convergence sooner.
///
/// # Errors
///
/// Same as [`smallest_eigenpairs`].
pub fn smallest_eigenpairs_with<A: SymOp>(
    op: &A,
    k: usize,
    opts: &LanczosOptions,
    warm: Option<&[f64]>,
    sink: &dyn TraceSink,
    scratch: &mut LanczosScratch,
) -> Result<Vec<Eigenpair>, LinalgError> {
    let n = op.dim();
    if k > n {
        return Err(LinalgError::TooManyEigenpairs {
            requested: k,
            dim: n,
        });
    }
    if k == 0 {
        return Ok(vec![]);
    }
    if n <= opts.dense_cutoff {
        sink.counter_add("lanczos.dense_solves", 1);
        let dense = DenseMatrix::from_op(op);
        // Householder + QL for anything non-trivial; Jacobi's sturdier
        // rotations only for very small systems where its cost is nil.
        let (vals, vecs) = if n <= 8 {
            jacobi_eigen(&dense, &JacobiOptions::default())?
        } else {
            crate::householder_eigen(&dense)?
        };
        return Ok(vals
            .into_iter()
            .zip(vecs)
            .take(k)
            .map(|(value, vector)| Eigenpair { value, vector })
            .collect());
    }

    let cap = opts.max_dim.min(n).max(k);
    // a seed is already near the target eigenvector, so check sooner
    let seeded = scratch.begin(n, opts, warm);
    let mut next_check = if seeded { 2 * k + 8 } else { 4 * k + 20 }.min(cap);
    let mut checkpoints = 0u64;
    loop {
        let spanned = scratch.step(op, cap);
        let m = scratch.basis.len();
        if m < k || (m < next_check && !spanned) {
            continue;
        }
        checkpoints += 1;
        let (alphas, betas) = (&scratch.alphas[..], &scratch.betas[..m - 1]);
        let vals = tridiagonal_eigenvalues(alphas, betas)?;
        let mut svecs: Vec<Vec<f64>> = Vec::with_capacity(k);
        for val in vals.iter().take(k) {
            let s = tridiagonal_eigenvector(alphas, betas, *val, &svecs)?;
            svecs.push(s);
        }
        // the genuine next beta when the step prepared one
        // (betas.len() == m), the last coupling when it stopped at the
        // cap (betas.len() == m - 1); a basis spanning the whole space
        // makes the Ritz pairs exact
        let beta_last = if m < n {
            scratch.betas.last().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        let residual = svecs
            .iter()
            .map(|s| beta_last * s[m - 1].abs())
            .fold(0.0f64, f64::max);
        let converged = residual <= opts.tolerance.max(1e-14 * vals[k - 1].abs());
        if sink.enabled() {
            sink.event(
                "lanczos.burst",
                &[
                    ("dim", FieldValue::from(m)),
                    ("residual", FieldValue::from(residual)),
                    ("converged", FieldValue::from(converged || spanned)),
                ],
            );
        }
        if !converged && !spanned {
            // grow ~1/3 before the next check: geometric enough to
            // amortise the O(m²) eigenvalue sweep, fine enough to stop
            // near the minimal sufficient dimension
            next_check = (m + (m / 3).max(8)).min(cap);
            continue;
        }
        scratch.record(sink);
        sink.histogram_record("lanczos.checkpoints", checkpoints);
        if !converged {
            return Err(LinalgError::NoConvergence {
                iterations: m,
                residual,
            });
        }
        sink.counter_add("lanczos.solves", 1);
        return Ok(vals
            .iter()
            .zip(&svecs)
            .map(|(&value, s)| {
                let mut vector = vec![0.0; n];
                for (j, b) in scratch.basis.iter().enumerate() {
                    axpy(s[j], b, &mut vector);
                }
                normalize(&mut vector);
                Eigenpair { value, vector }
            })
            .collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::norm;
    use crate::CsrMatrix;

    fn residual(op: &impl SymOp, pair: &Eigenpair) -> f64 {
        let n = op.dim();
        let mut y = vec![0.0; n];
        op.apply(&pair.vector, &mut y);
        axpy(-pair.value, &pair.vector, &mut y);
        norm(&y)
    }

    fn path_laplacian(n: usize) -> CsrMatrix {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        CsrMatrix::laplacian_from_edges(n, &edges).unwrap()
    }

    fn cycle_laplacian(n: usize) -> CsrMatrix {
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        CsrMatrix::laplacian_from_edges(n, &edges).unwrap()
    }

    fn iterative() -> LanczosOptions {
        LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        }
    }

    #[test]
    fn path_graph_fiedler_value_matches_closed_form() {
        // P_n Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1.
        for n in [8usize, 33, 80] {
            let l = path_laplacian(n);
            let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default()).unwrap();
            assert!(pairs[0].value.abs() < 1e-8, "n={n}: lambda1 not 0");
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            assert!(
                (pairs[1].value - expected).abs() < 1e-7,
                "n={n}: got {}, expected {expected}",
                pairs[1].value
            );
            for p in &pairs {
                assert!(residual(&l, p) < 1e-6, "n={n}: residual too large");
            }
        }
    }

    #[test]
    fn cycle_graph_spectrum() {
        // C_n eigenvalues: 2 - 2 cos(2 pi k / n); lambda2 has multiplicity 2.
        let n = 40;
        let l = cycle_laplacian(n);
        let pairs = smallest_eigenpairs(&l, 3, &LanczosOptions::default()).unwrap();
        let lam2 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(pairs[0].value.abs() < 1e-8);
        assert!((pairs[1].value - lam2).abs() < 1e-7);
        assert!((pairs[2].value - lam2).abs() < 1e-7);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n: eigenvalues 0 and n (multiplicity n-1).
        let n = 50;
        let mut edges = vec![];
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, 1.0));
            }
        }
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let pairs = smallest_eigenpairs(&l, 4, &LanczosOptions::default()).unwrap();
        assert!(pairs[0].value.abs() < 1e-7);
        for p in &pairs[1..] {
            assert!((p.value - n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn disconnected_graph_has_double_zero() {
        // two disjoint edges: eigenvalues {0, 0, 2, 2}; the basis runs
        // to the full dimension, so breakdown restarts find both zeros
        let l = CsrMatrix::laplacian_from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let pairs = smallest_eigenpairs(&l, 3, &iterative()).unwrap();
        assert!(pairs[0].value.abs() < 1e-9);
        assert!(pairs[1].value.abs() < 1e-9);
        assert!((pairs[2].value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dense_cutoff_path_agrees_with_lanczos_path() {
        let l = path_laplacian(30);
        let dense_opts = LanczosOptions::default(); // 30 <= 32 → Householder + QL
        let a = smallest_eigenpairs(&l, 2, &dense_opts).unwrap();
        let b = smallest_eigenpairs(&l, 2, &iterative()).unwrap();
        assert!((a[1].value - b[1].value).abs() < 1e-7);
        // eigenvectors agree up to sign
        let dot_abs: f64 = a[1]
            .vector
            .iter()
            .zip(&b[1].vector)
            .map(|(x, y)| x * y)
            .sum::<f64>()
            .abs();
        assert!((dot_abs - 1.0).abs() < 1e-5);
    }

    #[test]
    fn weighted_two_node_graph() {
        let l = CsrMatrix::laplacian_from_edges(2, &[(0, 1, 3.0)]).unwrap();
        let pairs = smallest_eigenpairs(&l, 2, &LanczosOptions::default()).unwrap();
        assert!(pairs[0].value.abs() < 1e-12);
        assert!((pairs[1].value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn requesting_too_many_pairs_errors() {
        let l = path_laplacian(3);
        assert!(matches!(
            smallest_eigenpairs(&l, 4, &LanczosOptions::default()),
            Err(LinalgError::TooManyEigenpairs { .. })
        ));
    }

    #[test]
    fn zero_pairs_is_empty() {
        let l = path_laplacian(3);
        assert!(smallest_eigenpairs(&l, 0, &LanczosOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn iteration_cap_surfaces_as_no_convergence() {
        // λ₂ of P_200 is ~2.5e-4: twenty steps cannot resolve it, and
        // the solve must stop at the cap instead of running past it
        let l = path_laplacian(200);
        let opts = LanczosOptions {
            max_dim: 20,
            ..iterative()
        };
        match smallest_eigenpairs(&l, 2, &opts) {
            Err(LinalgError::NoConvergence { iterations, .. }) => {
                assert!(iterations <= 20, "ran {iterations} steps past the cap");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn one_solve_runs_one_recurrence() {
        // every step is counted once and every checkpoint extends the
        // same basis: the counted steps equal the last checkpoint's
        // dimension, so no prefix of the recurrence is ever rerun
        let rec = mec_obs::ShardedRecorder::with_config(mec_obs::ShardConfig {
            drain_interval: None,
            ..mec_obs::ShardConfig::default()
        });
        let l = path_laplacian(150);
        let mut scratch = LanczosScratch::new();
        smallest_eigenpairs_with(&l, 2, &iterative(), None, &rec, &mut scratch).unwrap();
        rec.flush();
        let dims: Vec<u64> = rec
            .events()
            .iter()
            .filter(|e| e.name == "lanczos.burst")
            .map(|e| match e.fields[0] {
                ("dim", FieldValue::U64(d)) => d,
                ref other => panic!("unexpected first field {other:?}"),
            })
            .collect();
        assert!(dims.len() >= 2, "expected several checkpoints: {dims:?}");
        assert!(dims.windows(2).all(|w| w[0] < w[1]), "{dims:?}");
        assert_eq!(
            rec.counter_value("lanczos.iterations"),
            dims[dims.len() - 1]
        );
        assert_eq!(rec.counter_value("lanczos.solves"), 1);
    }

    #[test]
    fn lanczos_basis_is_orthonormal() {
        let l = path_laplacian(60);
        let mut scratch = LanczosScratch::new();
        let run = lanczos_with(
            &l,
            25,
            &LanczosOptions::default(),
            None,
            &mec_obs::NullSink,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(run.alphas.len(), 25);
        assert_eq!(run.betas.len(), 24);
        for (i, a) in run.basis.iter().enumerate() {
            for (j, b) in run.basis.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (dot(a, b) - expected).abs() < 1e-8,
                    "basis {i},{j} not orthonormal"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let l = path_laplacian(50);
        let a = smallest_eigenpairs(&l, 2, &iterative()).unwrap();
        let b = smallest_eigenpairs(&l, 2, &iterative()).unwrap();
        assert_eq!(a[1].value.to_bits(), b[1].value.to_bits());
        assert_eq!(a[1].vector, b[1].vector);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_plain_path() {
        let l = path_laplacian(50);
        let opts = iterative();
        let plain = smallest_eigenpairs(&l, 2, &opts).unwrap();
        let mut scratch = LanczosScratch::new();
        // a stale warm vector must be ignored while warm_start is off
        let stale = vec![1.0; 50];
        for _ in 0..3 {
            let warm = smallest_eigenpairs_with(
                &l,
                2,
                &opts,
                Some(&stale),
                &mec_obs::NullSink,
                &mut scratch,
            )
            .unwrap();
            for (a, b) in plain.iter().zip(&warm) {
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.vector, b.vector);
            }
        }
    }

    #[test]
    fn scratch_reuse_survives_dimension_changes() {
        let mut scratch = LanczosScratch::new();
        for n in [40usize, 12, 64, 12] {
            let l = path_laplacian(n);
            let pairs = smallest_eigenpairs_with(
                &l,
                2,
                &iterative(),
                None,
                &mec_obs::NullSink,
                &mut scratch,
            )
            .unwrap();
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            assert!((pairs[1].value - expected).abs() < 1e-7, "n={n}");
        }
    }

    #[test]
    fn warm_start_converges_to_the_same_pairs() {
        let l = path_laplacian(70);
        let unseeded = smallest_eigenpairs(&l, 2, &iterative()).unwrap();
        let warm_opts = LanczosOptions {
            warm_start: true,
            ..iterative()
        };
        let mut scratch = LanczosScratch::new();
        let seeded = smallest_eigenpairs_with(
            &l,
            2,
            &warm_opts,
            Some(&unseeded[1].vector),
            &mec_obs::NullSink,
            &mut scratch,
        )
        .unwrap();
        assert!((seeded[1].value - unseeded[1].value).abs() < 1e-7);
        let dot_abs = dot(&seeded[1].vector, &unseeded[1].vector).abs();
        assert!((dot_abs - 1.0).abs() < 1e-5);
    }

    #[test]
    fn warm_start_ignores_mismatched_or_zero_seeds() {
        let l = path_laplacian(50);
        let opts = LanczosOptions {
            warm_start: true,
            ..iterative()
        };
        let plain = smallest_eigenpairs(&l, 2, &iterative()).unwrap();
        let mut scratch = LanczosScratch::new();
        // wrong length → random start, bit-identical to the unseeded solve
        let short = vec![1.0; 7];
        let a =
            smallest_eigenpairs_with(&l, 2, &opts, Some(&short), &mec_obs::NullSink, &mut scratch)
                .unwrap();
        assert_eq!(a[1].value.to_bits(), plain[1].value.to_bits());
        assert_eq!(a[1].vector, plain[1].vector);
        // an all-zero warm vector cannot be normalised → random start
        let zero = vec![0.0; 50];
        let b =
            smallest_eigenpairs_with(&l, 2, &opts, Some(&zero), &mec_obs::NullSink, &mut scratch)
                .unwrap();
        assert_eq!(b[1].value.to_bits(), plain[1].value.to_bits());
        assert_eq!(b[1].vector, plain[1].vector);
    }

    #[test]
    fn empty_operator() {
        let l = CsrMatrix::from_triplets(0, &[]).unwrap();
        assert!(smallest_eigenpairs(&l, 0, &LanczosOptions::default())
            .unwrap()
            .is_empty());
        let mut scratch = LanczosScratch::new();
        let run = lanczos_with(
            &l,
            5,
            &LanczosOptions::default(),
            None,
            &mec_obs::NullSink,
            &mut scratch,
        )
        .unwrap();
        assert!(run.basis.is_empty());
    }
}
