//! Lanczos iteration for the Fiedler pair of graph Laplacians.
//!
//! The paper's spectral stage needs the Fiedler pair of each
//! compressed sub-graph's Laplacian (Theorem 1: the minimum cut is
//! read off the second-smallest eigenvalue's eigenvector).
//! [`fiedler_pair`] finds it directly: the recurrence runs on the
//! complement of the constant vector, the Laplacian's known null
//! vector, so the wanted pair is the smallest one left.
//!
//! The solver grows one Krylov basis step by step and reads the Ritz
//! pair off the small tridiagonal matrix the recurrence builds. A
//! convergence checkpoint every 8 steps finds only the smallest Ritz
//! value, by Sturm bisection in `O(m)` per halving, and its vector by
//! inverse iteration, so a solve stops within 8 steps of the smallest
//! sufficient dimension. Full re-orthogonalisation keeps the basis
//! honest: each new direction takes one Gram–Schmidt pass against the
//! whole basis, and a second only when the first cancels, by the
//! Daniel–Gragg–Kaufman–Stewart test (DGKS, Math. Comp. 30(136),
//! 1976, the rule ARPACK applies). Breakdown restarts the recurrence
//! in a fresh direction, so a basis that grows to the whole space
//! finds a repeated eigenvalue's every direction. Before that, a
//! single Krylov sequence sees a repeated eigenvalue once — the
//! reason the spectral bisector splits disconnected graphs, whose null
//! value repeats, before solving.

use crate::kernels::{axpy, dot, norm, normalize, orthogonalize_against};
use crate::tridiag::{inverse_iteration, nth_eigenvalue, TridiagScratch};
use crate::{jacobi_eigen, DenseMatrix, LinalgError, SymOp};
use mec_obs::{FieldValue, TraceSink};

/// Residual norm below which a new Krylov direction counts as lost.
const BREAKDOWN_TOL: f64 = 1e-12;

/// Krylov dimension of a solve's first convergence checkpoint.
const FIRST_CHECK: usize = 24;

/// Steps between two convergence checkpoints: a solve stops fewer
/// than this many steps past the first dimension whose Ritz residual
/// meets the tolerance.
const CHECK_STRIDE: usize = 8;

/// Seed of the deterministic pseudo-random start vector.
const START_SEED: u64 = 0x5eed_c0de;

/// Share of its norm a vector must keep through one Gram–Schmidt pass
/// for the pass to suffice: 1/√2, the Daniel–Gragg–Kaufman–Stewart
/// test. Below it the pass cancelled, rounding may have left the
/// remainder leaning on the basis, and the pass is repeated.
const DGKS: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// One converged eigenpair.
#[derive(Debug, Clone)]
pub struct Eigenpair {
    /// The eigenvalue.
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Tuning knobs for [`fiedler_pair`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Maximum Krylov-subspace dimension (capped at the dimension of
    /// the space the recurrence runs in). Default `400`.
    pub max_dim: usize,
    /// Operator dimension at or below which the pair comes from a
    /// dense solve instead of the recurrence: Jacobi rotations up to 8
    /// nodes, Householder reduction plus implicit QL above. Default
    /// `32`.
    pub dense_cutoff: usize,
}

impl LanczosOptions {
    /// Ritz-pair residual below which [`fiedler_pair`] accepts its
    /// pair.
    pub const TOLERANCE: f64 = 1e-10;
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_dim: 400,
            dense_cutoff: 32,
        }
    }
}

/// Reusable buffers for repeated Lanczos solves, and the state of the
/// recurrence in progress.
///
/// The recurrence needs one length-`n` vector per Krylov step plus two
/// working vectors, and each convergence checkpoint needs the Ritz
/// pair's length-`m` coordinate vector and the bisection and inverse
/// iteration workspaces; a cold run allocates them all. Threading one
/// `LanczosScratch` through repeated [`fiedler_pair`] calls recycles
/// every retired basis vector through an internal pool and keeps the
/// checkpoint workspaces, so a warm solve at the same (or smaller)
/// dimension performs **zero** heap allocations before it assembles
/// its result — the property `tests/alloc_budget.rs` pins.
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
    /// Repeated re-orthogonalisation passes of the run in progress.
    second_passes: u64,
    /// The latest checkpoint's smallest Ritz value.
    value: f64,
    /// Its Ritz vector's coordinates in the Krylov basis.
    ritz: Vec<f64>,
    /// The checkpoints' bisection and inverse-iteration workspaces.
    tridiag: TridiagScratch,
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
    /// previous run's basis into the pool and loads the pseudo-random
    /// start vector, its mean removed so the run stays on the
    /// complement of the constant vector.
    fn begin(&mut self, n: usize) {
        self.pool.append(&mut self.basis);
        self.alphas.clear();
        self.betas.clear();
        self.seed = START_SEED;
        self.restarts = 0;
        self.second_passes = 0;
        self.work.clear();
        self.work.resize(n, 0.0);
        self.next.clear();
        self.next.resize(n, 0.0);
        random_unit_vector_into(&mut self.next, &mut self.seed);
        remove_mean(&mut self.next);
        normalize(&mut self.next);
    }

    /// One three-term step: `A · next` is reduced against the last two
    /// basis vectors and `next` joins the basis. Unless the basis now
    /// holds `cap` vectors, the remainder — its mean removed, then
    /// re-orthogonalised against the whole basis by `reorthogonalize`
    /// (one pass unless it cancels) — becomes the next vector; on
    /// breakdown the recurrence restarts in a fresh random direction,
    /// re-orthogonalised the same way, orthogonal to the basis and to
    /// the constant vector. Returns `true` when the basis can grow no
    /// further: it holds `cap` vectors or spans the whole space.
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
        remove_mean(&mut self.work);
        self.second_passes += u64::from(reorthogonalize(&mut self.work, &self.basis));
        let beta = normalize(&mut self.work);
        if beta > BREAKDOWN_TOL {
            self.betas.push(beta);
            std::mem::swap(&mut self.next, &mut self.work);
        } else {
            // invariant subspace exhausted: restart in a fresh direction
            random_unit_vector_into(&mut self.next, &mut self.seed);
            remove_mean(&mut self.next);
            self.second_passes += u64::from(reorthogonalize(&mut self.next, &self.basis));
            if normalize(&mut self.next) <= BREAKDOWN_TOL {
                return true; // the whole space is spanned
            }
            self.restarts += 1;
            self.betas.push(0.0);
        }
        self.work.fill(0.0);
        false
    }

    /// One convergence checkpoint of a run whose basis can span at
    /// most `span` dimensions: finds the smallest Ritz value of the
    /// current tridiagonal matrix by bisection and its coordinate
    /// vector by inverse iteration, and returns its Ritz residual
    /// `beta · |s[m-1]|`. Allocation-free once the workspaces have
    /// grown to the dimension.
    fn ritz_pair(&mut self, span: usize) -> f64 {
        let m = self.basis.len();
        let (alphas, betas) = (&self.alphas[..], &self.betas[..m - 1]);
        self.value = nth_eigenvalue(alphas, betas, 0, &mut self.tridiag);
        inverse_iteration(alphas, betas, self.value, &mut self.tridiag, &mut self.ritz);
        // the genuine next beta when the step prepared one
        // (betas.len() == m), the last coupling when it stopped at the
        // cap (betas.len() == m - 1); a basis spanning the whole space
        // makes the Ritz pair exact
        let beta_last = if m < span {
            self.betas.last().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        beta_last * self.ritz[m - 1].abs()
    }

    /// The unit Ritz vector of the latest checkpoint, assembled from
    /// the basis: the one allocation of a warm solve.
    fn ritz_vector(&self) -> Vec<f64> {
        // `next` keeps the operator's dimension through the run
        let mut vector = vec![0.0; self.next.len()];
        for (b, &s) in self.basis.iter().zip(&self.ritz) {
            axpy(s, b, &mut vector);
        }
        normalize(&mut vector);
        vector
    }

    /// Records the finished run's effort on `sink`: the steps run as
    /// the `lanczos.iterations` counter and histogram sample, the
    /// breakdown restarts, if any, as `lanczos.restarts`, and the
    /// repeated re-orthogonalisation passes, if any, as
    /// `lanczos.second_passes`.
    fn record(&self, sink: &dyn TraceSink) {
        let steps = self.alphas.len() as u64;
        sink.counter_add("lanczos.iterations", steps);
        sink.histogram_record("lanczos.iterations", steps);
        if self.restarts > 0 {
            sink.counter_add("lanczos.restarts", self.restarts);
        }
        if self.second_passes > 0 {
            sink.counter_add("lanczos.second_passes", self.second_passes);
        }
    }
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
pub(crate) fn random_unit_vector_into(v: &mut [f64], seed: &mut u64) {
    for x in v.iter_mut() {
        *x = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    normalize(v);
}

/// Removes from `v` its components along the orthonormal `basis`: one
/// Gram–Schmidt pass, repeated only when it kept less than `DGKS` of
/// the norm `v` started with; after a cancelling pass, a second one
/// restores orthogonality ("twice is enough"). Returns whether the
/// pass was repeated.
fn reorthogonalize(v: &mut [f64], basis: &[Vec<f64>]) -> bool {
    let before = norm(v);
    orthogonalize_against(v, basis);
    if norm(v) >= DGKS * before {
        return false;
    }
    orthogonalize_against(v, basis);
    true
}

/// Projects `v` onto the complement of the constant vector.
fn remove_mean(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

/// The Fiedler pair of a graph Laplacian `op`: its second-smallest
/// eigenvalue `λ₂` and a unit eigenvector for it.
///
/// `op` must have the constant vector in its null space, as every
/// graph Laplacian has, and be connected for the pair to be the
/// Fiedler pair (on a disconnected Laplacian it is a second null
/// pair). Operators at or below `opts.dense_cutoff` are solved exactly
/// by a dense solver (Jacobi up to 8 nodes, Householder + QL above),
/// whose second pair is returned. Larger ones grow one Lanczos
/// recurrence on the complement of the constant vector: the start
/// vector, every new direction and every breakdown restart get their
/// mean removed, so the basis spans at most `n − 1` dimensions and `λ₂`
/// is its smallest Ritz value.
///
/// The recurrence never recomputes a prefix. The first convergence
/// checkpoint comes at dimension 24, the next ones every 8 steps; each
/// finds the smallest Ritz value by Sturm bisection (`O(m)` per
/// halving) and its vector by inverse iteration (`O(m)`), and accepts
/// the pair once its Ritz residual `beta · |s[m-1]|` is within
/// [`LanczosOptions::TOLERANCE`]. Only that one vector is assembled,
/// so once `scratch` is warm a solve allocates its result and nothing
/// else.
///
/// Each convergence checkpoint emits a `lanczos.burst` event (subspace
/// dimension, residual estimate, convergence flag) into `sink`, and
/// each finished recurrence records its checkpoint count in the
/// `lanczos.checkpoints` histogram; dense solves bump
/// `lanczos.dense_solves`, and converged iterative solves bump
/// `lanczos.solves`. The sink never changes the result.
///
/// # Errors
///
/// - [`LinalgError::TooManyEigenpairs`] if `op.dim() < 2`;
/// - [`LinalgError::NoConvergence`] if the pair has not converged when
///   the basis reaches `min(opts.max_dim, n − 1)` vectors, or if the
///   dense solve does not converge.
///
/// # Example
///
/// ```
/// # use mec_graph::{CsrAdjacency, GraphBuilder};
/// # use mec_linalg::{fiedler_pair, LanczosOptions, LanczosScratch};
/// // path 0-1-2 with unit weights: λ₂ = 1, Fiedler vector ∝ (1, 0, -1)
/// let mut b = GraphBuilder::new();
/// let n: Vec<_> = (0..3).map(|_| b.add_node(1.0)).collect();
/// b.add_edge(n[0], n[1], 1.0)?;
/// b.add_edge(n[1], n[2], 1.0)?;
/// let l = CsrAdjacency::build(&b.build());
/// let opts = LanczosOptions { dense_cutoff: 0, ..LanczosOptions::default() };
/// let pair = fiedler_pair(&l, &opts, &mec_obs::NullSink, &mut LanczosScratch::new())?;
/// assert!((pair.value - 1.0).abs() < 1e-9);
/// assert!(pair.vector[1].abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fiedler_pair<A: SymOp>(
    op: &A,
    opts: &LanczosOptions,
    sink: &dyn TraceSink,
    scratch: &mut LanczosScratch,
) -> Result<Eigenpair, LinalgError> {
    let n = op.dim();
    if n < 2 {
        return Err(LinalgError::TooManyEigenpairs {
            requested: 2,
            dim: n,
        });
    }
    if n <= opts.dense_cutoff {
        return dense_fiedler_pair(op, sink);
    }
    // the basis can fill the complement of the constant vector
    let span = n - 1;
    let cap = opts.max_dim.min(span).max(1);
    scratch.begin(n);
    let mut next_check = FIRST_CHECK.min(cap);
    let mut checkpoints = 0u64;
    loop {
        let spanned = scratch.step(op, cap);
        let m = scratch.basis.len();
        if m < next_check && !spanned {
            continue;
        }
        checkpoints += 1;
        let residual = scratch.ritz_pair(span);
        let converged = residual <= LanczosOptions::TOLERANCE.max(1e-14 * scratch.value.abs());
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
            next_check = (m + CHECK_STRIDE).min(cap);
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
        return Ok(Eigenpair {
            value: scratch.value,
            vector: scratch.ritz_vector(),
        });
    }
}

/// The second eigenpair of a dense solve of `op`: Householder + QL for
/// anything non-trivial, back-transforming only the returned vector,
/// and Jacobi's sturdier rotations only for very small systems where
/// its cost is nil.
fn dense_fiedler_pair<A: SymOp>(op: &A, sink: &dyn TraceSink) -> Result<Eigenpair, LinalgError> {
    sink.counter_add("lanczos.dense_solves", 1);
    let dense = DenseMatrix::from_op(op);
    let (value, vector) = if op.dim() <= 8 {
        let (values, mut vectors) = jacobi_eigen(&dense)?;
        (values[1], vectors.swap_remove(1))
    } else {
        crate::householder::householder_pair(&dense, 1)?
    };
    Ok(Eigenpair { value, vector })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::norm;
    use crate::testing::EdgeLaplacian;

    fn residual(op: &impl SymOp, pair: &Eigenpair) -> f64 {
        let n = op.dim();
        let mut y = vec![0.0; n];
        op.apply(&pair.vector, &mut y);
        axpy(-pair.value, &pair.vector, &mut y);
        norm(&y)
    }

    fn path_laplacian(n: usize) -> EdgeLaplacian {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        EdgeLaplacian::new(n, &edges)
    }

    fn cycle_laplacian(n: usize) -> EdgeLaplacian {
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        EdgeLaplacian::new(n, &edges)
    }

    fn iterative() -> LanczosOptions {
        LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        }
    }

    /// [`fiedler_pair`] with a fresh scratch arena and no telemetry.
    fn fiedler(op: &impl SymOp, opts: &LanczosOptions) -> Result<Eigenpair, LinalgError> {
        fiedler_pair(op, opts, &mec_obs::NullSink, &mut LanczosScratch::new())
    }

    #[test]
    fn path_graph_fiedler_value_matches_closed_form() {
        // P_n Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1;
        // under the default cutoff n = 8 takes the dense solve
        for n in [8usize, 33, 80] {
            let l = path_laplacian(n);
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            for opts in [LanczosOptions::default(), iterative()] {
                let pair = fiedler(&l, &opts).unwrap();
                assert!(
                    (pair.value - expected).abs() < 1e-9 * expected,
                    "n={n}: got {}, expected {expected}",
                    pair.value
                );
                assert!(residual(&l, &pair) < 1e-8, "n={n}: residual too large");
                assert!((norm(&pair.vector) - 1.0).abs() < 1e-12);
                // orthogonal to the constant vector
                assert!(pair.vector.iter().sum::<f64>().abs() < 1e-10 * (n as f64).sqrt());
            }
        }
    }

    #[test]
    fn cycle_graph_fiedler_value_is_found_despite_its_multiplicity() {
        // C_n eigenvalues: 2 - 2 cos(2 pi k / n); lambda2 has
        // multiplicity 2, which one Krylov sequence sees once
        let n = 40;
        let l = cycle_laplacian(n);
        let pair = fiedler(&l, &iterative()).unwrap();
        let lam2 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((pair.value - lam2).abs() < 1e-9);
        assert!(residual(&l, &pair) < 1e-8);
    }

    #[test]
    fn disconnected_graph_gives_a_second_null_pair() {
        // two disjoint edges: eigenvalues {0, 0, 2, 2}; the basis runs
        // to the complement's full dimension, so a breakdown restart
        // finds the null direction the constant vector leaves
        let l = EdgeLaplacian::new(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let pair = fiedler(&l, &iterative()).unwrap();
        assert!(pair.value.abs() < 1e-9);
        assert!(residual(&l, &pair) < 1e-9);
    }

    #[test]
    fn dense_cutoff_path_agrees_with_lanczos_path() {
        let l = path_laplacian(30);
        // 30 <= 32 → Householder + QL
        let a = fiedler(&l, &LanczosOptions::default()).unwrap();
        let b = fiedler(&l, &iterative()).unwrap();
        assert!((a.value - b.value).abs() < 1e-7);
        // eigenvectors agree up to sign
        let dot_abs = dot(&a.vector, &b.vector).abs();
        assert!((dot_abs - 1.0).abs() < 1e-5);
    }

    #[test]
    fn weighted_two_node_graph() {
        let l = EdgeLaplacian::new(2, &[(0, 1, 3.0)]);
        for opts in [LanczosOptions::default(), iterative()] {
            let pair = fiedler(&l, &opts).unwrap();
            assert!((pair.value - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn operators_below_two_nodes_have_no_fiedler_pair() {
        for n in [0usize, 1] {
            let l = EdgeLaplacian::new(n, &[]);
            assert!(matches!(
                fiedler(&l, &iterative()),
                Err(LinalgError::TooManyEigenpairs { requested: 2, dim }) if dim == n
            ));
        }
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
        match fiedler(&l, &opts) {
            Err(LinalgError::NoConvergence { iterations, .. }) => assert_eq!(iterations, 20),
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
        fiedler_pair(&l, &iterative(), &rec, &mut LanczosScratch::new()).unwrap();
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
        // 25 steps capped at 25 basis vectors, and full-length runs to
        // the whole complement of the constant vector (299 steps),
        // where no convergence test stops the recurrence and any loss
        // of orthogonality the re-orthogonalisation lets through
        // accumulates
        let cases = [
            ("path", path_laplacian(60), 25),
            ("ring 3", chorded_ring_laplacian(300, 3), 299),
            ("ring 8", chorded_ring_laplacian(300, 8), 299),
        ];
        for (name, l, cap) in cases {
            let mut scratch = LanczosScratch::new();
            scratch.begin(l.dim());
            while !scratch.step(&l, cap) {}
            assert_eq!(scratch.alphas.len(), cap, "{name}");
            assert_eq!(scratch.betas.len(), cap - 1, "{name}");
            let mut worst_gram = 0.0f64;
            // every vector lies on the complement of the constant one
            let mut worst_sum = 0.0f64;
            for (i, a) in scratch.basis.iter().enumerate() {
                worst_sum = worst_sum.max(a.iter().sum::<f64>().abs());
                for (j, b) in scratch.basis.iter().enumerate().skip(i) {
                    let expected = if i == j { 1.0 } else { 0.0 };
                    worst_gram = worst_gram.max((dot(a, b) - expected).abs());
                }
            }
            assert!(
                worst_gram <= 1e-13,
                "{name}: max |VᵀV − I| = {worst_gram:e}"
            );
            assert!(worst_sum <= 1e-13, "{name}: max |Σ v| = {worst_sum:e}");
        }
    }

    /// `k` orthonormal vectors of length `n`, built from seeded random
    /// vectors.
    fn orthonormal_basis(n: usize, k: usize, seed: &mut u64) -> Vec<Vec<f64>> {
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut v = vec![0.0; n];
            random_unit_vector_into(&mut v, seed);
            orthogonalize_against(&mut v, &basis);
            orthogonalize_against(&mut v, &basis);
            normalize(&mut v);
            basis.push(v);
        }
        basis
    }

    #[test]
    fn reorthogonalize_repeats_the_pass_only_when_it_cancels() {
        let (n, k) = (40, 6);
        let mut seed = 17;
        let basis = orthonormal_basis(n, k + 1, &mut seed);
        // the last vector stands outside the basis the helper sees
        let (basis, outside) = basis.split_at(k);
        let outside = &outside[0];
        let inside = {
            let mut v = vec![0.0; n];
            for (i, b) in basis.iter().enumerate() {
                axpy(1.0 + i as f64, b, &mut v);
            }
            normalize(&mut v);
            v
        };
        // 99 % of the norm inside the span: one pass keeps ~14 % of it
        let mut v: Vec<f64> = inside
            .iter()
            .zip(outside)
            .map(|(a, b)| 0.99 * a + (1.0f64 - 0.99 * 0.99).sqrt() * b)
            .collect();
        let input_norm = norm(&v);
        assert!(reorthogonalize(&mut v, basis), "a cancelling pass repeats");
        for (i, b) in basis.iter().enumerate() {
            let leak = dot(&v, b).abs();
            assert!(leak <= 1e-14 * input_norm, "basis {i}: leak {leak:e}");
        }
        // a vector already orthogonal keeps its norm through one pass
        let mut w = outside.clone();
        assert!(!reorthogonalize(&mut w, basis), "a clean pass stays single");
        assert!((norm(&w) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_plain_path() {
        // a fresh arena on the first pass, a warm one after it
        let l = path_laplacian(50);
        let opts = iterative();
        let plain = fiedler(&l, &opts).unwrap();
        let mut scratch = LanczosScratch::new();
        for _ in 0..3 {
            let warm = fiedler_pair(&l, &opts, &mec_obs::NullSink, &mut scratch).unwrap();
            assert_eq!(plain.value.to_bits(), warm.value.to_bits());
            assert_eq!(plain.vector, warm.vector);
        }
    }

    #[test]
    fn scratch_reuse_survives_dimension_changes() {
        let mut scratch = LanczosScratch::new();
        for n in [40usize, 12, 64, 12] {
            let l = path_laplacian(n);
            let pair = fiedler_pair(&l, &iterative(), &mec_obs::NullSink, &mut scratch).unwrap();
            let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
            assert!((pair.value - expected).abs() < 1e-7, "n={n}");
        }
    }

    /// Laplacian of a ring of `n` nodes plus `n` seeded chords, every
    /// edge weighted in `[0.5, 1.5)`: connected, and slow enough to
    /// converge that a solve runs well past its first checkpoint.
    fn chorded_ring_laplacian(n: usize, seed: u64) -> EdgeLaplacian {
        let mut state = seed;
        let mut weight = || 0.5 + (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, weight())).collect();
        let mut pick = seed ^ 0x9e37;
        for _ in 0..n {
            let a = (splitmix64(&mut pick) % n as u64) as usize;
            let b = (splitmix64(&mut pick) % n as u64) as usize;
            if a != b {
                edges.push((a, b, weight()));
            }
        }
        EdgeLaplacian::new(n, &edges)
    }

    /// The first dimension at which the smallest Ritz pair of a
    /// deflated run meets the solver's acceptance test, found by a
    /// full QL decomposition of the tridiagonal matrix after every
    /// step.
    fn first_sufficient_dim(op: &EdgeLaplacian, opts: &LanczosOptions) -> usize {
        let n = op.dim();
        let span = n - 1;
        let cap = opts.max_dim.min(span).max(1);
        let mut scratch = LanczosScratch::new();
        scratch.begin(n);
        loop {
            let spanned = scratch.step(op, cap);
            let m = scratch.alphas.len();
            let eig = crate::tridiagonal_eigen(&scratch.alphas, &scratch.betas[..m - 1]).unwrap();
            let beta = if m < span {
                *scratch.betas.last().unwrap()
            } else {
                0.0
            };
            let residual = beta * eig.vectors[0][m - 1].abs();
            if spanned || residual <= LanczosOptions::TOLERANCE.max(1e-14 * eig.values[0].abs()) {
                return m;
            }
        }
    }

    #[test]
    fn solve_stops_within_one_stride_of_the_first_sufficient_dimension() {
        let opts = iterative();
        for seed in [3u64, 8] {
            let l = chorded_ring_laplacian(300, seed);
            let want = first_sufficient_dim(&l, &opts);
            assert!(
                want > FIRST_CHECK + CHECK_STRIDE,
                "seed {seed}: {want} steps"
            );
            let mut scratch = LanczosScratch::new();
            fiedler_pair(&l, &opts, &mec_obs::NullSink, &mut scratch).unwrap();
            let stopped = scratch.alphas.len();
            assert!(
                want <= stopped && stopped < want + CHECK_STRIDE,
                "seed {seed}: sufficient at {want}, stopped at {stopped}"
            );
        }
    }

    #[test]
    fn deflated_basis_spans_the_complement_in_n_minus_one_steps() {
        // K_n restricted to the complement of the constant vector is
        // n·I: every step breaks down and restarts, and the basis stops
        // at n − 1 vectors with the exact pair
        let n = 10;
        let mut edges = vec![];
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, 1.0));
            }
        }
        let l = EdgeLaplacian::new(n, &edges);
        let rec = mec_obs::ShardedRecorder::with_config(mec_obs::ShardConfig {
            drain_interval: None,
            ..mec_obs::ShardConfig::default()
        });
        let pair = fiedler_pair(&l, &iterative(), &rec, &mut LanczosScratch::new()).unwrap();
        rec.flush();
        assert!((pair.value - n as f64).abs() < 1e-9);
        assert!(residual(&l, &pair) < 1e-9);
        assert_eq!(rec.counter_value("lanczos.iterations"), n as u64 - 1);
        assert_eq!(rec.counter_value("lanczos.restarts"), n as u64 - 2);
    }
}
