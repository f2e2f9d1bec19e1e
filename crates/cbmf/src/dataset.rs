use cbmf_linalg::Matrix;
use cbmf_stats::describe;
use cbmf_trace::Counter;

use crate::basis::BasisSpec;
use crate::error::CbmfError;

/// Sample rows appended to live problems by
/// [`TunableProblem::append_samples`] (summed over states).
static STREAM_APPENDED_ROWS: Counter = Counter::new("stream.appended_rows");

/// Per-state training data: the basis matrix `B_k` (paper eq. 3) and the
/// centered response `y_k` (eq. 5) plus the removed means.
///
/// Both the response *and every basis column* are centered at their
/// training means, so the per-state intercept absorbs all constant terms
/// exactly and the zero-mean Gaussian prior (eq. 8) applies cleanly.
/// [`TunableProblem::intercept_for`] folds the means back at
/// model-assembly time.
#[derive(Debug, Clone)]
pub struct StateData {
    /// Column-centered basis matrix, `N_k × M`.
    pub basis: Matrix,
    /// Centered response values, length `N_k`.
    pub y: Vec<f64>,
    /// Mean removed from the raw response.
    pub y_mean: f64,
    /// Mean removed from each basis column, length `M`.
    pub basis_means: Vec<f64>,
    /// `B_kᵀ y_k`, length `M`.
    bty: Vec<f64>,
    /// Basis column norms `‖b_m‖`, floored away from zero.
    col_norms: Vec<f64>,
}

impl StateData {
    /// Centers raw per-state data the way every constructor in this crate
    /// does — response and each basis column at their means — and computes
    /// the two length-`M` products the fitters read, `B_kᵀy_k` and the
    /// column norms. Both are `O(N·M)`, the cost of one pass over the data.
    fn from_raw(raw_basis: Matrix, raw_y: &[f64]) -> StateData {
        let y_mean = describe::mean(raw_y);
        let y: Vec<f64> = raw_y.iter().map(|v| v - y_mean).collect();
        let (basis, basis_means) = center_columns(raw_basis);
        let bty = basis
            .t_matvec(&y)
            .expect("response length equals basis rows by construction");
        let mut col_norms = vec![0.0; basis.cols()];
        for i in 0..y.len() {
            for (nj, bij) in col_norms.iter_mut().zip(basis.row(i)) {
                *nj += bij * bij;
            }
        }
        for n in &mut col_norms {
            *n = n.sqrt().max(1e-300);
        }
        StateData {
            basis,
            y,
            y_mean,
            basis_means,
            bty,
            col_norms,
        }
    }

    /// Number of samples in this state.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True if the state holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// The Gram matrix `B_kᵀ B_k` (`M × M`), computed on every call.
    ///
    /// No fitting path needs it except the elastic net: the greedy
    /// selectors score against residuals and the Algorithm-1 solver forms
    /// only the Gram entries of selected columns, so nothing `M × M` is
    /// held per state.
    pub fn t_gram(&self) -> Matrix {
        self.basis.transpose().gram()
    }

    /// Correlation vector `B_kᵀ y_k` (length `M`). Like
    /// [`Self::col_norms`], it is computed at construction and assumes
    /// `basis` and `y` are not mutated afterwards.
    pub fn bty(&self) -> &[f64] {
        &self.bty
    }

    /// Basis column norms `‖b_m‖` (floored away from zero), used to
    /// normalize greedy correlation scores.
    pub fn col_norms(&self) -> &[f64] {
        &self.col_norms
    }
}

/// A complete K-state performance-modeling problem (one metric of one
/// tunable circuit), ready for any of the fitting algorithms.
///
/// Responses are centered per state at construction; fitted models add the
/// intercept back at prediction time. The same basis dictionary is shared
/// by all states, as the paper assumes below eq. 1.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let y0 = vec![2.0, 3.0, 5.0];
/// let problem = TunableProblem::from_samples(&[x0], &[y0], BasisSpec::Linear)?;
/// assert_eq!(problem.num_states(), 1);
/// assert_eq!(problem.num_basis(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TunableProblem {
    states: Vec<StateData>,
    basis_spec: BasisSpec,
    num_basis: usize,
}

impl TunableProblem {
    /// Builds the problem from raw per-state samples: `xs[k]` holds the
    /// variation vectors of state `k` as rows, `ys[k]` the corresponding
    /// metric values.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the state lists are empty or
    ///   mismatched, a state has no samples, rows/values disagree in count,
    ///   or the variable dimension differs across states.
    /// * [`CbmfError::NonFiniteData`] if any sample or response value is NaN
    ///   or infinite.
    pub fn from_samples(
        xs: &[Matrix],
        ys: &[Vec<f64>],
        basis_spec: BasisSpec,
    ) -> Result<Self, CbmfError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "need matching non-empty state lists, got {} x-blocks and {} y-blocks",
                    xs.len(),
                    ys.len()
                ),
            });
        }
        let d = xs[0].cols();
        let mut states = Vec::with_capacity(xs.len());
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.rows() == 0 {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k} has no samples"),
                });
            }
            if x.rows() != y.len() {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: {} sample rows but {} responses",
                        x.rows(),
                        y.len()
                    ),
                });
            }
            if x.cols() != d {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: dimension {} != {d}", x.cols()),
                });
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if !x.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "sample values",
                });
            }
            states.push(StateData::from_raw(basis_spec.design_matrix(x), y));
        }
        Ok(TunableProblem {
            states,
            basis_spec,
            num_basis: basis_spec.num_basis(d),
        })
    }

    /// Number of states K.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of basis functions M.
    pub fn num_basis(&self) -> usize {
        self.num_basis
    }

    /// The basis dictionary shared by all states.
    pub fn basis_spec(&self) -> BasisSpec {
        self.basis_spec
    }

    /// Per-state data, indexed by state.
    pub fn states(&self) -> &[StateData] {
        &self.states
    }

    /// Total sample count `Σ_k N_k`.
    pub fn total_samples(&self) -> usize {
        self.states.iter().map(StateData::len).sum()
    }

    /// Re-validates the assembled problem at the fitting boundary: every
    /// state must be non-empty with finite responses and basis values.
    ///
    /// [`TunableProblem::from_samples`] already rejects non-finite *raw*
    /// inputs; this re-check exists because (a) a finite sample can still
    /// overflow to infinity through a polynomial basis expansion, and (b) the
    /// robustness tests flag inputs as corrupted after construction through
    /// [`cbmf_linalg::faultinject`], which surfaces here as the same typed
    /// error a genuinely broken dataset would produce.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if a state holds no samples.
    /// * [`CbmfError::NonFiniteData`] naming the first offending state and
    ///   input.
    pub fn validate(&self) -> Result<(), CbmfError> {
        let y_corrupt = cbmf_linalg::faultinject::corrupted("dataset.y");
        let basis_corrupt = cbmf_linalg::faultinject::corrupted("dataset.basis");
        for (k, st) in self.states.iter().enumerate() {
            if st.is_empty() {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k} has no samples"),
                });
            }
            if y_corrupt || !st.y_mean.is_finite() || st.y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if basis_corrupt
                || !st.basis.is_finite()
                || st.basis_means.iter().any(|v| !v.is_finite())
            {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "basis values",
                });
            }
        }
        Ok(())
    }

    /// Builds the sub-problem containing only the listed sample indices of
    /// each state (the cross-validation split of Algorithm 1 step 4).
    ///
    /// Intercepts are *recomputed* on the subset, as a real training split
    /// would do.
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::InvalidInput`] if `keep.len()` differs from the
    /// state count, any state keeps zero samples, or an index is out of
    /// range.
    pub fn subset(&self, keep: &[Vec<usize>]) -> Result<TunableProblem, CbmfError> {
        if keep.len() != self.states.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "subset needs {} index lists, got {}",
                    self.states.len(),
                    keep.len()
                ),
            });
        }
        let mut states = Vec::with_capacity(self.states.len());
        for (k, (st, idx)) in self.states.iter().zip(keep).enumerate() {
            if idx.is_empty() {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: subset keeps zero samples"),
                });
            }
            let mut raw_basis = Matrix::zeros(idx.len(), self.num_basis);
            let mut raw_y = Vec::with_capacity(idx.len());
            for (row, &i) in idx.iter().enumerate() {
                if i >= st.len() {
                    return Err(CbmfError::InvalidInput {
                        what: format!("state {k}: sample index {i} out of range"),
                    });
                }
                // Restore raw values, then re-center on the subset.
                for (dst, (b, bm)) in raw_basis
                    .row_mut(row)
                    .iter_mut()
                    .zip(st.basis.row(i).iter().zip(&st.basis_means))
                {
                    *dst = b + bm;
                }
                raw_y.push(st.y[i] + st.y_mean);
            }
            states.push(StateData::from_raw(raw_basis, &raw_y));
        }
        Ok(TunableProblem {
            states,
            basis_spec: self.basis_spec,
            num_basis: self.num_basis,
        })
    }

    /// Appends a chunk of raw per-state samples to a live problem. Each
    /// state's stored rows are restored to raw values, stacked with the
    /// chunk and re-centered at the grown means, exactly as
    /// [`TunableProblem::from_samples`] centers its input, so intercept
    /// reconstruction stays exact. The cost is `O(N·M)` per state, one pass
    /// over the grown data.
    ///
    /// Restoring raw values rounds, so a fit on the grown problem is
    /// *numerically equal but not bitwise identical* to a batch fit of the
    /// same data; the streaming engine only claims bitwise parity for the
    /// degenerate one-chunk schedule, which never calls this.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the state count differs, a chunk
    ///   state is empty, rows/values disagree, or the variable dimension
    ///   doesn't match the dictionary.
    /// * [`CbmfError::NonFiniteData`] if chunk samples, responses, or their
    ///   basis expansion are non-finite.
    pub fn append_samples(&mut self, xs: &[Matrix], ys: &[Vec<f64>]) -> Result<(), CbmfError> {
        if xs.len() != self.states.len() || ys.len() != self.states.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "append needs {} state chunks, got {} x-blocks and {} y-blocks",
                    self.states.len(),
                    xs.len(),
                    ys.len()
                ),
            });
        }
        // Validate the whole chunk before mutating any state, so a bad
        // chunk leaves the problem untouched.
        let mut expansions = Vec::with_capacity(xs.len());
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.rows() == 0 {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: appended chunk has no samples"),
                });
            }
            if x.rows() != y.len() {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: {} appended rows but {} responses",
                        x.rows(),
                        y.len()
                    ),
                });
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if !x.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "sample values",
                });
            }
            let expanded = self.basis_spec.design_matrix(x);
            if expanded.cols() != self.num_basis {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: appended chunk expands to {} basis columns, dictionary has {}",
                        expanded.cols(),
                        self.num_basis
                    ),
                });
            }
            if !expanded.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "basis values",
                });
            }
            expansions.push(expanded);
        }
        for (k, (raw_new, y_new)) in expansions.iter().zip(ys).enumerate() {
            let mut raw = self.raw_basis(k).into_vec();
            raw.extend_from_slice(raw_new.as_slice());
            let mut raw_y = self.raw_y(k);
            raw_y.extend_from_slice(y_new);
            let raw = Matrix::from_vec(raw_y.len(), self.num_basis, raw)
                .expect("chunk width checked above");
            self.states[k] = StateData::from_raw(raw, &raw_y);
            STREAM_APPENDED_ROWS.add(y_new.len() as u64);
        }
        Ok(())
    }

    /// Per-state column of raw (uncentered) responses, for evaluation code.
    pub fn raw_y(&self, state: usize) -> Vec<f64> {
        let st = &self.states[state];
        st.y.iter().map(|v| v + st.y_mean).collect()
    }

    /// The raw (uncentered) basis matrix of one state.
    pub fn raw_basis(&self, state: usize) -> Matrix {
        let st = &self.states[state];
        let mut raw = st.basis.clone();
        for i in 0..raw.rows() {
            for (v, bm) in raw.row_mut(i).iter_mut().zip(&st.basis_means) {
                *v += bm;
            }
        }
        raw
    }

    /// The intercept a fitted model needs so that predictions on *raw*
    /// basis values reproduce the centered fit:
    /// `intercept = ȳ − Σ_j c_j · b̄_{m_j}`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range, `support` and `coeffs` differ in
    /// length, or a support index exceeds the dictionary.
    pub fn intercept_for(&self, state: usize, support: &[usize], coeffs: &[f64]) -> f64 {
        let st = &self.states[state];
        assert_eq!(support.len(), coeffs.len(), "support/coefficient length");
        let mut intercept = st.y_mean;
        for (&m, c) in support.iter().zip(coeffs) {
            intercept -= c * st.basis_means[m];
        }
        intercept
    }
}

/// Centers each column of `m` at its mean; returns the centered matrix and
/// the removed means.
fn center_columns(mut m: Matrix) -> (Matrix, Vec<f64>) {
    let (rows, cols) = m.shape();
    let mut means = vec![0.0; cols];
    for i in 0..rows {
        for (s, v) in means.iter_mut().zip(m.row(i)) {
            *s += v;
        }
    }
    for s in &mut means {
        *s /= rows as f64;
    }
    for i in 0..rows {
        for (v, mu) in m.row_mut(i).iter_mut().zip(&means) {
            *v -= mu;
        }
    }
    (m, means)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> TunableProblem {
        let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0], &[2.0, 0.0]]).unwrap();
        let y0 = vec![10.0, 20.0, 30.0, 40.0];
        let x1 = Matrix::from_rows(&[&[0.5, 0.5], &[1.5, -0.5], &[0.0, 0.0], &[1.0, 2.0]]).unwrap();
        let y1 = vec![1.0, 2.0, 3.0, 4.0];
        TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap()
    }

    #[test]
    fn centering_removes_state_means() {
        let p = toy_problem();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.total_samples(), 8);
        let s0 = &p.states()[0];
        assert!((s0.y_mean - 25.0).abs() < 1e-12);
        assert!(s0.y.iter().sum::<f64>().abs() < 1e-12);
        assert_eq!(p.raw_y(0), vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn subset_recomputes_intercepts() {
        let p = toy_problem();
        let sub = p.subset(&[vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(sub.states()[0].len(), 2);
        assert!((sub.states()[0].y_mean - 15.0).abs() < 1e-12);
        assert!((sub.states()[1].y_mean - 3.5).abs() < 1e-12);
        // Raw basis rows are carried over intact (centering differs because
        // the subset has its own column means).
        assert_eq!(sub.raw_basis(1).row(1), p.raw_basis(1).row(3));
    }

    #[test]
    fn subset_validation() {
        let p = toy_problem();
        assert!(p.subset(&[vec![0]]).is_err()); // wrong state count
        assert!(p.subset(&[vec![0], vec![]]).is_err()); // empty state
        assert!(p.subset(&[vec![0], vec![9]]).is_err()); // out of range
    }

    #[test]
    fn construction_validation() {
        let x = Matrix::zeros(2, 2);
        assert!(TunableProblem::from_samples(&[], &[], BasisSpec::Linear).is_err());
        assert!(TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[vec![1.0]],
            BasisSpec::Linear
        )
        .is_err());
        let bad_y = vec![f64::NAN, 0.0];
        assert!(TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[bad_y],
            BasisSpec::Linear
        )
        .is_err());
        let x3 = Matrix::zeros(2, 3);
        assert!(TunableProblem::from_samples(
            &[x, x3],
            &[vec![0.0; 2], vec![0.0; 2]],
            BasisSpec::Linear
        )
        .is_err());
    }

    #[test]
    fn non_finite_inputs_yield_typed_errors() {
        let x = Matrix::zeros(2, 2);
        let err = TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[vec![f64::NAN, 0.0]],
            BasisSpec::Linear,
        )
        .expect_err("NaN response");
        assert!(matches!(
            err,
            CbmfError::NonFiniteData {
                state: 0,
                what: "response values"
            }
        ));
        let bad_x = Matrix::from_rows(&[&[1.0, f64::INFINITY], &[0.0, 0.0]]).unwrap();
        let err = TunableProblem::from_samples(&[bad_x], &[vec![1.0, 2.0]], BasisSpec::Linear)
            .expect_err("Inf sample");
        assert!(matches!(
            err,
            CbmfError::NonFiniteData {
                state: 0,
                what: "sample values"
            }
        ));
    }

    // The corrupted-input path of `validate` arms process-global state, so
    // it is exercised by the serialized integration suite
    // (`tests/fault_injection.rs`), not here.
    #[test]
    fn validate_passes_clean_and_catches_overflowed_basis() {
        let p = toy_problem();
        p.validate().expect("clean problem validates");
        // A finite sample can still overflow through the basis expansion.
        let huge = Matrix::from_rows(&[&[1e200, 0.0], &[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        let p =
            TunableProblem::from_samples(&[huge], &[vec![1.0, 2.0, 3.0]], BasisSpec::LinearSquares)
                .expect("raw samples are finite");
        assert!(matches!(
            p.validate(),
            Err(CbmfError::NonFiniteData {
                what: "basis values",
                ..
            })
        ));
    }

    #[test]
    fn append_samples_matches_from_scratch_construction() {
        // Grow the toy problem by a chunk and compare every piece — stored
        // centered data, means, and the eager `Bᵀy` and column norms —
        // against a problem built from the concatenated raw data in one shot.
        let mut grown = toy_problem();
        let cx0 = Matrix::from_rows(&[&[3.0, 1.0], &[-1.0, 0.5]]).unwrap();
        let cy0 = vec![50.0, 60.0];
        let cx1 = Matrix::from_rows(&[&[2.0, 2.0], &[0.5, -1.0]]).unwrap();
        let cy1 = vec![5.0, 6.0];
        grown
            .append_samples(&[cx0.clone(), cx1.clone()], &[cy0.clone(), cy1.clone()])
            .unwrap();

        let x0 = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 1.0],
            &[2.0, 0.0],
            &[3.0, 1.0],
            &[-1.0, 0.5],
        ])
        .unwrap();
        let y0 = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let x1 = Matrix::from_rows(&[
            &[0.5, 0.5],
            &[1.5, -0.5],
            &[0.0, 0.0],
            &[1.0, 2.0],
            &[2.0, 2.0],
            &[0.5, -1.0],
        ])
        .unwrap();
        let y1 = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let scratch =
            TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap();

        assert_eq!(grown.total_samples(), scratch.total_samples());
        for (g, s) in grown.states().iter().zip(scratch.states()) {
            assert!((g.y_mean - s.y_mean).abs() < 1e-12);
            for (a, b) in g.basis_means.iter().zip(&s.basis_means) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in g.y.iter().zip(&s.y) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in g.basis.as_slice().iter().zip(s.basis.as_slice()) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in g.bty().iter().zip(s.bty()) {
                assert!((a - b).abs() < 1e-10);
            }
            for (a, b) in g.col_norms().iter().zip(s.col_norms()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
        grown.validate().expect("grown problem validates");
    }

    #[test]
    fn append_samples_rejects_bad_chunks_without_mutating() {
        let mut p = toy_problem();
        let before = p.states()[0].y.clone();
        // Wrong state count.
        assert!(p
            .append_samples(&[Matrix::zeros(1, 2)], &[vec![1.0]])
            .is_err());
        // Empty chunk state.
        assert!(p
            .append_samples(
                &[Matrix::zeros(0, 2), Matrix::zeros(1, 2)],
                &[vec![], vec![1.0]]
            )
            .is_err());
        // Row/response mismatch.
        assert!(p
            .append_samples(
                &[Matrix::zeros(2, 2), Matrix::zeros(1, 2)],
                &[vec![1.0], vec![1.0]]
            )
            .is_err());
        // Wrong dimension.
        assert!(p
            .append_samples(
                &[Matrix::zeros(1, 3), Matrix::zeros(1, 2)],
                &[vec![1.0], vec![1.0]]
            )
            .is_err());
        // Non-finite response.
        assert!(p
            .append_samples(
                &[Matrix::zeros(1, 2), Matrix::zeros(1, 2)],
                &[vec![f64::NAN], vec![1.0]]
            )
            .is_err());
        assert_eq!(p.states()[0].y, before);
        assert_eq!(p.total_samples(), 8);
    }

    #[test]
    fn quadratic_basis_widens_dictionary() {
        let x0 = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[2.0, 0.0]]).unwrap();
        let p =
            TunableProblem::from_samples(&[x0], &[vec![1.0, 2.0, 3.0]], BasisSpec::LinearSquares)
                .unwrap();
        assert_eq!(p.num_basis(), 4);
        assert_eq!(p.states()[0].basis.cols(), 4);
    }
}
