//! Small dense linear algebra: LU factorization with partial pivoting.
//!
//! The thermal networks here have a few dozen nodes, so a simple dense
//! factorization is both fast enough (microseconds) and dependency-free.

/// LU factors of a square matrix, with a row-permutation vector.
///
/// # Examples
///
/// ```
/// use powerbalance_thermal::LuFactors;
///
/// // Solve [[2, 1], [1, 3]] x = [3, 5] -> x = [0.8, 1.4]
/// let lu = LuFactors::factor(vec![2.0, 1.0, 1.0, 3.0], 2).expect("non-singular");
/// let x = lu.solve(&[3.0, 5.0]);
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (below diagonal, unit diagonal implied) and U storage,
    /// row-major.
    lu: Vec<f64>,
    /// Row permutation applied during pivoting.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factors an `n` x `n` row-major matrix.
    ///
    /// Returns `None` if the matrix is singular (a pivot underflows).
    #[must_use]
    pub fn factor(mut a: Vec<f64>, n: usize) -> Option<Self> {
        assert_eq!(a.len(), n * n, "matrix must be n*n");
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below the
            // diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in col + 1..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                perm.swap(col, pivot_row);
            }
            let inv_pivot = 1.0 / a[col * n + col];
            for row in col + 1..n {
                let factor = a[row * n + col] * inv_pivot;
                a[row * n + col] = factor;
                for k in col + 1..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
            }
        }
        Some(LuFactors { n, lu: a, perm })
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` for `x`.
    ///
    /// Allocates a fresh solution vector; hot paths that solve every
    /// sampling window should use [`solve_into`](Self::solve_into) with a
    /// persistent buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` in place, writing the solution to `x`.
    ///
    /// `b` and `x` must not alias (enforced by the borrow checker). The
    /// arithmetic — permutation gather, forward substitution, back
    /// substitution, in exactly that operation order — is shared with
    /// [`solve`](Self::solve), so the two produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `x.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let n = self.n;
        // Apply permutation, then forward-substitute L, then back-substitute U.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for row in 1..n {
            let mut sum = x[row];
            for (col, xc) in x.iter().enumerate().take(row) {
                sum -= self.lu[row * n + col] * xc;
            }
            x[row] = sum;
        }
        for row in (0..n).rev() {
            let mut sum = x[row];
            for (col, xc) in x.iter().enumerate().skip(row + 1) {
                sum -= self.lu[row * n + col] * xc;
            }
            x[row] = sum / self.lu[row * n + row];
        }
    }

    /// Solves `A xᵢ = bᵢ` for `k` right-hand sides at once, reusing this
    /// factorization for every lane.
    ///
    /// `b` and `x` are lane-major: entry `i` of lane `lane` lives at
    /// `[i * k + lane]`, so the `k` values of one row are contiguous and
    /// the inner loops vectorize across lanes. Each lane performs the
    /// exact floating-point operation sequence of
    /// [`solve_into`](Self::solve_into) — permutation gather, forward
    /// substitution in column order, back substitution ending in the
    /// diagonal divide — so lane `lane` of `x` is **bit-identical** to
    /// `solve_into(b_lane, x_lane)` on the de-interleaved vectors, which
    /// property tests pin.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or either slice is not `n * k` long.
    pub fn solve_many_into(&self, b: &[f64], x: &mut [f64], k: usize) {
        assert!(k > 0, "at least one right-hand side");
        assert_eq!(b.len(), self.n * k, "rhs length mismatch");
        assert_eq!(x.len(), self.n * k, "solution length mismatch");
        let n = self.n;
        for (i, &p) in self.perm.iter().enumerate() {
            x[i * k..i * k + k].copy_from_slice(&b[p * k..p * k + k]);
        }
        for row in 1..n {
            // Split so the already-finalized rows (the subtrahends) and the
            // row being accumulated can be borrowed simultaneously.
            let (done, rest) = x.split_at_mut(row * k);
            let xr = &mut rest[..k];
            for col in 0..row {
                let l = self.lu[row * n + col];
                let xc = &done[col * k..col * k + k];
                for lane in 0..k {
                    xr[lane] -= l * xc[lane];
                }
            }
        }
        for row in (0..n).rev() {
            let (head, tail) = x.split_at_mut((row + 1) * k);
            let xr = &mut head[row * k..];
            for col in row + 1..n {
                let u = self.lu[row * n + col];
                let off = (col - row - 1) * k;
                let xc = &tail[off..off + k];
                for lane in 0..k {
                    xr[lane] -= u * xc[lane];
                }
            }
            let diag = self.lu[row * n + row];
            for xv in xr.iter_mut() {
                *xv /= diag;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        (0..n).map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum()).collect()
    }

    #[test]
    fn identity_solve() {
        let lu = LuFactors::factor(vec![1.0, 0.0, 0.0, 1.0], 2).expect("identity");
        assert_eq!(lu.solve(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn random_system_round_trips() {
        // Deterministic pseudo-random SPD-ish matrix.
        let n = 12;
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = rnd();
            }
            a[i * n + i] += n as f64; // diagonal dominance
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let b = mat_vec(&a, &x_true, n);
        let lu = LuFactors::factor(a, n).expect("well-conditioned");
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] requires a row swap.
        let lu = LuFactors::factor(vec![0.0, 1.0, 1.0, 0.0], 2).expect("permutation matrix");
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        assert!(LuFactors::factor(vec![1.0, 2.0, 2.0, 4.0], 2).is_none());
    }

    #[test]
    fn one_by_one_systems() {
        // Degenerate dimension: a 1x1 matrix is just a scalar divide.
        let lu = LuFactors::factor(vec![4.0], 1).expect("nonzero scalar");
        assert_eq!(lu.dim(), 1);
        assert!((lu.solve(&[10.0])[0] - 2.5).abs() < 1e-15);
        // Negative scalars are fine too (pivoting is by magnitude).
        let lu = LuFactors::factor(vec![-0.5], 1).expect("nonzero scalar");
        assert!((lu.solve(&[3.0])[0] + 6.0).abs() < 1e-12);
        // A zero (or denormal-underflow) scalar is singular.
        assert!(LuFactors::factor(vec![0.0], 1).is_none());
        assert!(LuFactors::factor(vec![1e-310], 1).is_none());
    }

    #[test]
    fn permutation_matrices_solve_exactly() {
        // Property: for any cyclic-shift permutation matrix P (every pivot
        // starts on a zero diagonal, forcing a swap at each column),
        // solving P x = b must return x[i] = b[shifted index] exactly —
        // no rounding, because only swaps and divides by 1.0 occur.
        for n in 1..=8usize {
            for shift in 0..n {
                let mut a = vec![0.0; n * n];
                for i in 0..n {
                    a[i * n + (i + shift) % n] = 1.0;
                }
                let lu = LuFactors::factor(a, n)
                    .unwrap_or_else(|| panic!("permutation n={n} shift={shift} is nonsingular"));
                let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 1.25).collect();
                let x = lu.solve(&b);
                for i in 0..n {
                    assert_eq!(x[(i + shift) % n], b[i], "n={n} shift={shift} row={i}");
                }
            }
        }
    }

    #[test]
    fn rank_deficient_matrices_detected_across_sizes() {
        // Property: a matrix with an all-zero column is singular whatever
        // the size or remaining content. (A zero column is preserved
        // exactly by row swaps and row eliminations, so the pivot search
        // is guaranteed to find nothing — unlike e.g. a duplicated row,
        // where rounding can leave a tiny but nonzero pivot.)
        let mut seed = 7u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for n in 2..=9usize {
            for zero_col in [0, n / 2, n - 1] {
                let mut a = vec![0.0; n * n];
                for i in 0..n {
                    for j in 0..n {
                        a[i * n + j] = rnd();
                    }
                    a[i * n + i] += n as f64;
                }
                for i in 0..n {
                    a[i * n + zero_col] = 0.0;
                }
                assert!(LuFactors::factor(a, n).is_none(), "zero column {zero_col}, n={n}");
            }
        }
    }

    #[test]
    fn solve_is_linear_in_the_rhs() {
        // Property: solve(alpha*b1 + b2) == alpha*solve(b1) + solve(b2)
        // (up to rounding) — a quick sanity check that the forward/back
        // substitution honours the permutation consistently.
        let n = 6;
        let mut seed = 99u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = rnd();
            }
            a[i * n + i] += n as f64;
        }
        let lu = LuFactors::factor(a, n).expect("diagonally dominant");
        let b1: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let b2: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let alpha = 3.5;
        let combined: Vec<f64> = b1.iter().zip(&b2).map(|(x, y)| alpha * x + y).collect();
        let lhs = lu.solve(&combined);
        let x1 = lu.solve(&b1);
        let x2 = lu.solve(&b2);
        for i in 0..n {
            assert!((lhs[i] - (alpha * x1[i] + x2[i])).abs() < 1e-10, "row {i}");
        }
    }
}
