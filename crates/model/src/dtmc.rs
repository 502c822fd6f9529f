//! Sparse linear algebra for absorbing discrete-time Markov chains.
//!
//! The model checker turns the reachable state graph of a (source,
//! destination) pair into an absorbing DTMC: transient states are the
//! non-terminal canonical states, the two absorbing classes are
//! `Delivered` and `CountedDrop`.  The absorption probability vector
//! `x` (probability of ending in `Delivered` from each transient
//! state) solves the linear system `(I - Q) x = b`, where `Q` is the
//! transient-to-transient transition matrix and `b` accumulates the
//! one-step probabilities of jumping straight into `Delivered`.
//!
//! Because every protocol transition strictly increases the progress
//! measure (total links crossed), the state graph is acyclic and the
//! BFS discovery order is a topological order.  Eliminating unknowns
//! in that order therefore produces *zero fill-in*: `(I - Q)` is
//! upper-triangular up to the diagonal when rows and columns are
//! numbered by discovery.  The solver still runs a general sparse
//! Gaussian elimination with partial pivoting — the triangularity is
//! an emergent property we report (`fill_in`) and assert in tests,
//! not an assumption baked into the algorithm.
//!
//! # Cost
//!
//! Each row is a vector of `(column, coefficient)` pairs sorted by
//! column.  A coefficient is inserted at its binary-search position, and
//! a repeated `(row, column)` accumulates into the stored one in
//! assembly order.  The solver keeps a column index of the structure
//! below the diagonal: `below[c]` is the sorted list of row positions
//! `r > c` holding an entry `(r, c)`.  It is built once from the
//! assembled rows, re-keyed when a pivot swap moves a row, and extended
//! when elimination creates a sub-diagonal fill entry.  The pivot search
//! and the elimination of column `k` visit only `below[k]`, never the
//! rows that lack the column.  A lookup is a binary search and an
//! insertion shifts the rest of its row or list, so with short rows a
//! solve costs O(nnz · log n) plus the fill it creates.  Ties in the
//! pivot search go to the lowest row position, exactly as in a scan of
//! every later row, so pivots, `fill_in` and `x` do not depend on the
//! index.  On a BFS-ordered chain every `below[c]` is empty and the
//! solve is assembly plus back-substitution.

/// Pivots with absolute value below this are treated as singular.
const PIVOT_FLOOR: f64 = 1.0e-300;

/// One sparse row: `(column, coefficient)` pairs sorted by column.
type Row = Vec<(usize, f64)>;

/// A sparse square system `A x = rhs` with rows stored as column-sorted
/// vectors.
#[derive(Debug, Clone)]
pub struct SparseSystem {
    n: usize,
    rows: Vec<Row>,
    rhs: Vec<f64>,
}

/// Outcome of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The solution vector `x`.
    pub x: Vec<f64>,
    /// Number of matrix entries *created* during elimination (entries
    /// that were structurally zero in the assembled system).  Zero for
    /// systems assembled in topological order.
    pub fill_in: usize,
}

/// The coefficient at `col`, if the row stores one.
fn get(row: &[(usize, f64)], col: usize) -> Option<f64> {
    row.binary_search_by_key(&col, |&(c, _)| c)
        .ok()
        .map(|i| row[i].1)
}

/// The coefficient slot at `col`, inserted as `0.0` at its sorted
/// position when absent; the flag tells whether it was.
fn entry(row: &mut Row, col: usize) -> (&mut f64, bool) {
    match row.binary_search_by_key(&col, |&(c, _)| c) {
        Ok(i) => (&mut row[i].1, false),
        Err(i) => {
            row.insert(i, (col, 0.0));
            (&mut row[i].1, true)
        }
    }
}

/// Removes and returns the coefficient at `col`.
fn remove(row: &mut Row, col: usize) -> Option<f64> {
    let i = row.binary_search_by_key(&col, |&(c, _)| c).ok()?;
    Some(row.remove(i).1)
}

/// The entries with column below `bound`.
fn left_of(row: &[(usize, f64)], bound: usize) -> &[(usize, f64)] {
    &row[..row.partition_point(|&(c, _)| c < bound)]
}

/// The entries with column above `bound`.
fn right_of(row: &[(usize, f64)], bound: usize) -> &[(usize, f64)] {
    &row[row.partition_point(|&(c, _)| c <= bound)..]
}

/// Adds `r` to a sorted set of row positions.
fn set_insert(set: &mut Vec<usize>, r: usize) {
    if let Err(i) = set.binary_search(&r) {
        set.insert(i, r);
    }
}

/// Removes `r` from a sorted set of row positions.
fn set_remove(set: &mut Vec<usize>, r: usize) {
    if let Ok(i) = set.binary_search(&r) {
        set.remove(i);
    }
}

impl SparseSystem {
    /// Creates an `n`-by-`n` system with all coefficients zero.
    pub fn new(n: usize) -> Self {
        SparseSystem {
            n,
            rows: vec![Vec::new(); n],
            rhs: vec![0.0; n],
        }
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the system has no unknowns.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `coeff` to `A[row][col]`.  Out-of-range indices are ignored
    /// so that callers can assemble defensively.
    pub fn add(&mut self, row: usize, col: usize, coeff: f64) {
        if row < self.n && col < self.n {
            *entry(&mut self.rows[row], col).0 += coeff;
        }
    }

    /// Adds `value` to `rhs[row]`.  Out-of-range indices are ignored.
    pub fn add_rhs(&mut self, row: usize, value: f64) {
        if row < self.n {
            self.rhs[row] += value;
        }
    }

    /// Number of structurally non-zero coefficients currently stored.
    pub fn nonzeros(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Solves the system by sparse Gaussian elimination with partial
    /// (max-magnitude) pivoting, consuming the assembled coefficients.
    ///
    /// The pivot search and the elimination walk only the rows listed
    /// in the column's sub-diagonal index (see the module docs); ties
    /// go to the lowest row position, as in a scan of every later row.
    ///
    /// Returns `None` when a pivot column is numerically singular.
    pub fn solve(mut self) -> Option<Solution> {
        let n = self.n;
        // below[c]: sorted row positions r > c holding an entry (r, c).
        let mut below: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, _) in left_of(row, r) {
                below[c].push(r);
            }
        }
        let mut created = 0usize;
        for k in 0..n {
            // Partial pivoting: pick the row at or below k with the
            // largest magnitude in column k.
            let mut best = k;
            let mut best_mag = get(&self.rows[k], k).map_or(0.0, f64::abs);
            let later = below[k].partition_point(|&r| r <= k);
            for &r in &below[k][later..] {
                let mag = get(&self.rows[r], k).map_or(0.0, f64::abs);
                if mag > best_mag {
                    best_mag = mag;
                    best = r;
                }
            }
            if best_mag < PIVOT_FLOOR {
                return None;
            }
            if best != k {
                // Rows at or below k hold nothing left of column k, so
                // only position `best` changes hands in the index.
                for &(c, _) in left_of(&self.rows[best], best) {
                    set_remove(&mut below[c], best);
                }
                for &(c, _) in left_of(&self.rows[k], best) {
                    set_insert(&mut below[c], best);
                }
                self.rows.swap(k, best);
                self.rhs.swap(k, best);
            }
            let pivot = get(&self.rows[k], k)?;
            // Eliminate column k from every later row that carries it.
            let targets = std::mem::take(&mut below[k]);
            if targets.is_empty() {
                continue;
            }
            let pivot_row = right_of(&self.rows[k], k).to_vec();
            let pivot_rhs = self.rhs[k];
            for r in targets {
                let factor = match remove(&mut self.rows[r], k) {
                    Some(v) => v / pivot,
                    None => continue,
                };
                for &(c, v) in &pivot_row {
                    let (slot, fresh) = entry(&mut self.rows[r], c);
                    *slot -= factor * v;
                    if fresh {
                        created += 1;
                        if c < r {
                            set_insert(&mut below[c], r);
                        }
                    }
                }
                self.rhs[r] -= factor * pivot_rhs;
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut acc = self.rhs[k];
            for &(c, v) in right_of(&self.rows[k], k) {
                acc -= v * x[c];
            }
            let pivot = get(&self.rows[k], k)?;
            x[k] = acc / pivot;
        }
        Some(Solution {
            x,
            fill_in: created,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_rng::Xoshiro256pp;
    use std::collections::BTreeMap;

    /// The solver before the sub-diagonal index and the column-sorted
    /// rows: rows are ordered maps, and the pivot search and the
    /// elimination scan every row below the pivot.  Kept as the oracle
    /// the indexed solver must match bit for bit.
    fn dense_scan_solve(sys: SparseSystem) -> Option<Solution> {
        let n = sys.n;
        let mut rows: Vec<BTreeMap<usize, f64>> = sys
            .rows
            .iter()
            .map(|row| row.iter().copied().collect())
            .collect();
        let mut rhs = sys.rhs;
        let mut created = 0usize;
        for k in 0..n {
            let mut best = k;
            let mut best_mag = rows[k].get(&k).map_or(0.0, |v| v.abs());
            for (offset, row) in rows[k + 1..].iter().enumerate() {
                let mag = row.get(&k).map_or(0.0, |v| v.abs());
                if mag > best_mag {
                    best_mag = mag;
                    best = k + 1 + offset;
                }
            }
            if best_mag < PIVOT_FLOOR {
                return None;
            }
            if best != k {
                rows.swap(k, best);
                rhs.swap(k, best);
            }
            let pivot = *rows[k].get(&k)?;
            let pivot_row: Vec<(usize, f64)> =
                rows[k].range(k + 1..).map(|(&c, &v)| (c, v)).collect();
            let pivot_rhs = rhs[k];
            for r in k + 1..n {
                let factor = match rows[r].remove(&k) {
                    Some(v) => v / pivot,
                    None => continue,
                };
                for &(c, v) in &pivot_row {
                    let slot = rows[r].entry(c).or_insert_with(|| {
                        created += 1;
                        0.0
                    });
                    *slot -= factor * v;
                }
                rhs[r] -= factor * pivot_rhs;
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut acc = rhs[k];
            for (&c, &v) in rows[k].range(k + 1..) {
                acc -= v * x[c];
            }
            let pivot = *rows[k].get(&k)?;
            x[k] = acc / pivot;
        }
        Some(Solution {
            x,
            fill_in: created,
        })
    }

    /// A random sparse system with 2..=40 unknowns and entries on both
    /// sides of the diagonal.  Half the systems draw small integer
    /// coefficients, so pivot magnitudes tie and rows cancel exactly;
    /// some diagonals are left empty, so pivots must swap rows; some
    /// columns are left empty, so the system is singular.
    fn random_system(rng: &mut Xoshiro256pp) -> SparseSystem {
        let n = 2 + rng.index(39);
        let integer = rng.index(2) == 0;
        let empty_column = (rng.index(8) == 0).then(|| rng.index(n));
        let coeff = |rng: &mut Xoshiro256pp| {
            if integer {
                [-2.0, -1.0, 1.0, 2.0][rng.index(4)]
            } else {
                2.0 * rng.next_f64() - 1.0
            }
        };
        let mut sys = SparseSystem::new(n);
        for r in 0..n {
            let mut cols: Vec<usize> = (0..2 + rng.index(4)).map(|_| rng.index(n)).collect();
            if rng.index(6) != 0 {
                cols.push(r);
            }
            for c in cols {
                if Some(c) != empty_column {
                    let v = coeff(rng);
                    sys.add(r, c, v);
                }
            }
            let b = coeff(rng);
            sys.add_rhs(r, b);
        }
        sys
    }

    #[test]
    fn the_indexed_solver_matches_the_dense_scan_bit_for_bit() {
        let mut rng = Xoshiro256pp::new(0xD7C0_501E);
        let (mut filled, mut singular) = (0, 0);
        for case in 0..500 {
            let sys = random_system(&mut rng);
            let got = sys.clone().solve();
            let want = dense_scan_solve(sys);
            match (got, want) {
                (None, None) => singular += 1,
                (Some(got), Some(want)) => {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.x), bits(&want.x), "x differs on case {case}");
                    assert_eq!(got.fill_in, want.fill_in, "fill_in differs on case {case}");
                    if got.fill_in > 0 {
                        filled += 1;
                    }
                }
                (got, want) => panic!(
                    "case {case}: solvability differs (indexed {}, dense {})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
        // The corpus must exercise both fill and singular systems.
        assert!(filled >= 100, "only {filled} systems created fill");
        assert!(singular >= 25, "only {singular} systems were singular");
    }

    #[test]
    fn a_long_bidiagonal_chain_solves_in_linear_time_without_fill() {
        // Transient state i moves on to state i + 1 with probability P
        // and is delivered with probability Q; the last state delivers
        // with probability LAST.  Numbered in BFS order (i -> i) the
        // matrix is upper bidiagonal; numbered in reverse it is lower
        // bidiagonal and each pivot eliminates exactly one entry.
        const N: usize = 100_000;
        const P: f64 = 0.5;
        const Q: f64 = 0.3;
        const LAST: f64 = 0.9;
        // x_i = Q (1 - P^m) / (1 - P) + P^m LAST with m = N - 1 - i.
        let closed = |i: usize| {
            let pm = P.powi(i32::try_from(N - 1 - i).unwrap());
            Q * (1.0 - pm) / (1.0 - P) + pm * LAST
        };
        for reversed in [false, true] {
            let at = |i: usize| if reversed { N - 1 - i } else { i };
            let mut sys = SparseSystem::new(N);
            for i in 0..N {
                sys.add(at(i), at(i), 1.0);
                if i + 1 < N {
                    sys.add(at(i), at(i + 1), -P);
                    sys.add_rhs(at(i), Q);
                } else {
                    sys.add_rhs(at(i), LAST);
                }
            }
            let sol = sys.solve().expect("nonsingular");
            assert_eq!(sol.fill_in, 0, "reversed = {reversed}");
            for i in 0..N {
                let err = (sol.x[at(i)] - closed(i)).abs();
                assert!(err < 1e-12, "x[{i}] off by {err:e} (reversed = {reversed})");
            }
        }
    }

    #[test]
    fn solves_a_dense_3x3_system() {
        // x + y = 3 ; 2y + z = 5 ; 4z = 4  ->  z=1, y=2, x=1.
        let mut sys = SparseSystem::new(3);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add_rhs(0, 3.0);
        sys.add(1, 1, 2.0);
        sys.add(1, 2, 1.0);
        sys.add_rhs(1, 5.0);
        sys.add(2, 2, 4.0);
        sys.add_rhs(2, 4.0);
        let sol = sys.solve().expect("nonsingular");
        assert!((sol.x[0] - 1.0).abs() < 1e-12);
        assert!((sol.x[1] - 2.0).abs() < 1e-12);
        assert!((sol.x[2] - 1.0).abs() < 1e-12);
        // Upper triangular already: no fill-in.
        assert_eq!(sol.fill_in, 0);
    }

    #[test]
    fn pivots_when_the_diagonal_is_zero() {
        // 0x + y = 2 ; x + y = 3  ->  x=1, y=2 (requires a row swap).
        let mut sys = SparseSystem::new(2);
        sys.add(0, 1, 1.0);
        sys.add_rhs(0, 2.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.add_rhs(1, 3.0);
        let sol = sys.solve().expect("nonsingular after pivot");
        assert!((sol.x[0] - 1.0).abs() < 1e-12);
        assert!((sol.x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reports_singular_systems() {
        let mut sys = SparseSystem::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 1.0);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn counts_fill_in_on_a_lower_triangle() {
        // A dense lower-triangular-plus-band system forces fill when a
        // row below the pivot lacks entries the pivot row has.
        let mut sys = SparseSystem::new(3);
        sys.add(0, 0, 2.0);
        sys.add(0, 2, 1.0);
        sys.add_rhs(0, 4.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.add_rhs(1, 3.0);
        sys.add(2, 1, 1.0);
        sys.add(2, 2, 1.0);
        sys.add_rhs(2, 3.0);
        let sol = sys.solve().expect("nonsingular");
        // Row 1 gains a column-2 entry from the elimination of column 0.
        assert!(sol.fill_in > 0);
        // Residual check instead of hand-solving.
        let (x, y, z) = (sol.x[0], sol.x[1], sol.x[2]);
        assert!((2.0 * x + z - 4.0).abs() < 1e-12);
        assert!((x + y - 3.0).abs() < 1e-12);
        assert!((y + z - 3.0).abs() < 1e-12);
    }

    #[test]
    fn an_absorbing_chain_absorbs_with_probability_one() {
        // Two transient states: s0 -> s1 (p=0.5) or Delivered (0.5);
        // s1 -> Delivered (0.7) or Dropped (0.3).
        // x0 = 0.5 + 0.5 * x1 ; x1 = 0.7.
        let mut sys = SparseSystem::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, -0.5);
        sys.add_rhs(0, 0.5);
        sys.add(1, 1, 1.0);
        sys.add_rhs(1, 0.7);
        let sol = sys.solve().expect("nonsingular");
        assert!((sol.x[1] - 0.7).abs() < 1e-15);
        assert!((sol.x[0] - 0.85).abs() < 1e-15);
        assert_eq!(sol.fill_in, 0);
    }
}
