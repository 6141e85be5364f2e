use std::fmt;
use std::ops::{Index, IndexMut};

use crate::par;

/// A dense row-major `f32` matrix; the default is `0 × 0`.
///
/// The multiply kernels ([`Matrix::matmul`], [`Matrix::transpose_matmul`]
/// and the fused, output-taking forms the layers call) are cache-blocked
/// and register-tiled but keep a **fixed accumulation order per output
/// element** — `k`-ascending for `matmul`, input-row-ascending for
/// `transpose_matmul` — so their results are bit-identical to the
/// straightforward scalar loops at any block size and any thread count
/// (see DESIGN.md §16).
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Output rows sharing one streamed `b` row in the register-tiled kernels.
/// Grouping rows amortises the `b` traffic without touching the per-element
/// accumulation order, so it is a pure tuning constant.
const MR: usize = 4;

/// The `k`-panel length of the blocked kernels: `matmul` accumulates one
/// panel of `b` rows across all output rows before moving to the next, and
/// `transpose_matmul` processes its output in panels of this many rows.
/// Panels partition work without reordering any per-element accumulation,
/// so the value only affects speed.
const KC: usize = 512;

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a generator `f(row, col)` in a single pass —
    /// each element is written exactly once, with no zero-fill prepass.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows × cols` with every element `+0.0`, keeping the
    /// buffer's capacity. Every kernel that writes into a caller's matrix
    /// starts here, so a reused output accumulates from the same `+0.0`
    /// as a fresh [`Matrix::zeros`] and, once it has grown to its largest
    /// shape, costs no allocation.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` (`n×d · d×h → n×h`).
    ///
    /// Each output element accumulates over ascending `k` regardless of
    /// blocking or threading, so the result is bit-identical to the naive
    /// `i k j` triple loop.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        matmul_impl(self, None, other, &mut out);
        out
    }

    /// The transpose `selfᵀ` (`n×d → d×n`), built in a single pass.
    pub fn transpose(&self) -> Matrix {
        self.transpose_rows(0, self.rows)
    }

    /// The transpose of the row block `self[r0..r1]`
    /// (`(r1−r0)×d → d×(r1−r0)`) — lets a caller multiply against a
    /// contiguous slice of a weight matrix without copying the rest.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn transpose_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        let n = r1 - r0;
        let mut data = Vec::with_capacity(self.cols * n);
        for c in 0..self.cols {
            for r in r0..r1 {
                data.push(self.data[r * self.cols + c]);
            }
        }
        Matrix {
            rows: self.cols,
            cols: n,
            data,
        }
    }

    /// `selfᵀ · other` (`n×d ᵀ · n×h → d×h`), used for weight gradients.
    ///
    /// Output element `(k, j)` accumulates `self[i, k] · other[i, j]` over
    /// ascending `i` in every code path — panels split the *output* rows
    /// and the register tile adds its `MR` input rows sequentially — so
    /// blocked, serial and threaded runs are all bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        transpose_matmul_impl(self, None, other, &mut out);
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts differ");
        let mut data = Vec::with_capacity(self.rows * (self.cols + other.cols));
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix::from_vec(self.rows, self.cols + other.cols, data)
    }

    /// Splits `[left | right]` back into its halves (inverse of
    /// [`Matrix::hconcat`]).
    pub fn hsplit(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(left_cols <= self.cols, "split point beyond width");
        let right_cols = self.cols - left_cols;
        let mut l = Vec::with_capacity(self.rows * left_cols);
        let mut r = Vec::with_capacity(self.rows * right_cols);
        for i in 0..self.rows {
            let row = self.row(i);
            l.extend_from_slice(&row[..left_cols]);
            r.extend_from_slice(&row[left_cols..]);
        }
        (
            Matrix::from_vec(self.rows, left_cols, l),
            Matrix::from_vec(self.rows, right_cols, r),
        )
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Index of the maximum entry in each row (first index on ties).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

/// `[left ‖ right?] · b` into `out` (`n×dₗ ‖ n×dᵣ · (dₗ+dᵣ)×h → n×h`),
/// row-partitioned over threads, without materialising the concatenation.
///
/// The virtual `k` dimension runs over `left`'s columns then `right`'s,
/// the same order [`Matrix::hconcat`] lays them out in, so the result is
/// bit-identical to `left.hconcat(right).matmul(b)`.
///
/// # Panics
///
/// Panics if the row counts differ or the combined width does not match
/// `b`'s row count.
pub(crate) fn matmul_impl(left: &Matrix, right: Option<&Matrix>, b: &Matrix, out: &mut Matrix) {
    let dr = right.map_or(0, |r| {
        assert_eq!(left.rows, r.rows, "row counts differ");
        r.cols
    });
    assert_eq!(left.cols + dr, b.rows, "inner dimensions differ");
    let (rows, h) = (left.rows, b.cols);
    out.reset_zeros(rows, h);
    if rows == 0 || h == 0 || b.rows == 0 {
        return;
    }
    let work = rows.saturating_mul(h).saturating_mul(b.rows);
    par::row_blocks(&mut out.data, h, work, |start, chunk| {
        matmul_chunk(left, right, b, start, chunk);
    });
}

/// `[left ‖ right?]ᵀ · g` into `out` without materialising the
/// concatenation: rows `0..dₗ` of the result are `leftᵀ·g`, rows `dₗ..`
/// are `rightᵀ·g`, each accumulated in the same ascending input-row order
/// as the unfused kernel — bit-identical to
/// `left.hconcat(right).transpose_matmul(g)`.
///
/// # Panics
///
/// Panics if any row count differs from `g`'s.
pub(crate) fn transpose_matmul_impl(
    left: &Matrix,
    right: Option<&Matrix>,
    g: &Matrix,
    out: &mut Matrix,
) {
    assert_eq!(left.rows, g.rows, "row counts differ");
    let dr = right.map_or(0, |r| {
        assert_eq!(r.rows, g.rows, "row counts differ");
        r.cols
    });
    let (dl, h) = (left.cols, g.cols);
    out.reset_zeros(dl + dr, h);
    let (top, bottom) = out.data.split_at_mut(dl * h);
    tmm_rows(left, g, top);
    if let Some(r) = right {
        tmm_rows(r, g, bottom);
    }
}

/// `aᵀ · g` into the zeroed `a.cols × g.cols` block `out`, with output
/// rows partitioned over threads.
fn tmm_rows(a: &Matrix, g: &Matrix, out: &mut [f32]) {
    let (d, h) = (a.cols, g.cols);
    if d == 0 || h == 0 || a.rows == 0 {
        return;
    }
    let work = d.saturating_mul(h).saturating_mul(a.rows);
    par::row_blocks(out, h, work, |k0, chunk| {
        tmm_chunk(a, g, k0, chunk);
    });
}

/// The blocked `matmul` kernel over output rows `start..start+chunk/h`.
///
/// Loop order is k-panel → MR-row tile → k → j: panels of `b` rows stay
/// cache-hot while the tile amortises each `b` row across `MR` outputs.
/// For a fixed output element the `k` updates arrive panel-ascending and
/// in-panel-ascending — i.e. plain ascending `k` — with the left source's
/// columns before the right's, exactly like a materialised concatenation.
fn matmul_chunk(
    left: &Matrix,
    right: Option<&Matrix>,
    b: &Matrix,
    start: usize,
    chunk: &mut [f32],
) {
    let h = b.cols;
    let dl = left.cols;
    let d = b.rows;
    let mut kb = 0;
    while kb < d {
        let ke = (kb + KC).min(d);
        let mut tiles = chunk.chunks_exact_mut(MR * h);
        let mut i = start;
        for tile in tiles.by_ref() {
            let (r0, rest) = tile.split_at_mut(h);
            let (r1, rest) = rest.split_at_mut(h);
            let (r2, r3) = rest.split_at_mut(h);
            if kb < dl {
                let e = ke.min(dl);
                tile_segment(
                    r0,
                    r1,
                    r2,
                    r3,
                    &left.row(i)[kb..e],
                    &left.row(i + 1)[kb..e],
                    &left.row(i + 2)[kb..e],
                    &left.row(i + 3)[kb..e],
                    b,
                    kb,
                );
            }
            if let Some(rm) = right {
                if ke > dl {
                    let s = kb.max(dl);
                    tile_segment(
                        r0,
                        r1,
                        r2,
                        r3,
                        &rm.row(i)[s - dl..ke - dl],
                        &rm.row(i + 1)[s - dl..ke - dl],
                        &rm.row(i + 2)[s - dl..ke - dl],
                        &rm.row(i + 3)[s - dl..ke - dl],
                        b,
                        s,
                    );
                }
            }
            i += MR;
        }
        for row_out in tiles.into_remainder().chunks_mut(h) {
            if kb < dl {
                row_segment(row_out, &left.row(i)[kb..ke.min(dl)], b, kb);
            }
            if let Some(rm) = right {
                if ke > dl {
                    let s = kb.max(dl);
                    row_segment(row_out, &rm.row(i)[s - dl..ke - dl], b, s);
                }
            }
            i += 1;
        }
        kb = ke;
    }
}

/// One `MR`-row tile over one contiguous `k` segment: `a0..a3` hold the
/// tile rows' `a` values for `k = k0..k0+len`, `b` supplies rows
/// `k0..k0+len`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tile_segment(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &Matrix,
    k0: usize,
) {
    for (t, (((&a0v, &a1v), &a2v), &a3v)) in a0.iter().zip(a1).zip(a2).zip(a3).enumerate() {
        // Zero `a` values skip their row (features are sparse); the skip
        // cannot change bits because a `+0.0` accumulator never turns
        // negative-zero under addition. One-hot feature blocks make the
        // all-four-zero case by far the most common, so test it first with
        // a single sign-stripped bit test.
        if (a0v.to_bits() | a1v.to_bits() | a2v.to_bits() | a3v.to_bits()) << 1 == 0 {
            continue;
        }
        let bv = b.row(k0 + t);
        if a0v != 0.0 && a1v != 0.0 && a2v != 0.0 && a3v != 0.0 {
            let n = bv.len();
            let (r0, r1, r2, r3) = (&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]);
            for j in 0..n {
                r0[j] += a0v * bv[j];
                r1[j] += a1v * bv[j];
                r2[j] += a2v * bv[j];
                r3[j] += a3v * bv[j];
            }
        } else {
            axpy(r0, a0v, bv);
            axpy(r1, a1v, bv);
            axpy(r2, a2v, bv);
            axpy(r3, a3v, bv);
        }
    }
}

/// Single-row tail of [`tile_segment`].
#[inline]
fn row_segment(out: &mut [f32], a: &[f32], b: &Matrix, k0: usize) {
    for (t, &av) in a.iter().enumerate() {
        axpy(out, av, b.row(k0 + t));
    }
}

/// `out += a · b`, skipping the no-op when `a` is zero.
#[inline]
fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    if a == 0.0 {
        return;
    }
    for (o, &v) in out.iter_mut().zip(b) {
        *o += a * v;
    }
}

/// The blocked `transpose_matmul` kernel for output rows (i.e. `a`
/// columns) `k0..k0+chunk/h`: panels of output rows stay cache-hot while
/// register tiles of `MR` input rows are added **sequentially in ascending
/// input order**, preserving the rank-1-update accumulation order of the
/// scalar kernel.
fn tmm_chunk(a: &Matrix, b: &Matrix, k0: usize, chunk: &mut [f32]) {
    let h = b.cols;
    let rows = chunk.len() / h;
    let n = a.rows;
    let mut p = 0;
    while p < rows {
        let pe = (p + KC).min(rows);
        let panel = &mut chunk[p * h..pe * h];
        let ks = k0 + p;
        let mut i = 0;
        while i + MR <= n {
            let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
            let (b0, b1, b2, b3) = (b.row(i), b.row(i + 1), b.row(i + 2), b.row(i + 3));
            for (t, out_row) in panel.chunks_mut(h).enumerate() {
                let k = ks + t;
                axpy4_seq(out_row, a0[k], b0, a1[k], b1, a2[k], b2, a3[k], b3);
            }
            i += MR;
        }
        while i < n {
            let ar = a.row(i);
            let br = b.row(i);
            for (t, out_row) in panel.chunks_mut(h).enumerate() {
                axpy(out_row, ar[ks + t], br);
            }
            i += 1;
        }
        p = pe;
    }
}

/// Four sequential rank-1 contributions into one output row, in argument
/// order — `out[j]` receives `a0·b0[j]`, then `a1·b1[j]`, … as four
/// separate additions, never a reassociated sum.
#[allow(clippy::too_many_arguments)]
#[inline]
fn axpy4_seq(
    out: &mut [f32],
    a0: f32,
    b0: &[f32],
    a1: f32,
    b1: &[f32],
    a2: f32,
    b2: &[f32],
    a3: f32,
    b3: &[f32],
) {
    // Sparse tiles (one-hot feature columns) are usually all zero: strip
    // the sign bits and skip the whole tile with one test. Bit-exact for
    // the same reason the per-value skips below are.
    if (a0.to_bits() | a1.to_bits() | a2.to_bits() | a3.to_bits()) << 1 == 0 {
        return;
    }
    if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
        let n = out.len();
        let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
        for j in 0..n {
            let mut v = out[j];
            v += a0 * b0[j];
            v += a1 * b1[j];
            v += a2 * b2[j];
            v += a3 * b3[j];
            out[j] = v;
        }
    } else {
        axpy(out, a0, b0);
        axpy(out, a1, b1);
        axpy(out, a2, b2);
        axpy(out, a3, b3);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ------------------------------------------------------------------
    // Differential oracles: the pre-rewrite scalar kernels, kept verbatim.
    // The blocked kernels promise *exact* (bitwise) equality with these —
    // their accumulation order per output element is identical, so no ULP
    // bound is needed anywhere in this suite.
    // ------------------------------------------------------------------

    /// The scalar `i k j` kernel this crate shipped before the blocked
    /// rewrite (including the zero-`a` skip).
    #[allow(clippy::needless_range_loop)] // kept verbatim as the oracle
    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows);
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                for j in 0..b.cols {
                    out.data[i * b.cols + j] += av * brow[j];
                }
            }
        }
        out
    }

    /// The scalar rank-1-update `transpose_matmul` (ascending input rows).
    fn oracle_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows);
        let mut out = Matrix::zeros(a.cols, b.cols);
        for i in 0..a.rows {
            let brow = b.row(i);
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.data[k * b.cols..(k + 1) * b.cols].iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn oracle_transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, a.rows);
        for r in 0..a.rows {
            for c in 0..a.cols {
                out.data[c * a.rows + r] = a.data[r * a.cols + c];
            }
        }
        out
    }

    /// Deterministic awkward test values: small integers with exact zeros
    /// and a sprinkling of negative zeros, so the suite would catch a
    /// kernel that mishandles the zero-skip's sign semantics.
    fn probe(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17 + salt * 7) % 7) as f32 - 3.0;
            if (r + c + salt).is_multiple_of(11) {
                -0.0
            } else {
                v
            }
        })
    }

    /// `[left ‖ right] · b` through the fused kernel.
    fn matmul_concat(left: &Matrix, right: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        matmul_impl(left, Some(right), b, &mut out);
        out
    }

    /// `[left ‖ right]ᵀ · g` through the fused kernel.
    fn transpose_matmul_concat(left: &Matrix, right: &Matrix, g: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        transpose_matmul_impl(left, Some(right), g, &mut out);
        out
    }

    /// Bitwise equality — `==` on floats would treat `-0.0` and `0.0` as
    /// equal and hide sign regressions.
    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what}");
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} {g:?} vs {w:?}"
            );
        }
    }

    /// Shapes chosen to straddle every blocking boundary: degenerate rows
    /// and columns, 1×N and N×1, primes, and dims around the MR=4 tile.
    const DIMS: [usize; 8] = [0, 1, 2, 3, 5, 8, 13, 31];

    #[test]
    fn blocked_kernels_match_scalar_oracles_bitwise() {
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let a = probe(m, k, 1);
                    let b = probe(k, n, 2);
                    assert_bits_eq(
                        &a.matmul(&b),
                        &oracle_matmul(&a, &b),
                        &format!("matmul {m}x{k}x{n}"),
                    );
                    let c = probe(m, n, 3);
                    assert_bits_eq(
                        &a.transpose_matmul(&c),
                        &oracle_transpose_matmul(&a, &c),
                        &format!("transpose_matmul {m}x{k}x{n}"),
                    );
                    let d = probe(n, k, 4);
                    assert_bits_eq(
                        &a.matmul(&d.transpose()),
                        &oracle_matmul(&a, &oracle_transpose(&d)),
                        &format!("matmul by a transpose {m}x{k}x{n}"),
                    );
                }
            }
        }
    }

    /// Inner dims straddling the k-panel size, so at least one panel
    /// boundary falls strictly inside the accumulation.
    #[test]
    fn kernels_are_bitwise_stable_across_k_panel_boundaries() {
        let kc = KC;
        for k in [kc - 1, kc, kc + 1, 2 * kc + 3] {
            let a = probe(5, k, 5);
            let b = probe(k, 9, 6);
            assert_bits_eq(&a.matmul(&b), &oracle_matmul(&a, &b), &format!("k={k}"));
            let big = probe(k, 5, 7);
            let c = probe(k, 9, 8);
            assert_bits_eq(
                &big.transpose_matmul(&c),
                &oracle_transpose_matmul(&big, &c),
                &format!("tmm rows={k}"),
            );
        }
    }

    /// The fused concat kernels are bitwise equal to materialising the
    /// concatenation first — including degenerate halves.
    #[test]
    fn fused_concat_kernels_match_unfused_bitwise() {
        for &m in &DIMS {
            for &dl in &[0usize, 1, 3, 8, 13] {
                for &dr in &[0usize, 1, 2, 5, 31] {
                    let left = probe(m, dl, 9);
                    let right = probe(m, dr, 10);
                    let z = left.hconcat(&right);
                    let w = probe(dl + dr, 7, 11);
                    assert_bits_eq(
                        &matmul_concat(&left, &right, &w),
                        &z.matmul(&w),
                        &format!("matmul_concat {m}x[{dl}|{dr}]"),
                    );
                    let g = probe(m, 7, 12);
                    assert_bits_eq(
                        &transpose_matmul_concat(&left, &right, &g),
                        &z.transpose_matmul(&g),
                        &format!("transpose_matmul_concat {m}x[{dl}|{dr}]"),
                    );
                }
            }
        }
    }

    /// Kernels writing into a reused matrix overwrite all of it: stale
    /// values, negative zeros and NaNs included, never reach the result,
    /// and a buffer that is already large enough keeps its allocation.
    #[test]
    fn reused_outputs_match_fresh_ones_bitwise() {
        let mut out = Matrix::from_fn(
            40,
            40,
            |r, c| {
                if (r + c) % 2 == 0 {
                    -0.0
                } else {
                    f32::NAN
                }
            },
        );
        let ptr = out.data().as_ptr();
        for &(m, dl, dr, h) in &[
            (5usize, 3usize, 4usize, 7usize),
            (13, 0, 8, 2),
            (8, 6, 0, 31),
        ] {
            let left = probe(m, dl, 22);
            let right = probe(m, dr, 23);
            let z = left.hconcat(&right);
            let w = probe(dl + dr, h, 24);
            matmul_impl(&left, Some(&right), &w, &mut out);
            assert_bits_eq(&out, &z.matmul(&w), &format!("matmul {m}x[{dl}|{dr}]"));
            let g = probe(m, h, 25);
            transpose_matmul_impl(&left, Some(&right), &g, &mut out);
            assert_bits_eq(
                &out,
                &z.transpose_matmul(&g),
                &format!("transpose_matmul {m}x[{dl}|{dr}]"),
            );
            assert_eq!(out.data().as_ptr(), ptr, "the buffer was reallocated");
        }
    }

    /// Row-chunked execution (what each worker thread runs) is bitwise
    /// identical to the single-chunk call for any chunk boundary — the
    /// property the thread fan-out relies on, tested directly so it holds
    /// even on single-core machines where the fan-out never engages.
    #[test]
    fn chunked_execution_matches_serial_at_any_boundary() {
        let a = probe(23, 37, 13);
        let b = probe(37, 19, 14);
        let whole = a.matmul(&b);
        for chunk_rows in [1usize, 2, 3, 5, 8, 23] {
            let mut out = Matrix::zeros(23, 19);
            let cols = 19;
            for (c, chunk) in out.data.chunks_mut(chunk_rows * cols).enumerate() {
                matmul_chunk(&a, None, &b, c * chunk_rows, chunk);
            }
            assert_bits_eq(&out, &whole, &format!("matmul chunks of {chunk_rows}"));
        }
        let g = probe(23, 19, 15);
        let tm_whole = a.transpose_matmul(&g);
        for chunk_rows in [1usize, 2, 4, 7, 37] {
            let mut out = Matrix::zeros(37, 19);
            let cols = 19;
            for (c, chunk) in out.data.chunks_mut(chunk_rows * cols).enumerate() {
                tmm_chunk(&a, &g, c * chunk_rows, chunk);
            }
            assert_bits_eq(&out, &tm_whole, &format!("tmm chunks of {chunk_rows}"));
        }
    }

    /// Regression coverage for 0-row/0-col shapes across every op (the old
    /// `parallel_rows` helper panicked on zero-width outputs).
    #[test]
    fn zero_dimension_shapes_are_handled_everywhere() {
        let empty_rows = Matrix::from_fn(0, 3, |_, _| unreachable!());
        let empty_cols = Matrix::from_fn(3, 0, |_, _| unreachable!());
        assert_eq!(empty_rows.data().len(), 0);
        assert_eq!(empty_cols.data().len(), 0);

        // n×0 · 0×h, 0×d · d×h, n×d · d×0.
        let out = empty_cols.matmul(&Matrix::zeros(0, 4));
        assert_eq!((out.rows(), out.cols()), (3, 4));
        assert!(out.data().iter().all(|&v| v == 0.0));
        let out = empty_rows.matmul(&Matrix::zeros(3, 4));
        assert_eq!((out.rows(), out.cols()), (0, 4));
        let a = probe(3, 4, 16);
        let out = a.matmul(&Matrix::zeros(4, 0));
        assert_eq!((out.rows(), out.cols()), (3, 0));

        // Transpose-variants on the same degenerate shapes.
        assert_eq!(empty_cols.transpose_matmul(&a).rows(), 0);
        assert_eq!(empty_rows.transpose_matmul(&Matrix::zeros(0, 2)).rows(), 3);
        assert_eq!(a.matmul(&Matrix::zeros(0, 4).transpose()).cols(), 0);

        // Concats, splits, transpose, reductions.
        let cat = empty_cols.hconcat(&probe(3, 2, 17));
        assert_eq!((cat.rows(), cat.cols()), (3, 2));
        let (l, r) = cat.hsplit(0);
        assert_eq!((l.cols(), r.cols()), (0, 2));
        assert_eq!(empty_rows.transpose().cols(), 0);
        assert_eq!(empty_cols.transpose().rows(), 0);
        let mut e = Matrix::zeros(0, 5);
        e.add_assign(&Matrix::zeros(0, 5));
        e.scale(2.0);
        assert_eq!(e.argmax_rows().len(), 0);
        assert_eq!(empty_rows.argmax_rows().len(), 0);

        // Fused kernels with one empty half.
        let left = probe(3, 0, 18);
        let right = probe(3, 4, 19);
        let w = probe(4, 2, 20);
        assert_bits_eq(
            &matmul_concat(&left, &right, &w),
            &right.matmul(&w),
            "empty left half",
        );
        assert_bits_eq(
            &matmul_concat(&right, &left, &probe(4, 2, 20)),
            &right.matmul(&w),
            "empty right half",
        );
    }

    /// `from_fn` visits elements in row-major order exactly once.
    #[test]
    fn from_fn_is_single_pass_row_major() {
        let mut calls = Vec::new();
        let m = Matrix::from_fn(2, 3, |r, c| {
            calls.push((r, c));
            (r * 3 + c) as f32
        });
        assert_eq!(calls, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_rows_takes_a_row_slice() {
        let a = probe(5, 3, 21);
        let t = a.transpose_rows(1, 4);
        assert_eq!((t.rows(), t.cols()), (3, 3));
        for r in 1..4 {
            for c in 0..3 {
                assert_eq!(t[(c, r - 1)].to_bits(), a[(r, c)].to_bits());
            }
        }
        assert_bits_eq(&a.transpose_rows(0, 5), &oracle_transpose(&a), "full");
        assert_eq!(a.transpose_rows(2, 2).cols(), 0);
    }

    // ------------------------------------------------------------------
    // Pre-existing behaviour tests.
    // ------------------------------------------------------------------

    #[test]
    fn matmul_small_known_answer() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 0.5, -1.0, 2.0]);
        let at_b = a.transpose_matmul(&b);
        // aᵀ is 3x2; aᵀ·b is 3x2.
        let at = Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at_b.data(), at.matmul(&b).data());
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 3, vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let cat = a.hconcat(&b);
        assert_eq!(cat.cols(), 5);
        assert_eq!(cat.row(1), &[3.0, 4.0, 8.0, 9.0, 10.0]);
        let (l, r) = cat.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn argmax_rows_uses_total_order() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 2.0, -1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
    }

    /// Matrices big enough to take the threaded path agree with a naive
    /// triple loop (and are therefore identical to the serial kernel).
    #[test]
    fn parallel_matmul_matches_naive() {
        let n = 80;
        let d = 96;
        let h = 70;
        let a = Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(d, h, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let got = a.matmul(&b);
        let mut naive = Matrix::zeros(n, h);
        for i in 0..n {
            for k in 0..d {
                for j in 0..h {
                    naive[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        assert_eq!(got.data(), naive.data());

        // And the transpose variants on the same operands.
        let tm = a.transpose_matmul(&got);
        let mut naive_tm = Matrix::zeros(d, h);
        for i in 0..n {
            for k in 0..d {
                for j in 0..h {
                    naive_tm[(k, j)] += a[(i, k)] * got[(i, j)];
                }
            }
        }
        // transpose_matmul accumulates ascending input rows per element,
        // which matches this accumulation order per output row.
        assert_eq!(tm.data(), naive_tm.data());

        let mt = got.matmul(&got.transpose());
        assert_eq!((mt.rows(), mt.cols()), (n, n));
        // Gram matrix: entry (i, j) is the dot product of rows i and j.
        let dot = |i: usize, j: usize| -> f32 {
            got.row(i).iter().zip(got.row(j)).map(|(a, b)| a * b).sum()
        };
        assert_eq!(mt[(0, 0)], dot(0, 0));
        assert_eq!(mt[(3, 41)], dot(3, 41));
        assert_eq!(mt[(n - 1, n - 1)], dot(n - 1, n - 1));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        a.matmul(&b);
    }
}
