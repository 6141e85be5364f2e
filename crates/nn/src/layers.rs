use crate::matrix::{matmul_impl, transpose_matmul_impl, Matrix};
use crate::optim::Adam;
use crate::rng::DetRng;

/// A fully connected layer `y = x·W + b` with explicit backward pass.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
}

/// Gradients produced by [`Linear::backward`] and its siblings; the
/// default is empty, and each call reshapes it.
#[derive(Debug, Clone, Default)]
pub struct LinearGrads {
    /// `∂L/∂W` (same shape as the weights).
    pub w: Matrix,
    /// `∂L/∂b`.
    pub b: Vec<f32>,
}

impl Linear {
    /// Glorot/Xavier-uniform initialised layer mapping `in_dim → out_dim`.
    pub fn glorot(in_dim: usize, out_dim: usize, rng: &mut DetRng) -> Linear {
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        Linear {
            w: Matrix::from_fn(in_dim, out_dim, |_, _| rng.uniform(-limit, limit)),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Total number of trainable parameters (for optimizer state sizing).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Reassembles a layer from its parts (used by model deserialisation).
    ///
    /// # Panics
    ///
    /// Panics if the bias length does not match the weight matrix width.
    pub fn from_parts(w: Matrix, b: Vec<f32>) -> Linear {
        assert_eq!(w.cols(), b.len(), "bias/weight width mismatch");
        Linear { w, b }
    }

    /// Forward pass `x·W + b` into `y`.
    pub fn forward(&self, x: &Matrix, y: &mut Matrix) {
        matmul_impl(x, None, &self.w, y);
        self.add_bias(y);
    }

    /// Fused forward pass `[left ‖ right]·W + b` into `y` without
    /// materialising the concatenated input — bit-identical to
    /// [`Linear::forward`] on `left.hconcat(right)`.
    pub fn forward_concat(&self, left: &Matrix, right: &Matrix, y: &mut Matrix) {
        matmul_impl(left, Some(right), &self.w, y);
        self.add_bias(y);
    }

    fn add_bias(&self, y: &mut Matrix) {
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    /// Parameter gradients into `grads`, given the layer input `x` and
    /// `∂L/∂y` — the [`Linear::backward`] terms without the input
    /// gradient, for a layer whose input is not differentiated (the MLP's
    /// first layer).
    pub fn grads(&self, x: &Matrix, grad_out: &Matrix, grads: &mut LinearGrads) {
        transpose_matmul_impl(x, None, grad_out, &mut grads.w);
        self.bias_grads(grad_out, &mut grads.b);
    }

    /// Parameter gradients of the fused concat forward into `grads` — the
    /// [`Linear::backward_concat`] terms without the input gradients, for
    /// the first GraphSAGE layer, whose raw features are not
    /// differentiated.
    pub fn grads_concat(
        &self,
        left: &Matrix,
        right: &Matrix,
        grad_out: &Matrix,
        grads: &mut LinearGrads,
    ) {
        transpose_matmul_impl(left, Some(right), grad_out, &mut grads.w);
        self.bias_grads(grad_out, &mut grads.b);
    }

    fn bias_grads(&self, grad_out: &Matrix, grad_b: &mut Vec<f32>) {
        grad_b.clear();
        grad_b.resize(self.b.len(), 0.0);
        for r in 0..grad_out.rows() {
            for (gb, g) in grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
    }

    /// Backward pass: given the layer input `x` and `∂L/∂y`, writes
    /// `∂L/∂x` into `grad_x` and the parameter gradients into `grads`.
    ///
    /// `∂L/∂x = ∂L/∂y · Wᵀ` runs through the k-ascending `matmul` kernel
    /// on a transposed copy of the weights: each element is the same dot
    /// product a per-element reduction would sum, but the row-major
    /// kernel vectorises, and the copy is weight-sized.
    pub fn backward(
        &self,
        x: &Matrix,
        grad_out: &Matrix,
        grad_x: &mut Matrix,
        grads: &mut LinearGrads,
    ) {
        self.grads(x, grad_out, grads);
        matmul_impl(grad_out, None, &self.w.transpose(), grad_x);
    }

    /// Backward of the fused concat forward: writes the input gradient of
    /// each half into `grad_left` and `grad_right` and the parameter
    /// gradients into `grads`, bit-identical to running
    /// [`Linear::backward`] on the materialised concatenation and
    /// splitting `∂L/∂x` afterwards.
    pub fn backward_concat(
        &self,
        left: &Matrix,
        right: &Matrix,
        grad_out: &Matrix,
        grad_left: &mut Matrix,
        grad_right: &mut Matrix,
        grads: &mut LinearGrads,
    ) {
        self.grads_concat(left, right, grad_out, grads);
        let dl = left.cols();
        let w_left = self.w.transpose_rows(0, dl);
        matmul_impl(grad_out, None, &w_left, grad_left);
        let w_right = self.w.transpose_rows(dl, self.w.rows());
        matmul_impl(grad_out, None, &w_right, grad_right);
    }

    /// Applies gradients through an optimizer whose state covers
    /// [`Linear::param_count`] parameters (weights first, then bias).
    pub fn apply(&mut self, opt: &mut Adam, grads: &LinearGrads) {
        let nw = self.w.rows() * self.w.cols();
        opt.step_slice(self.w.data_mut(), grads.w.data(), 0);
        opt.step_slice(&mut self.b, &grads.b, nw);
        opt.advance();
    }
}

/// Element-wise ReLU in place: negatives become `+0.0`; `-0.0` and NaN
/// pass through.
pub fn relu(x: &mut Matrix) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward of ReLU in place: zeroes `grad` wherever `x <= 0.0`.
///
/// `x` may be the pre-activation or the [`relu`] output: `relu` only turns
/// negatives into `+0.0`, so both give the same mask, `-0.0` and NaN
/// included.
pub fn relu_backward(x: &Matrix, grad: &mut Matrix) {
    assert_eq!(x.rows(), grad.rows(), "shape mismatch");
    assert_eq!(x.cols(), grad.cols(), "shape mismatch");
    for (gv, &xv) in grad.data_mut().iter_mut().zip(x.data()) {
        if xv <= 0.0 {
            *gv = 0.0;
        }
    }
}

/// Row-wise softmax.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut p = logits.clone();
    softmax_in_place(&mut p);
    p
}

fn softmax_in_place(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Mean softmax cross-entropy over (optionally masked) rows; overwrites
/// `logits` with `∂L/∂logits` and returns the mean loss.
///
/// `labels[r]` is the class index of row `r`; rows where `mask` is `false`
/// contribute neither loss nor gradient (used to skip unlabelled CDFG
/// nodes).
///
/// # Panics
///
/// Panics if no row is active.
pub fn softmax_cross_entropy(logits: &mut Matrix, labels: &[usize], mask: Option<&[bool]>) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    if let Some(m) = mask {
        assert_eq!(m.len(), labels.len(), "one mask bit per row");
    }
    let active = mask.map_or(labels.len(), |m| m.iter().filter(|&&b| b).count());
    assert!(
        active > 0,
        "softmax cross entropy needs at least one active row"
    );
    softmax_in_place(logits);
    let grad = logits;
    let mut loss = 0.0f32;
    for r in 0..grad.rows() {
        let on = mask.is_none_or(|m| m[r]);
        if !on {
            grad.row_mut(r).fill(0.0);
            continue;
        }
        let p = grad[(r, labels[r])].max(1e-12);
        loss -= p.ln();
        grad[(r, labels[r])] -= 1.0;
    }
    let scale = 1.0 / active as f32;
    grad.scale(scale);
    loss * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `layer.forward(x)` into a fresh matrix.
    fn forward(layer: &Linear, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward(x, &mut y);
        y
    }

    fn loss(layer: &Linear, x: &Matrix, labels: &[usize]) -> f32 {
        softmax_cross_entropy(&mut forward(layer, x), labels, None)
    }

    /// `relu` zeroes only negatives, so its output and its input give
    /// `relu_backward` the same mask — for `-0.0` and NaN too.
    #[test]
    fn relu_and_backward() {
        let x = Matrix::from_vec(
            1,
            6,
            vec![-1.0, 0.0, -0.0, f32::NAN, 2.0, f32::NEG_INFINITY],
        );
        let mut y = x.clone();
        relu(&mut y);
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        let want = [0.0, 0.0, -0.0, f32::NAN, 2.0, 0.0].map(f32::to_bits);
        assert_eq!(bits, want);
        for mask in [&x, &y] {
            let mut g = Matrix::from_vec(1, 6, vec![1.0; 6]);
            relu_backward(mask, &mut g);
            assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax_rows(&m);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p[(0, 2)] > p[(0, 1)]);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let mut grad = Matrix::from_vec(2, 2, vec![10.0, -10.0, -10.0, 10.0]);
        let loss = softmax_cross_entropy(&mut grad, &[0, 1], None);
        assert!(loss < 1e-3);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-3));
    }

    #[test]
    fn masked_rows_contribute_nothing() {
        let logits = Matrix::from_vec(2, 2, vec![0.0, 0.0, 5.0, -5.0]);
        let loss_all = softmax_cross_entropy(&mut logits.clone(), &[0, 0], None);
        let mut grad = logits;
        let loss_masked = softmax_cross_entropy(&mut grad, &[0, 0], Some(&[true, false]));
        assert!(loss_masked > 0.0);
        assert_ne!(loss_all, loss_masked);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    /// Numerical gradient check of the full linear + softmax-CE pipeline.
    #[test]
    fn linear_gradients_match_numerical() {
        let mut rng = DetRng::new(7);
        let layer = Linear::glorot(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.uniform(-1.0, 1.0));
        let labels = vec![0usize, 1, 0, 1];

        let mut grad_logits = forward(&layer, &x);
        softmax_cross_entropy(&mut grad_logits, &labels, None);
        let (mut grad_x, mut grads) = (Matrix::default(), LinearGrads::default());
        layer.backward(&x, &grad_logits, &mut grad_x, &mut grads);

        let eps = 1e-3f32;
        // Check a handful of weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let mut lp = layer.clone();
            lp.w[(r, c)] += eps;
            let mut lm = layer.clone();
            lm.w[(r, c)] -= eps;
            let numeric = (loss(&lp, &x, &labels) - loss(&lm, &x, &labels)) / (2.0 * eps);
            let analytic = grads.w[(r, c)];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check an input entry.
        for &(r, c) in &[(0usize, 0usize), (3, 2)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let numeric = (loss(&layer, &xp, &labels) - loss(&layer, &xm, &labels)) / (2.0 * eps);
            let analytic = grad_x[(r, c)];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dX[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient.
        let mut lp = layer.clone();
        lp.b[0] += eps;
        let mut lm = layer.clone();
        lm.b[0] -= eps;
        let numeric = (loss(&lp, &x, &labels) - loss(&lm, &x, &labels)) / (2.0 * eps);
        assert!((numeric - grads.b[0]).abs() < 1e-2);
    }

    /// The fused concat forward/backward is bit-identical to materialising
    /// the concatenation (forward, input gradients via `hsplit`, and
    /// parameter gradients alike), and the parameter-only backwards match
    /// the full ones.
    #[test]
    fn concat_paths_match_materialised_concat_bitwise() {
        let mut rng = DetRng::new(11);
        for &(n, dl, dr, h) in &[(5usize, 3usize, 4usize, 2usize), (1, 1, 7, 3), (8, 6, 1, 5)] {
            let layer = Linear::glorot(dl + dr, h, &mut rng);
            let left = Matrix::from_fn(n, dl, |_, _| rng.uniform(-1.0, 1.0));
            let right = Matrix::from_fn(n, dr, |_, _| rng.uniform(-1.0, 1.0));
            let grad_out = Matrix::from_fn(n, h, |_, _| rng.uniform(-1.0, 1.0));
            let z = left.hconcat(&right);

            let mut fused = Matrix::default();
            layer.forward_concat(&left, &right, &mut fused);
            let unfused = forward(&layer, &z);
            assert_eq!(fused.data(), unfused.data(), "forward {n}x[{dl}|{dr}]");
            for (a, b) in fused.data().iter().zip(unfused.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            let (mut dz, mut grads) = (Matrix::default(), LinearGrads::default());
            layer.backward(&z, &grad_out, &mut dz, &mut grads);
            let (want_l, want_r) = dz.hsplit(dl);
            let (mut got_l, mut got_r) = (Matrix::default(), Matrix::default());
            let mut got_grads = LinearGrads::default();
            layer.backward_concat(
                &left,
                &right,
                &grad_out,
                &mut got_l,
                &mut got_r,
                &mut got_grads,
            );
            for (a, b) in got_l.data().iter().zip(want_l.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "d_left {n}x[{dl}|{dr}]");
            }
            for (a, b) in got_r.data().iter().zip(want_r.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "d_right {n}x[{dl}|{dr}]");
            }
            for (a, b) in got_grads.w.data().iter().zip(grads.w.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dW {n}x[{dl}|{dr}]");
            }
            assert_eq!(got_grads.b, grads.b);

            let mut grads_only = LinearGrads::default();
            layer.grads_concat(&left, &right, &grad_out, &mut grads_only);
            assert_eq!(grads_only.w.data(), got_grads.w.data());
            assert_eq!(grads_only.b, got_grads.b);
            layer.grads(&z, &grad_out, &mut grads_only);
            assert_eq!(grads_only.w.data(), grads.w.data());
            assert_eq!(grads_only.b, grads.b);
        }
    }

    #[test]
    #[should_panic(expected = "at least one active row")]
    fn all_masked_panics() {
        let mut logits = Matrix::zeros(1, 2);
        softmax_cross_entropy(&mut logits, &[0], Some(&[false]));
    }
}
