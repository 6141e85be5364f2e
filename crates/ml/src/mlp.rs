use glaive_nn::{
    relu, relu_backward, softmax_cross_entropy, softmax_rows, Adam, DetRng, Linear, LinearGrads,
    Matrix,
};

/// Hyperparameters for [`MlpClassifier`], defaulting to sklearn's
/// `MLPClassifier` defaults as used by the paper: one hidden layer of 100
/// ReLU units, Adam with lr 1e-3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Full-batch training epochs.
    pub epochs: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 100,
            lr: 1e-3,
            epochs: 200,
            seed: 1,
        }
    }
}

/// The MLP-BIT baseline: a two-layer perceptron classifying bit-level nodes
/// from their features alone, with no graph neighbourhood information.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    l1: Linear,
    l2: Linear,
    config: MlpConfig,
}

/// Rejected classifier shape: a dimension below its minimum legal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfigError {
    /// The offending field.
    pub field: &'static str,
    /// The smallest value the field accepts.
    pub min: usize,
}

impl std::fmt::Display for MlpConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid MLP config: `{}` must be at least {}",
            self.field, self.min
        )
    }
}

impl std::error::Error for MlpConfigError {}

impl MlpClassifier {
    /// Creates a classifier mapping `in_dim` features to `classes` logits.
    ///
    /// # Errors
    ///
    /// [`MlpConfigError`] if `in_dim` or the hidden width is zero, or
    /// `classes` is below two.
    pub fn try_new(
        in_dim: usize,
        classes: usize,
        config: &MlpConfig,
    ) -> Result<MlpClassifier, MlpConfigError> {
        let floors = [
            ("in_dim", in_dim, 1),
            ("classes", classes, 2),
            ("hidden", config.hidden, 1),
        ];
        if let Some(&(field, _, min)) = floors.iter().find(|&&(_, value, min)| value < min) {
            return Err(MlpConfigError { field, min });
        }
        let mut rng = DetRng::new(config.seed);
        Ok(MlpClassifier {
            l1: Linear::glorot(in_dim, config.hidden, &mut rng),
            l2: Linear::glorot(config.hidden, classes, &mut rng),
            config: *config,
        })
    }

    /// The configuration the classifier was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Trains full-batch on `(x, labels)`; rows where `mask` is `false` are
    /// excluded from the loss. Returns the per-epoch losses.
    pub fn train(&mut self, x: &Matrix, labels: &[usize], mask: Option<&[bool]>) -> Vec<f32> {
        assert_eq!(x.rows(), labels.len(), "one label per row");
        let mut opts = self.optimizers();
        let mut ws = Workspace::default();
        (0..self.config.epochs)
            .map(|_| self.epoch(x, labels, mask, &mut opts, &mut ws))
            .collect()
    }

    fn optimizers(&self) -> [Adam; 2] {
        let lr = self.config.lr;
        [
            Adam::new(lr, self.l1.param_count()),
            Adam::new(lr, self.l2.param_count()),
        ]
    }

    /// One full-batch gradient step; returns its loss. Every matrix it
    /// writes lives in `ws`, so from the second epoch on it allocates
    /// none of them.
    fn epoch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        mask: Option<&[bool]>,
        opts: &mut [Adam; 2],
        ws: &mut Workspace,
    ) -> f32 {
        self.l1.forward(x, &mut ws.h1);
        relu(&mut ws.h1);
        self.l2.forward(&ws.h1, &mut ws.logits);
        let loss = softmax_cross_entropy(&mut ws.logits, labels, mask);
        self.l2
            .backward(&ws.h1, &ws.logits, &mut ws.dh1, &mut ws.grads[1]);
        relu_backward(&ws.h1, &mut ws.dh1);
        // The input is not differentiated: layer 1 needs only its
        // parameter gradients.
        self.l1.grads(x, &ws.dh1, &mut ws.grads[0]);
        self.l1.apply(&mut opts[0], &ws.grads[0]);
        self.l2.apply(&mut opts[1], &ws.grads[1]);
        loss
    }

    /// Class probabilities per row.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let (mut h1, mut logits) = (Matrix::default(), Matrix::default());
        self.l1.forward(x, &mut h1);
        relu(&mut h1);
        self.l2.forward(&h1, &mut logits);
        softmax_rows(&logits)
    }

    /// Hard label predictions.
    pub fn predict_labels(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }
}

/// The per-epoch matrices of one [`MlpClassifier::train`] call.
#[derive(Debug, Default)]
struct Workspace {
    /// Layer 1's pre-activation, then, after the in-place ReLU, its
    /// output — which is also the mask of the ReLU backward.
    h1: Matrix,
    /// Layer 2's logits, then `∂L/∂logits`.
    logits: Matrix,
    /// `∂L/∂h1`, then, masked in place, `∂L/∂pre1`.
    dh1: Matrix,
    grads: [LinearGrads; 2],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let centers = [(0.0f32, 0.0f32), (3.0, 3.0), (0.0, 3.0)];
        let mut x = Matrix::zeros(3 * n_per, 2);
        let mut y = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..n_per {
                let r = c * n_per + i;
                x[(r, 0)] = cx + rng.normal() * 0.4;
                x[(r, 1)] = cy + rng.normal() * 0.4;
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn separates_three_blobs() {
        let (x, y) = blobs(30, 5);
        let mut mlp = MlpClassifier::try_new(
            2,
            3,
            &MlpConfig {
                hidden: 32,
                lr: 0.02,
                epochs: 150,
                seed: 2,
            },
        )
        .expect("valid model config");
        let losses = mlp.train(&x, &y, None);
        assert!(losses.last().expect("nonempty") < &0.2);
        let pred = mlp.predict_labels(&x);
        let acc = pred.iter().zip(&y).filter(|(p, l)| p == l).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn generalises_to_fresh_samples() {
        let (xt, yt) = blobs(40, 5);
        let (xv, yv) = blobs(20, 77);
        let mut mlp = MlpClassifier::try_new(
            2,
            3,
            &MlpConfig {
                hidden: 32,
                lr: 0.02,
                epochs: 150,
                seed: 2,
            },
        )
        .expect("valid model config");
        mlp.train(&xt, &yt, None);
        let pred = mlp.predict_labels(&xv);
        let acc = pred.iter().zip(&yv).filter(|(p, l)| p == l).count() as f64 / yv.len() as f64;
        assert!(acc > 0.9, "validation accuracy {acc}");
    }

    #[test]
    fn masked_training_ignores_rows() {
        let (x, mut y) = blobs(20, 9);
        // Corrupt the labels of masked-out rows; training must not care.
        let mask: Vec<bool> = (0..y.len()).map(|i| i % 2 == 0).collect();
        for (i, label) in y.iter_mut().enumerate() {
            if !mask[i] {
                *label = (*label + 1) % 3;
            }
        }
        let mut mlp = MlpClassifier::try_new(
            2,
            3,
            &MlpConfig {
                hidden: 32,
                lr: 0.02,
                epochs: 120,
                seed: 2,
            },
        )
        .expect("valid model config");
        mlp.train(&x, &y, Some(&mask));
        let pred = mlp.predict_labels(&x);
        let correct = pred
            .iter()
            .zip(&y)
            .zip(&mask)
            .filter(|((p, l), &m)| m && p == l)
            .count();
        let total = mask.iter().filter(|&&m| m).count();
        assert!(correct as f64 / total as f64 > 0.9);
    }

    /// From the second epoch on, every workspace matrix keeps its data
    /// pointer: the property that keeps training epochs free of fresh
    /// matrices and their page faults. It fails if a kernel allocates its
    /// output afresh.
    #[test]
    fn warm_epochs_keep_their_buffers() {
        let (x, y) = blobs(40, 3);
        let cfg = MlpConfig {
            hidden: 16,
            lr: 0.01,
            epochs: 6,
            seed: 4,
        };
        let mut mlp = MlpClassifier::try_new(2, 3, &cfg).expect("valid model config");
        let (mut opts, mut ws) = (mlp.optimizers(), Workspace::default());
        let buffers = |ws: &Workspace| {
            let mut mats = vec![&ws.h1, &ws.logits, &ws.dh1];
            mats.extend(ws.grads.iter().map(|g| &g.w));
            let mut b: Vec<(*const f32, usize)> = mats
                .iter()
                .map(|m| (m.data().as_ptr(), m.data().len()))
                .collect();
            b.extend(ws.grads.iter().map(|g| (g.b.as_ptr(), g.b.capacity())));
            b
        };
        let mut warm = None;
        for epoch in 0..cfg.epochs {
            mlp.epoch(&x, &y, None, &mut opts, &mut ws);
            if epoch >= 1 {
                let now = buffers(&ws);
                assert!(now.iter().all(|&(_, len)| len > 0), "{now:?}");
                assert_eq!(
                    *warm.get_or_insert_with(|| now.clone()),
                    now,
                    "epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(10, 1);
        let cfg = MlpConfig {
            hidden: 8,
            lr: 0.01,
            epochs: 20,
            seed: 42,
        };
        let mut a = MlpClassifier::try_new(2, 3, &cfg).expect("valid model config");
        let mut b = MlpClassifier::try_new(2, 3, &cfg).expect("valid model config");
        assert_eq!(a.train(&x, &y, None), b.train(&x, &y, None));
    }
}
