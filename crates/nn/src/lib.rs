//! Dense numeric kernel shared by the GLAIVE GNN and the baseline MLP:
//! row-major `f32` matrices, a linear layer with manual backpropagation,
//! ReLU, masked softmax cross-entropy, Adam/SGD optimizers and Glorot
//! initialisation. The layer kernels write into caller-owned matrices, so
//! a trainer that keeps its buffers across epochs allocates none of them
//! once they have grown (DESIGN.md §16).
//!
//! [`par`] is the one fan-out of the ML stack: the kernels split their
//! output rows through it, and the GNN trainer and the evaluation's split
//! pool spread their work with it. Its workers are marked, so a kernel
//! called inside one runs serially: only one level spreads at a time.
//!
//! The paper trains a 3-layer GraphSAGE with hidden dimension 128 and a
//! small MLP — models small enough that explicit forward/backward functions
//! (no autograd graph) are the clearest and fastest implementation.
//!
//! # Example
//!
//! ```
//! use glaive_nn::{Matrix, Linear, LinearGrads, Adam, softmax_cross_entropy, DetRng};
//!
//! let mut rng = DetRng::new(1);
//! let mut layer = Linear::glorot(4, 3, &mut rng);
//! let x = Matrix::from_fn(8, 4, |_, _| rng.uniform(-1.0, 1.0));
//! let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut opt = Adam::new(0.05, layer.param_count());
//! // Kernels write into caller-owned buffers, reused across steps.
//! let (mut logits, mut grads) = (Matrix::default(), LinearGrads::default());
//! let mut last = f32::MAX;
//! for _ in 0..50 {
//!     layer.forward(&x, &mut logits);
//!     // Turns the logits into ∂L/∂logits in place.
//!     last = softmax_cross_entropy(&mut logits, &labels, None);
//!     layer.grads(&x, &logits, &mut grads);
//!     layer.apply(&mut opt, &grads);
//! }
//! assert!(last < 1.0, "training reduced the loss, got {last}");
//! ```

mod layers;
mod matrix;
mod optim;
pub mod par;
mod rng;

pub use layers::{relu, relu_backward, softmax_cross_entropy, softmax_rows, Linear, LinearGrads};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use rng::DetRng;
