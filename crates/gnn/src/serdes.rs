//! Binary serialisation for trained models, so a GLAIVE model can be
//! trained once and shipped — the deployment mode the paper motivates
//! (train on a benchmark corpus, apply to unseen programs forever).
//!
//! Format: a little-endian stream with a magic/version header, the
//! [`SageConfig`], the input dimension, and each layer's weight matrix and
//! bias. No external serialisation crates; the format is stable across
//! platforms of either endianness (everything goes through `to_le_bytes`).

use std::fmt;

use glaive_nn::{Linear, Matrix};

use crate::model::{GraphSage, SageConfig};

const MAGIC: &[u8; 8] = b"GLAIVE01";

/// Error returned when decoding a serialised model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelDecodeError {
    /// The buffer does not start with the expected magic/version.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A structural invariant failed (e.g. impossible dimensions).
    Corrupt(&'static str),
}

impl fmt::Display for ModelDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelDecodeError::BadMagic => write!(f, "not a GLAIVE model (bad magic)"),
            ModelDecodeError::Truncated => write!(f, "model data truncated"),
            ModelDecodeError::Corrupt(what) => write!(f, "corrupt model: {what}"),
        }
    }
}

impl std::error::Error for ModelDecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelDecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(ModelDecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, ModelDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn usize(&mut self) -> Result<usize, ModelDecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ModelDecodeError::Corrupt("size overflows usize"))
    }

    fn f32(&mut self) -> Result<f32, ModelDecodeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, ModelDecodeError> {
        // Guard against absurd declared lengths before allocating.
        if n > self.buf.len() / 4 + 1 {
            return Err(ModelDecodeError::Truncated);
        }
        (0..n).map(|_| self.f32()).collect()
    }
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

impl GraphSage {
    /// Serialises the trained model (config + weights) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cfg = self.config();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_usize(&mut out, cfg.hidden);
        put_usize(&mut out, cfg.layers);
        put_usize(&mut out, cfg.classes);
        put_usize(&mut out, cfg.sample_size);
        out.extend_from_slice(&cfg.lr.to_le_bytes());
        put_usize(&mut out, cfg.epochs);
        out.extend_from_slice(&cfg.seed.to_le_bytes());
        put_usize(&mut out, self.layer_views().len());
        for layer in self.layer_views() {
            put_usize(&mut out, layer.weights().rows());
            put_usize(&mut out, layer.weights().cols());
            for &v in layer.weights().data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &v in layer.bias() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores a model previously produced by [`GraphSage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelDecodeError`] for truncated, foreign or structurally
    /// inconsistent data.
    pub fn from_bytes(bytes: &[u8]) -> Result<GraphSage, ModelDecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(ModelDecodeError::BadMagic);
        }
        let config = SageConfig {
            hidden: r.usize()?,
            layers: r.usize()?,
            classes: r.usize()?,
            sample_size: r.usize()?,
            lr: r.f32()?,
            epochs: r.usize()?,
            seed: r.u64()?,
        };
        if config.layers == 0 || config.classes < 2 || config.hidden == 0 {
            return Err(ModelDecodeError::Corrupt("invalid configuration"));
        }
        let layer_count = r.usize()?;
        if layer_count != config.layers {
            return Err(ModelDecodeError::Corrupt("layer count mismatch"));
        }
        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            let rows = r.usize()?;
            let cols = r.usize()?;
            if rows == 0 || cols == 0 {
                return Err(ModelDecodeError::Corrupt("empty layer"));
            }
            let w = r.f32_vec(rows * cols)?;
            let b = r.f32_vec(cols)?;
            layers.push(Linear::from_parts(Matrix::from_vec(rows, cols, w), b));
        }
        GraphSage::from_parts(layers, config)
            .ok_or(ModelDecodeError::Corrupt("layer dimensions do not chain"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainGraph;
    use glaive_graph::CsrGraph;
    use glaive_nn::DetRng;

    fn trained_model() -> (GraphSage, Matrix, CsrGraph) {
        let mut rng = DetRng::new(3);
        let n = 20;
        let feats = Matrix::from_fn(n, 4, |_, _| rng.uniform(-1.0, 1.0));
        let preds = CsrGraph::from_edges(n, (1..n as u32).map(|v| (v, v - 1)));
        let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
        let mask = vec![true; n];
        let config = SageConfig {
            hidden: 8,
            layers: 2,
            classes: 3,
            sample_size: 5,
            lr: 0.01,
            epochs: 10,
            seed: 9,
        };
        let mut model = GraphSage::try_new(4, &config).expect("valid model config");
        model.train(&[TrainGraph {
            features: &feats,
            graph: &preds,
            labels: &labels,
            mask: &mask,
        }]);
        (model, feats, preds)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (model, feats, preds) = trained_model();
        let bytes = model.to_bytes();
        let restored = GraphSage::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.config(), model.config());
        assert_eq!(
            restored.predict_proba(&feats, &preds).data(),
            model.predict_proba(&feats, &preds).data()
        );
    }

    #[test]
    fn rejects_foreign_data() {
        assert!(matches!(
            GraphSage::from_bytes(b"not a m"),
            Err(ModelDecodeError::Truncated)
        ));
        assert!(matches!(
            GraphSage::from_bytes(b"WRONGMAGICxxxxxxxxxxxxxxxxxxx"),
            Err(ModelDecodeError::BadMagic)
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let (model, _, _) = trained_model();
        let bytes = model.to_bytes();
        for cut in [8usize, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                GraphSage::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_tampered_layer_counts() {
        let (model, _, _) = trained_model();
        let mut bytes = model.to_bytes();
        // The layer-count field sits after magic + 6 config fields.
        let pos = 8 + 8 * 7;
        bytes[pos] = bytes[pos].wrapping_add(1);
        assert!(matches!(
            GraphSage::from_bytes(&bytes),
            Err(ModelDecodeError::Corrupt(_)) | Err(ModelDecodeError::Truncated)
        ));
    }
}
