//! Skip-gram Word2Vec with negative sampling (paper §IV-C, Eq. 1).
//!
//! Trained over instruction-token streams (window m = 5, dimension 32
//! at paper scale); the resulting input vectors feed the VUC embedder.

use crate::vocab::Vocab;
use cati_nn::ParamBuf;
use cati_obs::{Event, Observer, SpanGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Word2Vec hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct W2vConfig {
    /// Embedding dimension (paper: 32).
    pub dim: usize,
    /// Maximum context distance m (paper: 5).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1/10th).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl W2vConfig {
    /// Paper-scale configuration.
    pub fn paper() -> W2vConfig {
        W2vConfig {
            dim: 32,
            window: 5,
            negatives: 5,
            epochs: 3,
            lr: 0.025,
            seed: 17,
        }
    }

    /// Small configuration for tests.
    pub fn tiny() -> W2vConfig {
        W2vConfig {
            dim: 8,
            window: 3,
            negatives: 3,
            epochs: 5,
            lr: 0.05,
            seed: 17,
        }
    }
}

/// A trained skip-gram model: input (word) and output (context)
/// embedding matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Word2Vec {
    /// The vocabulary the model was trained over.
    pub vocab: Vocab,
    /// Configuration used for training.
    pub cfg: W2vConfig,
    /// Input embeddings, `[vocab][dim]`; a [`ParamBuf`] so a model
    /// loaded from a CATI1 v2 container reads them zero-copy out of
    /// the mapped file.
    input: ParamBuf,
    /// Output embeddings, `[vocab][dim]`.
    output: ParamBuf,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Word2Vec {
    /// Trains a model over `sentences` (token streams).
    pub fn train(sentences: &[Vec<String>], cfg: W2vConfig) -> Word2Vec {
        Word2Vec::train_observed(sentences, cfg, &cati_obs::NOOP)
    }

    /// [`Word2Vec::train`] with telemetry: per-epoch spans plus
    /// corpus-size counters and a vocabulary gauge. The trained model
    /// is bit-identical to the unobserved path for any observer.
    pub fn train_observed(
        sentences: &[Vec<String>],
        cfg: W2vConfig,
        obs: &dyn Observer,
    ) -> Word2Vec {
        let vocab = Vocab::build(sentences, 1);
        obs.event(&Event::Counter {
            name: "embed.sentences",
            delta: sentences.len() as u64,
        });
        obs.event(&Event::Counter {
            name: "embed.tokens",
            delta: sentences.iter().map(Vec::len).sum::<usize>() as u64,
        });
        obs.event(&Event::Gauge {
            name: "embed.vocab_size",
            value: vocab.len() as f64,
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = vocab.len().max(1);
        let mut input: Vec<f32> = (0..n * cfg.dim)
            .map(|_| rng.gen_range(-0.5..0.5) / cfg.dim as f32)
            .collect();
        let mut output = vec![0.0f32; n * cfg.dim];
        let table = vocab.unigram_table(100_000.min(n * 512).max(16));
        let encoded: Vec<Vec<u32>> = sentences.iter().map(|s| vocab.encode(s)).collect();
        let total_steps: usize = encoded.iter().map(Vec::len).sum::<usize>().max(1) * cfg.epochs;
        let mut step = 0usize;
        let mut grad = vec![0.0f32; cfg.dim];

        for epoch in 0..cfg.epochs {
            let _epoch_span = SpanGuard::enter(obs, &format!("epoch{epoch}"));
            for sentence in &encoded {
                for (pos, &center) in sentence.iter().enumerate() {
                    step += 1;
                    let lr = cfg.lr * (1.0 - 0.9 * step as f32 / total_steps as f32).max(0.1);
                    // Dynamic window, as in the reference implementation.
                    let b = rng.gen_range(0..cfg.window.max(1));
                    let lo = pos.saturating_sub(cfg.window - b);
                    let hi = (pos + cfg.window - b + 1).min(sentence.len());
                    for (ctx_pos, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        let ci = center as usize * cfg.dim;
                        grad.fill(0.0);
                        // One positive + k negative updates.
                        for neg in 0..=cfg.negatives {
                            let (target, label) = if neg == 0 {
                                (context, 1.0f32)
                            } else {
                                (table[rng.gen_range(0..table.len())], 0.0)
                            };
                            if label == 0.0 && target == context {
                                continue;
                            }
                            let ti = target as usize * cfg.dim;
                            let dot: f32 =
                                (0..cfg.dim).map(|d| input[ci + d] * output[ti + d]).sum();
                            let g = (label - sigmoid(dot)) * lr;
                            for d in 0..cfg.dim {
                                grad[d] += g * output[ti + d];
                                output[ti + d] += g * input[ci + d];
                            }
                        }
                        for d in 0..cfg.dim {
                            input[ci + d] += grad[d];
                        }
                    }
                }
            }
        }
        Word2Vec {
            vocab,
            cfg,
            input: input.into(),
            output: output.into(),
        }
    }

    /// Reassembles a model from its parts — the binary model-container
    /// loading path. The matrices are flat `[vocab][dim]` row-major,
    /// exactly as [`Word2Vec::input_matrix`]/[`Word2Vec::output_matrix`]
    /// return them; mmap-backed [`ParamBuf`]s are installed without a
    /// copy (the zero-copy CATI1 v2 path).
    ///
    /// # Errors
    ///
    /// Fails when either matrix's length disagrees with
    /// `vocab.len().max(1) * cfg.dim`.
    pub fn from_parts(
        vocab: Vocab,
        cfg: W2vConfig,
        input: impl Into<ParamBuf>,
        output: impl Into<ParamBuf>,
    ) -> Result<Word2Vec, String> {
        let (input, output) = (input.into(), output.into());
        let want = vocab.len().max(1) * cfg.dim;
        if input.len() != want || output.len() != want {
            return Err(format!(
                "w2v matrices need {want} floats for {} tokens × {} dims, got input {} / output {}",
                vocab.len(),
                cfg.dim,
                input.len(),
                output.len()
            ));
        }
        Ok(Word2Vec {
            vocab,
            cfg,
            input,
            output,
        })
    }

    /// The flat `[vocab][dim]` input (word) embedding matrix.
    pub fn input_matrix(&self) -> &[f32] {
        &self.input
    }

    /// The flat `[vocab][dim]` output (context) embedding matrix.
    pub fn output_matrix(&self) -> &[f32] {
        &self.output
    }

    /// The input embedding of a token, or `None` if out of vocabulary.
    pub fn vector(&self, token: &str) -> Option<&[f32]> {
        let id = self.vocab.id(token)?;
        let i = id as usize * self.cfg.dim;
        Some(&self.input[i..i + self.cfg.dim])
    }

    /// How many of the two embedding matrices currently read straight
    /// out of a memory-mapped container (diagnostics for the
    /// zero-copy load tests).
    pub fn mapped_param_count(&self) -> usize {
        usize::from(self.input.is_mapped()) + usize::from(self.output.is_mapped())
    }

    /// Cosine similarity between two tokens (0 for OOV).
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        let (Some(va), Some(vb)) = (self.vector(a), self.vector(b)) else {
            return 0.0;
        };
        let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two token "dialects" that never co-occur: within-dialect tokens
    /// should embed closer together than across dialects.
    fn dialect_corpus() -> Vec<Vec<String>> {
        let mut rng = StdRng::seed_from_u64(3);
        let a = ["a0", "a1", "a2", "a3"];
        let b = ["b0", "b1", "b2", "b3"];
        let mut out = Vec::new();
        for i in 0..400 {
            let pool: &[&str] = if i % 2 == 0 { &a } else { &b };
            let sent: Vec<String> = (0..12)
                .map(|_| pool[rng.gen_range(0..pool.len())].to_string())
                .collect();
            out.push(sent);
        }
        out
    }

    #[test]
    fn co_occurring_tokens_embed_closer() {
        let model = Word2Vec::train(&dialect_corpus(), W2vConfig::tiny());
        let within = model.similarity("a0", "a1");
        let across = model.similarity("a0", "b1");
        assert!(
            within > across + 0.2,
            "within-dialect {within:.3} should exceed cross-dialect {across:.3}"
        );
    }

    #[test]
    fn vectors_have_configured_dimension() {
        let model = Word2Vec::train(&dialect_corpus(), W2vConfig::tiny());
        assert_eq!(model.vector("a0").unwrap().len(), 8);
        assert!(model.vector("zzz").is_none());
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = dialect_corpus();
        let m1 = Word2Vec::train(&corpus, W2vConfig::tiny());
        let m2 = Word2Vec::train(&corpus, W2vConfig::tiny());
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_corpus_is_survivable() {
        let model = Word2Vec::train(&[], W2vConfig::tiny());
        assert!(model.vocab.is_empty());
        assert_eq!(model.similarity("x", "y"), 0.0);
    }
}
