//! The tree of six stage classifiers (paper Fig. 5).

use crate::checkpoint::{CheckpointDir, CheckpointError, TrainIdentity};
use crate::config::Config;
use crate::dataset::{plan_stage_samples, stage_dataset, Dataset};
use crate::shards::{ShardError, ShardSamples, ShardSet};
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::VucEmbedder;
use cati_nn::{argmax, Adam, Rows, Tensor, TextCnn, TextCnnConfig, TrainHook};
use cati_obs::{Event, Level, Observer, SpanGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// RNG stream seed for one stage's data sampling and batch schedule:
/// the master seed mixed with a stage-specific odd multiplier
/// (SplitMix64's golden-ratio constant), keeping the streams distinct
/// from each other and from the `seed ^ stage` model-init seeds.
fn stage_seed(seed: u64, stage: StageId) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stage as u64 + 1)
}

/// Adapts the [`cati_nn::TrainHook`] batch/epoch callbacks of one
/// stage's training loop to typed [`Observer`] events. Gradient norms
/// are only requested (and thus computed) when the observer asks for
/// batch statistics.
struct EpochHook<'a> {
    obs: &'a dyn Observer,
    stage: &'a str,
    epoch: usize,
}

impl TrainHook for EpochHook<'_> {
    fn wants_grad_norm(&self) -> bool {
        self.obs.wants_batch_stats()
    }

    fn on_batch(&mut self, batch: usize, _mean_loss: f32, grad_norm: Option<f32>) {
        if let Some(norm) = grad_norm {
            self.obs.event(&Event::GradNorm {
                stage: self.stage,
                batch,
                norm: norm as f64,
            });
        }
    }

    fn on_epoch(&mut self, mean_loss: f32) {
        self.obs.event(&Event::EpochLoss {
            stage: self.stage,
            epoch: self.epoch,
            loss: mean_loss as f64,
        });
    }
}

/// A typed failure of the out-of-core (streamed) training path.
#[derive(Debug)]
pub enum StreamError {
    /// The shard layer failed (I/O, truncation, corruption, …).
    Shard(ShardError),
    /// The checkpoint layer failed (I/O, corruption, identity
    /// mismatch).
    Checkpoint(CheckpointError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Shard(e) => e.fmt(f),
            StreamError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ShardError> for StreamError {
    fn from(e: ShardError) -> StreamError {
        StreamError::Shard(e)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        StreamError::Checkpoint(e)
    }
}

/// Knobs of the streamed training loop beyond the [`Config`]. The
/// defaults run start-to-finish like the in-memory path; tests and the
/// CLI use the extra fields to pause at epoch boundaries or widen the
/// kill window without mutating process environment.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Resume from the checkpoint directory's saved state instead of
    /// starting fresh (fresh is assumed when no checkpoint exists).
    pub resume: bool,
    /// Stop (checkpointed) after this many total epochs per stage,
    /// before the configured epoch count — the in-process way to cut a
    /// run at an exact epoch boundary.
    pub stop_after_epoch: Option<usize>,
    /// Sleep this long after each epoch's checkpoint lands — widens
    /// the window a kill-mid-epoch test aims for.
    pub epoch_sleep_ms: u64,
}

/// The six trained stage models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStage {
    models: Vec<(StageId, TextCnn)>,
}

impl MultiStage {
    /// Trains all six stages on `dataset` using `embedder` features.
    /// `obs` receives one `train.stages` span around the whole stage
    /// phase, one `train.<stage>` span and per-epoch
    /// [`Event::EpochLoss`] events per stage as workers emit them,
    /// plus one summary [`Event::Message`] per stage (in stage order,
    /// after training finishes).
    ///
    /// Each stage derives its own RNG from `(seed, stage)`, so its
    /// data sampling and batch schedule never depend on how much
    /// randomness earlier stages consumed. That independence is what
    /// lets the six stages train concurrently — one worker per stage
    /// — while staying bit-identical to sequential training and to
    /// any other thread count. Observers only read the computation,
    /// so the trained models are identical whatever observer is
    /// installed.
    pub fn train(
        dataset: &Dataset,
        embedder: &VucEmbedder,
        config: &Config,
        obs: &dyn Observer,
    ) -> MultiStage {
        let stages_span = SpanGuard::enter(obs, "train.stages");
        let trained: Vec<(StageId, TextCnn, String)> = StageId::ALL
            .par_iter()
            .with_max_len(1)
            .map(|&stage| {
                let t0 = Instant::now();
                let stage_name = stage.to_string();
                let mut rng = StdRng::seed_from_u64(stage_seed(config.seed, stage));
                let data = stage_dataset(
                    dataset,
                    embedder,
                    stage,
                    config.max_stage_samples,
                    config.oversample_floor,
                    &mut rng,
                    obs,
                );
                obs.event(&Event::Counter {
                    name: "train.samples",
                    delta: data.len() as u64,
                });
                let cnn_cfg = TextCnnConfig {
                    seq_len: cati_analysis::VUC_LEN,
                    embed_dim: embedder.embed_dim(),
                    conv1: config.conv1,
                    conv2: config.conv2,
                    fc: config.fc,
                    classes: stage.num_classes(),
                };
                let mut model = TextCnn::new(cnn_cfg, config.seed ^ stage as u64);
                let mut opt = Adam::new(config.lr);
                let mut last_loss = f32::NAN;
                let mut hook = EpochHook {
                    obs,
                    stage: &stage_name,
                    epoch: 0,
                };
                for epoch in 0..config.epochs {
                    hook.epoch = epoch;
                    last_loss = model.train_epoch_hooked(
                        &data,
                        &mut opt,
                        config.batch,
                        &mut rng,
                        &mut hook,
                    );
                }
                // Fixed span path regardless of which thread trained
                // the stage (workers have their own span stacks).
                obs.event(&Event::SpanClose {
                    path: &format!("train.{stage_name}"),
                    nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    // Synthetic span, not guard-managed: no
                    // allocation attribution.
                    alloc_bytes: 0,
                    alloc_count: 0,
                });
                let line = format!("{stage}: {} samples, final loss {last_loss:.4}", data.len());
                (stage, model, line)
            })
            .collect();
        drop(stages_span);
        let mut models = Vec::with_capacity(trained.len());
        for (stage, model, line) in trained {
            obs.event(&Event::Message {
                level: Level::Info,
                text: &line,
            });
            models.push((stage, model));
        }
        MultiStage { models }
    }

    /// [`MultiStage::train`] out-of-core: the same six concurrent
    /// stage workers and telemetry spans, but samples live in an
    /// on-disk [`ShardSet`] and every epoch ends with an atomic
    /// per-stage checkpoint in `ckpt`.
    ///
    /// Bit-for-bit parity with the in-memory path holds by
    /// construction: each stage derives the identical RNG, filters the
    /// shard label bytes into the identical stage-label sequence the
    /// in-memory pool would produce, runs the *same*
    /// `plan_stage_samples` planner over it (RNG consumption depends
    /// only on lengths and label multiplicities), and feeds the shard
    /// rows through the same [`cati_nn::SampleSource`] trainer — the
    /// shuffle, minibatch sharding, and reduction order never see
    /// where the floats live.
    ///
    /// With `opts.resume`, stages restart from their saved epoch with
    /// model, optimizer, and RNG restored bitwise (the plan is
    /// replayed deterministically first), so a resumed run finishes
    /// byte-identical to an uninterrupted one. Returns `Ok(None)` when
    /// `opts.stop_after_epoch` paused the run before the configured
    /// epoch count — every completed epoch is checkpointed either way.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`StreamError`] on checkpoint I/O failure,
    /// corruption, or a checkpoint that belongs to a different run
    /// (`identity` mismatch).
    pub fn train_streamed(
        shards: &ShardSet,
        config: &Config,
        ckpt: &CheckpointDir,
        identity: &TrainIdentity,
        opts: StreamOptions,
        obs: &dyn Observer,
    ) -> Result<Option<MultiStage>, StreamError> {
        let embed_dim = shards.cols() / cati_analysis::VUC_LEN;
        let stop = opts
            .stop_after_epoch
            .unwrap_or(config.epochs)
            .min(config.epochs);
        let stages_span = SpanGuard::enter(obs, "train.stages");
        let trained: Vec<Result<(StageId, TextCnn, String), StreamError>> = StageId::ALL
            .par_iter()
            .with_max_len(1)
            .map(|&stage| {
                let t0 = Instant::now();
                let stage_name = stage.to_string();
                let mut rng = StdRng::seed_from_u64(stage_seed(config.seed, stage));
                // Pool pass: stage-filter the resident label bytes —
                // exactly the rows the in-memory pool would hold, in
                // the same order. Floats stay on disk.
                let mut pool_rows: Vec<u32> = Vec::new();
                let mut pool_labels: Vec<usize> = Vec::new();
                for (row, &cls) in shards.labels().iter().enumerate() {
                    if let Some(label) = stage.label_of(TypeClass::ALL[cls as usize]) {
                        pool_rows.push(row as u32);
                        pool_labels.push(label);
                    }
                }
                let plan = plan_stage_samples(
                    &pool_labels,
                    stage,
                    config.max_stage_samples,
                    config.oversample_floor,
                    &mut rng,
                    obs,
                );
                let sample_plan: Vec<(u32, u16)> = plan
                    .iter()
                    .map(|i| (pool_rows[i as usize], pool_labels[i as usize] as u16))
                    .collect();
                let data = ShardSamples::new(shards, sample_plan);
                obs.event(&Event::Counter {
                    name: "train.samples",
                    delta: plan.len() as u64,
                });
                let cnn_cfg = TextCnnConfig {
                    seq_len: cati_analysis::VUC_LEN,
                    embed_dim,
                    conv1: config.conv1,
                    conv2: config.conv2,
                    fc: config.fc,
                    classes: stage.num_classes(),
                };
                let mut model = TextCnn::new(cnn_cfg, config.seed ^ stage as u64);
                let mut opt = Adam::new(config.lr);
                let mut start_epoch = 0usize;
                if opts.resume {
                    if let Some(saved) = ckpt.load_stage(stage, cnn_cfg, identity)? {
                        start_epoch = saved.epoch;
                        model = saved.model;
                        opt = saved.opt;
                        rng = saved.rng;
                    }
                }
                let mut last_loss = f32::NAN;
                let mut hook = EpochHook {
                    obs,
                    stage: &stage_name,
                    epoch: 0,
                };
                for epoch in start_epoch..stop {
                    hook.epoch = epoch;
                    last_loss = model.train_epoch_hooked(
                        &data,
                        &mut opt,
                        config.batch,
                        &mut rng,
                        &mut hook,
                    );
                    ckpt.save_stage(stage, epoch + 1, &model, &opt, &rng, identity)?;
                    if opts.epoch_sleep_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(opts.epoch_sleep_ms));
                    }
                }
                obs.event(&Event::SpanClose {
                    path: &format!("train.{stage_name}"),
                    nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    alloc_bytes: 0,
                    alloc_count: 0,
                });
                let line = format!(
                    "{stage}: {} samples (streamed), final loss {last_loss:.4}",
                    plan.len()
                );
                Ok((stage, model, line))
            })
            .collect();
        drop(stages_span);
        let mut models = Vec::with_capacity(trained.len());
        for result in trained {
            let (stage, model, line) = result?;
            obs.event(&Event::Message {
                level: Level::Info,
                text: &line,
            });
            models.push((stage, model));
        }
        if stop < config.epochs {
            return Ok(None);
        }
        Ok(Some(MultiStage { models }))
    }

    /// Reassembles the tree from `(stage, model)` pairs — the binary
    /// model-container loading path. Order is preserved; callers are
    /// expected to supply every stage of [`StageId::ALL`].
    pub fn from_models(models: Vec<(StageId, TextCnn)>) -> MultiStage {
        MultiStage { models }
    }

    /// The `(stage, model)` pairs, in training order.
    pub fn models(&self) -> &[(StageId, TextCnn)] {
        &self.models
    }

    /// The model for one stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is missing (cannot happen for trained
    /// instances).
    pub fn stage(&self, stage: StageId) -> &TextCnn {
        &self
            .models
            .iter()
            .find(|(s, _)| *s == stage)
            .expect("stage trained")
            .1
    }

    /// Per-stage class probabilities for a batch of embedded VUCs
    /// (one batched CNN pass; workspaces shared per worker), one
    /// `stage.num_classes()` row per input row. Inputs are anything
    /// implementing [`Rows`] — the session's flat tensor or a borrowed
    /// row subset.
    pub fn stage_probs_batch<R: Rows + ?Sized>(&self, stage: StageId, xs: &R) -> Tensor {
        self.stage(stage).predict_batch(xs)
    }

    /// Leaf distributions of a whole batch of embedded VUCs: one
    /// batched pass per stage, then the per-sample root-to-leaf
    /// products, as an `n × 19` tensor. The probability of each leaf
    /// is the product of the stage probabilities along its
    /// root-to-leaf path.
    pub fn leaf_distributions_batch<R: Rows + ?Sized>(&self, xs: &R) -> Tensor {
        self.leaf_distributions_observed(xs, &cati_obs::NOOP)
    }

    /// [`MultiStage::leaf_distributions_batch`] with telemetry: bumps
    /// `classify.conv1_columns` by the conv1 input columns of the
    /// batch and `classify.conv1_triples` by the distinct input
    /// windows among them, the conv1 work each stage does. The six
    /// stages share one [`cati_nn::Conv1Index`] (they share
    /// `embed_dim` and `seq_len`). The result is identical for any
    /// observer.
    pub fn leaf_distributions_observed<R: Rows + ?Sized>(
        &self,
        xs: &R,
        obs: &dyn Observer,
    ) -> Tensor {
        let index = self.stage(StageId::Stage1).conv1_index(xs);
        obs.event(&Event::Counter {
            name: "classify.conv1_columns",
            delta: index.columns() as u64,
        });
        obs.event(&Event::Counter {
            name: "classify.conv1_triples",
            delta: index.triples() as u64,
        });
        let per_stage: Vec<Tensor> = StageId::ALL
            .iter()
            .map(|&s| self.stage(s).predict_indexed(&index))
            .collect();
        // Each leaf's path as (position in StageId::ALL, label).
        let paths: Vec<Vec<(usize, usize)>> = TypeClass::ALL
            .iter()
            .map(|&class| {
                StageId::path_of(class)
                    .into_iter()
                    .map(|(stage, label)| {
                        let pos = StageId::ALL.iter().position(|&s| s == stage);
                        (pos.expect("every stage is in StageId::ALL"), label)
                    })
                    .collect()
            })
            .collect();
        let mut out = Tensor::zeros(xs.count(), TypeClass::ALL.len());
        for i in 0..xs.count() {
            for (slot, path) in out.row_mut(i).iter_mut().zip(&paths) {
                *slot = path
                    .iter()
                    .map(|&(stage, label)| per_stage[stage].row(i)[label])
                    .product();
            }
        }
        out
    }

    /// Greedy tree descent: the argmax label at each stage decides the
    /// branch; returns the leaf and the (stage, label, confidence)
    /// path.
    pub fn descend(&self, x: &[f32]) -> (TypeClass, Vec<(StageId, usize, f32)>) {
        let mut stage = StageId::Stage1;
        let mut path = Vec::with_capacity(3);
        loop {
            let probs = self.stage_probs_batch(stage, &[x][..]);
            let label = argmax(probs.row(0));
            path.push((stage, label, probs.row(0)[label]));
            if let Some(leaf) = stage.leaf(label) {
                return (leaf, path);
            }
            stage = stage.next(label).expect("non-leaf label routes onward");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::embedding_sentences;
    use cati_analysis::FeatureView;
    use cati_embedding::{VucEmbedder, Word2Vec};
    use cati_synbin::{build_corpus, CorpusConfig};

    fn trained() -> (MultiStage, VucEmbedder, Dataset) {
        let config = Config::small();
        let corpus = build_corpus(&CorpusConfig::small(13));
        let ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
        let mut rng = StdRng::seed_from_u64(1);
        let sentences = embedding_sentences(&corpus.train, config.max_sentences, &mut rng);
        let embedder = VucEmbedder::new(Word2Vec::train(&sentences, config.w2v));
        let ms = MultiStage::train(&ds, &embedder, &config, &cati_obs::NOOP);
        (ms, embedder, ds)
    }

    #[test]
    fn leaf_distribution_sums_to_one() {
        let (ms, embedder, ds) = trained();
        let ex = &ds.entries[0].1;
        let x = embedder.embed_window(&ex.vucs[0].insns);
        let dists = ms.leaf_distributions_batch(&[&x[..]][..]);
        let dist = dists.row(0);
        assert_eq!(dist.len(), 19);
        let sum: f32 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "leaf distribution sums to {sum}");
        assert!(dist.iter().all(|p| *p >= 0.0));
    }

    /// The shared-index leaf pass equals the product of the per-stage
    /// batched passes along each leaf's path, bit for bit, at any
    /// thread count, and counts its conv1 work.
    #[test]
    fn shared_index_leaf_distributions_match_per_stage_products() {
        let (ms, embedder, ds) = trained();
        // 61 rows: seven full 8-row tiles plus a 5-row tail.
        let xs = Tensor::from_rows(
            ds.entries[0]
                .1
                .vucs
                .iter()
                .cycle()
                .take(61)
                .map(|v| embedder.embed_window(&v.insns)),
        );
        let mut runs = Vec::new();
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let rec = cati_obs::Recorder::new(cati_obs::RecorderConfig::default());
            let (leaf, per_stage) = pool.install(|| {
                (
                    ms.leaf_distributions_observed(&xs, &rec),
                    StageId::ALL.map(|s| ms.stage_probs_batch(s, &xs)),
                )
            });
            let columns = rec.metrics().counter_value("classify.conv1_columns");
            let triples = rec.metrics().counter_value("classify.conv1_triples");
            assert_eq!(columns, (61 * cati_analysis::VUC_LEN) as u64);
            assert!(triples > 0 && triples < columns, "{triples} of {columns}");
            for i in 0..xs.rows() {
                for (&p, &class) in leaf.row(i).iter().zip(TypeClass::ALL.iter()) {
                    let want: f32 = StageId::path_of(class)
                        .into_iter()
                        .map(|(s, label)| per_stage[s as usize].row(i)[label])
                        .product();
                    assert_eq!(p.to_bits(), want.to_bits(), "row {i} {class:?}");
                }
            }
            runs.push(leaf);
        }
        assert_eq!(runs[0], runs[1], "thread count changed the leaf pass");
    }

    #[test]
    fn descend_agrees_with_leaf_argmax_often() {
        let (ms, embedder, ds) = trained();
        let mut agree = 0;
        let mut total = 0;
        for (_, ex) in ds.entries.iter().take(3) {
            for vuc in ex.vucs.iter().take(30) {
                let x = embedder.embed_window(&vuc.insns);
                let (leaf, path) = ms.descend(&x);
                assert!(!path.is_empty() && path.len() <= 3);
                let dists = ms.leaf_distributions_batch(&[&x[..]][..]);
                let dist = dists.row(0);
                let argmax = TypeClass::ALL[dist
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap()
                    .0];
                total += 1;
                if argmax == leaf {
                    agree += 1;
                }
            }
        }
        // Greedy descent and global argmax agree in the typical case.
        assert!(agree * 2 > total, "only {agree}/{total} agreement");
    }

    #[test]
    fn stage1_learns_pointerness_signal() {
        let (ms, embedder, ds) = trained();
        // On training data itself, stage 1 should beat a coin flip.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (_, ex) in &ds.entries {
            for vuc in &ex.vucs {
                let Some(class) = vuc.class(&ex.vars) else {
                    continue;
                };
                let truth = usize::from(class.is_pointer());
                let x = embedder.embed_window(&vuc.insns);
                let probs = ms.stage_probs_batch(StageId::Stage1, &[&x[..]][..]);
                let p = probs.row(0);
                let pred = usize::from(p[1] > p[0]);
                correct += usize::from(pred == truth);
                total += 1;
                if total > 400 {
                    break;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.6, "stage1 train accuracy {acc:.2}");
    }
}
