//! Every call the harness makes into the CATI libraries' public API.
//!
//! The rest of the harness sees only the functions below, so a
//! refactor of the library entry points changes this file and nothing
//! else in the benchmark.

use cati::dataset::{embed_extraction, embedding_sentences, stage_dataset, Dataset, Sample};
use cati::pipeline::InferredVar;
use cati::shards::{write_dataset_shards, ShardSet};
use cati::{ArtifactCache, Cati, Tensor};
use cati_analysis::{extract_mode, Extraction, FeatureView};
use cati_asm::binary::Binary;
use cati_dwarf::StageId;
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, BuiltBinary, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// A loaded model (`Cati::load`).
pub fn load_model(path: &Path) -> Result<Cati, String> {
    Cati::load(path).map_err(|e| format!("load {}: {e}", path.display()))
}

/// Decodes one `/infer` body, which is also the `cati infer` file format.
pub fn parse_body(bytes: &[u8]) -> Result<Binary, String> {
    serde_json::from_slice(bytes).map_err(|e| format!("parse body: {e}"))
}

/// Instructions decoded by `Binary::disassemble`.
pub fn decode(binary: &Binary) -> Result<usize, String> {
    binary
        .disassemble()
        .map(|insns| insns.len())
        .map_err(|e| e.to_string())
}

/// Function-local (or the model's own) extraction of a stripped binary.
pub fn extract(cati: &Cati, binary: &Binary) -> Result<Extraction, String> {
    extract_mode(binary, FeatureView::Stripped, cati.config.context_mode).map_err(|e| e.to_string())
}

/// VUCs of an extraction.
pub fn vuc_count(ex: &Extraction) -> usize {
    ex.vucs.len()
}

/// One embedded row per VUC.
pub fn embed(cati: &Cati, ex: &Extraction) -> Tensor {
    embed_extraction(ex, &cati.embedder)
}

/// Leaf distributions of every row through the six-stage tree.
pub fn classify(cati: &Cati, rows: &Tensor) -> Tensor {
    cati.stages.leaf_distributions_batch(rows)
}

/// Names of the six stage classifiers, in tree order.
pub fn stage_names() -> Vec<&'static str> {
    StageId::ALL.iter().map(|s| s.name()).collect()
}

/// One stage classifier's probabilities for every row.
pub fn stage_probs(cati: &Cati, stage: usize, rows: &Tensor) -> Tensor {
    cati.stages.stage_probs_batch(StageId::ALL[stage], rows)
}

/// Voting from precomputed leaf distributions.
pub fn vote(cati: &Cati, ex: &Extraction, dists: Tensor) -> Vec<InferredVar> {
    cati.infer_prepared(ex, dists, &cati::obs::NOOP)
}

/// The reference one-call inference.
pub fn infer(cati: &Cati, binary: &Binary) -> Result<Vec<InferredVar>, String> {
    cati.infer(binary).map_err(|e| e.to_string())
}

/// An on-disk artifact cache rooted at `dir`.
pub fn open_cache(dir: &Path) -> Result<ArtifactCache, String> {
    ArtifactCache::open(dir).map_err(|e| format!("open cache {}: {e}", dir.display()))
}

/// Inference through the artifact cache.
pub fn infer_cached(
    cati: &Cati,
    binary: &Binary,
    cache: &ArtifactCache,
) -> Result<Vec<InferredVar>, String> {
    cati.infer_cached(binary, Some(cache), &cati::obs::NOOP)
        .map_err(|e| e.to_string())
}

/// Runs `op` with the library's data-parallel layers limited to
/// `threads` workers (0 = all cores).
pub fn with_threads<R>(cati: &Cati, threads: usize, op: impl FnOnce() -> R) -> R {
    let mut config = cati.config;
    config.threads = threads;
    config.with_threads(op)
}

/// The first `k` training binaries of the medium corpus for `seed`,
/// the corpus `cati build-corpus --scale medium` writes.
pub fn train_binaries(seed: u64, k: usize) -> Vec<BuiltBinary> {
    let mut corpus = build_corpus(&CorpusConfig::medium(seed));
    corpus.train.truncate(k);
    corpus.train
}

/// Word2Vec training with the model's configuration. Returns the
/// tokens processed (sentence tokens times epochs) and the embedder.
pub fn train_w2v(cati: &Cati, train: &[BuiltBinary]) -> (usize, VucEmbedder) {
    let mut rng = StdRng::seed_from_u64(cati.config.seed);
    let sentences = embedding_sentences(train, cati.config.max_sentences, &mut rng);
    let tokens: usize = sentences.iter().map(Vec::len).sum::<usize>() * cati.config.w2v.epochs;
    let model = Word2Vec::train(&sentences, cati.config.w2v);
    (tokens, VucEmbedder::new(model))
}

/// Labelled training extractions (symbol view, the training path).
pub fn training_dataset(cati: &Cati, train: &[BuiltBinary]) -> Dataset {
    Dataset::from_binaries_mode(
        train,
        FeatureView::WithSymbols,
        cati.config.context_mode,
        None,
        &cati::obs::NOOP,
    )
}

/// Writes the dataset's labelled rows as a shard set; returns rows.
pub fn write_shards(cati: &Cati, dataset: &Dataset, dir: &Path) -> Result<usize, String> {
    write_dataset_shards(dataset, &cati.embedder, dir, 0, &cati::obs::NOOP)
        .map_err(|e| e.to_string())
}

/// Opens a shard set and reads every row back; returns rows read.
pub fn read_shards(dir: &Path) -> Result<usize, String> {
    let shards = ShardSet::open(dir).map_err(|e| e.to_string())?;
    let mut row = Vec::new();
    for i in 0..shards.len() {
        shards.read_row(i, &mut row).map_err(|e| e.to_string())?;
    }
    Ok(shards.len())
}

/// Stage-1 training samples as the trainer builds them.
pub fn stage1_samples(cati: &Cati, dataset: &Dataset) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(cati.config.seed);
    stage_dataset(
        dataset,
        &cati.embedder,
        StageId::Stage1,
        cati.config.max_stage_samples,
        cati.config.oversample_floor,
        &mut rng,
        &cati::obs::NOOP,
    )
}

/// Minibatch size of the trainer.
pub fn batch_size(cati: &Cati) -> usize {
    cati.config.batch
}

/// Forward plus backward over `samples` in trainer-sized minibatches
/// on the stage-1 CNN. Returns the summed loss.
pub fn gradients(cati: &Cati, samples: &[Sample]) -> f64 {
    let cnn = cati.stages.stage(StageId::Stage1);
    let idxs: Vec<usize> = (0..samples.len()).collect();
    idxs.chunks(cati.config.batch.max(1))
        .map(|batch| cnn.batch_gradients(samples, batch).1)
        .sum()
}
