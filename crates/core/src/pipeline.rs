//! The end-to-end CATI pipeline: train on a corpus, evaluate on
//! labeled extractions, infer types from unseen stripped binaries.

use crate::artifact_cache::ArtifactCache;
use crate::checkpoint::{CheckpointDir, TrainIdentity};
use crate::config::Config;
use crate::dataset::{embed_observed, embedding_sentences, Dataset};
use crate::metrics::{Confusion, Prf};
use crate::multistage::{MultiStage, StreamError, StreamOptions};
use crate::session::EmbeddedExtraction;
use crate::shards::{write_dataset_shards, ShardError, ShardSet};
use crate::vote::{vote, VoteResult};
use cati_analysis::{
    extract_lenient_mode_observed, extract_mode_observed, Coverage, Diagnostics, ExtractError,
    Extraction, FeatureView, VarKey,
};
use cati_asm::binary::Binary;
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_nn::{argmax, Tensor};
use cati_obs::metrics::UNIT_BUCKETS;
use cati_obs::{Event, Observer, SpanGuard};
use cati_synbin::BuiltBinary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A trained CATI system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cati {
    /// Configuration used for training.
    pub config: Config,
    /// The instruction embedder.
    pub embedder: VucEmbedder,
    /// The six stage classifiers.
    pub stages: MultiStage,
}

/// Per-VUC and per-variable predictions for one extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Leaf distributions, one 19-class row per VUC.
    pub vuc_dists: Tensor,
    /// Argmax class of each VUC.
    pub vuc_preds: Vec<TypeClass>,
    /// Voted class of each variable (parallel to `Extraction::vars`).
    pub var_preds: Vec<TypeClass>,
    /// The full Eq. 4 vote of each variable (parallel to
    /// `Extraction::vars`), so downstream consumers — inference
    /// confidence above all — reuse the outcome instead of re-voting
    /// the identical distributions.
    pub votes: Vec<VoteResult>,
}

/// One inferred variable of a stripped binary — the system's final
/// user-facing output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferredVar {
    /// Location of the variable.
    pub key: VarKey,
    /// Predicted type class.
    pub class: TypeClass,
    /// Mean (clipped) vote share of the winning class.
    pub confidence: f32,
    /// Number of VUCs that voted.
    pub vuc_count: u32,
}

/// The front half of inference for one stripped binary: its
/// extraction and one embedded row per VUC, ready for a
/// classification pass (see [`Cati::prepare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Prepared {
    /// The (for lenient requests possibly partial) extraction.
    pub extraction: Extraction,
    /// One embedded row per `extraction.vucs` entry.
    pub rows: Tensor,
    /// Coverage and diagnostics of a lenient request; `None` for a
    /// strict one.
    pub report: Option<(Coverage, Diagnostics)>,
}

/// The outcome of a lenient inference run: always produced, with the
/// coverage and diagnostics needed to judge how partial it is.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InferReport {
    /// Inferred variables for every function that survived.
    pub vars: Vec<InferredVar>,
    /// How much of the binary was actually processed.
    pub coverage: Coverage,
    /// Non-fatal findings, in emission order.
    pub diagnostics: Diagnostics,
}

impl Cati {
    /// Trains the full pipeline on `train` binaries: extraction →
    /// Word2Vec → six stage CNNs. `obs` receives typed telemetry:
    /// phase spans (`extract`, `embed`, `train.<stage>`), extraction
    /// counters, per-epoch losses, and human-readable progress
    /// messages. Pass `&cati_obs::NOOP` (or any legacy line callback
    /// wrapped in [`cati_obs::FnObserver`]) when telemetry is not
    /// wanted; the trained system is bit-identical either way.
    pub fn train(train: &[BuiltBinary], config: &Config, obs: &dyn Observer) -> Cati {
        config.with_threads(|| {
            let mut rng = StdRng::seed_from_u64(config.seed);
            cati_obs::info!(obs, "extracting {} training binaries", train.len());
            let dataset = {
                let _span = SpanGuard::enter(obs, "extract");
                Dataset::from_binaries_mode(
                    train,
                    FeatureView::WithSymbols,
                    config.context_mode,
                    None,
                    obs,
                )
            };
            cati_obs::info!(
                obs,
                "extracted {} variables / {} VUCs",
                dataset.var_count(),
                dataset.vuc_count()
            );
            let embedder = {
                let _span = SpanGuard::enter(obs, "embed");
                let sentences = embedding_sentences(train, config.max_sentences, &mut rng);
                cati_obs::info!(obs, "training Word2Vec on {} sentences", sentences.len());
                VucEmbedder::new(Word2Vec::train_observed(&sentences, config.w2v, obs))
            };
            let stages = MultiStage::train(&dataset, &embedder, config, obs);
            Cati {
                config: *config,
                embedder,
                stages,
            }
        })
    }

    /// [`Cati::train`] out-of-core, with epoch checkpoint/resume: the
    /// embedded training samples are streamed to a digest-checked
    /// shard set under `ckpt_dir/shards` and trained from disk, so
    /// peak memory is bounded by the model plus one shard buffer —
    /// never by corpus size — and every stage checkpoints atomically
    /// at every epoch boundary. The trained system is **bit-identical**
    /// to [`Cati::train`] on the same inputs (see
    /// [`MultiStage::train_streamed`] for why), and a run resumed
    /// after an interruption — even a hard kill mid-epoch — finishes
    /// byte-identical to an uninterrupted one.
    ///
    /// With `opts.resume`, completed phases are loaded instead of
    /// recomputed: the persisted embedder skips extraction + Word2Vec,
    /// a sealed shard set is re-verified and reused (an unsealed one —
    /// killed mid-write — is rebuilt), and each stage restarts from
    /// its last checkpointed epoch. Returns `Ok(None)` when
    /// `opts.stop_after_epoch` paused the run early; resume later to
    /// finish.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`StreamError`] on shard or checkpoint
    /// corruption, I/O failure, or a checkpoint directory belonging to
    /// a different configuration or corpus.
    pub fn train_streamed(
        train: &[BuiltBinary],
        config: &Config,
        ckpt_dir: &Path,
        opts: StreamOptions,
        obs: &dyn Observer,
    ) -> Result<Option<Cati>, StreamError> {
        config.with_threads(|| {
            let ckpt = CheckpointDir::open(ckpt_dir)?;
            let shards_dir = ckpt.shards_dir();
            let saved = if opts.resume {
                ckpt.load_embedder()?
            } else {
                None
            };
            let (embedder, shards) = match saved {
                // Resume with the embedder phase already done: reuse
                // the sealed shard set, or rebuild it if the run died
                // before the manifest sealed (shards are written after
                // the embedder, so this is the only partial state).
                Some(embedder) => match ShardSet::open(&shards_dir) {
                    Ok(shards) => (embedder, shards),
                    Err(ShardError::Io { ref err, .. })
                        if err.kind() == std::io::ErrorKind::NotFound =>
                    {
                        let dataset = {
                            let _span = SpanGuard::enter(obs, "extract");
                            Dataset::from_binaries_mode(
                                train,
                                FeatureView::WithSymbols,
                                config.context_mode,
                                None,
                                obs,
                            )
                        };
                        write_dataset_shards(&dataset, &embedder, &shards_dir, 0, obs)?;
                        (embedder, ShardSet::open(&shards_dir)?)
                    }
                    Err(e) => return Err(e.into()),
                },
                None => {
                    let mut rng = StdRng::seed_from_u64(config.seed);
                    cati_obs::info!(obs, "extracting {} training binaries", train.len());
                    let dataset = {
                        let _span = SpanGuard::enter(obs, "extract");
                        Dataset::from_binaries_mode(
                            train,
                            FeatureView::WithSymbols,
                            config.context_mode,
                            None,
                            obs,
                        )
                    };
                    let embedder = {
                        let _span = SpanGuard::enter(obs, "embed");
                        let sentences = embedding_sentences(train, config.max_sentences, &mut rng);
                        cati_obs::info!(obs, "training Word2Vec on {} sentences", sentences.len());
                        VucEmbedder::new(Word2Vec::train_observed(&sentences, config.w2v, obs))
                    };
                    ckpt.save_embedder(&embedder)?;
                    let rows = {
                        let _span = SpanGuard::enter(obs, "shard");
                        write_dataset_shards(&dataset, &embedder, &shards_dir, 0, obs)?
                    };
                    cati_obs::info!(obs, "streamed {rows} samples into on-disk shards");
                    (embedder, ShardSet::open(&shards_dir)?)
                }
            };
            let fingerprint = crate::artifact_cache::embedder_fingerprint(&embedder).to_string();
            if shards.fingerprint() != fingerprint {
                return Err(ShardError::Inconsistent {
                    path: shards_dir.join(crate::shards::SHARD_MANIFEST),
                    detail: "shard set was embedded by a different model".to_string(),
                }
                .into());
            }
            let identity = TrainIdentity {
                config: config_digest(config),
                data: shards.identity().to_string(),
            };
            let stages = MultiStage::train_streamed(&shards, config, &ckpt, &identity, opts, obs)?;
            Ok(stages.map(|stages| Cati {
                config: *config,
                embedder,
                stages,
            }))
        })
    }

    /// Evaluates one labeled extraction: per-VUC distributions and
    /// per-variable votes. All six stages run as batched passes over
    /// the whole extraction; votes index the shared distribution
    /// table by reference instead of cloning per-variable copies.
    pub fn evaluate(&self, ex: &Extraction) -> Evaluation {
        self.config.with_threads(|| {
            let session = EmbeddedExtraction::new(&self.embedder, ex);
            self.evaluate_session_inner(&session, &cati_obs::NOOP)
        })
    }

    /// Evaluates a pre-embedded session — no re-embedding. Shared by
    /// every consumer that already holds an [`EmbeddedExtraction`].
    pub fn evaluate_session(
        &self,
        session: &EmbeddedExtraction<'_>,
        obs: &dyn Observer,
    ) -> Evaluation {
        self.config
            .with_threads(|| self.evaluate_session_inner(session, obs))
    }

    /// [`Cati::evaluate_session`] without the thread-pool scope, so
    /// callers that already installed one don't nest pools.
    fn evaluate_session_inner(
        &self,
        session: &EmbeddedExtraction<'_>,
        obs: &dyn Observer,
    ) -> Evaluation {
        let _span = SpanGuard::enter(obs, "evaluate");
        let vuc_dists = self
            .stages
            .leaf_distributions_observed(session.embedded(), obs);
        self.vote_dists(session.extraction(), vuc_dists, obs)
    }

    /// The voting half of an evaluation: per-VUC argmax plus the
    /// Eq. 3/4 per-variable vote over `vuc_dists`. Shared by the
    /// session paths and [`Cati::infer_prepared`] so the batched
    /// serve path cannot drift from one-shot inference.
    fn vote_dists(&self, ex: &Extraction, vuc_dists: Tensor, obs: &dyn Observer) -> Evaluation {
        let vuc_preds: Vec<TypeClass> = vuc_dists
            .rows_iter()
            .map(|d| TypeClass::ALL[argmax(d)])
            .collect();
        obs.event(&Event::RegisterHistogram {
            name: "vote.confidence",
            bounds: &UNIT_BUCKETS,
        });
        let mut clipped = 0u64;
        let mut considered = 0u64;
        let mut votes = Vec::with_capacity(ex.vars.len());
        let var_preds = ex
            .vars
            .iter()
            .map(|var| {
                let dists: Vec<&[f32]> = var
                    .vucs
                    .iter()
                    .map(|&v| vuc_dists.row(v as usize))
                    .collect();
                let result = vote(&dists, self.config.vote_threshold);
                clipped += u64::from(result.clipped);
                considered += (dists.len() * result.totals.len()) as u64;
                obs.event(&Event::Observe {
                    name: "vote.confidence",
                    value: f64::from(result.winning_share(dists.len())),
                });
                let class = TypeClass::ALL[result.class];
                votes.push(result);
                class
            })
            .collect();
        obs.event(&Event::Counter {
            name: "vote.vars",
            delta: ex.vars.len() as u64,
        });
        obs.event(&Event::Counter {
            name: "vote.clipped",
            delta: clipped,
        });
        obs.event(&Event::Counter {
            name: "vote.considered",
            delta: considered,
        });
        Evaluation {
            vuc_dists,
            vuc_preds,
            var_preds,
            votes,
        }
    }

    /// Runs the full inference pipeline on a stripped binary: locate
    /// variables, extract VUCs, classify, vote.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer(&self, binary: &Binary) -> Result<Vec<InferredVar>, ExtractError> {
        self.infer_observed(binary, &cati_obs::NOOP)
    }

    /// [`Cati::infer`] with telemetry: an `infer` span plus the
    /// extraction counters and vote metrics of the inner phases. The
    /// inferences are bit-identical to the unobserved path for any
    /// observer.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer_observed(
        &self,
        binary: &Binary,
        obs: &dyn Observer,
    ) -> Result<Vec<InferredVar>, ExtractError> {
        self.infer_cached(binary, None, obs)
    }

    /// [`Cati::infer_observed`] with an optional on-disk
    /// [`ArtifactCache`]: the extraction and its embedded tensors are
    /// loaded from the cache when their content keys match (and
    /// stored after computing otherwise). Inference output is
    /// bit-identical with or without a cache — entries hold exactly
    /// what the pure extraction/embedding functions compute.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer_cached(
        &self,
        binary: &Binary,
        cache: Option<&ArtifactCache>,
        obs: &dyn Observer,
    ) -> Result<Vec<InferredVar>, ExtractError> {
        let _span = SpanGuard::enter(obs, "infer");
        let prepared = self.prepare(binary, false, cache, obs)?;
        Ok(self.classify(&prepared, obs))
    }

    /// The front half of inference, shared by every front end
    /// (`cati infer`, `cati serve`, [`Cati::infer_cached`],
    /// [`Cati::infer_lenient`]): extract the stripped view of
    /// `binary` under the model's context mode, then embed one row per
    /// VUC (bumping `embed.windows`).
    ///
    /// A strict request (`lenient == false`) goes through `cache`
    /// when one is given. A lenient request extracts through
    /// [`cati_analysis::extract_lenient_mode_observed`], never touches
    /// the cache, never fails, and carries its coverage and
    /// diagnostics in [`Prepared::report`]; on a binary the strict
    /// path accepts, its rows are bit-identical to the strict ones.
    ///
    /// # Errors
    ///
    /// A strict request fails if the binary's text section does not
    /// decode or its debug section is corrupt.
    pub fn prepare(
        &self,
        binary: &Binary,
        lenient: bool,
        cache: Option<&ArtifactCache>,
        obs: &dyn Observer,
    ) -> Result<Prepared, ExtractError> {
        let (view, mode) = (FeatureView::Stripped, self.config.context_mode);
        let cache = cache.filter(|_| !lenient);
        let (extraction, report) = if lenient {
            let l = extract_lenient_mode_observed(binary, view, mode, obs);
            (l.extraction, Some((l.coverage, l.diagnostics)))
        } else {
            let ex = match cache {
                Some(c) => c.extraction_mode(binary, view, mode, obs)?,
                None => extract_mode_observed(binary, view, mode, obs)?,
            };
            (ex, None)
        };
        let rows = self.config.with_threads(|| match cache {
            Some(c) => c.embeddings_mode(binary, view, mode, &self.embedder, &extraction, obs),
            None => embed_observed(&extraction, &self.embedder, obs),
        });
        Ok(Prepared {
            extraction,
            rows,
            report,
        })
    }

    /// The back half of one-shot inference: one classification pass
    /// over `prepared.rows` and the vote, under an `evaluate` span.
    pub fn classify(&self, prepared: &Prepared, obs: &dyn Observer) -> Vec<InferredVar> {
        self.config.with_threads(|| {
            let _span = SpanGuard::enter(obs, "evaluate");
            let dists = self.stages.leaf_distributions_observed(&prepared.rows, obs);
            self.infer_prepared(&prepared.extraction, dists, obs)
        })
    }

    /// Final user-facing inference output from an extraction plus
    /// precomputed leaf distributions (one 19-class row per VUC) — the
    /// vote that ends every inference path. The serve daemon's
    /// cross-request micro-batch concatenates many requests' rows
    /// through one [`MultiStage::leaf_distributions_observed`] pass
    /// and hands each request's row slice here; per-row
    /// classification is row-independent, so a slice of a larger
    /// batch is bit-identical to a dedicated pass.
    ///
    /// # Panics
    ///
    /// Panics if `vuc_dists` is not parallel to `ex.vucs`.
    pub fn infer_prepared(
        &self,
        ex: &Extraction,
        vuc_dists: Tensor,
        obs: &dyn Observer,
    ) -> Vec<InferredVar> {
        assert_eq!(
            vuc_dists.rows(),
            ex.vucs.len(),
            "one distribution row per VUC: got {} rows for {} VUCs",
            vuc_dists.rows(),
            ex.vucs.len()
        );
        let eval = self.vote_dists(ex, vuc_dists, obs);
        inferred_vars(ex, &eval)
    }

    /// Fault-isolated inference: never fails, reports what it skipped.
    /// On a binary the strict path accepts, the returned `vars` are
    /// **bit-identical** to [`Cati::infer`]'s and the coverage is
    /// complete; see [`Cati::prepare`].
    pub fn infer_lenient(&self, binary: &Binary) -> InferReport {
        let obs = &cati_obs::NOOP;
        let Ok(prepared) = self.prepare(binary, true, None, obs) else {
            unreachable!("lenient preparation never fails")
        };
        let vars = self.classify(&prepared, obs);
        let (coverage, diagnostics) = prepared.report.unwrap_or_default();
        InferReport {
            vars,
            coverage,
            diagnostics,
        }
    }

    /// Serializes the trained system to `path` as a CATI1 binary
    /// container (see [`crate::model_io`]), atomically: the model is
    /// written to a `.tmp` sibling and renamed into place, so a crash
    /// mid-write never leaves a truncated model at the target path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, each annotated with the path (and
    /// payload size) involved.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::model_io::save_cati1(self, path.as_ref())
    }

    /// Serializes the trained system in the legacy JSON format that
    /// [`Cati::load`] still accepts — kept for migration tooling and
    /// format-compatibility tests. Written atomically like
    /// [`Cati::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures, each annotated with
    /// the path (and payload size) involved.
    pub fn save_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let json = serde_json::to_vec(self).map_err(|e| {
            std::io::Error::other(format!("serialize model for {}: {e}", path.display()))
        })?;
        crate::model_io::save_bytes_atomic(&json, path)
    }

    /// Loads a system saved by [`Cati::save`] — either a CATI1 binary
    /// container or a legacy JSON model; the format is sniffed from
    /// the first bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O and decoding failures. Parse failures are
    /// reported as [`std::io::ErrorKind::InvalidData`] and carry the
    /// path, the file size, and what failed (truncation bounds,
    /// checksum mismatches, or the JSON parser's position); a file in
    /// neither format gets a hex preview of its first bytes and a
    /// "expected CATI1 magic or JSON model" hint.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Cati> {
        crate::model_io::load_model(path.as_ref())
    }

    /// How many weight tensors currently read straight out of a
    /// memory-mapped CATI1 v2 container (zero for trained or
    /// JSON/v1-loaded models) — diagnostics for the zero-copy load
    /// tests.
    pub fn mapped_param_count(&self) -> usize {
        self.embedder.mapped_param_count()
            + self
                .stages
                .models()
                .iter()
                .map(|(_, cnn)| cnn.mapped_param_count())
                .sum::<usize>()
    }
}

/// Digest of the serialized training configuration — half of the
/// [`TrainIdentity`] stamped into every checkpoint.
fn config_digest(config: &Config) -> String {
    match serde_json::to_vec(config) {
        Ok(bytes) => cati_analysis::digest_bytes(&bytes).to_string(),
        // Config is a plain struct of numbers; serialization cannot
        // fail, but a fixed sentinel keeps this total.
        Err(_) => "config-unserializable".to_string(),
    }
}

/// The JSON body `cati infer --json` prints and `POST /infer`
/// returns, so the two front ends cannot drift: `vars` sorted by
/// location (in place, so a caller's text output sees the same order)
/// and pretty-printed — alone for a strict request, inside the full
/// [`InferReport`] when `report` carries a lenient request's coverage
/// and diagnostics.
///
/// # Errors
///
/// Propagates serialization failures.
pub fn render_json(
    vars: &mut Vec<InferredVar>,
    report: Option<&(Coverage, Diagnostics)>,
) -> serde_json::Result<String> {
    vars.sort_by_key(|v| (v.key.func, v.key.offset));
    let Some((coverage, diagnostics)) = report else {
        return serde_json::to_string_pretty(vars);
    };
    let full = InferReport {
        vars: std::mem::take(vars),
        coverage: *coverage,
        diagnostics: diagnostics.clone(),
    };
    let body = serde_json::to_string_pretty(&full);
    *vars = full.vars;
    body
}

/// Maps an evaluation back onto its extraction's variables — the
/// final user-facing inference output. Shared by the strict and
/// lenient paths so they cannot diverge on a binary both accept.
fn inferred_vars(ex: &Extraction, eval: &Evaluation) -> Vec<InferredVar> {
    ex.vars
        .iter()
        .zip(&eval.var_preds)
        .zip(&eval.votes)
        .map(|((var, &class), result)| {
            // The evaluation already voted this variable (Eq. 4);
            // its winning share IS the confidence.
            InferredVar {
                key: var.key,
                class,
                confidence: result.winning_share(var.vucs.len()),
                vuc_count: var.vucs.len() as u32,
            }
        })
        .collect()
}

/// Per-stage evaluation at VUC granularity: each stage classifier is
/// scored on the samples whose ground truth reaches it (paper Table
/// III). Takes pre-embedded sessions, so an extraction shared across
/// every stage and table is embedded exactly once.
pub fn stage_vuc_metrics(
    cati: &Cati,
    sessions: &[EmbeddedExtraction<'_>],
    stage: StageId,
) -> (Prf, Confusion) {
    let mut m = Confusion::new(stage.num_classes());
    for session in sessions {
        let ex = session.extraction();
        // Only VUCs whose ground truth reaches this stage are scored;
        // batch the CNN over exactly that subset (borrowed rows).
        let scored: Vec<(usize, usize)> = ex
            .vucs
            .iter()
            .enumerate()
            .filter_map(|(i, vuc)| {
                let class = vuc.class(&ex.vars)?;
                Some((i, stage.label_of(class)?))
            })
            .collect();
        let sel: Vec<&[f32]> = scored.iter().map(|&(i, _)| session.embedding(i)).collect();
        let probs = cati.stages.stage_probs_batch(stage, &sel);
        for (&(_, truth), probs) in scored.iter().zip(probs.rows_iter()) {
            m.record(truth, argmax(probs));
        }
    }
    (m.weighted_avg(), m)
}

/// Per-stage evaluation at variable granularity, after voting over
/// each variable's VUCs with the stage's own distributions (paper
/// Table IV). Takes pre-embedded sessions like [`stage_vuc_metrics`].
pub fn stage_var_metrics(
    cati: &Cati,
    sessions: &[EmbeddedExtraction<'_>],
    stage: StageId,
) -> (Prf, Confusion) {
    let mut m = Confusion::new(stage.num_classes());
    for session in sessions {
        let ex = session.extraction();
        let stage_dists = cati.stages.stage_probs_batch(stage, session.embedded());
        for var in &ex.vars {
            let Some(class) = var.class else { continue };
            let Some(truth) = stage.label_of(class) else {
                continue;
            };
            let dists: Vec<&[f32]> = var
                .vucs
                .iter()
                .map(|&v| stage_dists.row(v as usize))
                .collect();
            let pred = vote(&dists, cati.config.vote_threshold).class;
            m.record(truth, pred);
        }
    }
    (m.weighted_avg(), m)
}

/// End-to-end accuracies of one extraction at both granularities
/// (paper Table VI): `(vuc_accuracy, vuc_n, var_accuracy, var_n)`.
pub fn pipeline_accuracy(cati: &Cati, ex: &Extraction) -> (f64, u64, f64, u64) {
    let session = EmbeddedExtraction::new(&cati.embedder, ex);
    pipeline_accuracy_session(cati, &session)
}

/// [`pipeline_accuracy`] over a pre-embedded session, for callers
/// that share the session with other consumers.
pub fn pipeline_accuracy_session(
    cati: &Cati,
    session: &EmbeddedExtraction<'_>,
) -> (f64, u64, f64, u64) {
    let ex = session.extraction();
    let eval = cati.evaluate_session(session, &cati_obs::NOOP);
    let mut vuc_ok = 0u64;
    let mut vuc_n = 0u64;
    for (vuc, pred) in ex.vucs.iter().zip(&eval.vuc_preds) {
        let Some(class) = vuc.class(&ex.vars) else {
            continue;
        };
        vuc_n += 1;
        vuc_ok += u64::from(class == *pred);
    }
    let mut var_ok = 0u64;
    let mut var_n = 0u64;
    for (var, pred) in ex.vars.iter().zip(&eval.var_preds) {
        let Some(class) = var.class else { continue };
        var_n += 1;
        var_ok += u64::from(class == *pred);
    }
    let div = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (div(vuc_ok, vuc_n), vuc_n, div(var_ok, var_n), var_n)
}
