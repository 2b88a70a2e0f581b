//! Dataset assembly: corpus → extractions → embedding sentences →
//! per-stage training sets.

use cati_analysis::{extract_mode_observed, ContextMode, Extraction, FeatureView};
use cati_asm::generalize::generalize;
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::VucEmbedder;
use cati_nn::Tensor;
use cati_obs::{Event, Observer};
use cati_synbin::BuiltBinary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The extractions of a set of binaries, tagged with their
/// application names.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// `(application, extraction)` per binary.
    pub entries: Vec<(String, Extraction)>,
}

impl Dataset {
    /// Extracts every binary in `built` in parallel.
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries(built: &[BuiltBinary], view: FeatureView) -> Dataset {
        Dataset::from_binaries_mode(
            built,
            view,
            ContextMode::FunctionLocal,
            None,
            &cati_obs::NOOP,
        )
    }

    /// [`Dataset::from_binaries`] under an explicit [`ContextMode`],
    /// with telemetry (extraction counters accumulate into `obs`) and
    /// an optional on-disk
    /// [`ArtifactCache`](crate::artifact_cache::ArtifactCache): each
    /// extraction is loaded by the binary's content digest when
    /// cached, extracted and stored otherwise, and the dataset is
    /// bit-identical either way. Cache keys incorporate the mode, so
    /// warm function-local artifacts are never served to an
    /// interprocedural run (or vice versa).
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries_mode(
        built: &[BuiltBinary],
        view: FeatureView,
        mode: ContextMode,
        cache: Option<&crate::artifact_cache::ArtifactCache>,
        obs: &dyn Observer,
    ) -> Dataset {
        // One shard per binary: the shim would otherwise run up to 16
        // binaries as one job on one thread.
        let entries = built
            .par_iter()
            .with_max_len(1)
            .map(|b| {
                let ex = match cache {
                    Some(cache) => cache.extraction_mode(&b.binary, view, mode, obs),
                    None => extract_mode_observed(&b.binary, view, mode, obs),
                }
                .expect("corpus binary must extract");
                (b.app.clone(), ex)
            })
            .collect();
        Dataset { entries }
    }

    /// Total labeled variables.
    pub fn var_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.vars.len()).sum()
    }

    /// Total VUCs.
    pub fn vuc_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.vucs.len()).sum()
    }

    /// Iterates `(app, extraction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Extraction)> {
        self.entries.iter()
    }

    /// Groups extractions by application name (insertion order).
    pub fn by_app(&self) -> Vec<(String, Vec<&Extraction>)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<&str, Vec<&Extraction>> = Default::default();
        for (app, ex) in &self.entries {
            if !map.contains_key(app.as_str()) {
                order.push(app.clone());
            }
            map.entry(app.as_str()).or_default().push(ex);
        }
        order
            .into_iter()
            .map(|app| {
                let v = map.remove(app.as_str()).unwrap_or_default();
                (app, v)
            })
            .collect()
    }
}

/// Builds Word2Vec training sentences from whole binaries: one
/// sentence per function's generalized instruction stream, which is
/// what "assembly code embedding" trains over (paper §IV-C).
pub fn embedding_sentences(
    built: &[BuiltBinary],
    max_sentences: usize,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let mut sentences: Vec<Vec<String>> = built
        .par_iter()
        .with_max_len(1)
        .flat_map_iter(|b| {
            let insns = b.binary.disassemble().expect("corpus binary must decode");
            let funcs = cati_analysis::split_functions(&insns, &b.binary);
            let mut out = Vec::with_capacity(funcs.len());
            for (start, end) in funcs {
                let mut sent = Vec::with_capacity((end - start) * 3);
                for located in &insns[start..end] {
                    let g = generalize(&located.insn, &b.binary);
                    sent.extend(g.iter().map(str::to_string));
                }
                out.push(sent);
            }
            out
        })
        .collect();
    if max_sentences > 0 && sentences.len() > max_sentences {
        sentences.shuffle(rng);
        sentences.truncate(max_sentences);
    }
    sentences
}

/// One embedded, stage-labeled training sample.
pub type Sample = (Vec<f32>, usize);

/// One stage's planned sample order over a labeled pool: a base order
/// (identity when uncapped — no intermediate index buffer; an owned
/// shuffled prefix when capped) followed by oversampled duplicates.
/// Both the in-memory and the on-disk (shard) training paths build
/// their sample sequence from this one planner, which is what makes
/// them bit-identical: the plan is a pure function of the pool's
/// labels and the RNG, never of where the floats live.
pub(crate) struct StagePlan {
    /// `None` = pool identity order; `Some` = capped-and-shuffled.
    base: Option<Vec<u32>>,
    /// Length of the base order.
    base_len: usize,
    /// Oversampled duplicates appended after the base, in the order
    /// the oversampling loop drew them.
    extras: Vec<u32>,
}

impl StagePlan {
    /// Total planned samples.
    pub(crate) fn len(&self) -> usize {
        self.base_len + self.extras.len()
    }

    /// Pool index of the sample at plan position `i`.
    pub(crate) fn get(&self, i: usize) -> u32 {
        if i < self.base_len {
            match &self.base {
                Some(order) => order[i],
                None => i as u32,
            }
        } else {
            self.extras[i - self.base_len]
        }
    }

    /// Pool indices in plan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The capped-and-shuffled base order, if a cap applied.
    fn base_order(&self) -> Option<&[u32]> {
        self.base.as_deref()
    }

    /// The oversampled duplicate indices.
    fn extra_order(&self) -> &[u32] {
        &self.extras
    }
}

/// Plans one stage's sample order from the pool's stage labels:
/// optional cap (shuffle + truncate), then rare-class oversampling to
/// a floor fraction of the largest class. RNG consumption depends
/// only on pool length and label multiplicities, so any two pools
/// with equal label sequences produce equal plans. When no cap
/// applies, the base order is the identity — no index buffer is
/// allocated or re-shuffled.
pub(crate) fn plan_stage_samples(
    pool_labels: &[usize],
    stage: StageId,
    max_samples: usize,
    oversample_floor: f64,
    rng: &mut StdRng,
    obs: &dyn Observer,
) -> StagePlan {
    let mut base: Option<Vec<u32>> = None;
    if max_samples > 0 && pool_labels.len() > max_samples {
        let mut order: Vec<u32> = (0..pool_labels.len() as u32).collect();
        order.shuffle(rng);
        order.truncate(max_samples);
        base = Some(order);
    }
    let base_len = base.as_ref().map_or(pool_labels.len(), Vec::len);
    let label_at = |i: usize| -> usize {
        match &base {
            Some(order) => pool_labels[order[i] as usize],
            None => pool_labels[i],
        }
    };
    let mut extras: Vec<u32> = Vec::new();
    // Rare-class oversampling to a floor fraction of the largest class.
    if oversample_floor > 0.0 {
        let mut counts = vec![0usize; stage.num_classes()];
        for i in 0..base_len {
            counts[label_at(i)] += 1;
        }
        let max_count = counts.iter().copied().max().unwrap_or(0);
        let floor = ((max_count as f64) * oversample_floor) as usize;
        let mut oversampled = 0u64;
        let mut extra: Vec<u32> = Vec::new();
        for (label, &count) in counts.iter().enumerate() {
            if count == 0 || count >= floor {
                continue;
            }
            let pool: Vec<u32> = (0..base_len)
                .filter(|&i| label_at(i) == label)
                .map(|i| match &base {
                    Some(order) => order[i],
                    None => i as u32,
                })
                .collect();
            while count + extra.len() < floor && !pool.is_empty() {
                if extra.len() >= max_count {
                    // Hard safety bound: never duplicate a class more
                    // than the largest class's population.
                    cati_obs::warn!(
                        obs,
                        "{stage}: oversampling label {label} stopped at the \
                         {max_count}-duplicate bound, short of floor {floor}"
                    );
                    break;
                }
                extra.push(pool[rng.gen_range(0..pool.len())]);
            }
            oversampled += extra.len() as u64;
            extras.append(&mut extra);
        }
        if oversampled > 0 {
            obs.event(&Event::Counter {
                name: "train.oversampled",
                delta: oversampled,
            });
        }
    }
    StagePlan {
        base,
        base_len,
        extras,
    }
}

/// Builds the training set of one stage: every VUC whose ground-truth
/// class carries a label at `stage`, embedded and labeled, capped and
/// rare-class-oversampled per the configuration (see
/// `plan_stage_samples`). Oversampling never adds more than
/// `max_count` duplicates per rare class (the safety bound), and
/// everything it adds is counted into the `train.oversampled` counter
/// on `obs` (with a warning when the bound truncates a class short of
/// its floor).
pub fn stage_dataset(
    dataset: &Dataset,
    embedder: &VucEmbedder,
    stage: StageId,
    max_samples: usize,
    oversample_floor: f64,
    rng: &mut StdRng,
    obs: &dyn Observer,
) -> Vec<Sample> {
    // Collect (extraction ref, vuc idx) + label first — cheap.
    let mut refs: Vec<(&Extraction, usize)> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for (_, ex) in &dataset.entries {
        for (i, vuc) in ex.vucs.iter().enumerate() {
            let Some(class) = vuc.class(&ex.vars) else {
                continue;
            };
            let Some(label) = stage.label_of(class) else {
                continue;
            };
            refs.push((ex, i));
            labels.push(label);
        }
    }
    let plan = plan_stage_samples(&labels, stage, max_samples, oversample_floor, rng, obs);
    let embed_at = |i: usize| -> Sample {
        let (ex, v) = refs[i];
        (embedder.embed_window(&ex.vucs[v].insns), labels[i])
    };
    // Base order: embed straight out of the pool when uncapped — the
    // common `max_samples == 0` path allocates no intermediate index
    // buffer at all.
    let mut samples: Vec<Sample> = match plan.base_order() {
        None => refs
            .par_iter()
            .zip(labels.par_iter())
            .map(|((ex, v), &label)| (embedder.embed_window(&ex.vucs[*v].insns), label))
            .collect(),
        Some(order) => order.par_iter().map(|&i| embed_at(i as usize)).collect(),
    };
    samples.extend(plan.extra_order().iter().map(|&i| embed_at(i as usize)));
    samples
}

/// Embeds every VUC of one extraction (inference path) into one flat
/// `vucs × (embed_dim·VUC_LEN)` [`Tensor`], one row per VUC. Rows are
/// filled in parallel; each row is bit-identical to
/// [`VucEmbedder::embed_window`] on that VUC.
///
/// Hot-path shape: the instruction-column cache is read-locked *once*
/// for the whole batch (`VucEmbedder::columns`) and every worker
/// scatters borrowed columns straight into its rows — no per-insn
/// lock, `Arc` clone, or telemetry atomics, and no redundant zero
/// fill. Columns missing from the cache are computed directly into
/// the rows (same floats), then inserted afterwards via one
/// [`VucEmbedder::prime`] pass so later extractions hit.
pub fn embed_extraction(ex: &Extraction, embedder: &VucEmbedder) -> Tensor {
    use std::sync::atomic::{AtomicU64, Ordering};
    let cols = ex
        .vucs
        .first()
        .map_or(0, |v| embedder.embed_dim() * v.insns.len());
    let misses = AtomicU64::new(0);
    let mut insns_total = 0u64;
    let xs = {
        let view = embedder.columns();
        Tensor::build_rows(
            ex.vucs.len(),
            cols,
            || &view,
            |view, i, row| {
                let m = view.fill_window(&ex.vucs[i].insns, row) as u64;
                if m > 0 {
                    misses.fetch_add(m, Ordering::Relaxed);
                }
            },
        )
    };
    let missed = misses.into_inner();
    for v in &ex.vucs {
        insns_total += v.insns.len() as u64;
    }
    embedder.record_usage(insns_total - missed, missed);
    if missed > 0 {
        embedder.prime(ex.vucs.iter().map(|v| v.insns.as_slice()));
    }
    xs
}

/// [`embed_extraction`] plus the `embed.windows` counter, bumped by
/// the number of VUCs embedded — the counter the benchmarks assert on
/// to prove each extraction is embedded exactly once.
pub(crate) fn embed_observed(
    ex: &Extraction,
    embedder: &VucEmbedder,
    obs: &dyn Observer,
) -> Tensor {
    let xs = embed_extraction(ex, embedder);
    obs.event(&Event::Counter {
        name: "embed.windows",
        delta: ex.vucs.len() as u64,
    });
    xs
}

/// The class distribution of labeled variables, indexed by
/// [`TypeClass::index`].
pub fn class_histogram(dataset: &Dataset) -> Vec<u64> {
    let mut hist = vec![0u64; TypeClass::ALL.len()];
    for (_, ex) in &dataset.entries {
        for (_, var) in ex.labeled_vars() {
            hist[var.class.expect("labeled").index()] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_embedding::{W2vConfig, Word2Vec};
    use cati_synbin::{build_corpus, CorpusConfig};
    use rand::SeedableRng;

    fn tiny_dataset() -> (Dataset, Vec<BuiltBinary>) {
        let corpus = build_corpus(&CorpusConfig::small(77));
        let ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
        (ds, corpus.train)
    }

    #[test]
    fn dataset_collects_labeled_vucs() {
        let (ds, _) = tiny_dataset();
        assert!(ds.var_count() > 50, "vars {}", ds.var_count());
        assert!(ds.vuc_count() >= ds.var_count());
    }

    #[test]
    fn sentences_and_stage_sets() {
        let (ds, built) = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let sentences = embedding_sentences(&built, 500, &mut rng);
        assert!(!sentences.is_empty());
        assert!(sentences.len() <= 500);
        let model = Word2Vec::train(&sentences, W2vConfig::tiny());
        let embedder = VucEmbedder::new(model);

        let s1 = stage_dataset(
            &ds,
            &embedder,
            StageId::Stage1,
            300,
            0.05,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert!(!s1.is_empty());
        assert!(
            s1.len() <= 330,
            "cap plus oversample slack, got {}",
            s1.len()
        );
        for (x, label) in &s1 {
            assert_eq!(x.len(), embedder.embed_dim() * 21);
            assert!(*label < 2);
        }
        // Stage 3-2 may be tiny but labels stay in range.
        let s32 = stage_dataset(
            &ds,
            &embedder,
            StageId::Stage3Float,
            0,
            0.05,
            &mut rng,
            &cati_obs::NOOP,
        );
        for (_, label) in &s32 {
            assert!(*label < 3);
        }
    }

    /// A dataset of single-VUC variables with a chosen Stage-1 class
    /// mix: `majority` non-pointers (Int) and `rare` pointers
    /// (PtrVoid), every VUC a window of BLANKs.
    fn synthetic_dataset(majority: usize, rare: usize) -> Dataset {
        use cati_analysis::{VarKey, Variable, Vuc, VUC_LEN};
        use cati_asm::generalize::GenInsn;
        let mut vars = Vec::new();
        let mut vucs = Vec::new();
        for i in 0..majority + rare {
            let class = if i < majority {
                TypeClass::Int
            } else {
                TypeClass::PtrVoid
            };
            vars.push(Variable {
                key: VarKey {
                    func: i as u32,
                    offset: -8,
                },
                name: None,
                class: Some(class),
                debin: None,
                vucs: vec![i as u32],
            });
            vucs.push(Vuc {
                insns: vec![GenInsn::blank(); VUC_LEN],
                var: i as u32,
                context_classes: vec![None; VUC_LEN],
            });
        }
        Dataset {
            entries: vec![(
                "synthetic".to_string(),
                Extraction {
                    binary_name: "synthetic".to_string(),
                    vars,
                    vucs,
                },
            )],
        }
    }

    fn tiny_embedder() -> VucEmbedder {
        let sentences = vec![vec!["mov".to_string(), "ret".to_string()]];
        VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()))
    }

    fn stage1_label_counts(samples: &[Sample]) -> (usize, usize) {
        let ptrs = samples.iter().filter(|(_, l)| *l == 1).count();
        (samples.len() - ptrs, ptrs)
    }

    #[test]
    fn oversampling_fills_rare_classes_to_the_floor_and_counts_them() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(100, 3);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        // floor = 10% of the 100-strong majority = 10; the 3 pointer
        // samples gain exactly 7 duplicates.
        let s = stage_dataset(&ds, &embedder, StageId::Stage1, 0, 0.1, &mut rng, &rec);
        let (ints, ptrs) = stage1_label_counts(&s);
        assert_eq!((ints, ptrs), (100, 10));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 7);
    }

    #[test]
    fn class_exactly_at_the_floor_is_not_oversampled() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(100, 10);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        let s = stage_dataset(&ds, &embedder, StageId::Stage1, 0, 0.1, &mut rng, &rec);
        assert_eq!(stage1_label_counts(&s), (100, 10));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 0);
    }

    #[test]
    fn oversampling_safety_bound_adds_at_most_max_count_duplicates() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(10, 2);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        // A floor of 5× the majority (50) can never be reached by any
        // class; the bound stops each at exactly max_count = 10
        // duplicates (the old loop leaked an 11th before noticing).
        let s = stage_dataset(&ds, &embedder, StageId::Stage1, 0, 5.0, &mut rng, &rec);
        assert_eq!(stage1_label_counts(&s), (20, 12));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 20);
    }

    #[test]
    fn output_may_exceed_max_samples_by_the_oversample_slack() {
        let ds = synthetic_dataset(100, 2);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        // 102 refs don't exceed the 102 cap, so nothing is truncated;
        // oversampling then legitimately pushes past max_samples.
        let s = stage_dataset(
            &ds,
            &embedder,
            StageId::Stage1,
            102,
            0.1,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert_eq!(s.len(), 110, "100 ints + 2 ptrs + 8 duplicates");
        // With the floor disabled the cap is exact.
        let capped = stage_dataset(
            &ds,
            &embedder,
            StageId::Stage1,
            50,
            0.0,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert_eq!(capped.len(), 50);
    }

    /// Verbatim copy of the pre-planner `stage_dataset` (the PR 1
    /// algorithm: materialize a `(ref, vuc, label)` vec, shuffle and
    /// truncate it under a cap, oversample by appending into it).
    /// Kept as the reference that pins the planner-based rewrite —
    /// including its RNG consumption — bitwise.
    fn stage_dataset_reference(
        dataset: &Dataset,
        embedder: &VucEmbedder,
        stage: StageId,
        max_samples: usize,
        oversample_floor: f64,
        rng: &mut StdRng,
        obs: &dyn Observer,
    ) -> Vec<Sample> {
        let mut refs: Vec<(&Extraction, usize, usize)> = Vec::new();
        for (_, ex) in &dataset.entries {
            for (i, vuc) in ex.vucs.iter().enumerate() {
                let Some(class) = vuc.class(&ex.vars) else {
                    continue;
                };
                let Some(label) = stage.label_of(class) else {
                    continue;
                };
                refs.push((ex, i, label));
            }
        }
        if max_samples > 0 && refs.len() > max_samples {
            refs.shuffle(rng);
            refs.truncate(max_samples);
        }
        if oversample_floor > 0.0 {
            let mut counts = vec![0usize; stage.num_classes()];
            for &(_, _, l) in &refs {
                counts[l] += 1;
            }
            let max_count = counts.iter().copied().max().unwrap_or(0);
            let floor = ((max_count as f64) * oversample_floor) as usize;
            let mut extra = Vec::new();
            for (label, &count) in counts.iter().enumerate() {
                if count == 0 || count >= floor {
                    continue;
                }
                let pool: Vec<_> = refs.iter().filter(|r| r.2 == label).copied().collect();
                while count + extra.len() < floor && !pool.is_empty() {
                    if extra.len() >= max_count {
                        break;
                    }
                    extra.push(pool[rng.gen_range(0..pool.len())]);
                }
                refs.append(&mut extra);
            }
        }
        let _ = obs;
        refs.into_par_iter()
            .map(|(ex, i, label)| (embedder.embed_window(&ex.vucs[i].insns), label))
            .collect()
    }

    #[test]
    fn planner_rewrite_is_bitwise_identical_to_the_reference() {
        use rand::Rng;
        let (real, _) = tiny_dataset();
        let synth = synthetic_dataset(60, 5);
        let embedder = tiny_embedder();
        for ds in [&real, &synth] {
            for stage in [StageId::Stage1, StageId::Stage2NonPtr, StageId::Stage3Int] {
                for &(max_samples, floor) in
                    &[(0usize, 0.0f64), (0, 0.1), (50, 0.1), (30, 0.0), (10, 5.0)]
                {
                    for seed in [1u64, 9, 42] {
                        let mut rng_new = StdRng::seed_from_u64(seed);
                        let mut rng_old = StdRng::seed_from_u64(seed);
                        let new = stage_dataset(
                            ds,
                            &embedder,
                            stage,
                            max_samples,
                            floor,
                            &mut rng_new,
                            &cati_obs::NOOP,
                        );
                        let old = stage_dataset_reference(
                            ds,
                            &embedder,
                            stage,
                            max_samples,
                            floor,
                            &mut rng_old,
                            &cati_obs::NOOP,
                        );
                        let case = format!("{stage} cap={max_samples} floor={floor} seed={seed}");
                        assert_eq!(new.len(), old.len(), "{case}: sample count");
                        for (k, ((xa, la), (xb, lb))) in new.iter().zip(&old).enumerate() {
                            assert_eq!(la, lb, "{case}: label of sample {k}");
                            assert!(
                                xa.iter()
                                    .zip(xb.iter())
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                                    && xa.len() == xb.len(),
                                "{case}: floats of sample {k} differ bitwise"
                            );
                        }
                        // Identical RNG consumption: both generators
                        // must sit at the same stream position.
                        assert_eq!(rng_new.state(), rng_old.state(), "{case}: rng state");
                        assert_eq!(
                            rng_new.gen_range(0..u32::MAX),
                            rng_old.gen_range(0..u32::MAX),
                            "{case}: next draw"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_covers_common_classes() {
        let (ds, _) = tiny_dataset();
        let hist = class_histogram(&ds);
        assert!(hist[TypeClass::Int.index()] > 0);
        assert!(hist[TypeClass::PtrStruct.index()] + hist[TypeClass::Struct.index()] > 0);
        assert_eq!(hist.iter().sum::<u64>() as usize, ds.var_count());
    }

    #[test]
    fn by_app_groups_entries() {
        let (ds, _) = tiny_dataset();
        let groups = ds.by_app();
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, ds.entries.len());
    }
}
