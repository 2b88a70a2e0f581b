//! Occlusion importance analysis (paper §VII, Eq. 5 and Fig. 6).
//!
//! For a VUC and a stage, ε_k is the ratio between the classifier's
//! confidence with instruction k blanked out and its original
//! confidence. Smaller ε means the instruction mattered more. The
//! heat map aggregates, per window position, the cumulative fraction
//! of VUCs whose ε falls below each threshold 0.1 … 1.0.

use crate::pipeline::Cati;
use crate::session::EmbeddedExtraction;
use cati_analysis::VUC_LEN;
use cati_asm::generalize::GenInsn;
use cati_dwarf::StageId;
use cati_nn::{argmax, Tensor};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// ε values of one VUC: one per window position.
pub type Epsilons = Vec<f32>;

/// Computes ε for every position of one window at `stage`.
///
/// The reference confidence is the stage's probability of its own
/// argmax class on the intact window; occlusion replaces one
/// instruction with BLANK (paper's function R).
pub fn occlusion_epsilons(cati: &Cati, window: &[GenInsn], stage: StageId) -> Epsilons {
    let x = cati.embedder.embed_window(window);
    occlusion_epsilons_embedded(cati, &x, window.len(), stage)
}

/// [`occlusion_epsilons`] for a window whose embedding `x` (an
/// `embed_dim × len` tensor) is already in hand — the fast path: each
/// of the `len` probes patches only the blanked position's channel
/// column instead of re-embedding the whole window (identical output:
/// a BLANK column carries the same floats wherever it is written),
/// and the intact window plus every probe classify as one batch.
pub fn occlusion_epsilons_embedded(cati: &Cati, x: &[f32], len: usize, stage: StageId) -> Epsilons {
    // Row 0 is the intact window; row k + 1 has position k blanked.
    let blank = GenInsn::blank();
    let mut data = Vec::with_capacity((len + 1) * x.len());
    data.extend_from_slice(x);
    for k in 0..len {
        let start = data.len();
        data.extend_from_slice(x);
        cati.embedder
            .patch_window_position(&mut data[start..], len, k, &blank);
    }
    let probs = cati
        .stages
        .stage_probs_batch(stage, &Tensor::from_flat(len + 1, x.len(), data));
    let best = argmax(probs.row(0));
    let base_conf = probs.row(0)[best].max(1e-6);
    (1..=len).map(|r| probs.row(r)[best] / base_conf).collect()
}

/// Fig. 6(b): per position (row), the cumulative fraction of VUCs
/// whose ε is below each threshold 0.1, 0.2, …, 1.0 (columns).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImportanceHeatmap {
    /// `rows[k][c]` = P(ε_k < (c+1)/10) over the sampled VUCs.
    pub rows: Vec<Vec<f64>>,
    /// Number of VUCs sampled.
    pub samples: u64,
}

impl ImportanceHeatmap {
    /// Mean cumulative mass of one row — a scalar importance score
    /// per position (higher = more important).
    pub fn row_importance(&self, k: usize) -> f64 {
        let row = &self.rows[k];
        row.iter().sum::<f64>() / row.len() as f64
    }
}

/// Builds the Fig. 6(b) heat map over (a sample of) the VUCs in
/// `sessions`, evaluated at `stage`. The sessions' tensors serve as
/// the occlusion base embeddings, so no VUC is re-embedded.
pub fn importance_heatmap(
    cati: &Cati,
    sessions: &[EmbeddedExtraction<'_>],
    stage: StageId,
    max_vucs: usize,
) -> ImportanceHeatmap {
    let mut windows: Vec<&[f32]> = Vec::new();
    'outer: for session in sessions {
        for i in 0..session.extraction().vucs.len() {
            windows.push(session.embedding(i));
            if max_vucs > 0 && windows.len() >= max_vucs {
                break 'outer;
            }
        }
    }
    let all_eps: Vec<Epsilons> = windows
        .par_iter()
        .map(|x| occlusion_epsilons_embedded(cati, x, VUC_LEN, stage))
        .collect();
    let mut rows = vec![vec![0.0f64; 10]; VUC_LEN];
    for eps in &all_eps {
        for (k, &e) in eps.iter().enumerate() {
            for (c, cell) in rows[k].iter_mut().enumerate() {
                if e < (c as f32 + 1.0) / 10.0 {
                    *cell += 1.0;
                }
            }
        }
    }
    let n = all_eps.len().max(1) as f64;
    for row in &mut rows {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    ImportanceHeatmap {
        rows,
        samples: all_eps.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_asm::generalize::GenInsn;

    #[test]
    fn blank_window_has_unit_epsilons() {
        // Occluding a BLANK with a BLANK cannot change anything; use a
        // trained-free sanity check via a tiny untrained system.
        let cfg = crate::config::Config::small();
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(31));
        let cati = Cati::train(
            &corpus.train[..2.min(corpus.train.len())],
            &cfg,
            &cati_obs::NOOP,
        );
        let window = vec![GenInsn::blank(); VUC_LEN];
        let eps = occlusion_epsilons(&cati, &window, StageId::Stage1);
        assert_eq!(eps.len(), VUC_LEN);
        for e in eps {
            assert!((e - 1.0).abs() < 1e-4, "blank-on-blank epsilon {e}");
        }

        // The patch fast path must equal naive re-embedding of each
        // occluded window bit for bit, on a real VUC.
        let ex = cati_analysis::extract(
            &corpus.test[0].binary.strip(),
            cati_analysis::FeatureView::Stripped,
        )
        .unwrap();
        let window = &ex.vucs[0].insns;
        let fast = occlusion_epsilons(&cati, window, StageId::Stage1);
        let one = |x: Vec<f32>| {
            cati.stages
                .stage_probs_batch(StageId::Stage1, &[x][..])
                .into_flat()
        };
        let base_probs = one(cati.embedder.embed_window(window));
        let (argmax, base_conf) = base_probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, p)| (i, *p))
            .unwrap();
        let base_conf = base_conf.max(1e-6);
        let naive: Epsilons = (0..window.len())
            .map(|k| {
                let mut occluded = window.clone();
                occluded[k] = GenInsn::blank();
                let xo = cati.embedder.embed_window(&occluded);
                one(xo)[argmax] / base_conf
            })
            .collect();
        assert_eq!(fast, naive, "patched probes diverged from re-embedding");
    }
}
