//! Shared evaluation sessions: embed an extraction once, reuse the
//! tensors everywhere.
//!
//! Every consumer of an extraction's features — evaluation, the
//! per-stage Table III/IV metrics, pipeline accuracy, the occlusion
//! study — needs the same `[embed_dim][VUC_LEN]` tensor per VUC. An
//! [`EmbeddedExtraction`] pairs an extraction with those tensors so
//! each is computed exactly once per session instead of once per
//! consumer.

use crate::dataset::embed_observed;
use cati_analysis::Extraction;
use cati_embedding::VucEmbedder;
use cati_nn::Tensor;
use cati_obs::Observer;

/// An extraction plus the embedded tensor of each of its VUCs
/// (parallel to `Extraction::vucs`).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedExtraction<'a> {
    ex: &'a Extraction,
    xs: Tensor,
}

impl<'a> EmbeddedExtraction<'a> {
    /// Embeds every VUC of `ex` (in parallel under the ambient rayon
    /// pool).
    pub fn new(embedder: &VucEmbedder, ex: &'a Extraction) -> EmbeddedExtraction<'a> {
        EmbeddedExtraction::new_observed(embedder, ex, &cati_obs::NOOP)
    }

    /// [`EmbeddedExtraction::new`] with telemetry: bumps the
    /// `embed.windows` counter by the number of VUCs embedded — the
    /// counter the benchmarks assert on to prove each extraction is
    /// embedded exactly once.
    pub fn new_observed(
        embedder: &VucEmbedder,
        ex: &'a Extraction,
        obs: &dyn Observer,
    ) -> EmbeddedExtraction<'a> {
        let xs = embed_observed(ex, embedder, obs);
        EmbeddedExtraction { ex, xs }
    }

    /// The underlying extraction.
    pub fn extraction(&self) -> &'a Extraction {
        self.ex
    }

    /// The flat VUC tensor matrix, one row per `Extraction::vucs`
    /// entry.
    pub fn embedded(&self) -> &Tensor {
        &self.xs
    }

    /// The tensor row of one VUC.
    pub fn embedding(&self, vuc: usize) -> &[f32] {
        self.xs.row(vuc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use cati_analysis::FeatureView;
    use cati_obs::{Recorder, RecorderConfig};

    #[test]
    fn session_embeds_once_and_counts_windows() {
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(19));
        let cati =
            crate::pipeline::Cati::train(&corpus.train[..2], &Config::small(), &cati_obs::NOOP);
        let ex = cati_analysis::extract(&corpus.test[0].binary, FeatureView::Stripped).unwrap();
        let rec = Recorder::new(RecorderConfig::default());
        let session = EmbeddedExtraction::new_observed(&cati.embedder, &ex, &rec);
        assert_eq!(session.embedded().rows(), ex.vucs.len());
        assert_eq!(
            rec.metrics().counter_value("embed.windows"),
            ex.vucs.len() as u64
        );
        // Tensors match direct embedding.
        assert_eq!(
            session.embedding(0),
            &cati.embedder.embed_window(&ex.vucs[0].insns)[..]
        );
    }
}
