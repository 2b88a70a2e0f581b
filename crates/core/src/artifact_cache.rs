//! On-disk content-addressed artifact cache.
//!
//! Extractions and embeddings are pure functions of their inputs, so
//! they can be cached across runs keyed by content: an extraction by
//! the binary's digest and feature view, embeddings additionally by a
//! fingerprint of the embedding model. A key matches only when every
//! input is byte-identical, so a cache hit returns exactly the value
//! the pure function would compute (the vendored JSON codec
//! round-trips `f32` exactly) and results are bit-identical with the
//! cache on or off. Telemetry: `cache.hit` / `cache.miss` /
//! `cache.bytes` counters flow through the observer into run
//! manifests.

use crate::dataset::embed_observed;
use cati_analysis::{
    digest_binary, digest_bytes, extract_mode_observed, ContextMode, Digest, ExtractError,
    Extraction, FeatureView,
};
use cati_asm::binary::Binary;
use cati_embedding::VucEmbedder;
use cati_nn::Tensor;
use cati_obs::{Event, Observer};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped whenever the serialized artifact layout changes, so stale
/// caches are silently misses instead of parse errors. Version 2
/// added the integrity envelope (payload digest on the first line);
/// version 3 switched embedding entries to the framed flat tensor
/// encoding (`{rows, cols, data}`); version 4 added the context-mode
/// tag to both extraction and embedding keys, so a warm
/// `FunctionLocal` cache can never serve an `Interprocedural` run of
/// the same binary (and vice versa).
const FORMAT_VERSION: u32 = 4;

/// A directory of content-addressed extraction/embedding artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

fn view_tag(view: FeatureView) -> &'static str {
    match view {
        FeatureView::WithSymbols => "sym",
        FeatureView::Stripped => "stripped",
    }
}

/// Fingerprints an embedding model: the digest of its serialized
/// form, so any retrained or differently-configured model gets its
/// own embedding cache entries.
pub fn embedder_fingerprint(embedder: &VucEmbedder) -> Digest {
    digest_bytes(&serde_json::to_vec(embedder).expect("embedder serializes"))
}

/// Wraps a serialized payload in the integrity envelope: the payload's
/// digest, a newline, the payload bytes. Shared with the shard and
/// checkpoint layers, which seal their JSON sidecars the same way.
pub(crate) fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = digest_bytes(payload).to_string().into_bytes();
    out.push(b'\n');
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips the integrity envelope, returning the payload
/// when the recorded digest matches its bytes.
pub(crate) fn open_envelope(bytes: &[u8]) -> Option<&[u8]> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let (header, payload) = (&bytes[..newline], &bytes[newline + 1..]);
    (digest_bytes(payload).to_string().as_bytes() == header).then_some(payload)
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads and parses one artifact. A present entry whose integrity
    /// envelope verifies is a `cache.hit` (its size accumulating into
    /// `cache.bytes`); anything else — absent, unreadable, checksum
    /// mismatch, corrupt — is a `cache.miss` and the caller recomputes
    /// (overwriting the bad entry). The checksum line makes *silently*
    /// corrupted entries (bit flips that still parse as JSON) misses
    /// too, so a damaged cache can change performance but never
    /// results.
    fn load<T: Deserialize>(&self, file: &str, obs: &dyn Observer) -> Option<T> {
        let loaded = std::fs::read(self.dir.join(file)).ok().and_then(|bytes| {
            Some((
                serde_json::from_slice(open_envelope(&bytes)?).ok()?,
                bytes.len(),
            ))
        });
        match loaded {
            Some((value, len)) => {
                obs.event(&Event::Counter {
                    name: "cache.hit",
                    delta: 1,
                });
                obs.event(&Event::Counter {
                    name: "cache.bytes",
                    delta: len as u64,
                });
                Some(value)
            }
            None => {
                obs.event(&Event::Counter {
                    name: "cache.miss",
                    delta: 1,
                });
                None
            }
        }
    }

    /// Stores one artifact atomically (tmp + rename, so a crash never
    /// leaves a truncated entry a later run would half-parse), sealed
    /// in the integrity envelope. Write failures only disable reuse,
    /// so they are logged, not fatal.
    fn store<T: Serialize>(&self, file: &str, value: &T, obs: &dyn Observer) {
        let json = match serde_json::to_vec(value) {
            Ok(json) => seal_envelope(&json),
            Err(e) => {
                cati_obs::warn!(obs, "cache: serialize {file}: {e}");
                return;
            }
        };
        let path = self.dir.join(file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        let written = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => obs.event(&Event::Counter {
                name: "cache.bytes",
                delta: json.len() as u64,
            }),
            Err(e) => cati_obs::warn!(obs, "cache: write {}: {e}", path.display()),
        }
    }

    /// The extraction of `binary` under `view` and `mode`: loaded
    /// from the cache when the binary's digest matches (the key
    /// carries the mode tag, so entries of one mode are invisible to
    /// the other), otherwise extracted and stored.
    ///
    /// # Errors
    ///
    /// Fails if a cache miss forces extraction and the binary's text
    /// section does not decode.
    pub fn extraction_mode(
        &self,
        binary: &Binary,
        view: FeatureView,
        mode: ContextMode,
        obs: &dyn Observer,
    ) -> Result<Extraction, ExtractError> {
        let file = format!(
            "ext-v{FORMAT_VERSION}-{}-{}-{}.json",
            digest_binary(binary),
            view_tag(view),
            mode.name()
        );
        if let Some(ex) = self.load(&file, obs) {
            return Ok(ex);
        }
        let ex = extract_mode_observed(binary, view, mode, obs)?;
        self.store(&file, &ex, obs);
        Ok(ex)
    }

    /// The embedded tensors of `ex`'s VUCs under `embedder`: loaded
    /// from the cache when the binary digest, the context mode and
    /// the model fingerprint all match, otherwise embedded (counting
    /// `embed.windows`) and stored. The rows derive from the
    /// mode-dependent extraction, so they need the same key
    /// separation as [`ArtifactCache::extraction_mode`].
    pub fn embeddings_mode(
        &self,
        binary: &Binary,
        view: FeatureView,
        mode: ContextMode,
        embedder: &VucEmbedder,
        ex: &Extraction,
        obs: &dyn Observer,
    ) -> Tensor {
        let file = format!(
            "emb-v{FORMAT_VERSION}-{}-{}-{}-{}.json",
            digest_binary(binary),
            view_tag(view),
            mode.name(),
            embedder_fingerprint(embedder)
        );
        if let Some(xs) = self.load::<Tensor>(&file, obs) {
            if xs.rows() == ex.vucs.len() {
                return xs;
            }
        }
        let xs = embed_observed(ex, embedder, obs);
        self.store(&file, &xs, obs);
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_embedding::{W2vConfig, Word2Vec};
    use cati_obs::{Recorder, RecorderConfig};

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("cati_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactCache::open(dir).unwrap()
    }

    fn function_local(cache: &ArtifactCache, binary: &Binary, obs: &dyn Observer) -> Extraction {
        cache
            .extraction_mode(
                binary,
                FeatureView::Stripped,
                ContextMode::FunctionLocal,
                obs,
            )
            .unwrap()
    }

    #[test]
    fn extraction_and_embeddings_roundtrip_with_counters() {
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(23));
        let binary = &corpus.test[0].binary.strip();
        let cache = temp_cache("roundtrip");
        let rec = Recorder::new(RecorderConfig::default());

        let cold = function_local(&cache, binary, &rec);
        let direct = cati_analysis::extract(binary, FeatureView::Stripped).unwrap();
        assert_eq!(cold, direct, "cold path must equal direct extraction");
        let warm = function_local(&cache, binary, &rec);
        assert_eq!(warm, direct, "warm path must equal direct extraction");

        let sentences = vec![vec!["mov".to_string(), "ret".to_string()]];
        let embedder = VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()));
        let xs_cold = cache.embeddings_mode(
            binary,
            FeatureView::Stripped,
            ContextMode::FunctionLocal,
            &embedder,
            &direct,
            &rec,
        );
        let xs_warm = cache.embeddings_mode(
            binary,
            FeatureView::Stripped,
            ContextMode::FunctionLocal,
            &embedder,
            &direct,
            &rec,
        );
        assert_eq!(xs_cold, xs_warm, "cached embeddings must be bit-identical");
        assert_eq!(
            xs_cold,
            crate::dataset::embed_extraction(&direct, &embedder)
        );

        let m = rec.metrics();
        assert_eq!(m.counter_value("cache.miss"), 2, "one cold miss per kind");
        assert_eq!(m.counter_value("cache.hit"), 2, "one warm hit per kind");
        assert!(m.counter_value("cache.bytes") > 0);
        // Only the cold embedding pass embedded anything.
        assert_eq!(m.counter_value("embed.windows"), direct.vucs.len() as u64);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn warm_function_local_cache_never_hits_an_interproc_run() {
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(23));
        let binary = &corpus.test[0].binary.strip();
        let cache = temp_cache("modekey");
        let warmup = Recorder::new(RecorderConfig::default());
        // Warm the cache in FunctionLocal mode (twice: prove it's warm).
        function_local(&cache, binary, &warmup);
        function_local(&cache, binary, &warmup);
        assert_eq!(warmup.metrics().counter_value("cache.hit"), 1);

        // The same binary in Interprocedural mode must miss: the key
        // carries the mode tag.
        let rec = Recorder::new(RecorderConfig::default());
        let inter = cache
            .extraction_mode(
                binary,
                FeatureView::Stripped,
                ContextMode::Interprocedural,
                &rec,
            )
            .unwrap();
        assert_eq!(rec.metrics().counter_value("cache.hit"), 0);
        assert_eq!(rec.metrics().counter_value("cache.miss"), 1);
        let direct = cati_analysis::extract_mode(
            binary,
            FeatureView::Stripped,
            ContextMode::Interprocedural,
        )
        .unwrap();
        assert_eq!(inter, direct);

        // And both modes now coexist: each warm in its own key space.
        let warm = Recorder::new(RecorderConfig::default());
        function_local(&cache, binary, &warm);
        cache
            .extraction_mode(
                binary,
                FeatureView::Stripped,
                ContextMode::Interprocedural,
                &warm,
            )
            .unwrap();
        assert_eq!(warm.metrics().counter_value("cache.hit"), 2);
        assert_eq!(warm.metrics().counter_value("cache.miss"), 0);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn silently_corrupted_entries_are_checksum_misses() {
        // A bit flip that still parses as valid JSON must not be
        // served: the envelope checksum catches what the parser can't.
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(23));
        let binary = &corpus.test[0].binary.strip();
        let cache = temp_cache("silent");
        let rec = Recorder::new(RecorderConfig::default());
        let first = function_local(&cache, binary, &rec);
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
            // Change one digit inside the JSON payload to a different
            // digit — the entry still parses, but the data is wrong.
            let i = bytes[newline + 1..]
                .iter()
                .position(|b| b.is_ascii_digit())
                .map(|i| i + newline + 1)
                .unwrap();
            bytes[i] = if bytes[i] == b'1' { b'2' } else { b'1' };
            std::fs::write(&path, &bytes).unwrap();
        }
        let healed = function_local(&cache, binary, &rec);
        assert_eq!(first, healed, "tampered entry must recompute, not serve");
        assert_eq!(rec.metrics().counter_value("cache.miss"), 2);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_entries_recompute_instead_of_failing() {
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(23));
        let binary = &corpus.test[0].binary.strip();
        let cache = temp_cache("corrupt");
        let rec = Recorder::new(RecorderConfig::default());
        let first = function_local(&cache, binary, &rec);
        // Truncate every entry; the next read must recompute and heal.
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            let path = entry.unwrap().path();
            std::fs::write(&path, b"{").unwrap();
        }
        let healed = function_local(&cache, binary, &rec);
        assert_eq!(first, healed);
        assert_eq!(rec.metrics().counter_value("cache.miss"), 2);
        let warm = function_local(&cache, binary, &rec);
        assert_eq!(first, warm);
        assert_eq!(rec.metrics().counter_value("cache.hit"), 1);
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
