//! Training and inference speed (paper §VII): the paper quotes ~2 h
//! CNN training, ~3 h Word2Vec, 24 min extraction + 5 min prediction
//! over the test set, ~6 s per binary end to end. We time the same
//! phases on this substrate, at one worker thread and at all cores,
//! and record the result in `BENCH_speed.json` so later changes have
//! a perf trajectory to compare against.
//!
//! The execution engine is deterministic across thread counts, so the
//! two timed runs must also produce bit-identical models — this
//! binary asserts that and records it.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_speed -- --scale medium
//! ```

use cati::obs::{Observer, Recorder};
use cati::{embedding_sentences, ArtifactCache, Cati, Config, Dataset, MultiStage};
use cati_analysis::{ContextMode, FeatureView};
use cati_bench::{workspace_root, RunObs, Scale, SEED};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, Compiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Instant;

/// One timed training + inference pass at a fixed thread count.
struct Run {
    threads: usize,
    cnn_train_s: f64,
    train_s_per_epoch: f64,
    infer_s: f64,
    infer_s_per_binary: f64,
    infer_vucs_per_s: f64,
    model_json: String,
}

fn timed_run(
    threads: usize,
    config: &Config,
    corpus: &cati_synbin::Corpus,
    train_ds: &Dataset,
    embedder: &VucEmbedder,
    test_vucs: usize,
) -> Run {
    let config = Config { threads, ..*config };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");

    let t = Instant::now();
    let stages = pool.install(|| MultiStage::train(train_ds, embedder, &config, &cati::obs::NOOP));
    let cnn_train_s = t.elapsed().as_secs_f64();

    let cati = Cati {
        config,
        embedder: embedder.clone(),
        stages,
    };
    let model_json = serde_json::to_string(&cati.stages).expect("serialize stages");

    let t = Instant::now();
    let mut total_vars = 0usize;
    for built in &corpus.test {
        let stripped = built.binary.strip();
        let inferred = cati.infer(&stripped).expect("inference");
        total_vars += inferred.len();
    }
    let infer_s = t.elapsed().as_secs_f64();
    println!(
        "threads={threads}: CNN train {:.2}s ({:.2}s/epoch), inference {:.2}s \
         ({:.3} s/binary, {:.0} VUCs/s, {total_vars} variables typed)",
        cnn_train_s,
        cnn_train_s / config.epochs.max(1) as f64,
        infer_s,
        infer_s / corpus.test.len() as f64,
        test_vucs as f64 / infer_s,
    );
    Run {
        threads,
        cnn_train_s,
        train_s_per_epoch: cnn_train_s / config.epochs.max(1) as f64,
        infer_s,
        infer_s_per_binary: infer_s / corpus.test.len() as f64,
        infer_vucs_per_s: test_vucs as f64 / infer_s,
        model_json,
    }
}

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_speed");
    let config: Config = scale.config();
    let corpus = build_corpus(&scale.corpus(SEED).with_compiler(Compiler::Gcc));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\nTiming ({}; {} train / {} test binaries; {} cores)\n",
        scale.name(),
        corpus.train.len(),
        corpus.test.len(),
        cores
    );

    let t = Instant::now();
    let train_ds = {
        let _span = cati::obs::SpanGuard::enter(run.obs(), "extract");
        Dataset::from_binaries_mode(
            &corpus.train,
            FeatureView::WithSymbols,
            ContextMode::FunctionLocal,
            None,
            run.obs(),
        )
    };
    let t_extract_train = t.elapsed();
    println!(
        "extraction (train): {:>8.2?}  ({} vars, {} VUCs)",
        t_extract_train,
        train_ds.var_count(),
        train_ds.vuc_count()
    );

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sentences = embedding_sentences(&corpus.train, config.max_sentences, &mut rng);
    let w2v = {
        let _span = cati::obs::SpanGuard::enter(run.obs(), "embed");
        Word2Vec::train_observed(&sentences, config.w2v, run.obs())
    };
    let t_w2v = t.elapsed();
    println!(
        "Word2Vec training:  {t_w2v:>8.2?}  ({} sentences)",
        sentences.len()
    );
    let embedder = VucEmbedder::new(w2v);

    let test_vucs: usize = corpus
        .test
        .iter()
        .map(|b| {
            cati_analysis::extract(&b.binary.strip(), FeatureView::Stripped)
                .map_or(0, |ex| ex.vucs.len())
        })
        .sum();

    // One worker vs. all cores (at least 2, so the multi-thread code
    // path is exercised even on a single-core machine).
    let multi = cores.max(2);
    let single = timed_run(1, &config, &corpus, &train_ds, &embedder, test_vucs);
    let parallel = timed_run(multi, &config, &corpus, &train_ds, &embedder, test_vucs);

    let bit_identical = single.model_json == parallel.model_json;
    assert!(
        bit_identical,
        "threads=1 and threads={multi} models diverged"
    );
    let speedup_train = single.cnn_train_s / parallel.cnn_train_s;
    let speedup_infer = parallel.infer_vucs_per_s / single.infer_vucs_per_s;
    println!(
        "\nspeedup: train {speedup_train:.2}x, inference {speedup_infer:.2}x \
         (threads {multi} vs 1 on {cores} cores); models bit-identical: {bit_identical}"
    );
    if cores == 1 {
        println!("note: single-core machine — wall-clock speedup is not measurable here");
    }
    println!("paper: ~6 s per binary (extraction dominates), 2 h CNN, 3 h Word2Vec");

    // Cold-vs-warm artifact cache: infer over the stripped test set
    // three times — no cache, against a fresh cache directory (cold),
    // and again against the now-populated cache (warm). All three must
    // produce bit-identical output; the cold/warm wall-clock ratio is
    // the cache-speedup headline recorded in BENCH_speed.json.
    let stages: MultiStage = serde_json::from_str(&parallel.model_json).expect("stages roundtrip");
    let cati = Cati {
        config: Config {
            threads: multi,
            ..config
        },
        embedder: embedder.clone(),
        stages,
    };
    let stripped: Vec<_> = corpus.test.iter().map(|b| b.binary.strip()).collect();
    let artifacts_dir = workspace_root().join("target/cati-cache/speed-artifacts");
    let _ = std::fs::remove_dir_all(&artifacts_dir);
    let artifacts = ArtifactCache::open(&artifacts_dir).expect("open artifact cache");
    let infer_all = |cache: Option<&ArtifactCache>, obs: &dyn Observer| {
        let t = Instant::now();
        let vars: Vec<Vec<_>> = stripped
            .iter()
            .map(|bin| cati.infer_cached(bin, cache, obs).expect("inference"))
            .collect();
        let json = serde_json::to_string(&vars).expect("vars json");
        (t.elapsed().as_secs_f64(), json)
    };
    let (uncached_s, uncached_out) = infer_all(None, &cati::obs::NOOP);
    let cold_rec = Recorder::silent();
    let (cache_cold_s, cold_out) = infer_all(Some(&artifacts), &cold_rec);
    let warm_rec = Recorder::silent();
    let (cache_warm_s, warm_out) = infer_all(Some(&artifacts), &warm_rec);
    assert_eq!(
        uncached_out, cold_out,
        "cold cache changed inference output"
    );
    assert_eq!(
        uncached_out, warm_out,
        "warm cache changed inference output"
    );
    let cold_hits = cold_rec.metrics().counter_value("cache.hit");
    let warm_hits = warm_rec.metrics().counter_value("cache.hit");
    assert!(warm_hits > 0, "warm run should hit the artifact cache");
    let cache_speedup = cache_cold_s / cache_warm_s.max(1e-9);
    println!(
        "artifact cache: uncached {uncached_s:.2}s, cold {cache_cold_s:.2}s \
         ({cold_hits} hits), warm {cache_warm_s:.2}s ({warm_hits} hits) — \
         {cache_speedup:.2}x cold/warm, outputs bit-identical"
    );

    // Model container: save the trained system as a CATI1 container,
    // then time a cold load back and verify it round-trips exactly.
    let model_path = artifacts_dir.join("speed-model.cati");
    cati.save(&model_path).expect("save model");
    let model_bytes = std::fs::metadata(&model_path)
        .expect("model metadata")
        .len();
    let t = Instant::now();
    let loaded = Cati::load(&model_path).expect("load model");
    let model_load_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded, cati, "loaded model diverged from the saved one");
    // A v2 container load keeps the weights memory-mapped (zero-copy).
    let model_mapped_tensors = loaded.mapped_param_count();
    #[cfg(unix)]
    assert!(
        model_mapped_tensors > 0,
        "v2 model load should be zero-copy on unix"
    );

    // Embedding throughput: VUC rows embedded per second over the
    // stripped test set (the tensor-build stage of inference).
    let test_exs: Vec<_> = stripped
        .iter()
        .filter_map(|bin| cati_analysis::extract(bin, FeatureView::Stripped).ok())
        .collect();
    // Best of three passes: a single pass is dominated by scheduler
    // and frequency noise on small corpora, and the quantity of
    // interest is steady-state throughput (the first pass also warms
    // the column cache for any instruction inference never saw).
    let mut embed_rows = 0usize;
    let mut embed_s = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let rows: usize = test_exs
            .iter()
            .map(|ex| cati::dataset::embed_extraction(ex, &cati.embedder).rows())
            .sum();
        let s = t.elapsed().as_secs_f64();
        embed_rows = rows;
        embed_s = embed_s.min(s);
    }
    let embed_rows_per_s = embed_rows as f64 / embed_s.max(1e-9);
    println!(
        "model container: {model_bytes} bytes, loads in {model_load_ms:.1} ms; \
         embedding {embed_rows} rows at {embed_rows_per_s:.0} rows/s"
    );

    // Serve daemon throughput: the same model behind `cati serve`,
    // measured end to end over loopback HTTP — requests/s and
    // latency percentiles at 1 and 8 concurrent clients, plus a
    // cold-cache pass (fresh server-side ArtifactCache, so the first
    // touch of each binary pays extraction + embedding). Every
    // response is checked byte-identical to in-process inference.
    let serve_cache_dir = artifacts_dir.join("serve-cache");
    let _ = std::fs::remove_dir_all(&serve_cache_dir);
    let handle = cati_serve::Server::start(
        cati.clone(),
        cati_serve::ServeConfig {
            cache_dir: Some(serve_cache_dir),
            ..cati_serve::ServeConfig::default()
        },
    )
    .expect("start serve daemon");
    let expected: Vec<String> = stripped
        .iter()
        .map(|bin| {
            let mut vars = cati.infer(bin).expect("inference");
            vars.sort_by_key(|v| (v.key.func, v.key.offset));
            serde_json::to_string_pretty(&vars).expect("vars json")
        })
        .collect();
    let requests: Vec<cati_serve::Request> = stripped
        .iter()
        .map(|bin| {
            cati_serve::Request::new("POST", "/infer")
                .with_body(serde_json::to_vec(bin).expect("binary json"))
        })
        .collect();
    let serve_pass = |clients: usize, per_client: usize| -> (f64, f64, f64) {
        let addr = handle.addr();
        let t = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let requests = requests.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut latencies_ms = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let k = (c * per_client + i) % requests.len();
                        let t0 = Instant::now();
                        let response =
                            cati_serve::roundtrip(addr, &requests[k]).expect("serve roundtrip");
                        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(response.status, 200, "serve answered {}", response.status);
                        assert_eq!(
                            String::from_utf8_lossy(&response.body),
                            expected[k],
                            "served response diverged from in-process inference"
                        );
                    }
                    latencies_ms
                })
            })
            .collect();
        let mut latencies: Vec<f64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        (
            (clients * per_client) as f64 / wall_s.max(1e-9),
            pct(0.50),
            pct(0.99),
        )
    };
    // Cold: one sequential sweep populates the server-side cache.
    let (serve_cold_reqs_per_s, serve_cold_p50_ms, _) = serve_pass(1, stripped.len());
    // Warm: cache hits only, 1 client vs 8 clients.
    let (serve_1_reqs_per_s, serve_1_p50_ms, serve_1_p99_ms) = serve_pass(1, 16);
    let (serve_reqs_per_s, serve_p50_ms, serve_p99_ms) = serve_pass(8, 3);
    let serve_metrics = handle.recorder().metrics().snapshot();
    let serve_batched = serve_metrics
        .histogram("serve.batch_size")
        .map_or(0.0, |h| h.sum - h.count as f64);
    drop(handle);
    println!(
        "serve: cold {serve_cold_reqs_per_s:.1} req/s (p50 {serve_cold_p50_ms:.1} ms); \
         warm 1 client {serve_1_reqs_per_s:.1} req/s (p50 {serve_1_p50_ms:.1} / p99 {serve_1_p99_ms:.1} ms), \
         8 clients {serve_reqs_per_s:.1} req/s (p50 {serve_p50_ms:.1} / p99 {serve_p99_ms:.1} ms); \
         {serve_batched:.0} requests rode in shared batches"
    );

    let run_json = |r: &Run| {
        json!({
            "threads": r.threads,
            "cnn_train_s": r.cnn_train_s,
            "train_s_per_epoch": r.train_s_per_epoch,
            "infer_s": r.infer_s,
            "infer_s_per_binary": r.infer_s_per_binary,
            "infer_vucs_per_s": r.infer_vucs_per_s,
        })
    };
    // Stamp provenance so BENCH_speed.json and the history line can
    // be diffed across revisions (`cati report --bench-diff`).
    let rev = cati::obs::git_rev(std::path::Path::new("."));
    let stamped_ms = cati::obs::manifest::unix_ms();
    let report = json!({
        "experiment": "speed",
        "git_rev": rev.as_deref().unwrap_or("unknown"),
        "unix_ms": stamped_ms,
        "scale": scale.name(),
        "seed": SEED,
        "cores": cores,
        "test_vucs": test_vucs,
        "extract_train_s": t_extract_train.as_secs_f64(),
        "word2vec_s": t_w2v.as_secs_f64(),
        "runs": [run_json(&single), run_json(&parallel)],
        "speedup_train": speedup_train,
        "speedup_infer": speedup_infer,
        "models_bit_identical": bit_identical,
        "cache_uncached_s": uncached_s,
        "cache_cold_s": cache_cold_s,
        "cache_warm_s": cache_warm_s,
        "cache_speedup": cache_speedup,
        "cache_cold_hits": cold_hits,
        "cache_warm_hits": warm_hits,
        "cache_outputs_bit_identical": true,
        "model_bytes": model_bytes,
        "model_load_ms": model_load_ms,
        "model_mapped_tensors": model_mapped_tensors,
        "embed_rows_per_s": embed_rows_per_s,
        "serve_cold_reqs_per_s": serve_cold_reqs_per_s,
        "serve_cold_p50_ms": serve_cold_p50_ms,
        "serve_1client_reqs_per_s": serve_1_reqs_per_s,
        "serve_1client_p50_ms": serve_1_p50_ms,
        "serve_1client_p99_ms": serve_1_p99_ms,
        "serve_reqs_per_s": serve_reqs_per_s,
        "serve_p50_ms": serve_p50_ms,
        "serve_p99_ms": serve_p99_ms,
        "serve_clients": 8,
        "serve_batched_requests": serve_batched,
        "serve_outputs_bit_identical": true,
        "note": if cores == 1 {
            "single-core machine: threads>1 runs oversubscribed, wall-clock speedup not measurable"
        } else {
            "speedups are wall-clock, all-cores vs one worker thread"
        },
        "metrics": serde_json::to_value(&run.recorder().snapshot()).expect("metrics snapshot"),
    });
    let out = "BENCH_speed.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&report).expect("report json"),
    )
    .expect("write BENCH_speed.json");
    println!("wrote {out}");

    // Perf observatory: append the flat key-metric record to the
    // git-rev-stamped history, one line per benchmark run.
    let history_line = json!({
        "git_rev": rev.as_deref().unwrap_or("unknown"),
        "unix_ms": stamped_ms,
        "scale": scale.name(),
        "cores": cores,
        "infer_vucs_per_s": parallel.infer_vucs_per_s,
        "embed_rows_per_s": embed_rows_per_s,
        "serve_reqs_per_s": serve_reqs_per_s,
        "serve_p99_ms": serve_p99_ms,
        "model_load_ms": model_load_ms,
    });
    let history = "results/bench_history.jsonl";
    cati::obs::bench::append_history(history, &history_line).expect("append bench history");
    println!("appended key metrics to {history}");
    run.finish(&json!({
        "experiment": "speed",
        "scale": scale.name(),
        "speedup_train": speedup_train,
        "speedup_infer": speedup_infer,
        "models_bit_identical": bit_identical,
        "cache_speedup": cache_speedup,
        "cache_warm_hits": warm_hits,
        "serve_reqs_per_s": serve_reqs_per_s,
        "serve_p99_ms": serve_p99_ms,
    }));
}
