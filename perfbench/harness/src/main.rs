//! Traced in-process run of the benchmark: times the calls into each
//! layer's public functions (see `layers.rs`), records a span around
//! each, counts allocations per layer at one thread, and prints one
//! JSON object of per-layer metrics as the last line of stdout.
//!
//! ```text
//! perfbench-harness --model MODEL.cati --bodies DIR --seed N --out DIR
//! ```
//!
//! `--bodies` holds the stripped binaries exactly as they are posted
//! to `/infer`; `--seed` regenerates the same medium corpus for the
//! training layers. Spans are written to `OUT/spans.json`.

mod alloc;
mod layers;
mod trace;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Request bodies the harness uses (the first, by file name).
const BODIES_USED: usize = 10;
/// Training binaries behind the training-layer measurements.
const TRAIN_BINARIES: usize = 4;
/// Timed repetitions of each measurement; the median is reported.
const REPS: usize = 3;

struct Opts {
    model: PathBuf,
    bodies: PathBuf,
    out: PathBuf,
    seed: u64,
}

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let path = |k: &str| {
        flags
            .get(k)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{k} is required"))
    };
    Ok(Opts {
        model: path("model")?,
        bodies: path("bodies")?,
        out: path("out")?,
        seed: flags
            .get("seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "bad --seed")?,
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Bitwise equality of two tensors.
fn same_bits(a: &cati::Tensor, b: &cati::Tensor) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn concat(parts: &[cati::Tensor]) -> cati::Tensor {
    let cols = parts.first().map_or(0, |t| t.cols());
    let rows = parts.iter().map(|t| t.rows()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for t in parts {
        data.extend_from_slice(t.as_slice());
    }
    cati::Tensor::from_flat(rows, cols, data)
}

/// Checks counted as attempted / failed operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("harness: check failed: {what}");
        }
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut metrics = Map::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), json!(value));
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();

    let mut body_paths: Vec<PathBuf> = std::fs::read_dir(&opts.bodies)
        .map_err(|e| format!("{}: {e}", opts.bodies.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    body_paths.sort();
    body_paths.truncate(BODIES_USED);
    if body_paths.is_empty() {
        return Err("no bodies".into());
    }
    let bodies: Vec<Vec<u8>> = body_paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;

    // Allocation counts first, on a freshly loaded model at one
    // thread, so no earlier pass has warmed the embedder's column
    // cache and the counts repeat exactly for a given seed.
    let fresh = layers::load_model(&opts.model)?;
    let mut allocs: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut work_vucs, mut work_vars) = (0usize, 0usize);
    layers::with_threads(&fresh, 1, || -> Result<(), String> {
        let mut count = |layer: &'static str, before: (u64, u64)| {
            let after = alloc::snapshot();
            let e = allocs.entry(layer).or_default();
            e.0 += after.0 - before.0;
            e.1 += after.1 - before.1;
        };
        for body in &bodies {
            let t = alloc::snapshot();
            let binary = layers::parse_body(body)?;
            count("body_parse", t);
            let t = alloc::snapshot();
            let ex = layers::extract(&fresh, &binary)?;
            count("extract", t);
            let t = alloc::snapshot();
            let rows = layers::embed(&fresh, &ex);
            count("embed", t);
            let t = alloc::snapshot();
            let dists = layers::classify(&fresh, &rows);
            count("classify", t);
            let t = alloc::snapshot();
            let vars = layers::vote(&fresh, &ex, dists);
            count("vote", t);
            work_vucs += layers::vuc_count(&ex);
            work_vars += vars.len();
        }
        Ok(())
    })?;
    drop(fresh);
    put("work.vucs", work_vucs as f64);
    put("work.vars", work_vars as f64);
    for (layer, (n, bytes)) in &allocs {
        put(
            &format!("{layer}.allocs_per_vuc"),
            *n as f64 / work_vucs as f64,
        );
        put(
            &format!("{layer}.alloc_bytes_per_vuc"),
            *bytes as f64 / work_vucs as f64,
        );
    }

    // Model load.
    let mut load_s = Vec::new();
    for _ in 0..REPS * 5 {
        let (model, dt) = tracer.span("model_load", 0, || layers::load_model(&opts.model));
        model?;
        load_s.push(dt);
    }
    put("core.model_load_ms", median(&load_s) * 1e3);
    let cati = layers::load_model(&opts.model)?;

    // Reference outputs through the one-call path.
    let binaries: Vec<_> = bodies
        .iter()
        .map(|b| layers::parse_body(b))
        .collect::<Result<_, _>>()?;
    let reference: Vec<_> = binaries
        .iter()
        .map(|b| layers::infer(&cati, b))
        .collect::<Result<_, _>>()?;

    // The per-request pipeline, traced and untraced in alternation;
    // layer rates come from the traced passes' spans.
    let pipeline_pass = |tracer: &Tracer, round: usize, checks: &mut Checks| {
        let t0 = Instant::now();
        let mut dur: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut rows_all = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let request = (round * bodies.len() + i) as u64;
            tracer.span("request", request, || {
                let mut step = |name: &'static str, dt: f64| *dur.entry(name).or_default() += dt;
                let (binary, dt) = tracer.span("parse", request, || layers::parse_body(body));
                step("parse", dt);
                let Ok(binary) = binary else {
                    checks.check(false, "parse");
                    return;
                };
                let (ex, dt) = tracer.span("extract", request, || layers::extract(&cati, &binary));
                step("extract", dt);
                let Ok(ex) = ex else {
                    checks.check(false, "extract");
                    return;
                };
                let (rows, dt) = tracer.span("embed", request, || layers::embed(&cati, &ex));
                step("embed", dt);
                let (dists, dt) =
                    tracer.span("classify", request, || layers::classify(&cati, &rows));
                step("classify", dt);
                let (vars, dt) = tracer.span("vote", request, || layers::vote(&cati, &ex, dists));
                step("vote", dt);
                checks.check(vars == reference[i], "pipeline output equals Cati::infer");
                rows_all.push(rows);
            });
        }
        (t0.elapsed().as_secs_f64(), dur, rows_all)
    };
    tracer.set_recording(false);
    let (_, _, rows_per_body) = pipeline_pass(&tracer, 0, &mut checks);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layer_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in 1..=REPS * 2 {
        tracer.set_recording(false);
        untraced.push(pipeline_pass(&tracer, round, &mut checks).0);
        tracer.set_recording(true);
        let (total, dur, _) = pipeline_pass(&tracer, round, &mut checks);
        traced.push(total);
        for (name, s) in dur {
            layer_s.entry(name).or_default().push(s);
        }
    }
    put(
        "obs.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    let per = |name: &str| median(&layer_s[name]);
    put(
        "serve.body_parse_ms",
        per("parse") * 1e3 / bodies.len() as f64,
    );
    put(
        "analysis.extract_vucs_per_s",
        work_vucs as f64 / per("extract"),
    );
    put(
        "embedding.embed_rows_per_s",
        work_vucs as f64 / per("embed"),
    );
    put(
        "core.classify_rows_per_s",
        work_vucs as f64 / per("classify"),
    );
    put("core.vote_vars_per_s", work_vars as f64 / per("vote"));

    // Decode on its own (extraction decodes internally).
    let mut decode_s = Vec::new();
    let mut insns = 0usize;
    for _ in 0..REPS {
        let mut total = 0.0;
        insns = 0;
        for (i, b) in binaries.iter().enumerate() {
            let (n, dt) = tracer.span("decode", i as u64, || layers::decode(b));
            insns += n?;
            total += dt;
        }
        decode_s.push(total);
    }
    put("asm.decode_insns_per_s", insns as f64 / median(&decode_s));

    // Classify: one batch of eight binaries' rows, bitwise equal to
    // the per-binary passes.
    let all_rows = concat(&rows_per_body);
    let eight = concat(&rows_per_body[..rows_per_body.len().min(8)]);
    let singles: Vec<_> = rows_per_body
        .iter()
        .take(8)
        .map(|r| layers::classify(&cati, r))
        .collect();
    let expect8 = concat(&singles);
    let mut b8 = Vec::new();
    for _ in 0..REPS {
        let (d, dt) = tracer.span("classify_batch8", 0, || layers::classify(&cati, &eight));
        checks.check(
            same_bits(&d, &expect8),
            "batch of 8 equals per-binary classify",
        );
        b8.push(dt);
    }
    put(
        "core.classify_batch8_rows_per_s",
        eight.rows() as f64 / median(&b8),
    );

    for (s, name) in layers::stage_names().into_iter().enumerate() {
        let mut ts = Vec::new();
        for _ in 0..REPS {
            ts.push(
                tracer
                    .span("stage_probs", s as u64, || {
                        layers::stage_probs(&cati, s, &all_rows)
                    })
                    .1,
            );
        }
        put(
            &format!("nn.stage_rows_per_s.{name}"),
            all_rows.rows() as f64 / median(&ts),
        );
    }

    // Thread scaling of classify.
    let mut rate = BTreeMap::new();
    let full = layers::classify(&cati, &all_rows);
    for threads in [1usize, 2] {
        let mut ts = Vec::new();
        for _ in 0..REPS {
            let (d, dt) = tracer.span("classify_threads", threads as u64, || {
                layers::with_threads(&cati, threads, || layers::classify(&cati, &all_rows))
            });
            checks.check(same_bits(&d, &full), "classify is thread-count invariant");
            ts.push(dt);
        }
        rate.insert(threads, all_rows.rows() as f64 / median(&ts));
    }
    put("core.classify_rows_per_s_t1", rate[&1]);
    put("core.classify_rows_per_s_t2", rate[&2]);
    put("core.classify_speedup_t2", rate[&2] / rate[&1]);

    // Artifact cache: warm hits against recomputing.
    let cache_dir = opts.out.join("artifact-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = layers::open_cache(&cache_dir)?;
    for (i, b) in binaries.iter().enumerate() {
        let vars = layers::infer_cached(&cati, b, &cache)?;
        checks.check(vars == reference[i], "cold cache output equals Cati::infer");
    }
    let (mut warm, mut recompute) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (res, dt) = tracer.span("infer_cached_warm", 0, || {
            binaries
                .iter()
                .map(|b| layers::infer_cached(&cati, b, &cache))
                .collect::<Result<Vec<_>, _>>()
        });
        checks.check(res? == reference, "warm cache output equals Cati::infer");
        warm.push(dt);
        let (res, dt) = tracer.span("infer", 0, || {
            binaries
                .iter()
                .map(|b| layers::infer(&cati, b))
                .collect::<Result<Vec<_>, _>>()
        });
        checks.check(res? == reference, "inference repeats exactly");
        recompute.push(dt);
    }
    put(
        "core.cache_warm_over_recompute",
        median(&warm) / median(&recompute),
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Training layers on the first training binaries of the corpus.
    let train = layers::train_binaries(opts.seed, TRAIN_BINARIES);
    let mut w2v = Vec::new();
    let mut tokens = 0;
    for _ in 0..REPS {
        let ((n, _), dt) = tracer.span("w2v_train", 0, || layers::train_w2v(&cati, &train));
        tokens = n;
        w2v.push(dt);
    }
    put("embedding.w2v_tokens_per_s", tokens as f64 / median(&w2v));
    let dataset = layers::training_dataset(&cati, &train);
    let shard_dir = opts.out.join("shards");
    let (mut write_s, mut read_s) = (Vec::new(), Vec::new());
    let mut rows_trained = 0;
    for _ in 0..REPS {
        let _ = std::fs::remove_dir_all(&shard_dir);
        let (n, dt) = tracer.span("shard_write", 0, || {
            layers::write_shards(&cati, &dataset, &shard_dir)
        });
        rows_trained = n?;
        write_s.push(dt);
        let (n, dt) = tracer.span("shard_read", 0, || layers::read_shards(&shard_dir));
        checks.check(n? == rows_trained, "shard set reads back every row");
        read_s.push(dt);
    }
    let _ = std::fs::remove_dir_all(&shard_dir);
    put("work.rows_trained", rows_trained as f64);
    put(
        "core.shard_write_rows_per_s",
        rows_trained as f64 / median(&write_s),
    );
    put(
        "core.shard_read_rows_per_s",
        rows_trained as f64 / median(&read_s),
    );
    let mut samples = layers::stage1_samples(&cati, &dataset);
    samples.truncate(layers::batch_size(&cati) * 8);
    let mut grad = BTreeMap::new();
    let mut losses = Vec::new();
    for threads in [1usize, 2] {
        let mut ts = Vec::new();
        for _ in 0..REPS {
            let (loss, dt) = tracer.span("gradients", threads as u64, || {
                layers::with_threads(&cati, threads, || layers::gradients(&cati, &samples))
            });
            losses.push(loss);
            ts.push(dt);
        }
        grad.insert(threads, samples.len() as f64 / median(&ts));
    }
    checks.check(
        losses.iter().all(|l| l.to_bits() == losses[0].to_bits()),
        "gradients are thread-count invariant",
    );
    put("nn.grad_samples_per_s", grad[&1]);
    put("nn.grad_samples_per_s_t2", grad[&2]);
    put("nn.grad_speedup_t2", grad[&2] / grad[&1]);

    let spans_path = opts.out.join("spans.json");
    std::fs::write(
        &spans_path,
        serde_json::to_vec(&tracer.to_json()).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let summary = json!({
        "attempted": checks.attempted,
        "failed": checks.failed,
        "spans": tracer.len(),
        "threads_available": std::thread::available_parallelism().map_or(1, usize::from),
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    match parse_opts().and_then(|opts| run(&opts)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
