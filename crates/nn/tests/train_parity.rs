//! Parity harness for the lane-tiled training step: `batch_gradients`
//! and `train_epoch` must equal a per-sample `backward` oracle bit for
//! bit — every gradient element, the loss and the trained weights —
//! for any batch size, geometry and class count, on hostile inputs
//! too, and for any thread count.

use cati_nn::{Adam, GradBuffers, SampleSource, TextCnn, TextCnnConfig, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

type Data = Vec<(Vec<f32>, usize)>;

/// Samples per gradient shard of the trainer.
const SHARD: usize = 8;

/// The per-sample trainer's minibatch gradients: shards of 8 samples,
/// each sample's `backward` accumulated in order into its shard's
/// buffer, the shard buffers reduced in shard order starting from the
/// first one.
fn oracle_gradients(model: &TextCnn, data: &Data, idxs: &[usize]) -> (GradBuffers, f64) {
    let mut total: Option<(GradBuffers, f64)> = None;
    for shard in idxs.chunks(SHARD) {
        let mut ws = Workspace::default();
        let mut g = model.grad_buffers();
        let mut loss = 0.0f64;
        for &i in shard {
            let (x, label) = &data[i];
            loss += f64::from(model.backward(x, *label, &mut ws, &mut g));
        }
        total = Some(match total {
            None => (g, loss),
            Some((mut acc, acc_loss)) => {
                acc.add(&g);
                (acc, acc_loss + loss)
            }
        });
    }
    total.unwrap_or_else(|| (model.grad_buffers(), 0.0))
}

/// The per-sample trainer's epoch: `train_epoch`'s shuffle and
/// optimizer steps around [`oracle_gradients`].
fn oracle_epoch(
    model: &mut TextCnn,
    data: &Data,
    opt: &mut Adam,
    batch_size: usize,
    rng: &mut StdRng,
) -> f32 {
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(rng);
    let mut total = 0.0f64;
    for chunk in order.chunks(batch_size.max(1)) {
        let (mut grads, loss) = oracle_gradients(model, data, chunk);
        total += loss;
        model.apply_grads(&mut grads, opt, chunk.len());
    }
    (total / data.len().max(1) as f64) as f32
}

/// Bitwise equality, except that any two NaNs match: Rust leaves the
/// payload of a NaN result unspecified.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The first mismatching `(tensor, element, got, want)`, if any.
fn grad_mismatch(got: &GradBuffers, want: &GradBuffers) -> Option<(usize, usize, f32, f32)> {
    let (mut got, mut want) = (got.clone(), want.clone());
    let (got, want) = (got.as_mut_arrays(), want.as_mut_arrays());
    for (t, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.len(), w.len());
        if let Some(e) = (0..g.len()).find(|&e| !same_bits(g[e], w[e])) {
            return Some((t, e, g[e], w[e]));
        }
    }
    None
}

/// The first mismatching `(tensor, element)` between two models'
/// parameters, if any.
fn param_mismatch(got: &TextCnn, want: &TextCnn) -> Option<(usize, usize)> {
    for (t, (g, w)) in got.params().iter().zip(want.params()).enumerate() {
        if let Some(e) = (0..g.len()).find(|&e| !same_bits(g[e], w[e])) {
            return Some((t, e));
        }
    }
    None
}

/// Values that must flow through both paths identically: both zeros,
/// both infinities and a NaN.
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// One input row of kind `kind % 4`: ordinary values with signed
/// zeros mixed in, an all-zero padded window, a row scaled so far up
/// that softmax saturates (exact-zero logit gradients, so the dense
/// zero-gradient skip runs), or a row sprinkled with ±∞ and NaN.
fn row(cfg: &TextCnnConfig, rng: &mut StdRng, kind: usize) -> Vec<f32> {
    (0..cfg.embed_dim * cfg.seq_len)
        .map(|_| match kind % 4 {
            0 if rng.gen_range(0..4) == 0 => SPECIALS[rng.gen_range(0..2)],
            0 => rng.gen_range(-2.0f32..2.0),
            1 => 0.0,
            2 => rng.gen_range(-2.0f32..2.0) * 1.0e5,
            _ if rng.gen_range(0..8) == 0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// `n` labelled rows of the first three kinds, plus rows with ±∞ and
/// NaN when `hostile` is set.
fn dataset(cfg: &TextCnnConfig, rng: &mut StdRng, n: usize, hostile: bool) -> Data {
    (0..n)
        .map(|_| {
            let kind = if hostile {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..3)
            };
            (row(cfg, rng, kind), rng.gen_range(0..cfg.classes))
        })
        .collect()
}

/// Test geometries: the tiny test config at odd and even lengths, and
/// the medium-width stage CNN (embed 3×16, conv 16/32, fc 256).
fn geometry(which: usize, classes: usize) -> TextCnnConfig {
    let tiny = |seq_len| TextCnnConfig {
        seq_len,
        ..TextCnnConfig::tiny(3, classes)
    };
    match which {
        0 => tiny(21),
        1 => tiny(20),
        2 => tiny(7),
        _ => TextCnnConfig {
            seq_len: 21,
            embed_dim: 48,
            conv1: 16,
            conv2: 32,
            fc: 256,
            classes,
        },
    }
}

const CLASSES: [usize; 4] = [2, 3, 5, 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `batch_gradients` equals the per-sample oracle bit for bit on
    /// every gradient element and on the loss, for batches spanning
    /// one partial shard up to nine shards.
    #[test]
    fn batch_gradients_equal_the_per_sample_oracle(
        seed in 0u64..100_000,
        batch in 1usize..71,
        which in 0usize..4,
        class_idx in 0usize..4,
        hostile in 0usize..2,
    ) {
        let cfg = geometry(which, CLASSES[class_idx]);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = TextCnn::new(cfg, seed);
        let data = dataset(&cfg, &mut rng, batch, hostile == 1);
        let mut idxs: Vec<usize> = (0..batch).collect();
        idxs.shuffle(&mut rng);
        let (got, got_loss) = model.batch_gradients(&data, &idxs);
        let (want, want_loss) = oracle_gradients(&model, &data, &idxs);
        prop_assert!(
            got_loss.to_bits() == want_loss.to_bits() || (got_loss.is_nan() && want_loss.is_nan()),
            "loss {} vs oracle {}", got_loss, want_loss
        );
        let mismatch = grad_mismatch(&got, &want);
        prop_assert!(mismatch.is_none(), "gradient (tensor, element, got, want) {:?}", mismatch);
    }
}

/// Saturated rows give exact-zero logit gradients (probabilities of
/// exactly 0 and 1), so the dense zero-gradient skip runs in the
/// tiled kernel; the gradients still match the oracle bit for bit.
#[test]
fn saturated_softmax_exercises_the_zero_gradient_skip() {
    for (which, &classes) in CLASSES.iter().enumerate() {
        let cfg = geometry(which, classes);
        let mut rng = StdRng::seed_from_u64(41 + which as u64);
        let model = TextCnn::new(cfg, 5);
        let data: Data = (0..13)
            .map(|i| (row(&cfg, &mut rng, 2), i % classes))
            .collect();
        let exact = data
            .iter()
            .flat_map(|(x, _)| model.predict(x))
            .filter(|&p| p == 0.0 || p == 1.0)
            .count();
        assert!(exact > 0, "no saturated probability for classes={classes}");
        let idxs: Vec<usize> = (0..data.len()).collect();
        let (got, got_loss) = model.batch_gradients(&data, &idxs);
        let (want, want_loss) = oracle_gradients(&model, &data, &idxs);
        assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_eq!(grad_mismatch(&got, &want), None);
    }
}

/// Two epochs of `train_epoch` leave the weights (and the mean losses)
/// bitwise equal to a per-sample trainer's, across batch sizes that
/// end in partial shards and partial batches.
#[test]
fn two_epochs_match_a_per_sample_trainer() {
    for (which, batch) in [(0, 16), (2, 13), (3, 20)] {
        let cfg = geometry(which, 5);
        let mut rng = StdRng::seed_from_u64(7 + which as u64);
        let data = dataset(&cfg, &mut rng, 45, false);
        let mut tiled = TextCnn::new(cfg, 3);
        let mut oracle = tiled.clone();
        let (mut opt_t, mut opt_o) = (Adam::new(0.01), Adam::new(0.01));
        let (mut rng_t, mut rng_o) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for epoch in 0..2 {
            let got = tiled.train_epoch(&data, &mut opt_t, batch, &mut rng_t);
            let want = oracle_epoch(&mut oracle, &data, &mut opt_o, batch, &mut rng_o);
            assert_eq!(got.to_bits(), want.to_bits(), "epoch {epoch} loss");
            assert_eq!(
                param_mismatch(&tiled, &oracle),
                None,
                "geometry {which}, epoch {epoch}: weights diverge"
            );
        }
    }
}

/// A [`SampleSource`] that records which threads read it.
struct Recording {
    rows: Data,
    threads: Mutex<HashSet<ThreadId>>,
}

impl SampleSource for Recording {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn sample<'a>(&'a self, idx: usize, _scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        self.threads
            .lock()
            .expect("thread set")
            .insert(std::thread::current().id());
        let (x, label) = &self.rows[idx];
        (x, *label)
    }
}

/// The shards of one minibatch spread over the worker threads (the
/// rayon shim would otherwise run a minibatch as a single job), and
/// the gradients stay bitwise equal to a single-threaded run.
#[test]
fn shards_run_on_several_threads_with_identical_gradients() {
    let cfg = geometry(0, 3);
    let model = TextCnn::new(cfg, 2);
    let idxs: Vec<usize> = (0..64).collect();
    let run = |threads: usize| {
        let src = Recording {
            rows: dataset(&cfg, &mut StdRng::seed_from_u64(4), idxs.len(), false),
            threads: Mutex::new(HashSet::new()),
        };
        let (grads, loss) = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| model.batch_gradients(&src, &idxs));
        let seen = src.threads.lock().expect("thread set").len();
        (grads, loss, seen)
    };
    let (g1, l1, _) = run(1);
    let (g2, l2, seen) = run(2);
    assert!(seen >= 2, "64 samples at threads=2 ran on {seen} thread(s)");
    assert_eq!(l1.to_bits(), l2.to_bits());
    assert_eq!(grad_mismatch(&g2, &g1), None);
    assert!(l1 > 0.0);
}
