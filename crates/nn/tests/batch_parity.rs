//! Parity harness for the batched inference path: `predict_batch`
//! must agree with per-sample `predict` on every row, for untrained
//! and trained models, across shard boundaries of the work splitter,
//! and bit for bit on batches whose conv1 input windows repeat.

use cati_nn::{Adam, TextCnn, TextCnnConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-inputs covering a range of magnitudes.
fn inputs(cfg: &TextCnnConfig, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|s| {
            (0..cfg.embed_dim * cfg.seq_len)
                .map(|i| ((s * 31 + i) as f32 * 0.37).sin() * 2.0)
                .collect()
        })
        .collect()
}

fn assert_parity(model: &TextCnn, xs: &[Vec<f32>]) {
    let batch = model.predict_batch(xs);
    assert_eq!(batch.rows(), xs.len());
    for (x, row) in xs.iter().zip(batch.rows_iter()) {
        let single = model.predict(x);
        assert_eq!(single.len(), row.len());
        for (a, b) in single.iter().zip(row) {
            assert!((a - b).abs() <= 1e-5, "batch/single diverge: {a} vs {b}");
        }
    }
}

#[test]
fn predict_batch_matches_predict_untrained() {
    let cfg = TextCnnConfig::tiny(6, 4);
    let model = TextCnn::new(cfg, 7);
    // 37 samples: spans several shards of the parallel splitter.
    assert_parity(&model, &inputs(&cfg, 37));
}

#[test]
fn predict_batch_matches_predict_after_training() {
    let cfg = TextCnnConfig::tiny(5, 3);
    let mut model = TextCnn::new(cfg, 11);
    let data: Vec<(Vec<f32>, usize)> = inputs(&cfg, 24)
        .into_iter()
        .enumerate()
        .map(|(i, x)| (x, i % cfg.classes))
        .collect();
    let mut opt = Adam::new(0.01);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3 {
        model.train_epoch(&data, &mut opt, 6, &mut rng);
    }
    assert_parity(&model, &inputs(&cfg, 19));
}

#[test]
fn predict_batch_handles_empty_and_single_inputs() {
    let cfg = TextCnnConfig::tiny(4, 3);
    let model = TextCnn::new(cfg, 1);
    let none: Vec<Vec<f32>> = Vec::new();
    assert!(model.predict_batch(&none).is_empty());
    assert_parity(&model, &inputs(&cfg, 1));
}

/// Column values the conv1 slot keys must keep apart: both zeros,
/// both infinities and two NaN payloads.
const SPECIAL_BITS: [u32; 6] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0x7fc0_0001,
];

/// `rows` inputs that slide one column at a time over a stream drawn
/// from a pool of `pool` columns, so (previous, column, next) triples
/// repeat across rows and across row positions, the first and last
/// columns included. Every column in the pool has a twin with each
/// `±0.0` flipped, and with `special` set a third of the values are
/// signed zeros, infinities or NaNs.
fn sliding_rows(
    cfg: &TextCnnConfig,
    rng: &mut StdRng,
    rows: usize,
    pool: usize,
    special: bool,
) -> Vec<Vec<f32>> {
    let (dim, len) = (cfg.embed_dim, cfg.seq_len);
    let mut columns: Vec<Vec<f32>> = Vec::new();
    for _ in 0..pool {
        let column: Vec<f32> = (0..dim)
            .map(|_| {
                if special && rng.gen_range(0..3) == 0 {
                    f32::from_bits(SPECIAL_BITS[rng.gen_range(0..SPECIAL_BITS.len())])
                } else if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        let twin = column
            .iter()
            .map(|&v| if v == 0.0 { -v } else { v })
            .collect();
        columns.push(column);
        columns.push(twin);
    }
    let stream: Vec<usize> = (0..rows + len - 1)
        .map(|_| rng.gen_range(0..columns.len()))
        .collect();
    stream
        .windows(len)
        .map(|w| {
            let mut x = vec![0.0; dim * len];
            for (t, &c) in w.iter().enumerate() {
                for (e, &v) in columns[c].iter().enumerate() {
                    x[e * len + t] = v;
                }
            }
            x
        })
        .collect()
}

/// Bitwise equality, except that any two NaNs match: Rust leaves the
/// payload of a NaN result unspecified.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `predict_batch` (conv1 once per distinct input window) equals
    /// per-sample `predict` bit for bit, for full 8-row tiles and for
    /// tails shorter than 8 rows.
    #[test]
    fn predict_batch_is_bitwise_equal_to_predict_on_sliding_windows(
        seed in 0u64..100_000,
        embed_dim in 1usize..5,
        seq_len in 4usize..24,
        rows in 1usize..27,
        pool in 1usize..5,
        special in 0usize..2,
    ) {
        let cfg = TextCnnConfig {
            seq_len,
            embed_dim,
            conv1: 3,
            conv2: 4,
            fc: 6,
            classes: 3,
        };
        let model = TextCnn::new(cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = sliding_rows(&cfg, &mut rng, rows, pool, special == 1);
        let batch = model.predict_batch(&xs);
        prop_assert_eq!(batch.rows(), rows);
        for (i, x) in xs.iter().enumerate() {
            let single = model.predict(x);
            for (c, (&a, &b)) in batch.row(i).iter().zip(&single).enumerate() {
                prop_assert!(same_bits(a, b), "row {} class {}: batch {:?} vs predict {:?}", i, c, a, b);
            }
        }
    }
}
