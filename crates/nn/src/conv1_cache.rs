//! The conv1 triple cache: a stage CNN's first convolution computed
//! once per unique input window instead of once per (row, column).
//!
//! With kernel width `k` and padding `k/2`, output column `t` of the
//! first convolution reads input columns `t - k/2 ..= t + k/2` and
//! nothing else (for the CNN's `k = 3`: the previous, own and next
//! column). VUC windows slide over one instruction stream, so the
//! same column triples recur across the rows of a batch. A
//! [`Conv1Index`] maps every (row, column) of a batch to a *slot* —
//! one per distinct window of input columns — and
//! [`Conv1Index::fill`] runs conv1 + ReLU once per slot.
//!
//! Parity with the per-sample path ([`Conv1d::forward`]) is bitwise:
//!
//! - windows are keyed by the `f32` **bit patterns** of their columns,
//!   so two columns share a slot only when every float is the same
//!   bit string (`-0.0` and `+0.0`, or two NaN payloads, stay apart);
//! - out-of-range taps at the sequence edges are *skipped*, not
//!   zero-added, so an edge column's window carries a distinct
//!   "absent" id in the missing positions and never shares a slot
//!   with an interior window;
//! - each slot's output keeps the per-output chain of
//!   [`Conv1d::forward`]: bias first, then ascending `(i, dk)` over
//!   the in-range taps.

use crate::layers::{relu, Conv1d, LANES};
use crate::tensor::Rows;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Window id of a tap that falls outside `[0, seq_len)`.
const ABSENT: u32 = u32::MAX;

/// Interns fixed-width `u32` keys into dense ids `0, 1, …` in
/// first-seen order, storing each distinct key once. Open addressing
/// with linear probing. Ids — and so every result — depend only on
/// the key sequence, never on the hash.
struct Interner {
    width: usize,
    /// Distinct keys, `[id][width]`.
    keys: Vec<u32>,
    /// Id per bucket, `ABSENT` when empty; length a power of two.
    buckets: Vec<u32>,
    /// Multipliers of the multilinear hash, one per key word, then
    /// the offset.
    mul: Vec<u64>,
}

impl Interner {
    fn new(width: usize) -> Interner {
        // Keys derive from client-supplied binaries, so the hash is
        // keyed: random multipliers drawn from the standard library's
        // per-process random seed.
        let seed = RandomState::new();
        Interner {
            width,
            keys: Vec::new(),
            buckets: vec![ABSENT; 64],
            mul: (0..=width as u64).map(|i| seed.hash_one(i)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len() / self.width.max(1)
    }

    fn key(&self, id: u32) -> &[u32] {
        &self.keys[id as usize * self.width..][..self.width]
    }

    /// Bucket of `key`: the high bits of the multilinear hash
    /// `offset + Σ mul[i]·key[i] (mod 2^64)`, which are universal over
    /// random multipliers (Thorup, "High speed hashing for integers
    /// and strings").
    fn bucket(&self, key: &[u32]) -> usize {
        let (offset, mul) = self.mul.split_last().expect("offset multiplier");
        let h = key.iter().zip(mul).fold(*offset, |h, (&w, &m)| {
            h.wrapping_add(m.wrapping_mul(u64::from(w)))
        });
        (h >> 32) as usize & (self.buckets.len() - 1)
    }

    fn intern(&mut self, key: &[u32]) -> u32 {
        debug_assert_eq!(key.len(), self.width);
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket(key);
        while self.buckets[b] != ABSENT {
            let id = self.buckets[b];
            if self.key(id) == key {
                return id;
            }
            b = (b + 1) & mask;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != ABSENT)
            .expect("fewer than u32::MAX distinct keys per batch");
        self.keys.extend_from_slice(key);
        self.buckets[b] = id;
        if self.len() * 2 > self.buckets.len() {
            self.buckets = vec![ABSENT; self.buckets.len() * 2];
            let mask = self.buckets.len() - 1;
            for id in 0..=id {
                let mut b = self.bucket(self.key(id));
                while self.buckets[b] != ABSENT {
                    b = (b + 1) & mask;
                }
                self.buckets[b] = id;
            }
        }
        id
    }
}

/// One run of consecutive slots whose windows have the same in-range
/// taps `dk_lo..dk_hi` (all interior windows, or one edge column).
#[derive(Debug, Clone, Copy)]
struct Group {
    end: usize,
    dk_lo: usize,
    dk_hi: usize,
}

/// The slot map of one batch: which distinct input window each
/// (row, column) of the first convolution reads. Built once per batch
/// and shared by every stage model with the same input geometry
/// (`in_ch`, `seq_len`, kernel width).
#[derive(Debug)]
pub struct Conv1Index {
    in_ch: usize,
    seq_len: usize,
    k: usize,
    rows: usize,
    /// Distinct input columns as bit patterns, `[column][in_ch]`.
    columns: Vec<u32>,
    /// Distinct windows, `[slot][k]` column ids (`ABSENT` off the
    /// edge). Slots are numbered column-position-major, so each
    /// [`Group`] is one contiguous slot range.
    windows: Vec<u32>,
    groups: Vec<Group>,
    /// Slot of every (row, column), `[rows][seq_len]`.
    slot_of: Vec<u32>,
}

impl Conv1Index {
    /// Indexes `xs`, whose rows are `[in_ch][seq_len]` flattened, for
    /// a convolution of odd width `k`.
    ///
    /// # Panics
    ///
    /// Panics if a row is not `in_ch * seq_len` floats long.
    pub(crate) fn build<R: Rows + ?Sized>(xs: &R, in_ch: usize, seq_len: usize, k: usize) -> Self {
        let rows = xs.count();
        let len = seq_len;
        let pad = k / 2;
        // Pass 1: intern every (row, column) by its bit pattern.
        let mut columns = Interner::new(in_ch);
        let mut col_of = Vec::with_capacity(rows * len);
        let mut bits = vec![0u32; in_ch];
        for r in 0..rows {
            let x = xs.row_at(r);
            assert_eq!(
                x.len(),
                in_ch * len,
                "row {r}: expected {in_ch}×{len} floats"
            );
            for t in 0..len {
                for (i, b) in bits.iter_mut().enumerate() {
                    *b = x[i * len + t].to_bits();
                }
                col_of.push(columns.intern(&bits));
            }
        }
        // Pass 2: intern windows column-position-major, so all slots
        // of one edge kind are numbered contiguously.
        let mut windows = Interner::new(k);
        let mut groups: Vec<Group> = Vec::new();
        let mut slot_of = vec![0u32; rows * len];
        let mut key = vec![ABSENT; k];
        for t in 0..len {
            let dk_lo = pad.saturating_sub(t);
            let dk_hi = k.min(len + pad - t);
            for r in 0..rows {
                for (dk, id) in key.iter_mut().enumerate() {
                    *id = if (dk_lo..dk_hi).contains(&dk) {
                        col_of[r * len + t + dk - pad]
                    } else {
                        ABSENT
                    };
                }
                slot_of[r * len + t] = windows.intern(&key);
            }
            let end = windows.len();
            match groups.last_mut() {
                Some(g) if (g.dk_lo, g.dk_hi) == (dk_lo, dk_hi) => g.end = end,
                _ => groups.push(Group { end, dk_lo, dk_hi }),
            }
        }
        Conv1Index {
            in_ch,
            seq_len,
            k,
            rows,
            columns: columns.keys,
            windows: windows.keys,
            groups,
            slot_of,
        }
    }

    /// Conv1 input columns the batch holds (`rows × seq_len`): the
    /// work the per-row convolution did.
    pub fn columns(&self) -> usize {
        self.slot_of.len()
    }

    /// Distinct input windows: the conv1 work each stage now does.
    pub fn triples(&self) -> usize {
        self.windows.len() / self.k.max(1)
    }

    /// Number of indexed rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The slots of one row's columns, in column order.
    pub(crate) fn row_slots(&self, row: usize) -> &[u32] {
        &self.slot_of[row * self.seq_len..][..self.seq_len]
    }

    /// Whether this index describes inputs of `conv`'s geometry over
    /// `seq_len` columns.
    pub(crate) fn fits(&self, conv: &Conv1d, seq_len: usize) -> bool {
        (self.in_ch, self.k, self.seq_len) == (conv.in_ch, conv.k, seq_len)
    }

    /// Conv1 + ReLU of every slot into `out`, `[slot][out_ch]`.
    ///
    /// Runs in lane tiles of [`LANES`] slots of one [`Group`]: the
    /// windows transpose into an `[in_ch][k][LANES]` tile and each
    /// weight broadcasts over the 8 lanes. Lanes past a group's last
    /// slot compute on stale tile data and are never stored.
    pub(crate) fn fill(&self, conv: &Conv1d, out: &mut Vec<f32>) {
        const L: usize = LANES;
        let (in_ch, k, out_ch) = (conv.in_ch, conv.k, conv.out_ch);
        debug_assert_eq!((in_ch, k), (self.in_ch, self.k));
        out.clear();
        out.resize(self.triples() * out_ch, 0.0);
        let mut xt = vec![0.0f32; in_ch * k * L];
        let mut start = 0;
        for g in &self.groups {
            let mut first = start;
            while first < g.end {
                let lanes = (g.end - first).min(L);
                for j in 0..lanes {
                    let window = &self.windows[(first + j) * k..][..k];
                    for dk in g.dk_lo..g.dk_hi {
                        let col = &self.columns[window[dk] as usize * in_ch..][..in_ch];
                        for (i, &bits) in col.iter().enumerate() {
                            xt[(i * k + dk) * L + j] = f32::from_bits(bits);
                        }
                    }
                }
                for o in 0..out_ch {
                    let w = &conv.w[o * in_ch * k..][..in_ch * k];
                    let mut acc = [conv.b[o]; L];
                    for i in 0..in_ch {
                        for dk in g.dk_lo..g.dk_hi {
                            let wv = w[i * k + dk];
                            let xs = &xt[(i * k + dk) * L..][..L];
                            for (a, &xv) in acc.iter_mut().zip(xs) {
                                *a += wv * xv;
                            }
                        }
                    }
                    relu(&mut acc);
                    for (j, &v) in acc[..lanes].iter().enumerate() {
                        out[(first + j) * out_ch + o] = v;
                    }
                }
                first += lanes;
            }
            start = g.end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_rows(cols: &[[f32; 2]], len: usize) -> Vec<Vec<f32>> {
        // Sliding windows of `len` columns over `cols`, as
        // `[in_ch = 2][len]` rows.
        (0..=cols.len() - len)
            .map(|r| {
                let mut x = vec![0.0; 2 * len];
                for t in 0..len {
                    x[t] = cols[r + t][0];
                    x[len + t] = cols[r + t][1];
                }
                x
            })
            .collect()
    }

    /// Conv1 + ReLU of every row through the slot cache, laid out
    /// `[out_ch][seq_len]` per row like [`Conv1d::forward`].
    fn via_slots(conv: &Conv1d, rows: &[Vec<f32>], len: usize) -> Vec<Vec<f32>> {
        let index = Conv1Index::build(rows, conv.in_ch, len, conv.k);
        let mut cache = Vec::new();
        index.fill(conv, &mut cache);
        (0..rows.len())
            .map(|r| {
                let mut y = vec![0.0; conv.out_ch * len];
                for (t, &slot) in index.row_slots(r).iter().enumerate() {
                    for o in 0..conv.out_ch {
                        y[o * len + t] = cache[slot as usize * conv.out_ch + o];
                    }
                }
                y
            })
            .collect()
    }

    #[test]
    fn slot_outputs_are_bitwise_equal_to_per_row_forward() {
        use rand::{Rng, SeedableRng};
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (in_ch, out_ch, len) = (
                rng.gen_range(1..4),
                rng.gen_range(1..5),
                rng.gen_range(1..12),
            );
            let mut conv = Conv1d::new(in_ch, out_ch, 3, &mut rng);
            // A -0.0 bias makes the sign of an all-zero window visible.
            conv.b = (0..out_ch)
                .map(|o| {
                    if o == 0 {
                        -0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect::<Vec<f32>>()
                .into();
            let pool: Vec<Vec<f32>> = (0..rng.gen_range(1..5))
                .map(|_| {
                    (0..in_ch)
                        .map(|_| match rng.gen_range(0..3) {
                            0 => specials[rng.gen_range(0..specials.len())],
                            _ => rng.gen_range(-2.0..2.0),
                        })
                        .collect()
                })
                .collect();
            let stream: Vec<usize> = (0..len + rng.gen_range(0..20))
                .map(|_| rng.gen_range(0..pool.len()))
                .collect();
            let rows: Vec<Vec<f32>> = stream
                .windows(len)
                .map(|w| {
                    let mut x = vec![0.0; in_ch * len];
                    for (t, &c) in w.iter().enumerate() {
                        for i in 0..in_ch {
                            x[i * len + t] = pool[c][i];
                        }
                    }
                    x
                })
                .collect();
            for (x, got) in rows.iter().zip(via_slots(&conv, &rows, len)) {
                let mut want = Vec::new();
                conv.forward(x, len, &mut want);
                relu(&mut want);
                for (a, b) in got.iter().zip(&want) {
                    assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "seed {seed}: slot {a:?} vs forward {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_zero_windows_give_different_outputs() {
        // Why ±0 columns must not share a slot: with a -0.0 bias the
        // conv output carries the sign of the zero inputs.
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let mut conv = Conv1d::new(1, 1, 3, &mut rng);
        conv.w = vec![1.0, 1.0, 1.0].into();
        conv.b = vec![-0.0].into();
        let rows = vec![vec![0.0; 3], vec![-0.0; 3]];
        let out = via_slots(&conv, &rows, 3);
        assert_eq!(out[0][1].to_bits(), 0.0f32.to_bits());
        assert_eq!(out[1][1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn sliding_windows_share_slots_and_edges_stay_apart() {
        // One repeated column: every interior window is the same
        // triple, but the first and last columns each get their own.
        let rows = column_rows(&[[1.0, 2.0]; 8], 4);
        let index = Conv1Index::build(&rows, 2, 4, 3);
        assert_eq!(index.columns(), 5 * 4);
        assert_eq!(index.triples(), 3);
        let first = index.row_slots(0);
        assert!(first[0] != first[1] && first[1] == first[2] && first[2] != first[3]);
        assert!((0..5).all(|r| index.row_slots(r) == first));
    }

    #[test]
    fn signed_zeros_and_nan_payloads_are_distinct_keys() {
        let nan_a = f32::from_bits(0x7fc0_0000);
        let nan_b = f32::from_bits(0x7fc0_0001);
        let cols = [[0.0, 1.0], [-0.0, 1.0], [nan_a, 1.0], [nan_b, 1.0]];
        let rows: Vec<Vec<f32>> = cols.iter().map(|c| c.to_vec()).collect();
        // seq_len 1: every window is (absent, column, absent).
        let index = Conv1Index::build(&rows, 2, 1, 3);
        assert_eq!(index.triples(), 4);
    }
}
