//! The 2-layer text CNN used by every stage classifier.
//!
//! Architecture (paper §V-A): Conv1d(embed→c1, k=3) → ReLU →
//! MaxPool(2) → Conv1d(c1→c2, k=3) → ReLU → MaxPool(2) → Dense(fc) →
//! ReLU → Dense(classes) → softmax. The paper's sizes are c1=32,
//! c2=64, fc=1024 over a 21×96 input; everything is configurable so
//! tests can run a tiny instance.

use crate::conv1_cache::Conv1Index;
use crate::layers::{
    cross_entropy_backward, maxpool2, maxpool2_backward, maxpool2_backward_lanes, maxpool2_lanes,
    relu, relu_backward, softmax, Conv1d, Dense, LANES,
};
use crate::optim::{Adam, GradBuffers};
use crate::param::ParamBuf;
use crate::tensor::{argmax, Rows, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`TextCnn`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TextCnnConfig {
    /// Sequence length (21 for a VUC).
    pub seq_len: usize,
    /// Input channels (96 = 3 tokens × 32 dims at paper scale).
    pub embed_dim: usize,
    /// First conv output channels (paper: 32).
    pub conv1: usize,
    /// Second conv output channels (paper: 64).
    pub conv2: usize,
    /// Fully connected width (paper: 1024).
    pub fc: usize,
    /// Number of output classes.
    pub classes: usize,
}

impl TextCnnConfig {
    /// Paper-scale configuration for a given class count.
    pub fn paper(classes: usize) -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim: 96,
            conv1: 32,
            conv2: 64,
            fc: 1024,
            classes,
        }
    }

    /// Small configuration for fast tests.
    pub fn tiny(embed_dim: usize, classes: usize) -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim,
            conv1: 8,
            conv2: 8,
            fc: 32,
            classes,
        }
    }
}

/// Receives per-batch / per-epoch training statistics from
/// [`TextCnn::train_epoch_hooked`]. Hooks observe training — they
/// never influence it, so the trained weights are bit-identical
/// whatever hook is installed.
pub trait TrainHook {
    /// Whether the trainer should compute the global gradient L2 norm
    /// for [`TrainHook::on_batch`]. The default `false` skips that
    /// extra pass entirely, keeping the no-op path zero-cost.
    fn wants_grad_norm(&self) -> bool {
        false
    }

    /// Called after each minibatch with its mean per-sample loss and,
    /// when requested, the pre-scaling gradient L2 norm.
    fn on_batch(&mut self, batch: usize, mean_loss: f32, grad_norm: Option<f32>) {
        let _ = (batch, mean_loss, grad_norm);
    }

    /// Called once per epoch with the epoch's mean per-sample loss.
    fn on_epoch(&mut self, mean_loss: f32) {
        let _ = mean_loss;
    }
}

/// The do-nothing default [`TrainHook`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl TrainHook for NoHook {}

/// Random access to `(features, label)` training samples, abstracting
/// over where the floats live: an in-memory `Vec` of embedded rows or
/// an out-of-core source that decodes rows on demand (e.g. on-disk
/// shards). Training over any two sources holding the same samples in
/// the same order is bit-identical — the trainer's shuffle, sharding,
/// and reduction see only indices and lengths.
pub trait SampleSource: Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the source holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sample at `idx` as `(features, label)`. `scratch` is a
    /// caller-owned buffer an out-of-core source may decode the row
    /// into (and borrow from); an in-memory source ignores it and
    /// borrows from itself. Callers reuse one scratch per worker, so
    /// steady-state access allocates nothing.
    fn sample<'a>(&'a self, idx: usize, scratch: &'a mut Vec<f32>) -> (&'a [f32], usize);
}

impl SampleSource for [(Vec<f32>, usize)] {
    fn len(&self) -> usize {
        <[(Vec<f32>, usize)]>::len(self)
    }

    fn sample<'a>(&'a self, idx: usize, _scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        let (x, label) = &self[idx];
        (x, *label)
    }
}

impl SampleSource for Vec<(Vec<f32>, usize)> {
    fn len(&self) -> usize {
        <[(Vec<f32>, usize)]>::len(self)
    }

    fn sample<'a>(&'a self, idx: usize, scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        self.as_slice().sample(idx, scratch)
    }
}

/// A 2-layer convolutional text classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextCnn {
    /// Configuration.
    pub cfg: TextCnnConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    fc1: Dense,
    fc2: Dense,
}

/// Per-sample forward activations cached for the backward pass.
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    c1: Vec<f32>,
    p1: Vec<f32>,
    a1: Vec<u32>,
    c2: Vec<f32>,
    p2: Vec<f32>,
    a2: Vec<u32>,
    h: Vec<f32>,
    logits: Vec<f32>,
    // backward scratch
    gh: Vec<f32>,
    gp2: Vec<f32>,
    gp1: Vec<f32>,
    gx: Vec<f32>,
}

/// Lane-major activations and gradients of one [`LANES`]-sample tile
/// (samples are the innermost contiguous dimension), shared by the
/// tiled inference and training paths. Every forward activation is
/// the post-ReLU value, which is all the backward pass needs.
#[derive(Debug, Default)]
struct TileWorkspace {
    /// Input tile `[embed_dim][seq_len][LANES]` (training only;
    /// inference gathers `c1t` from the conv1 slot cache).
    xt: Vec<f32>,
    /// First conv activations `[conv1][seq_len][LANES]`.
    c1t: Vec<f32>,
    /// First pooled activations `[conv1][seq_len/2][LANES]`.
    p1t: Vec<f32>,
    /// Second conv activations `[conv2][seq_len/2][LANES]`.
    c2t: Vec<f32>,
    /// Second pooled activations `[conv2][seq_len/4][LANES]` — which
    /// flattened is exactly the `[fc_in][LANES]` tile
    /// [`Dense::forward_batch`] consumes.
    p2t: Vec<f32>,
    /// Hidden activations `[fc][LANES]`.
    h: Vec<f32>,
    /// Logits `[classes][LANES]`.
    logits: Vec<f32>,
    /// Gradients of the tensors above, same layouts.
    glogits: Vec<f32>,
    gh: Vec<f32>,
    gp2: Vec<f32>,
    gc2: Vec<f32>,
    gp1: Vec<f32>,
    gc1: Vec<f32>,
}

impl TextCnn {
    /// A freshly initialized model.
    pub fn new(cfg: TextCnnConfig, seed: u64) -> TextCnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let len2 = cfg.seq_len / 2;
        let len4 = len2 / 2;
        TextCnn {
            cfg,
            conv1: Conv1d::new(cfg.embed_dim, cfg.conv1, 3, &mut rng),
            conv2: Conv1d::new(cfg.conv1, cfg.conv2, 3, &mut rng),
            fc1: Dense::new(cfg.conv2 * len4, cfg.fc, &mut rng),
            fc2: Dense::new(cfg.fc, cfg.classes, &mut rng),
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.conv1.param_count()
            + self.conv2.param_count()
            + self.fc1.param_count()
            + self.fc2.param_count()
    }

    /// Gradient buffers with this model's shapes.
    pub fn grad_buffers(&self) -> GradBuffers {
        GradBuffers::new(&[
            self.conv1.w.len(),
            self.conv1.b.len(),
            self.conv2.w.len(),
            self.conv2.b.len(),
            self.fc1.w.len(),
            self.fc1.b.len(),
            self.fc2.w.len(),
            self.fc2.b.len(),
        ])
    }

    /// Immutable views of all parameter tensors, in the order
    /// [`TextCnn::grad_buffers`] uses.
    pub fn params(&self) -> [&[f32]; 8] {
        [
            &self.conv1.w,
            &self.conv1.b,
            &self.conv2.w,
            &self.conv2.b,
            &self.fc1.w,
            &self.fc1.b,
            &self.fc2.w,
            &self.fc2.b,
        ]
    }

    /// How many of the eight parameter buffers currently read straight
    /// out of a memory-mapped container (diagnostics; tests assert the
    /// zero-copy load path actually maps).
    pub fn mapped_param_count(&self) -> usize {
        [
            &self.conv1.w,
            &self.conv1.b,
            &self.conv2.w,
            &self.conv2.b,
            &self.fc1.w,
            &self.fc1.b,
            &self.fc2.w,
            &self.fc2.b,
        ]
        .into_iter()
        .filter(|p| p.is_mapped())
        .count()
    }

    /// Reconstructs a model from a configuration and its eight
    /// parameter tensors in [`TextCnn::params`] order — the
    /// model-container loading path.
    ///
    /// # Errors
    ///
    /// Fails (with a description naming the offending tensor) when a
    /// tensor's length disagrees with the configuration's shapes.
    pub fn from_params(cfg: TextCnnConfig, tensors: &[Vec<f32>]) -> Result<TextCnn, String> {
        Self::from_param_bufs(
            cfg,
            tensors.iter().map(|t| ParamBuf::from(t.clone())).collect(),
        )
    }

    /// [`TextCnn::from_params`] without the copy: the eight buffers
    /// (in the same order) are installed as-is, so mmap-backed
    /// [`ParamBuf`]s flow straight into the model — the zero-copy
    /// CATI1 v2 loading path.
    ///
    /// # Errors
    ///
    /// Fails (naming the offending tensor) when the buffer count or a
    /// buffer's length disagrees with the configuration's shapes.
    pub fn from_param_bufs(cfg: TextCnnConfig, bufs: Vec<ParamBuf>) -> Result<TextCnn, String> {
        const NAMES: [&str; 8] = [
            "conv1.w", "conv1.b", "conv2.w", "conv2.b", "fc1.w", "fc1.b", "fc2.w", "fc2.b",
        ];
        if bufs.len() != NAMES.len() {
            return Err(format!(
                "expected {} parameter tensors, got {}",
                NAMES.len(),
                bufs.len()
            ));
        }
        let mut model = TextCnn::new(cfg, 0);
        for ((dst, src), name) in model.params_mut().into_iter().zip(&bufs).zip(NAMES) {
            if dst.len() != src.len() {
                return Err(format!(
                    "tensor {name}: {} floats, config needs {}",
                    src.len(),
                    dst.len()
                ));
            }
        }
        let mut it = bufs.into_iter();
        let mut next = || it.next().expect("length checked above");
        model.conv1.w = next();
        model.conv1.b = next();
        model.conv2.w = next();
        model.conv2.b = next();
        model.fc1.w = next();
        model.fc1.b = next();
        model.fc2.w = next();
        model.fc2.b = next();
        Ok(model)
    }

    fn params_mut(&mut self) -> [&mut Vec<f32>; 8] {
        [
            self.conv1.w.to_mut(),
            self.conv1.b.to_mut(),
            self.conv2.w.to_mut(),
            self.conv2.b.to_mut(),
            self.fc1.w.to_mut(),
            self.fc1.b.to_mut(),
            self.fc2.w.to_mut(),
            self.fc2.b.to_mut(),
        ]
    }

    /// Quantizes the *weight* matrices in place with `mode` (biases
    /// stay f32 — they are tiny and additive, so quantizing them buys
    /// nothing and costs accuracy). Runtime arithmetic stays f32: the
    /// weights are quantized then immediately dequantized, so this
    /// changes the stored values once and nothing else about
    /// inference.
    pub fn quantize(&mut self, mode: crate::quant::QuantMode) {
        use crate::quant::quantize_dequant_rows;
        let row1 = self.conv1.in_ch * self.conv1.k;
        quantize_dequant_rows(self.conv1.w.to_mut(), row1, mode);
        let row2 = self.conv2.in_ch * self.conv2.k;
        quantize_dequant_rows(self.conv2.w.to_mut(), row2, mode);
        quantize_dequant_rows(self.fc1.w.to_mut(), self.fc1.in_dim, mode);
        quantize_dequant_rows(self.fc2.w.to_mut(), self.fc2.in_dim, mode);
    }

    /// Forward pass into `ws`, keeping the activations and argmaxes
    /// [`TextCnn::backward`] needs; returns the logits slice.
    pub fn forward<'w>(&self, x: &[f32], ws: &'w mut Workspace) -> &'w [f32] {
        let len = self.cfg.seq_len;
        self.conv1.forward(x, len, &mut ws.c1);
        relu(&mut ws.c1);
        let (p1, a1) = maxpool2(&ws.c1, self.cfg.conv1, len);
        ws.p1 = p1;
        ws.a1 = a1;
        let len2 = len / 2;
        self.conv2.forward(&ws.p1, len2, &mut ws.c2);
        relu(&mut ws.c2);
        let (p2, a2) = maxpool2(&ws.c2, self.cfg.conv2, len2);
        ws.p2 = p2;
        ws.a2 = a2;
        self.fc1.forward(&ws.p2, &mut ws.h);
        relu(&mut ws.h);
        self.fc2.forward(&ws.h, &mut ws.logits);
        &ws.logits
    }

    /// Class probabilities for one input.
    pub fn predict(&self, x: &[f32]) -> Vec<f32> {
        let mut ws = Workspace::default();
        self.forward(x, &mut ws);
        let mut probs = ws.logits;
        softmax(&mut probs);
        probs
    }

    /// Class probabilities for a batch of inputs, written into one
    /// flat `n × classes` [`Tensor`]. Row `i` equals
    /// `predict(row i)` bit for bit. Inputs are anything implementing
    /// [`Rows`] — a [`Tensor`], owned rows, or borrowed rows
    /// (`Vec<&[f32]>`), so callers can batch a selected subset of a
    /// table without copying it.
    ///
    /// Indexes the batch's conv1 input windows
    /// ([`TextCnn::conv1_index`]) and runs
    /// [`TextCnn::predict_indexed`].
    pub fn predict_batch<R: Rows + ?Sized>(&self, xs: &R) -> Tensor {
        self.predict_indexed(&self.conv1_index(xs))
    }

    /// The [`Conv1Index`] of `xs` for this model's first convolution.
    /// Every model with the same `embed_dim` and `seq_len` can share
    /// it (the kernel width is fixed by the architecture).
    pub fn conv1_index<R: Rows + ?Sized>(&self, xs: &R) -> Conv1Index {
        Conv1Index::build(xs, self.conv1.in_ch, self.cfg.seq_len, self.conv1.k)
    }

    /// Class probabilities of every row `index` covers, bitwise equal
    /// to `predict` of each row.
    ///
    /// Conv1 + ReLU runs once per distinct input window
    /// ([`Conv1Index`]); each row's activations are then gathered from
    /// that slot cache. Rows go through in [`LANES`]-row tiles that
    /// run the rest of the network *lane-major* — samples as the
    /// innermost contiguous dimension: [`maxpool2_lanes`],
    /// [`Conv1d::forward_lanes`], [`relu`] and
    /// [`Dense::forward_batch`] stream their weights through once per
    /// tile while operating on 8 contiguous sample lanes at a time.
    /// A partial tail tile leaves its unused lanes zero; lanes never
    /// mix, so they cannot affect the rows in use. Per-sample
    /// accumulation chains are unchanged throughout (pinned by test
    /// and by the golden-prediction fixtures).
    ///
    /// # Panics
    ///
    /// Panics if `index` was built for another input geometry.
    pub fn predict_indexed(&self, index: &Conv1Index) -> Tensor {
        const L: usize = LANES;
        let classes = self.cfg.classes;
        let len = self.cfg.seq_len;
        let oc = self.conv1.out_ch;
        assert!(
            index.fits(&self.conv1, len),
            "conv1 index built for another input geometry"
        );
        let mut cache = Vec::new();
        index.fill(&self.conv1, &mut cache);
        Tensor::build_row_blocks(
            index.rows(),
            classes,
            L,
            TileWorkspace::default,
            |tw, first, chunk| {
                tw.c1t.clear();
                tw.c1t.resize(oc * len * L, 0.0);
                for j in 0..chunk.len() / classes {
                    for (t, &slot) in index.row_slots(first + j).iter().enumerate() {
                        for (o, &v) in cache[slot as usize * oc..][..oc].iter().enumerate() {
                            tw.c1t[(o * len + t) * L + j] = v;
                        }
                    }
                }
                self.tile_tail(tw);
                for (j, out) in chunk.chunks_mut(classes).enumerate() {
                    for (c, dst) in out.iter_mut().enumerate() {
                        *dst = tw.logits[c * L + j];
                    }
                    softmax(out);
                }
            },
        )
    }

    /// The tile chain after the first conv + ReLU: `tw.c1t` →
    /// `tw.logits`, keeping every intermediate activation.
    fn tile_tail(&self, tw: &mut TileWorkspace) {
        let len = self.cfg.seq_len;
        let len2 = len / 2;
        maxpool2_lanes(&tw.c1t, self.cfg.conv1, len, &mut tw.p1t);
        self.conv2.forward_lanes(&tw.p1t, len2, &mut tw.c2t);
        relu(&mut tw.c2t);
        maxpool2_lanes(&tw.c2t, self.cfg.conv2, len2, &mut tw.p2t);
        self.fc1.forward_batch(&tw.p2t, &mut tw.h);
        relu(&mut tw.h);
        self.fc2.forward_batch(&tw.h, &mut tw.logits);
    }

    /// Transposes the samples `idxs` (at most [`LANES`]) of `data` into
    /// the input tile `tw.xt` and runs the whole network on it;
    /// returns the labels, lane by lane. Unused lanes are zero.
    fn tile_forward<S: SampleSource + ?Sized>(
        &self,
        data: &S,
        idxs: &[usize],
        tw: &mut TileWorkspace,
    ) -> [usize; LANES] {
        const L: usize = LANES;
        debug_assert!(idxs.len() <= L);
        let n = self.cfg.embed_dim * self.cfg.seq_len;
        let mut labels = [0; L];
        let mut scratch = Vec::new();
        tw.xt.clear();
        tw.xt.resize(n * L, 0.0);
        for (j, &i) in idxs.iter().enumerate() {
            let (x, label) = data.sample(i, &mut scratch);
            assert_eq!(x.len(), n, "sample {i} has the wrong input size");
            labels[j] = label;
            for (e, &v) in x.iter().enumerate() {
                tw.xt[e * L + j] = v;
            }
        }
        self.conv1
            .forward_lanes(&tw.xt, self.cfg.seq_len, &mut tw.c1t);
        relu(&mut tw.c1t);
        self.tile_tail(tw);
        labels
    }

    /// Forward + backward of one shard (at most [`LANES`] samples) as
    /// a single tile; returns the shard's gradient sums and loss.
    ///
    /// Bitwise equal to calling [`TextCnn::backward`] on each sample
    /// in order into one zeroed [`GradBuffers`]: the forward lanes
    /// are the one-sample chains, each lane's softmax and loss are the
    /// one-sample ones, and every `*_lanes` backward kernel adds each
    /// sample's contribution to a gradient element in ascending lane
    /// order. The network input's gradient is never computed.
    fn shard_gradients<S: SampleSource + ?Sized>(
        &self,
        data: &S,
        shard: &[usize],
    ) -> (GradBuffers, f64) {
        const L: usize = LANES;
        let len = self.cfg.seq_len;
        let len2 = len / 2;
        let classes = self.cfg.classes;
        let n = shard.len();
        let mut tw = TileWorkspace::default();
        let labels = self.tile_forward(data, shard, &mut tw);
        let mut loss = 0.0f64;
        let mut probs = Vec::with_capacity(classes);
        tw.glogits.clear();
        tw.glogits.resize(classes * L, 0.0);
        for (j, &label) in labels[..n].iter().enumerate() {
            probs.clear();
            probs.extend((0..classes).map(|c| tw.logits[c * L + j]));
            softmax(&mut probs);
            loss += f64::from(cross_entropy_backward(&mut probs, label));
            for (c, &p) in probs.iter().enumerate() {
                tw.glogits[c * L + j] = p;
            }
        }

        let mut grads = self.grad_buffers();
        let [gc1w, gc1b, gc2w, gc2b, gf1w, gf1b, gf2w, gf2b] = grads.as_mut_arrays();
        self.fc2
            .backward_lanes(&tw.h, &tw.glogits, n, &mut tw.gh, gf2w, gf2b);
        relu_backward(&tw.h, &mut tw.gh);
        self.fc1
            .backward_lanes(&tw.p2t, &tw.gh, n, &mut tw.gp2, gf1w, gf1b);
        maxpool2_backward_lanes(&tw.c2t, &tw.gp2, self.cfg.conv2, len2, &mut tw.gc2);
        relu_backward(&tw.c2t, &mut tw.gc2);
        self.conv2
            .backward_lanes(&tw.p1t, len2, &tw.gc2, n, Some(&mut tw.gp1), gc2w, gc2b);
        maxpool2_backward_lanes(&tw.c1t, &tw.gp1, self.cfg.conv1, len, &mut tw.gc1);
        relu_backward(&tw.c1t, &mut tw.gc1);
        self.conv1
            .backward_lanes(&tw.xt, len, &tw.gc1, n, None, gc1w, gc1b);
        (grads, loss)
    }

    /// Forward + backward for one `(x, label)`; accumulates gradients
    /// into `grads` and returns the sample loss. The per-sample
    /// reference for the tiled training step
    /// ([`TextCnn::batch_gradients`]), kept as its test oracle.
    pub fn backward(
        &self,
        x: &[f32],
        label: usize,
        ws: &mut Workspace,
        grads: &mut GradBuffers,
    ) -> f32 {
        let len = self.cfg.seq_len;
        let len2 = len / 2;
        self.forward(x, ws);
        let mut probs = ws.logits.clone();
        softmax(&mut probs);
        let loss = cross_entropy_backward(&mut probs, label);
        let glogits = probs;

        let [gc1w, gc1b, gc2w, gc2b, gf1w, gf1b, gf2w, gf2b] = grads.as_mut_arrays();
        self.fc2.backward(&ws.h, &glogits, &mut ws.gh, gf2w, gf2b);
        relu_backward(&ws.h, &mut ws.gh);
        let gh = std::mem::take(&mut ws.gh);
        self.fc1.backward(&ws.p2, &gh, &mut ws.gp2, gf1w, gf1b);
        ws.gh = gh;
        let mut gc2 = maxpool2_backward(&ws.gp2, &ws.a2, self.cfg.conv2 * len2);
        relu_backward(&ws.c2, &mut gc2);
        self.conv2
            .backward(&ws.p1, len2, &gc2, &mut ws.gp1, gc2w, gc2b);
        let mut gc1 = maxpool2_backward(&ws.gp1, &ws.a1, self.cfg.conv1 * len);
        relu_backward(&ws.c1, &mut gc1);
        self.conv1.backward(x, len, &gc1, &mut ws.gx, gc1w, gc1b);
        loss
    }

    /// Applies accumulated gradients through `opt` and clears them.
    pub fn apply_grads(&mut self, grads: &mut GradBuffers, opt: &mut Adam, batch_size: usize) {
        let scale = 1.0 / batch_size.max(1) as f32;
        grads.scale(scale);
        let params = self.params_mut();
        opt.step(params, grads);
        grads.zero();
    }

    /// Accumulated gradients and summed loss of one minibatch (the
    /// samples `idxs` indexes into `data`).
    ///
    /// The minibatch is split into fixed shards of [`LANES`] samples —
    /// a function of the batch alone, never of the thread count. Each
    /// shard runs as one lane tile (a short last shard leaves lanes
    /// unused) into its own [`GradBuffers`], shards spread across the
    /// worker threads, and the shard buffers are reduced strictly in
    /// shard order. Gradient sums are therefore bit-identical for any
    /// thread count, and to per-sample [`TextCnn::backward`] calls
    /// accumulated shard by shard. Called inside a stage worker of
    /// `cati train`, the shards spread only over workers that are
    /// spare at the time (ones that finished their own stages, or
    /// threads beyond the six stage jobs); otherwise they run on the
    /// stage's own worker.
    pub fn batch_gradients<S: SampleSource + ?Sized>(
        &self,
        data: &S,
        idxs: &[usize],
    ) -> (GradBuffers, f64) {
        let shards: Vec<&[usize]> = idxs.chunks(LANES).collect();
        // One shard per parallel job: the shim would otherwise run a
        // whole minibatch (at most 16 shards) as one job.
        let partials: Vec<(GradBuffers, f64)> = shards
            .par_iter()
            .with_max_len(1)
            .map(|shard| self.shard_gradients(data, shard))
            .collect();
        let mut partials = partials.into_iter();
        let (mut grads, mut loss) = partials
            .next()
            .unwrap_or_else(|| (self.grad_buffers(), 0.0));
        for (g, l) in partials {
            grads.add(&g);
            loss += l;
        }
        (grads, loss)
    }

    /// One epoch of mini-batch training over `data`, shuffled with
    /// `rng`; each minibatch's lane-tiled shards run in parallel via
    /// [`TextCnn::batch_gradients`]. Returns the mean loss.
    pub fn train_epoch<S: SampleSource + ?Sized>(
        &mut self,
        data: &S,
        opt: &mut Adam,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f32 {
        self.train_epoch_hooked(data, opt, batch_size, rng, &mut NoHook)
    }

    /// [`TextCnn::train_epoch`] with a telemetry hook: the hook sees
    /// each minibatch's mean loss (plus the gradient norm when it
    /// asks for it) and the epoch's mean loss. Training results are
    /// identical to the unhooked path for any hook.
    pub fn train_epoch_hooked<S: SampleSource + ?Sized>(
        &mut self,
        data: &S,
        opt: &mut Adam,
        batch_size: usize,
        rng: &mut StdRng,
        hook: &mut dyn TrainHook,
    ) -> f32 {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0f64;
        let wants_norm = hook.wants_grad_norm();
        for (batch, chunk) in order.chunks(batch_size.max(1)).enumerate() {
            let (mut grads, loss) = self.batch_gradients(data, chunk);
            total_loss += loss;
            let grad_norm = wants_norm.then(|| grads.norm());
            hook.on_batch(batch, (loss / chunk.len().max(1) as f64) as f32, grad_norm);
            self.apply_grads(&mut grads, opt, chunk.len());
        }
        let mean = (total_loss / data.len().max(1) as f64) as f32;
        hook.on_epoch(mean);
        mean
    }

    /// Classification accuracy over `data`; workers share one
    /// [`Workspace`] (and one decode scratch) per shard.
    pub fn accuracy<S: SampleSource + ?Sized>(&self, data: &S) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let idxs: Vec<usize> = (0..data.len()).collect();
        let correct: usize = idxs
            .par_iter()
            .map_init(
                || (Workspace::default(), Vec::new()),
                |(ws, scratch), &i| {
                    let (x, label) = data.sample(i, scratch);
                    // argmax over logits == argmax over softmax probs.
                    self.forward(x, ws);
                    usize::from(argmax(&ws.logits) == label)
                },
            )
            .sum();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(cfg: TextCnnConfig, n: usize) -> Vec<(Vec<f32>, usize)> {
        // Class 0: energy at the left of the sequence; class 1: right.
        let mut rng = StdRng::seed_from_u64(1234);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let mut x = vec![0.0f32; cfg.embed_dim * cfg.seq_len];
                use rand::Rng;
                for c in 0..cfg.embed_dim {
                    for t in 0..cfg.seq_len {
                        let on = if label == 0 {
                            t < cfg.seq_len / 2
                        } else {
                            t >= cfg.seq_len / 2
                        };
                        x[c * cfg.seq_len + t] = if on {
                            1.0 + rng.gen_range(-0.2..0.2)
                        } else {
                            rng.gen_range(-0.2..0.2)
                        };
                    }
                }
                (x, label)
            })
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let cfg = TextCnnConfig::tiny(6, 3);
        let model = TextCnn::new(cfg, 7);
        let x = vec![0.5; cfg.embed_dim * cfg.seq_len];
        let probs = model.predict(&x);
        assert_eq!(probs.len(), 3);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn learns_a_separable_toy_problem() {
        let cfg = TextCnnConfig::tiny(4, 2);
        let mut model = TextCnn::new(cfg, 3);
        let data = toy_dataset(cfg, 120);
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let initial = model.accuracy(&data);
        for _ in 0..8 {
            model.train_epoch(&data, &mut opt, 16, &mut rng);
        }
        let trained = model.accuracy(&data);
        assert!(
            trained > 0.95,
            "accuracy {initial:.2} -> {trained:.2}, failed to learn"
        );
    }

    #[test]
    fn loss_decreases() {
        let cfg = TextCnnConfig::tiny(4, 2);
        let mut model = TextCnn::new(cfg, 11);
        let data = toy_dataset(cfg, 64);
        let mut opt = Adam::new(0.005);
        let mut rng = StdRng::seed_from_u64(6);
        let first = model.train_epoch(&data, &mut opt, 16, &mut rng);
        let mut last = first;
        for _ in 0..5 {
            last = model.train_epoch(&data, &mut opt, 16, &mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn predict_batch_is_bitwise_equal_to_per_sample_predict() {
        let cfg = TextCnnConfig::tiny(4, 5);
        let model = TextCnn::new(cfg, 21);
        // 19 rows: two full 8-lane tiles plus a 3-row tail.
        let mut rng = StdRng::seed_from_u64(77);
        use rand::Rng;
        let rows: Vec<Vec<f32>> = (0..19)
            .map(|_| {
                (0..cfg.embed_dim * cfg.seq_len)
                    .map(|_| rng.gen_range(-1.5f32..1.5))
                    .collect()
            })
            .collect();
        let batch = model.predict_batch(&rows);
        assert_eq!((batch.rows(), batch.cols()), (19, 5));
        for (i, row) in rows.iter().enumerate() {
            let single = model.predict(row);
            let a: Vec<u32> = batch.row(i).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "tiled batch row {i} diverges from predict()");
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let cfg = TextCnnConfig::tiny(4, 3);
        let model = TextCnn::new(cfg, 9);
        let json = serde_json::to_string(&model).unwrap();
        let restored: TextCnn = serde_json::from_str(&json).unwrap();
        let x = vec![0.25; cfg.embed_dim * cfg.seq_len];
        assert_eq!(model.predict(&x), restored.predict(&x));
    }

    #[test]
    fn paper_config_has_expected_scale() {
        let model = TextCnn::new(TextCnnConfig::paper(19), 0);
        // conv1 ~9k, conv2 ~6k, fc1 320*1024 ~328k, fc2 ~19k.
        let n = model.param_count();
        assert!(n > 300_000 && n < 500_000, "param count {n}");
    }
}
