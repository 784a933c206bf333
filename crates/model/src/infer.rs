//! KV-cached incremental inference — the decode hot path.
//!
//! Training records every op on an autograd [`Tape`](mpirical_tensor::Tape);
//! inference needs none of that. This module implements a tape-free forward
//! path that processes **exactly one new decoder token per step** against a
//! [`DecoderCache`], turning the per-token cost of autoregressive generation
//! from O(T²·L) prefix replay into O(T·L) attention over cached state.
//!
//! Two entry points share the same math: [`decode_step`] advances a single
//! request, and [`decode_step_batch`] advances N independent requests in
//! lockstep, fusing their weight projections into packed-matrix
//! [`batch_linear_packed`] calls while keeping one [`DecoderCache`] per
//! request (the engine under [`BatchDecoder`](crate::batch::BatchDecoder)).
//!
//! # Cache layout
//!
//! One `LayerCache` per decoder layer, holding:
//!
//! * **Self-attention K/V** — per attention head, a `[t, d_head]` buffer of
//!   the keys/values of every decoder position processed so far, appended
//!   in position order. The production layout is **paged**
//!   ([`crate::paged`]): rows live in fixed-size refcounted pages from a
//!   [`PagePool`], so resident memory tracks generated tokens instead of
//!   `max_dec_len`, and forks share pages copy-on-write. The original
//!   contiguous reserve-up-front layout is kept behind
//!   [`DecoderCache::new_contiguous`] as the bitwise reference. Because
//!   only positions `≤ t` are ever present, causal masking is implicit —
//!   there is no future to mask out.
//! * **Cross-attention K/V** — per head, a `[T_enc, d_head]` tensor
//!   projected **once** from the encoder output at cache construction.
//!   Replayed decoding recomputes these projections every step; they never
//!   change, which is most of the cross-attention savings.
//!
//! # Invariants
//!
//! * `len()` equals the number of tokens fed via [`decode_step`]; every
//!   self-attention head buffer holds exactly `len()` rows.
//! * A cache is bound to the `(store, params, cfg, encoder output)` it was
//!   built from; feeding tokens from a different model is undefined
//!   (garbage, not unsafety).
//! * `decode_step` panics if fed beyond `cfg.max_dec_len` positions, the
//!   same bound the replay path enforces.
//! * Cloning a cache (beam search forks hypotheses) shares every K/V page
//!   copy-on-write through the parent's pool (contiguous reference caches
//!   deep-copy instead) and shares the immutable cross-attention K/V via
//!   `Arc`; clones evolve independently either way. Scratch buffers are
//!   not cloned — a fork rebuilds them on its first step.
//! * Paged and contiguous caches produce **bitwise identical** logits for
//!   identical token schedules: the paged attention walk uses the very
//!   same `dot_rows`/`vecmat_acc` kernels on page slices that the
//!   contiguous walk uses on one slab, in the same row order
//!   (`tests/paged_cache_props.rs` fuzzes this; the pool must also end
//!   every schedule with zero live pages once caches drop).
//!
//! # Numerical equivalence
//!
//! The step math mirrors the tape path op for op (pre-LN blocks, tanh-GELU,
//! `1e-5` LayerNorm epsilon, `√d_model` embedding scale, sinusoidal
//! positions), so cached logits match full-replay logits to within f32
//! accumulation-order noise; `decode::tests` asserts ≤ 1e-4.
//!
//! # Example
//!
//! Build a cache against an encoder output, then feed decoder tokens one at
//! a time:
//!
//! ```
//! use mpirical_model::decode::encode_source;
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::{decode_step, DecoderCache, ModelConfig};
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 1);
//! let enc_out = encode_source(&store, &params, &cfg, &[1, 6, 7, 2]);
//!
//! let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
//! let logits = decode_step(&store, &params, &cfg, &mut cache, 1); // feed <sos>
//! assert_eq!(logits.len(), cfg.vocab_size);
//! assert_eq!(cache.len(), 1);
//! ```

use crate::config::ModelConfig;
use crate::paged::{PagePool, PagedRows, PoolInner};
use crate::transformer::TransformerParams;
use mpirical_tensor::{
    batch_linear, batch_linear_packed, batch_linear_q, dot_rows, quantize_row, vecmat, vecmat_acc,
    vecmat_bt, vecmat_q_pre, PackedMat, ParamStore, QuantMat, Tensor,
};
use serde::{Deserialize, Serialize};

/// Numeric precision of the decoder's weight-projection kernels.
///
/// `F32` runs the original full-precision path. `Int8` streams every
/// decoder projection through the per-channel quantized
/// [`QuantMat`] kernels (`i32` accumulation, one dequantize per output) —
/// ~4× less weight traffic on the memory-bound decode step, with logits
/// tracking the f32 path inside the scale-derived error bound that
/// `tests/quant_accuracy.rs` enforces. Attention over the KV cache,
/// LayerNorm, GELU, and the embedding lookup stay f32 in both modes (they
/// read activations, not the weight set that dominates traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision f32 projections (the default).
    #[default]
    F32,
    /// Per-channel int8 weight projections with dynamic int8 activations.
    Int8,
}

/// Per-head self-attention K/V storage — the part of the cache that grows
/// one row per decoded token.
///
/// `Paged` is the production layout ([`crate::paged`]): page-granular
/// allocation, copy-on-write forks. `Contiguous` is the original
/// reserve-up-front layout, kept as the *bitwise reference* — the property
/// suite drives both through identical schedules and asserts logit
/// equality bit for bit (the attention walks share the same `dot_rows` /
/// `vecmat_acc` kernels, so equality is structural, not accidental).
#[derive(Debug)]
enum SelfKv {
    Contiguous {
        /// One `[t, d_head]` tensor per head (keys, then values).
        k: Vec<Tensor>,
        v: Vec<Tensor>,
    },
    Paged {
        /// One page list per head.
        k: Vec<PagedRows>,
        v: Vec<PagedRows>,
    },
}

/// Per-layer cached attention state (see module docs for layout).
#[derive(Debug)]
struct LayerCache {
    /// Self-attention K/V (grows per step; paged or contiguous).
    kv: SelfKv,
    /// Cross-attention keys, one `[T_enc, d_head]` tensor per head
    /// (projected once from the encoder output). Never mutated after
    /// construction, so clones share it via `Arc`.
    cross_k: std::sync::Arc<Vec<Tensor>>,
    /// Cross-attention values, one `[T_enc, d_head]` tensor per head.
    cross_v: std::sync::Arc<Vec<Tensor>>,
}

/// Reusable per-step buffers so a decode step allocates only its logits row.
#[derive(Debug)]
struct Scratch {
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    ff: Vec<f32>,
    scores: Vec<f32>,
    /// Quantized-activation row for the int8 path (`max(d, d_ff)` i8 —
    /// a few KB, so both precisions just carry it).
    qrow: Vec<i8>,
}

impl Scratch {
    fn new(d: usize, d_ff: usize, scores_len: usize) -> Box<Scratch> {
        Box::new(Scratch {
            normed: vec![0.0; d],
            q: vec![0.0; d],
            k: vec![0.0; d],
            v: vec![0.0; d],
            ctx: vec![0.0; d],
            proj: vec![0.0; d],
            ff: vec![0.0; d_ff],
            scores: vec![0.0; scores_len],
            qrow: vec![0; d.max(d_ff)],
        })
    }
}

/// Incremental decoding state for one generation (one hypothesis).
#[derive(Debug)]
pub struct DecoderCache {
    layers: Vec<LayerCache>,
    /// Tokens processed so far (== rows in every self-attention buffer).
    len: usize,
    /// Row cap (`cfg.max_dec_len`); the contiguous layout reserves this
    /// much per head up front, the paged layout only ever guards against it.
    max_rows: usize,
    /// Scratch size for attention scores (`max(max_dec_len, T_enc)`).
    scores_len: usize,
    /// Pool behind the paged storage (`None` ⇔ contiguous reference).
    pool: Option<PagePool>,
    /// Per-step work buffers, pure function of the model shape. `None`
    /// after a fork — rebuilt on the fork's first decode step, so cloning
    /// a cache for beam search never copies (or allocates) scratch it may
    /// never use.
    scratch: Option<Box<Scratch>>,
}

impl Clone for DecoderCache {
    /// Fork for beam search. Paged caches share every K/V page
    /// copy-on-write (a refcount bump per page — no row data moves);
    /// contiguous caches deep-copy their buffers, re-reserving full
    /// capacity so appends on the fork never reallocate. Both share the
    /// immutable cross-attention K/V through `Arc`s, and neither copies
    /// scratch (regenerable — rebuilt lazily on first use).
    fn clone(&self) -> DecoderCache {
        let layers = self
            .layers
            .iter()
            .map(|lc| LayerCache {
                kv: match &lc.kv {
                    SelfKv::Contiguous { k, v } => {
                        let deep = |bufs: &[Tensor]| {
                            bufs.iter()
                                .map(|buf| {
                                    let mut copy = buf.clone();
                                    let want = self.max_rows * buf.shape[1];
                                    copy.data.reserve(want - copy.data.len());
                                    copy
                                })
                                .collect()
                        };
                        SelfKv::Contiguous {
                            k: deep(k),
                            v: deep(v),
                        }
                    }
                    SelfKv::Paged { k, v } => {
                        let mut pool = self.pool.as_ref().expect("paged cache has a pool").lock();
                        SelfKv::Paged {
                            k: k.iter().map(|b| b.fork(&mut pool)).collect(),
                            v: v.iter().map(|b| b.fork(&mut pool)).collect(),
                        }
                    }
                },
                cross_k: lc.cross_k.clone(),
                cross_v: lc.cross_v.clone(),
            })
            .collect();
        DecoderCache {
            layers,
            len: self.len,
            max_rows: self.max_rows,
            scores_len: self.scores_len,
            pool: self.pool.clone(),
            scratch: None,
        }
    }
}

impl DecoderCache {
    /// Drop all self-attention K/V rows, returning paged storage to the
    /// pool, while keeping the shared cross-attention K/V projections. The
    /// cache re-enters the freshly-constructed state (`len == 0`): feeding
    /// the same token sequence back through rebuilds the exact same rows —
    /// cache contents are a pure function of the fed tokens — which is what
    /// lets the scheduler's page eviction replay a request bitwise.
    pub(crate) fn evict_self_kv(&mut self) {
        for lc in &mut self.layers {
            match &mut lc.kv {
                SelfKv::Contiguous { k, v } => {
                    for buf in k.iter_mut().chain(v.iter_mut()) {
                        buf.data.clear();
                        buf.shape[0] = 0;
                    }
                }
                SelfKv::Paged { k, v } => {
                    let mut pool = self.pool.as_ref().expect("paged cache has a pool").lock();
                    for buf in k.iter_mut().chain(v.iter_mut()) {
                        buf.release(&mut pool);
                    }
                }
            }
        }
        self.len = 0;
    }

    /// Copy-on-write fork of the first `rows` rows — the prefix-sharing
    /// primitive behind [`crate::radix::PrefixIndex`]. Every retained page
    /// is shared with the parent (refcount bumps only, no row data moves),
    /// the cross-attention K/V `Arc`s are shared as always, and `rows` must
    /// be page-aligned unless it equals the full length so an append into
    /// the fork goes through the normal COW path. Paged caches only: the
    /// contiguous reference layout never takes this path.
    pub(crate) fn fork_prefix(&self, rows: usize) -> DecoderCache {
        assert!(rows <= self.len, "prefix fork past end");
        let pool = self.pool.as_ref().expect("prefix forks need paged storage");
        let mut guard = pool.lock();
        let layers = self
            .layers
            .iter()
            .map(|lc| LayerCache {
                kv: match &lc.kv {
                    SelfKv::Paged { k, v } => SelfKv::Paged {
                        k: k.iter().map(|b| b.fork_prefix(&mut guard, rows)).collect(),
                        v: v.iter().map(|b| b.fork_prefix(&mut guard, rows)).collect(),
                    },
                    SelfKv::Contiguous { .. } => {
                        unreachable!("prefix forks are paged-only")
                    }
                },
                cross_k: lc.cross_k.clone(),
                cross_v: lc.cross_v.clone(),
            })
            .collect();
        drop(guard);
        DecoderCache {
            layers,
            len: rows,
            max_rows: self.max_rows,
            scores_len: self.scores_len,
            pool: self.pool.clone(),
            scratch: None,
        }
    }
}

impl Drop for DecoderCache {
    /// Return every referenced page to the pool (paged storage only) so
    /// dropped hypotheses and retired lanes never leak pages.
    fn drop(&mut self) {
        let Some(pool) = &self.pool else { return };
        let mut pool = pool.lock();
        for lc in &mut self.layers {
            if let SelfKv::Paged { k, v } = &mut lc.kv {
                for buf in k.iter_mut().chain(v.iter_mut()) {
                    buf.release(&mut pool);
                }
            }
        }
    }
}

/// Project `x[T, D]` through an attention parameter pair and split the
/// result into per-head `[T, d_head]` tensors. Uses the register-blocked
/// [`batch_linear`] kernel — `x` is exactly a packed-rows matrix — which
/// streams the weight matrix once per 8 rows instead of once per row,
/// cutting cache-construction latency several-fold at serving model sizes
/// (and accumulating in the same ascending-k order as `matmul`, so the
/// projected K/V are unchanged).
fn project_per_head(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    n_heads: usize,
    d_head: usize,
) -> Vec<Tensor> {
    let t = x.shape[0];
    let d = w.shape[1];
    let mut full = vec![0.0f32; t * d];
    batch_linear(&x.data, t, w, b, &mut full);
    (0..n_heads)
        .map(|h| {
            let mut data = Vec::with_capacity(t * d_head);
            for row in full.chunks_exact(d) {
                data.extend_from_slice(&row[h * d_head..(h + 1) * d_head]);
            }
            Tensor::from_vec(&[t, d_head], data)
        })
        .collect()
}

impl DecoderCache {
    /// Build a **paged** cache with its own fresh [`PagePool`] for decoding
    /// against `enc_out` (`[T_enc, d_model]`, the encoder's output).
    /// Cross-attention K/V are projected here, once. Beam forks (clones)
    /// share the pool — and their pages, copy-on-write.
    pub fn new(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
    ) -> DecoderCache {
        let pool = PagePool::new(cfg.d_head());
        DecoderCache::new_in_pool(store, params, cfg, enc_out, &pool)
    }

    /// Build a paged cache whose pages come from an existing shared `pool`
    /// (the batched scheduler allocates every lane out of one pool, so
    /// retired lanes recycle pages into newly admitted ones and
    /// identical-prompt prefills can share pages across requests).
    ///
    /// # Panics
    ///
    /// If the pool's row width differs from `cfg.d_head()`.
    pub fn new_in_pool(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
        pool: &PagePool,
    ) -> DecoderCache {
        assert_eq!(
            pool.row_width(),
            cfg.d_head(),
            "pool row width must equal the head width"
        );
        let h = cfg.n_heads;
        let kv = || SelfKv::Paged {
            k: (0..h).map(|_| PagedRows::new()).collect(),
            v: (0..h).map(|_| PagedRows::new()).collect(),
        };
        DecoderCache::build(store, params, cfg, enc_out, kv, Some(pool.clone()))
    }

    /// Build a cache with the original contiguous layout: every head buffer
    /// reserves `cfg.max_dec_len` rows up front and forks deep-copy.
    ///
    /// Kept as the bitwise reference implementation for the paged storage —
    /// the property suite (`tests/paged_cache_props.rs`) and the memory
    /// comparison in `profile_decode` run both layouts through identical
    /// schedules.
    pub fn new_contiguous(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
    ) -> DecoderCache {
        let h = cfg.n_heads;
        let dh = cfg.d_head();
        let kv = || {
            let empty_head = || {
                let mut t = Tensor::from_vec(&[0, dh], Vec::new());
                t.data.reserve(cfg.max_dec_len * dh);
                t
            };
            SelfKv::Contiguous {
                k: (0..h).map(|_| empty_head()).collect(),
                v: (0..h).map(|_| empty_head()).collect(),
            }
        };
        DecoderCache::build(store, params, cfg, enc_out, kv, None)
    }

    fn build(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
        mut kv: impl FnMut() -> SelfKv,
        pool: Option<PagePool>,
    ) -> DecoderCache {
        assert_eq!(enc_out.ndim(), 2, "encoder output must be [T, D]");
        assert_eq!(enc_out.shape[1], cfg.d_model, "encoder width mismatch");
        let h = cfg.n_heads;
        let dh = cfg.d_head();
        let layers = params
            .dec_layers
            .iter()
            .map(|layer| {
                let ca = &layer.cross_attn;
                let cross_k =
                    project_per_head(enc_out, store.value(ca.wk), store.value(ca.bk), h, dh);
                let cross_v =
                    project_per_head(enc_out, store.value(ca.wv), store.value(ca.bv), h, dh);
                LayerCache {
                    kv: kv(),
                    cross_k: std::sync::Arc::new(cross_k),
                    cross_v: std::sync::Arc::new(cross_v),
                }
            })
            .collect();
        let scores_len = cfg.max_dec_len.max(enc_out.shape[0]);
        DecoderCache {
            layers,
            len: 0,
            max_rows: cfg.max_dec_len,
            scores_len,
            pool,
            scratch: Some(Scratch::new(cfg.d_model, cfg.d_ff, scores_len)),
        }
    }

    /// Number of decoder tokens processed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pool backing this cache's pages (`None` for the contiguous
    /// reference layout). Handy for watching [`PoolStats`](crate::paged::PoolStats)
    /// across a decode — the handle stays valid after the cache drops.
    pub fn pool(&self) -> Option<&PagePool> {
        self.pool.as_ref()
    }
}

/// Sum of a row over 8 lane-strided partial accumulators (a plain
/// `iter().sum()` is a sequential float chain the vectorizer must preserve,
/// ~one add per FP-latency; independent lanes turn it into one SIMD add per
/// 8 elements). Shared by both decode paths, so they stay bitwise-paired.
#[inline]
fn lane_sum(x: &[f32], mut f: impl FnMut(f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = x.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for &v in chunks.remainder() {
        tail += f(v);
    }
    for ch in chunks {
        for l in 0..LANES {
            acc[l] += f(ch[l]);
        }
    }
    let s4: [f32; 4] = std::array::from_fn(|l| acc[l] + acc[l + 4]);
    (s4[0] + s4[2]) + (s4[1] + s4[3]) + tail
}

/// LayerNorm one row with learned gain/bias (same ε as the tape op; the
/// lane-strided reductions shift the mean/variance in the last ulps relative
/// to the replay path, well inside the ≤1e-4 contract).
fn ln_row(x: &[f32], gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    const EPS: f32 = 1e-5;
    let d = x.len();
    let mean: f32 = lane_sum(x, |v| v) / d as f32;
    let var: f32 = lane_sum(x, |v| (v - mean) * (v - mean)) / d as f32;
    let istd = 1.0 / (var + EPS).sqrt();
    for (j, o) in out.iter_mut().enumerate() {
        *o = (x[j] - mean) * istd * gamma.data[j] + beta.data[j];
    }
}

/// `x @ W + b` for a single row, into `out`.
fn linear_row(x: &[f32], w: &Tensor, b: &Tensor, out: &mut [f32]) {
    vecmat(x, w, out);
    for (o, &bv) in out.iter_mut().zip(&b.data) {
        *o += bv;
    }
}

/// Quantized `x @ Ŵ + b` for a single row: dynamic int8 activation
/// quantization into the caller's `q` scratch, `i32`-accumulated product,
/// bias added last in f32 (mirroring [`linear_row`]'s order).
fn linear_row_q(x: &[f32], w: &QuantMat, b: &Tensor, out: &mut [f32], q: &mut [i8]) {
    let k = x.len();
    let scale = quantize_row(x, &mut q[..k]);
    vecmat_q_pre(&q[..k], scale, w, out);
    for (o, &bv) in out.iter_mut().zip(&b.data) {
        *o += bv;
    }
}

/// One projection of the single-request step, dispatching on precision:
/// f32 [`linear_row`] when `qm` is `None`, quantized [`linear_row_q`]
/// against the pre-quantized matrix otherwise.
fn project_row(
    x: &[f32],
    w: &Tensor,
    qm: Option<&QuantMat>,
    b: &Tensor,
    out: &mut [f32],
    q: &mut [i8],
) {
    match qm {
        None => linear_row(x, w, b, out),
        Some(m) => linear_row_q(x, m, b, out, q),
    }
}

/// In-place tanh-approximation GELU (identical to the tape op).
fn gelu_row(x: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in x.iter_mut() {
        *v = 0.5 * *v * (1.0 + (C * (*v + 0.044715 * *v * *v * *v)).tanh());
    }
}

/// In-place numerically-stabilized softmax.
fn softmax_row(x: &mut [f32]) {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        z += *v;
    }
    let inv = 1.0 / z.max(1e-30);
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Attend a single query row over per-head K/V tensors, writing the
/// concatenated head outputs into `ctx`. `scores` is scratch of at least
/// `K.rows` elements.
fn attend(
    q: &[f32],
    keys: &[Tensor],
    values: &[Tensor],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let dh = keys[0].shape[1];
    let t = keys[0].shape[0];
    for (head, (kh, vh)) in keys.iter().zip(values).enumerate() {
        let qh = &q[head * dh..(head + 1) * dh];
        let s = &mut scores[..t];
        vecmat_bt(qh, kh, s);
        for v in s.iter_mut() {
            *v *= scale;
        }
        softmax_row(s);
        vecmat(s, vh, &mut ctx[head * dh..(head + 1) * dh]);
    }
}

/// Attend a single query row over per-head **paged** K/V buffers. The
/// score of each position is the same independent [`dot_rows`] dot product
/// the contiguous path computes, and the weighted value sum accumulates
/// page after page in ascending row order through [`vecmat_acc`] — the
/// identical per-element addition sequence [`vecmat`] performs on one
/// slab — so the result is **bitwise** the contiguous [`attend`].
fn attend_paged(
    pool: &PoolInner,
    q: &[f32],
    keys: &[PagedRows],
    values: &[PagedRows],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let dh = pool.row_width();
    let t = keys[0].len();
    for (head, (kh, vh)) in keys.iter().zip(values).enumerate() {
        let qh = &q[head * dh..(head + 1) * dh];
        let s = &mut scores[..t];
        let mut row0 = 0;
        for page in kh.page_slices(pool) {
            let rows = page.len() / dh;
            dot_rows(qh, page, &mut s[row0..row0 + rows]);
            row0 += rows;
        }
        for v in s.iter_mut() {
            *v *= scale;
        }
        softmax_row(s);
        let ctx_h = &mut ctx[head * dh..(head + 1) * dh];
        ctx_h.fill(0.0);
        let mut row0 = 0;
        for page in vh.page_slices(pool) {
            let rows = page.len() / dh;
            vecmat_acc(&s[row0..row0 + rows], page, dh, ctx_h);
            row0 += rows;
        }
    }
}

/// Append one row per head into the growing `[t, d_head]` buffers.
fn append_heads(buffers: &mut [Tensor], row: &[f32]) {
    let dh = buffers[0].shape[1];
    for (head, buf) in buffers.iter_mut().enumerate() {
        buf.data.extend_from_slice(&row[head * dh..(head + 1) * dh]);
        buf.shape[0] += 1;
    }
}

/// Append one row per head into paged buffers (the paged [`append_heads`]).
fn append_heads_paged(pool: &mut PoolInner, buffers: &mut [PagedRows], row: &[f32]) {
    let dh = pool.row_width();
    for (head, buf) in buffers.iter_mut().enumerate() {
        buf.push_row(pool, &row[head * dh..(head + 1) * dh]);
    }
}

/// One lane's self-attention cache update + attention, dispatching on the
/// storage layout. Shared verbatim by [`decode_step`] and
/// [`decode_step_batch`], which is what keeps the two engines' attention
/// bitwise-paired for either layout.
#[allow(clippy::too_many_arguments)]
fn self_attend_append(
    lc: &mut LayerCache,
    pool: Option<&PagePool>,
    q: &[f32],
    k_row: &[f32],
    v_row: &[f32],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    match &mut lc.kv {
        SelfKv::Contiguous { k, v } => {
            append_heads(k, k_row);
            append_heads(v, v_row);
            attend(q, k, v, scale, scores, ctx);
        }
        SelfKv::Paged { k, v } => {
            let pool = pool.expect("paged cache has a pool");
            {
                // Exclusive lock only for the append; parallel lanes contend
                // here briefly, then attend concurrently under read locks.
                let mut inner = pool.lock();
                append_heads_paged(&mut inner, k, k_row);
                append_heads_paged(&mut inner, v, v_row);
            }
            let inner = pool.read();
            attend_paged(&inner, q, k, v, scale, scores, ctx);
        }
    }
}

/// Sinusoidal positional encoding of a single position, added in place
/// (matches `transformer::positional_encoding`).
fn add_positional(x: &mut [f32], pos: usize) {
    let d = x.len();
    for i in 0..d / 2 {
        let angle = pos as f32 / 10_000f32.powf(2.0 * i as f32 / d as f32);
        x[2 * i] += angle.sin();
        if 2 * i + 1 < d {
            x[2 * i + 1] += angle.cos();
        }
    }
}

/// Process one decoder token through all layers; returns the logits row
/// (`[vocab_size]`) predicting the *next* token.
pub fn decode_step(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    cache: &mut DecoderCache,
    token: usize,
) -> Vec<f32> {
    decode_step_impl(store, params, cfg, None, cache, token)
}

/// [`decode_step`] with every weight projection routed through the int8
/// per-channel quantized kernels of `qw` (quantized once per model via
/// [`QuantDecoderWeights::new`]). Attention over the cache, LayerNorm,
/// GELU, and the embedding lookup stay f32; the cache layout (paged or
/// contiguous) is untouched, so paged and contiguous quantized caches stay
/// **bitwise identical** for identical schedules exactly as in f32 —
/// quantization never touches the storage walk.
///
/// `qw` must have been quantized from the same `(store, params)`.
pub fn decode_step_quant(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: &QuantDecoderWeights,
    cache: &mut DecoderCache,
    token: usize,
) -> Vec<f32> {
    decode_step_impl(store, params, cfg, Some(qw), cache, token)
}

/// Shared single-request step body — the one implementation both
/// precisions run, so they can only differ inside the projection kernels.
fn decode_step_impl(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: Option<&QuantDecoderWeights>,
    cache: &mut DecoderCache,
    token: usize,
) -> Vec<f32> {
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let scale = 1.0 / (dh as f32).sqrt();
    let pos = cache.len;
    assert!(
        pos < cfg.max_dec_len,
        "decoder cache at {} exceeds max {}",
        pos + 1,
        cfg.max_dec_len
    );
    assert!(token < cfg.vocab_size, "token {token} out of vocab");

    // Embedding + positional encoding.
    let emb = store.value(params.tok_emb);
    let emb_scale = (d as f32).sqrt();
    let mut x: Vec<f32> = emb.data[token * d..(token + 1) * d]
        .iter()
        .map(|v| v * emb_scale)
        .collect();
    add_positional(&mut x, pos);

    let pool = cache.pool.clone();
    let scores_len = cache.scores_len;
    let s = &mut **cache
        .scratch
        .get_or_insert_with(|| Scratch::new(cfg.d_model, cfg.d_ff, scores_len));
    let layers = &mut cache.layers;
    for (li, (layer, lc)) in params.dec_layers.iter().zip(layers).enumerate() {
        let ql = qw.map(|q| &q.layers[li]);
        // Self-attention block (pre-LN residual): project Q/K/V from the
        // normed row, append this position's K/V, attend over the cache.
        ln_row(
            &x,
            store.value(layer.ln1.gamma),
            store.value(layer.ln1.beta),
            &mut s.normed,
        );
        let sa = &layer.self_attn;
        project_row(
            &s.normed,
            store.value(sa.wq),
            ql.map(|q| &q.wq),
            store.value(sa.bq),
            &mut s.q,
            &mut s.qrow,
        );
        project_row(
            &s.normed,
            store.value(sa.wk),
            ql.map(|q| &q.wk),
            store.value(sa.bk),
            &mut s.k,
            &mut s.qrow,
        );
        project_row(
            &s.normed,
            store.value(sa.wv),
            ql.map(|q| &q.wv),
            store.value(sa.bv),
            &mut s.v,
            &mut s.qrow,
        );
        self_attend_append(
            lc,
            pool.as_ref(),
            &s.q,
            &s.k,
            &s.v,
            scale,
            &mut s.scores,
            &mut s.ctx,
        );
        project_row(
            &s.ctx,
            store.value(sa.wo),
            ql.map(|q| &q.wo),
            store.value(sa.bo),
            &mut s.proj,
            &mut s.qrow,
        );
        for (xv, &a) in x.iter_mut().zip(&s.proj) {
            *xv += a;
        }

        // Cross-attention block over the precomputed encoder K/V.
        ln_row(
            &x,
            store.value(layer.ln2.gamma),
            store.value(layer.ln2.beta),
            &mut s.normed,
        );
        let ca = &layer.cross_attn;
        project_row(
            &s.normed,
            store.value(ca.wq),
            ql.map(|q| &q.ca_wq),
            store.value(ca.bq),
            &mut s.q,
            &mut s.qrow,
        );
        attend(
            &s.q,
            &lc.cross_k,
            &lc.cross_v,
            scale,
            &mut s.scores,
            &mut s.ctx,
        );
        project_row(
            &s.ctx,
            store.value(ca.wo),
            ql.map(|q| &q.ca_wo),
            store.value(ca.bo),
            &mut s.proj,
            &mut s.qrow,
        );
        for (xv, &c) in x.iter_mut().zip(&s.proj) {
            *xv += c;
        }

        // Feed-forward block.
        ln_row(
            &x,
            store.value(layer.ln3.gamma),
            store.value(layer.ln3.beta),
            &mut s.normed,
        );
        project_row(
            &s.normed,
            store.value(layer.ff.w1),
            ql.map(|q| &q.ff_w1),
            store.value(layer.ff.b1),
            &mut s.ff,
            &mut s.qrow,
        );
        gelu_row(&mut s.ff);
        project_row(
            &s.ff,
            store.value(layer.ff.w2),
            ql.map(|q| &q.ff_w2),
            store.value(layer.ff.b2),
            &mut s.proj,
            &mut s.qrow,
        );
        for (xv, &f) in x.iter_mut().zip(&s.proj) {
            *xv += f;
        }
    }

    // Final LayerNorm + output projection.
    ln_row(
        &x,
        store.value(params.dec_ln.gamma),
        store.value(params.dec_ln.beta),
        &mut s.normed,
    );
    let mut logits = vec![0.0f32; cfg.vocab_size];
    project_row(
        &s.normed,
        store.value(params.out_w),
        qw.map(|q| &q.out_w),
        store.value(params.out_b),
        &mut logits,
        &mut s.qrow,
    );

    cache.len += 1;
    logits
}

/// Decoder weight matrices repacked once into the tile-major
/// [`PackedMat`] layout the batched kernels stream sequentially.
///
/// The batched step reads every decoder weight matrix every step; packing
/// them once per model (a single-pass copy, ~the weights' own size) turns
/// those reads from strided cache-line picks into linear streams, which is
/// what lets a lockstep step run at memory bandwidth at serving model
/// sizes. Weights are constant across steps, so one `PackedDecoderWeights`
/// serves every step of every batch for the model's lifetime. Packing
/// changes layout, not accumulation order: batched logits stay bitwise
/// identical to the single-request path.
///
/// Biases, LayerNorm parameters, and the embedding table stay in the
/// [`ParamStore`] — they are read row-wise, which is already sequential.
#[derive(Debug, Clone)]
pub struct PackedDecoderWeights {
    layers: Vec<PackedLayer>,
    out_w: PackedMat,
}

#[derive(Debug, Clone)]
struct PackedLayer {
    wq: PackedMat,
    wk: PackedMat,
    wv: PackedMat,
    wo: PackedMat,
    ca_wq: PackedMat,
    ca_wo: PackedMat,
    ff_w1: PackedMat,
    ff_w2: PackedMat,
}

impl PackedDecoderWeights {
    /// Pack every decoder-side weight matrix of `params`.
    pub fn new(store: &ParamStore, params: &TransformerParams) -> PackedDecoderWeights {
        let p = |id| PackedMat::pack(store.value(id));
        PackedDecoderWeights {
            layers: params
                .dec_layers
                .iter()
                .map(|layer| PackedLayer {
                    wq: p(layer.self_attn.wq),
                    wk: p(layer.self_attn.wk),
                    wv: p(layer.self_attn.wv),
                    wo: p(layer.self_attn.wo),
                    ca_wq: p(layer.cross_attn.wq),
                    ca_wo: p(layer.cross_attn.wo),
                    ff_w1: p(layer.ff.w1),
                    ff_w2: p(layer.ff.w2),
                })
                .collect(),
            out_w: p(params.out_w),
        }
    }
}

/// Every decoder-side weight matrix quantized once to per-channel int8
/// ([`QuantMat`]) — the artifact-load-time counterpart of
/// [`PackedDecoderWeights`] for [`Precision::Int8`] serving.
///
/// The quantized panels are ~¼ the bytes of the f32 weights, and the
/// decode step streams them instead of the originals, which is the entire
/// speedup on the memory-bound step. Quantization is a single pass over
/// the weights (amortized to noise over a model's serving lifetime);
/// biases, LayerNorm parameters, cross-attention K/V projections of the
/// *encoder output* (computed per request at cache build, not per step),
/// and the embedding table stay f32.
#[derive(Debug, Clone)]
pub struct QuantDecoderWeights {
    layers: Vec<QuantLayer>,
    out_w: QuantMat,
}

#[derive(Debug, Clone)]
struct QuantLayer {
    wq: QuantMat,
    wk: QuantMat,
    wv: QuantMat,
    wo: QuantMat,
    ca_wq: QuantMat,
    ca_wo: QuantMat,
    ff_w1: QuantMat,
    ff_w2: QuantMat,
}

impl QuantDecoderWeights {
    /// Quantize every decoder-side weight matrix of `params`.
    pub fn new(store: &ParamStore, params: &TransformerParams) -> QuantDecoderWeights {
        let q = |id| QuantMat::quantize(store.value(id));
        QuantDecoderWeights {
            layers: params
                .dec_layers
                .iter()
                .map(|layer| QuantLayer {
                    wq: q(layer.self_attn.wq),
                    wk: q(layer.self_attn.wk),
                    wv: q(layer.self_attn.wv),
                    wo: q(layer.self_attn.wo),
                    ca_wq: q(layer.cross_attn.wq),
                    ca_wo: q(layer.cross_attn.wo),
                    ff_w1: q(layer.ff.w1),
                    ff_w2: q(layer.ff.w2),
                })
                .collect(),
            out_w: q(params.out_w),
        }
    }

    /// Per-channel scales of the final vocabulary projection — the scales
    /// the accuracy harness derives its logit error bound from.
    pub fn out_scales(&self) -> &[f32] {
        self.out_w.scales()
    }
}

/// The decoder weight set a batched scheduler streams every step, prepared
/// once per model for its precision: tile-packed f32 or per-channel int8.
///
/// [`decode_step_batch`] dispatches each fused projection on this enum;
/// everything around the projections (LayerNorm, attention, GELU, token
/// selection) is the same code either way.
#[derive(Debug, Clone)]
pub enum DecoderWeights {
    /// Full-precision packed weights ([`PackedDecoderWeights`]).
    F32(PackedDecoderWeights),
    /// Per-channel int8 quantized weights ([`QuantDecoderWeights`]).
    Int8(QuantDecoderWeights),
}

impl DecoderWeights {
    /// Prepare the weight set for `precision` (pack or quantize once).
    pub fn for_precision(
        store: &ParamStore,
        params: &TransformerParams,
        precision: Precision,
    ) -> DecoderWeights {
        match precision {
            Precision::F32 => DecoderWeights::F32(PackedDecoderWeights::new(store, params)),
            Precision::Int8 => DecoderWeights::Int8(QuantDecoderWeights::new(store, params)),
        }
    }

    /// The precision this weight set was prepared for.
    pub fn precision(&self) -> Precision {
        match self {
            DecoderWeights::F32(_) => Precision::F32,
            DecoderWeights::Int8(_) => Precision::Int8,
        }
    }
}

/// Reusable packed activation buffers for [`decode_step_batch`]: one
/// `[max_batch, dim]` slab per intermediate plus one attention-score row
/// that the lanes reuse in turn, so a lockstep step over N requests
/// allocates nothing.
///
/// Sized once for a `(config, max_batch)` pair; `decode_step_batch` panics
/// if handed more lanes than the scratch was built for.
#[derive(Debug)]
pub struct BatchScratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    ff: Vec<f32>,
    /// One attention-score row (`max(max_dec_len, max_enc_len)`), reused
    /// lane after lane: the per-lane attention sections run serially.
    scores: Vec<f32>,
    /// Memoized sinusoidal position rows (`[pos, d_model]`, grown on
    /// demand). `add_positional` burns ~d/2 `powf` calls per row; lanes in
    /// a batch usually sit at overlapping positions, so the scheduler
    /// computes each row once ever instead of once per lane per step. The
    /// memoized values are the very same expressions `add_positional`
    /// evaluates, so batched embeddings stay bitwise identical.
    pos_rows: Vec<f32>,
    /// Quantized-activation rows for the int8 path (`max_batch ×
    /// max(d, d_ff)` i8) plus one dynamic scale per lane.
    q8: Vec<i8>,
    qscales: Vec<f32>,
    d_model: usize,
    max_batch: usize,
}

impl BatchScratch {
    /// Allocate scratch for lockstep steps over at most `max_batch` lanes.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 — a zero-lane scratch can never serve a step.
    pub fn new(cfg: &ModelConfig, max_batch: usize) -> BatchScratch {
        assert!(
            max_batch >= 1,
            "BatchScratch needs at least one lane (got max_batch = 0)"
        );
        let d = cfg.d_model;
        let slab = || vec![0.0f32; max_batch * d];
        BatchScratch {
            x: slab(),
            normed: slab(),
            q: slab(),
            k: slab(),
            v: slab(),
            ctx: slab(),
            proj: slab(),
            ff: vec![0.0; max_batch * cfg.d_ff],
            // Scores cover self-attention (≤ max_dec_len rows) and
            // cross-attention (≤ max_enc_len rows).
            scores: vec![0.0; cfg.max_dec_len.max(cfg.max_enc_len)],
            pos_rows: Vec::new(),
            q8: vec![0; max_batch * d.max(cfg.d_ff)],
            qscales: vec![0.0; max_batch],
            d_model: d,
            max_batch,
        }
    }

    /// The lane capacity this scratch was sized for.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The memoized positional-encoding row for `pos`, computing (and
    /// caching) any rows up to it that have not been needed yet.
    fn pos_row(&mut self, pos: usize) -> &[f32] {
        let d = self.d_model;
        while self.pos_rows.len() <= pos * d {
            let p = self.pos_rows.len() / d;
            let start = self.pos_rows.len();
            self.pos_rows.resize(start + d, 0.0);
            add_positional(&mut self.pos_rows[start..start + d], p);
        }
        &self.pos_rows[pos * d..(pos + 1) * d]
    }
}

/// One fused weight projection of [`decode_step_batch`], dispatching on
/// the prepared weight set's precision: packed-f32 or quantized-int8
/// kernels over the same packed activation rows (the int8 arm threads the
/// scratch's i8 row buffers through). A macro rather than a function so
/// the disjoint scratch-field borrows stay visible to the borrow checker.
macro_rules! fused_linear {
    ($weights:expr, $s:expr, layer $li:expr, $field:ident, $x:expr, $rows:expr, $bias:expr, $out:expr) => {
        match $weights {
            DecoderWeights::F32(w) => {
                batch_linear_packed($x, $rows, &w.layers[$li].$field, $bias, $out)
            }
            DecoderWeights::Int8(w) => batch_linear_q(
                $x,
                $rows,
                &w.layers[$li].$field,
                $bias,
                &mut $s.q8,
                &mut $s.qscales,
                $out,
            ),
        }
    };
    ($weights:expr, $s:expr, out, $x:expr, $rows:expr, $bias:expr, $out:expr) => {
        match $weights {
            DecoderWeights::F32(w) => batch_linear_packed($x, $rows, &w.out_w, $bias, $out),
            DecoderWeights::Int8(w) => batch_linear_q(
                $x,
                $rows,
                &w.out_w,
                $bias,
                &mut $s.q8,
                &mut $s.qscales,
                $out,
            ),
        }
    };
}

/// LayerNorm one row per lane (`x[i·d..]` → `normed[i·d..]`) with the same
/// [`ln_row`] the single-request path calls.
fn ln_rows_batch(b: usize, d: usize, x: &[f32], gamma: &Tensor, beta: &Tensor, normed: &mut [f32]) {
    for i in 0..b {
        ln_row(
            &x[i * d..(i + 1) * d],
            gamma,
            beta,
            &mut normed[i * d..(i + 1) * d],
        );
    }
}

/// Process one decoder token for **each of N independent requests** in
/// lockstep, writing one logits row per lane into `logits` (`[N, vocab]`,
/// lane order).
///
/// Per-lane state (embedding lookup, LayerNorm, K/V append, attention over
/// that lane's own cache) runs per row, but every weight-matrix projection —
/// self-attention Q/K/V/O, cross-attention Q/O, both feed-forward linears,
/// and the final vocabulary projection — is fused into a single
/// [`batch_linear_packed`] call over the packed `[N, d]` activation matrix
/// against pre-packed weights ([`PackedDecoderWeights`]), so each weight is
/// streamed from memory once per *step* instead of once per *request*, and
/// sequentially rather than strided.
///
/// # Equivalence
///
/// `batch_linear` accumulates each output row in exactly the order
/// [`decode_step`]'s single-row `vecmat` does, and every per-row helper
/// (`ln_row`, `attend`, `gelu_row`) is literally shared with the
/// single-request path, so each lane's logits row is **bitwise identical**
/// to what a standalone [`decode_step`] on that lane's cache would produce.
/// Lanes never read each other's state; batching is a scheduling decision,
/// not a numerical one. `decode::tests` and `batch::tests` pin this.
///
/// The per-lane sections (LayerNorm rows, K/V append, self- and
/// cross-attention) run serially, lane after lane, on the calling thread.
/// Decode parallelism lives one level up, in the [`Engine`](crate::Engine)'s
/// workers, each of which drives its own `decode_step_batch`.
///
/// # Precision
///
/// `weights` selects the projection kernels: [`DecoderWeights::F32`] runs
/// the packed f32 kernels, [`DecoderWeights::Int8`] the per-channel
/// quantized ones. In int8 mode each lane's logits row is **bitwise
/// identical** to a standalone [`decode_step_quant`] on that lane's cache:
/// activation rows quantize through the same [`quantize_row`], and the
/// `i32` accumulator is order-invariant, so the batched blocking cannot
/// perturb a single bit (the f32 mode makes the same promise via matched
/// accumulation order).
///
/// # Panics
///
/// If `caches`, `tokens`, and `logits` disagree on the lane count, if the
/// lane count exceeds `scratch.max_batch()`, or if any lane is at
/// `cfg.max_dec_len` / fed an out-of-vocabulary token (same guards as
/// [`decode_step`]). `weights` must have been prepared from the same
/// `(store, params)`.
// `decode_step`'s model triple plus the three pieces of reusable batch
// state; bundling them into a struct would just move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn decode_step_batch(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    weights: &DecoderWeights,
    caches: &mut [&mut DecoderCache],
    tokens: &[usize],
    scratch: &mut BatchScratch,
    logits: &mut [f32],
) {
    let b = caches.len();
    assert!(b >= 1, "decode_step_batch needs at least one lane");
    assert!(
        b <= scratch.max_batch,
        "{b} lanes exceed scratch capacity {}",
        scratch.max_batch
    );
    assert_eq!(tokens.len(), b, "one token per lane");
    assert_eq!(
        logits.len(),
        b * cfg.vocab_size,
        "logits must be [N, vocab]"
    );
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let scale = 1.0 / (dh as f32).sqrt();

    // Embedding + positional encoding, one row per lane (position rows come
    // from the scratch memo — computed once per position, not once per lane).
    let emb = store.value(params.tok_emb);
    let emb_scale = (d as f32).sqrt();
    let max_pos = caches.iter().map(|c| c.len).max().expect("b >= 1");
    scratch.pos_row(max_pos);
    for (i, (cache, &token)) in caches.iter().zip(tokens).enumerate() {
        let pos = cache.len;
        assert!(
            pos < cfg.max_dec_len,
            "decoder cache at {} exceeds max {}",
            pos + 1,
            cfg.max_dec_len
        );
        assert!(token < cfg.vocab_size, "token {token} out of vocab");
        let row = &mut scratch.x[i * d..(i + 1) * d];
        let pos_row = &scratch.pos_rows[pos * d..(pos + 1) * d];
        for ((o, &e), &p) in row
            .iter_mut()
            .zip(&emb.data[token * d..(token + 1) * d])
            .zip(pos_row)
        {
            *o = e * emb_scale + p;
        }
    }

    let s = scratch;
    for (li, layer) in params.dec_layers.iter().enumerate() {
        // Self-attention block: fused Q/K/V projections over the packed
        // rows, then per-lane cache append + attention.
        let (g1, b1) = (store.value(layer.ln1.gamma), store.value(layer.ln1.beta));
        ln_rows_batch(b, d, &s.x, g1, b1, &mut s.normed);
        let sa = &layer.self_attn;
        fused_linear!(
            weights,
            s,
            layer li,
            wq,
            &s.normed[..b * d],
            b,
            store.value(sa.bq),
            &mut s.q[..b * d]
        );
        fused_linear!(
            weights,
            s,
            layer li,
            wk,
            &s.normed[..b * d],
            b,
            store.value(sa.bk),
            &mut s.k[..b * d]
        );
        fused_linear!(
            weights,
            s,
            layer li,
            wv,
            &s.normed[..b * d],
            b,
            store.value(sa.bv),
            &mut s.v[..b * d]
        );
        // Per-lane K/V append + attention over that lane's own cache.
        for (i, cache) in caches.iter_mut().enumerate() {
            let pool = cache.pool.clone();
            let lc = &mut cache.layers[li];
            self_attend_append(
                lc,
                pool.as_ref(),
                &s.q[i * d..(i + 1) * d],
                &s.k[i * d..(i + 1) * d],
                &s.v[i * d..(i + 1) * d],
                scale,
                &mut s.scores,
                &mut s.ctx[i * d..(i + 1) * d],
            );
        }
        fused_linear!(
            weights,
            s,
            layer li,
            wo,
            &s.ctx[..b * d],
            b,
            store.value(sa.bo),
            &mut s.proj[..b * d]
        );
        for (xv, &a) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += a;
        }

        // Cross-attention block over each lane's precomputed encoder K/V.
        let (g2, b2) = (store.value(layer.ln2.gamma), store.value(layer.ln2.beta));
        ln_rows_batch(b, d, &s.x, g2, b2, &mut s.normed);
        let ca = &layer.cross_attn;
        fused_linear!(
            weights,
            s,
            layer li,
            ca_wq,
            &s.normed[..b * d],
            b,
            store.value(ca.bq),
            &mut s.q[..b * d]
        );
        // Cross-attention over each lane's shared encoder K/V.
        for (i, cache) in caches.iter().enumerate() {
            let lc = &cache.layers[li];
            attend(
                &s.q[i * d..(i + 1) * d],
                &lc.cross_k,
                &lc.cross_v,
                scale,
                &mut s.scores,
                &mut s.ctx[i * d..(i + 1) * d],
            );
        }
        fused_linear!(
            weights,
            s,
            layer li,
            ca_wo,
            &s.ctx[..b * d],
            b,
            store.value(ca.bo),
            &mut s.proj[..b * d]
        );
        for (xv, &c) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += c;
        }

        // Feed-forward block: both linears fused across lanes; GELU is
        // elementwise so one pass over the packed slab matches the
        // single-request row-at-a-time application exactly.
        let (g3, b3) = (store.value(layer.ln3.gamma), store.value(layer.ln3.beta));
        ln_rows_batch(b, d, &s.x, g3, b3, &mut s.normed);
        let dff = cfg.d_ff;
        fused_linear!(
            weights,
            s,
            layer li,
            ff_w1,
            &s.normed[..b * d],
            b,
            store.value(layer.ff.b1),
            &mut s.ff[..b * dff]
        );
        gelu_row(&mut s.ff[..b * dff]);
        fused_linear!(
            weights,
            s,
            layer li,
            ff_w2,
            &s.ff[..b * dff],
            b,
            store.value(layer.ff.b2),
            &mut s.proj[..b * d]
        );
        for (xv, &f) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += f;
        }
    }

    // Final LayerNorm + fused vocabulary projection.
    let (g, be) = (
        store.value(params.dec_ln.gamma),
        store.value(params.dec_ln.beta),
    );
    ln_rows_batch(b, d, &s.x, g, be, &mut s.normed);
    fused_linear!(
        weights,
        s,
        out,
        &s.normed[..b * d],
        b,
        store.value(params.out_b),
        logits
    );

    for cache in caches.iter_mut() {
        cache.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::{build_params, encode, ForwardMode};
    use mpirical_tensor::Tape;

    fn setup() -> (ModelConfig, ParamStore, TransformerParams, Tensor) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2; // exercise multi-layer cache plumbing
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 3);
        let mut tape = Tape::new();
        let enc = encode(
            &mut tape,
            &store,
            &params,
            &cfg,
            &[1, 7, 9, 2],
            ForwardMode::inference(),
        );
        let enc_out = tape.value(enc).clone();
        (cfg, store, params, enc_out)
    }

    #[test]
    fn cache_starts_empty_and_counts_steps() {
        let (cfg, store, params, enc_out) = setup();
        let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        assert!(cache.is_empty());
        decode_step(&store, &params, &cfg, &mut cache, 1);
        decode_step(&store, &params, &cfg, &mut cache, 5);
        assert_eq!(cache.len(), 2);
        for layer in &cache.layers {
            match &layer.kv {
                SelfKv::Paged { k, v } => {
                    for head in k.iter().chain(v) {
                        assert_eq!(head.len(), 2);
                    }
                }
                SelfKv::Contiguous { .. } => panic!("DecoderCache::new builds paged storage"),
            }
        }
    }

    /// The tentpole contract: paged storage must reproduce the contiguous
    /// reference **bitwise** at every step, across page boundaries.
    #[test]
    fn paged_logits_are_bitwise_contiguous() {
        let (cfg, store, params, enc_out) = setup();
        for page_rows in [1usize, 3, 16] {
            let pool = PagePool::with_page_rows(cfg.d_head(), page_rows);
            let mut paged = DecoderCache::new_in_pool(&store, &params, &cfg, &enc_out, &pool);
            let mut reference = DecoderCache::new_contiguous(&store, &params, &cfg, &enc_out);
            for step in 0..20usize {
                let tok = 1 + (step * 5) % 23;
                let lp = decode_step(&store, &params, &cfg, &mut paged, tok);
                let lr = decode_step(&store, &params, &cfg, &mut reference, tok);
                assert_eq!(lp, lr, "page_rows={page_rows} step={step}");
            }
            drop(paged);
            assert_eq!(pool.stats().pages_live, 0, "pages returned on drop");
        }
    }

    /// Forks share pages COW: the clone is cheap, both sides stay
    /// bitwise-correct after diverging, and dropping everything frees
    /// every page.
    #[test]
    fn forked_paged_caches_stay_bitwise_and_leak_nothing() {
        let (cfg, store, params, enc_out) = setup();
        let mut paged = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let mut reference = DecoderCache::new_contiguous(&store, &params, &cfg, &enc_out);
        for tok in [1usize, 9, 4] {
            decode_step(&store, &params, &cfg, &mut paged, tok);
            decode_step(&store, &params, &cfg, &mut reference, tok);
        }
        let pool = paged.pool().expect("paged").clone();
        let live_before = pool.stats().pages_live;
        let mut fork = paged.clone();
        assert_eq!(
            pool.stats().pages_live,
            live_before,
            "fork allocates no pages"
        );
        let mut ref_fork = reference.clone();
        // Diverge: different tokens down each branch.
        for (tok_a, tok_b) in [(6usize, 7usize), (2, 3)] {
            assert_eq!(
                decode_step(&store, &params, &cfg, &mut paged, tok_a),
                decode_step(&store, &params, &cfg, &mut reference, tok_a),
            );
            assert_eq!(
                decode_step(&store, &params, &cfg, &mut fork, tok_b),
                decode_step(&store, &params, &cfg, &mut ref_fork, tok_b),
            );
        }
        assert!(pool.stats().cow_copies > 0, "divergence forced COW");
        drop(paged);
        drop(fork);
        assert_eq!(pool.stats().pages_live, 0);
    }

    /// The memory claim behind the ROADMAP item: at a 64-token output the
    /// paged cache holds ≥2× (here ~3.5×) fewer bytes per lane than the
    /// contiguous layout reserves up front.
    #[test]
    fn paged_cache_uses_at_most_half_the_contiguous_reservation() {
        let (mut cfg, store, params, enc_out) = setup();
        cfg.max_dec_len = 240;
        let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        for step in 0..64usize {
            decode_step(&store, &params, &cfg, &mut cache, 1 + step % 23);
        }
        let peak = cache.pool().expect("paged").stats().peak_bytes();
        let contiguous = 2 // K and V
            * cfg.n_dec_layers
            * cfg.n_heads
            * cfg.max_dec_len
            * cfg.d_head()
            * std::mem::size_of::<f32>();
        assert!(
            peak * 2 <= contiguous,
            "paged peak {peak}B vs contiguous reservation {contiguous}B"
        );
    }

    #[test]
    fn cross_kv_shapes_match_encoder_length() {
        let (cfg, store, params, enc_out) = setup();
        let cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        for layer in &cache.layers {
            assert_eq!(layer.cross_k.len(), cfg.n_heads);
            for head in layer.cross_k.iter() {
                assert_eq!(head.shape, vec![enc_out.shape[0], cfg.d_head()]);
            }
        }
    }

    #[test]
    fn logits_are_finite_and_vocab_sized() {
        let (cfg, store, params, enc_out) = setup();
        let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let logits = decode_step(&store, &params, &cfg, &mut cache, 1);
        assert_eq!(logits.len(), cfg.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cloned_caches_diverge_independently() {
        let (cfg, store, params, enc_out) = setup();
        let mut a = DecoderCache::new(&store, &params, &cfg, &enc_out);
        decode_step(&store, &params, &cfg, &mut a, 1);
        let mut b = a.clone();
        let la = decode_step(&store, &params, &cfg, &mut a, 6);
        let lb = decode_step(&store, &params, &cfg, &mut b, 7);
        assert_ne!(la, lb, "different tokens give different logits");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    /// `setup`'s model over a 512-token encoder output, with room for a
    /// lane 511 positions deep: at 8 lanes both attention sections carry
    /// `8 · 2 · d · 512 = 2^17` multiply-adds per step, the serving-scale
    /// regime.
    fn long_setup() -> (ModelConfig, ParamStore, TransformerParams, Tensor) {
        let (mut cfg, store, params, _) = setup();
        cfg.max_enc_len = 512;
        cfg.max_dec_len = 520;
        let src: Vec<usize> = (0..512).map(|i| 1 + (i * 7) % 23).collect();
        let enc_out = crate::decode::encode_source(&store, &params, &cfg, &src);
        (cfg, store, params, enc_out)
    }

    /// Steps one batched set of caches through [`decode_step_batch`] and one
    /// single-request set through the matching single step (`decode_step`
    /// or `decode_step_quant`, by `precision`), asserting every lane's
    /// logits row is bitwise the single-request one. Before that, lane `i`
    /// takes `warm[i]` single steps on both sides, so lanes sit at mixed
    /// cache lengths; `token(step, lane)` picks the lockstep tokens.
    fn assert_batched_is_bitwise_single(
        (cfg, store, params, enc_out): &(ModelConfig, ParamStore, TransformerParams, Tensor),
        precision: Precision,
        warm: &[usize],
        steps: usize,
        token: impl Fn(usize, usize) -> usize,
    ) {
        let n = warm.len();
        let qw = QuantDecoderWeights::new(store, params);
        let single = |c: &mut DecoderCache, t: usize| match precision {
            Precision::F32 => decode_step(store, params, cfg, c, t),
            Precision::Int8 => decode_step_quant(store, params, cfg, &qw, c, t),
        };
        let caches = || -> Vec<DecoderCache> {
            (0..n)
                .map(|_| DecoderCache::new(store, params, cfg, enc_out))
                .collect()
        };
        let (mut singles, mut batched) = (caches(), caches());
        for (lane, &w) in warm.iter().enumerate() {
            for step in 0..w {
                let t = 1 + (lane + 7 * step) % (cfg.vocab_size - 1);
                single(&mut singles[lane], t);
                single(&mut batched[lane], t);
            }
        }

        let weights = DecoderWeights::for_precision(store, params, precision);
        assert_eq!(weights.precision(), precision);
        let mut scratch = BatchScratch::new(cfg, n);
        let mut logits = vec![0.0f32; n * cfg.vocab_size];
        for step in 0..steps {
            let tokens: Vec<usize> = (0..n).map(|lane| token(step, lane)).collect();
            let expected: Vec<Vec<f32>> = singles
                .iter_mut()
                .zip(&tokens)
                .map(|(c, &t)| single(c, t))
                .collect();
            let mut lanes: Vec<&mut DecoderCache> = batched.iter_mut().collect();
            decode_step_batch(
                store,
                params,
                cfg,
                &weights,
                &mut lanes,
                &tokens,
                &mut scratch,
                &mut logits,
            );
            for (i, want) in expected.iter().enumerate() {
                let got = &logits[i * cfg.vocab_size..(i + 1) * cfg.vocab_size];
                assert_eq!(got, &want[..], "lane {i} step {step}");
            }
        }
        for (s, b) in singles.iter().zip(&batched) {
            assert_eq!(s.len(), b.len());
        }
    }

    /// Lanes at different positions, stepped in lockstep, must each
    /// reproduce the standalone single-request logits exactly: three lanes
    /// (lane 2 one step ahead) over a short encoder output, and eight lanes
    /// at mixed lengths (one 511 deep) over a 512-token one.
    #[test]
    fn batched_step_is_bitwise_single_step() {
        assert_batched_is_bitwise_single(&setup(), Precision::F32, &[0, 0, 1], 3, |step, lane| {
            [1 + step, 7, 5 + step][lane]
        });
        assert_batched_is_bitwise_single(
            &long_setup(),
            Precision::F32,
            &[0, 7, 1, 511, 3, 40, 2, 16],
            3,
            |step, lane| 1 + (3 * lane + 5 * step) % 23,
        );
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn batched_step_guards_scratch_capacity() {
        let (cfg, store, params, enc_out) = setup();
        let mut a = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let mut b = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let weights = DecoderWeights::for_precision(&store, &params, Precision::F32);
        let mut lanes = vec![&mut a, &mut b];
        let mut scratch = BatchScratch::new(&cfg, 1);
        let mut logits = vec![0.0f32; 2 * cfg.vocab_size];
        decode_step_batch(
            &store,
            &params,
            &cfg,
            &weights,
            &mut lanes,
            &[1, 2],
            &mut scratch,
            &mut logits,
        );
    }

    /// Quantized stepping never touches the storage walk: paged and
    /// contiguous caches stay bitwise-identical under `decode_step_quant`,
    /// exactly as in f32.
    #[test]
    fn quant_paged_logits_are_bitwise_contiguous() {
        let (cfg, store, params, enc_out) = setup();
        let qw = QuantDecoderWeights::new(&store, &params);
        for page_rows in [1usize, 3, 16] {
            let pool = PagePool::with_page_rows(cfg.d_head(), page_rows);
            let mut paged = DecoderCache::new_in_pool(&store, &params, &cfg, &enc_out, &pool);
            let mut reference = DecoderCache::new_contiguous(&store, &params, &cfg, &enc_out);
            for step in 0..12usize {
                let tok = 1 + (step * 5) % 23;
                let lp = decode_step_quant(&store, &params, &cfg, &qw, &mut paged, tok);
                let lr = decode_step_quant(&store, &params, &cfg, &qw, &mut reference, tok);
                assert_eq!(lp, lr, "page_rows={page_rows} step={step}");
            }
            drop(paged);
            assert_eq!(pool.stats().pages_live, 0);
        }
    }

    /// The quantized batched step is bitwise the quantized single step —
    /// integer accumulation is order-invariant, so this holds by
    /// construction, and this test keeps it held. Same two inputs as the
    /// f32 test.
    #[test]
    fn quant_batched_step_is_bitwise_quant_single_step() {
        assert_batched_is_bitwise_single(&setup(), Precision::Int8, &[0, 0, 0], 4, |step, lane| {
            [2 + step, 9, 4 + step][lane]
        });
        assert_batched_is_bitwise_single(
            &long_setup(),
            Precision::Int8,
            &[0, 7, 1, 511, 3, 40, 2, 16],
            3,
            |step, lane| 1 + (3 * lane + 5 * step) % 23,
        );
    }

    /// Quantized logits are close to — but (being quantized) not bitwise
    /// equal to — the f32 logits; a silent fall-through to the f32 kernels
    /// would make them identical, which this test rejects.
    #[test]
    fn quant_logits_differ_from_f32_but_stay_close() {
        let (cfg, store, params, enc_out) = setup();
        let qw = QuantDecoderWeights::new(&store, &params);
        assert_eq!(qw.out_scales().len(), cfg.vocab_size);
        let mut f32_cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let mut q_cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        let mut any_diff = false;
        for tok in [1usize, 8, 3, 15] {
            let lf = decode_step(&store, &params, &cfg, &mut f32_cache, tok);
            let lq = decode_step_quant(&store, &params, &cfg, &qw, &mut q_cache, tok);
            any_diff |= lf != lq;
            for (i, (a, b)) in lf.iter().zip(&lq).enumerate() {
                assert!(
                    (a - b).abs() < 0.2,
                    "logit {i}: f32 {a} vs int8 {b} drifted too far"
                );
            }
        }
        assert!(any_diff, "int8 path must actually run quantized kernels");
    }

    /// Regression (satellite fix): zero-lane scratch is rejected at
    /// construction with a message naming the problem.
    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_scratch_is_rejected_with_clear_error() {
        let (cfg, _, _, _) = setup();
        BatchScratch::new(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn step_guard_at_max_len() {
        let (cfg, store, params, enc_out) = setup();
        let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        for _ in 0..=cfg.max_dec_len {
            decode_step(&store, &params, &cfg, &mut cache, 1);
        }
    }
}
