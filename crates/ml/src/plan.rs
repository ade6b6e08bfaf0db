//! Compiled inference plans: the allocation-free, batch-first engine
//! behind the 15 Hz label tick.
//!
//! [`crate::infer::InferModel::predict_logits`] is correct but allocates a
//! fresh buffer for every intermediate activation of every window — fine
//! for offline evaluation, ruinous for a serving host classifying many
//! sessions per tick. An [`InferPlan`] is compiled once per model: every
//! per-layer activation buffer is sized at build time into one scratch
//! arena, and [`InferPlan::predict_logits_into`] runs whole batches of
//! windows through the same kernels the allocating path uses
//! ([`crate::tensor::matmul_kernel`] and friends), writing logits into a
//! caller-provided buffer. The steady-state call performs **zero heap
//! allocations**, and per window the arithmetic — and its evaluation
//! order — is identical to the legacy path: batching changes memory
//! layout, never numerics (`tests/tests/serving.rs` and the golden
//! persistence fixtures lock exactly that).
//!
//! A plan is only meaningful for the model it was compiled from; the
//! entry point asserts the cheap structural facts (architecture, input
//! dims, class count) and the sized buffers bound everything else.
//!
//! # Numerics versions
//!
//! Plans carry a [`PlanVersion`]:
//!
//! * **V1** — the original engine: each window of a batch runs the full
//!   per-window forward pass, bit-identical to every artifact produced
//!   since the engine shipped. Frozen; never changes.
//! * **V2** (runtime default) — true multi-window GEMMs: a batch's
//!   windows are stacked as matrix rows and every linear stage runs once
//!   at `m = batch·rows_per_window` through
//!   [`crate::tensor::matmul_blocked_kernel`], the 4-row-blocked,
//!   paired-`k` dense kernel. The reassociated `k` loop produces
//!   *different f32 bits* than v1 (documented tolerance, not drift —
//!   that's why the version exists), but every v2 kernel is **row-count
//!   invariant**: window `i` of a batch gets exactly the bits a
//!   single-window v2 call would produce, so micro-batched serving stays
//!   bit-identical to solo sessions within the version.
//!
//! Select globally with `COGARM_PLAN=1` (or `v1`) in the environment, or
//! explicitly per plan via [`InferPlan::compile_with`].
//!
//! # Same-bits kernels
//!
//! Several stages run kernels that replay the exact arithmetic of the
//! path they replaced with less work, so none is a numerics version:
//!
//! * **Conv lowering (v2, dense weights).** A conv stage does not stage
//!   an `im2col` matrix. [`crate::tensor::matmul_blocked_conv_kernel`]
//!   reads patch element `p` of output spot `s` straight from the
//!   activations at `img[base[s] + off[p]]`, through a [`ConvGather`]
//!   table compiled with the plan. It is the blocked GEMM's own body,
//!   monomorphized over how it reads its left operand, so each output
//!   gets the same multiply/pair-add/accumulate sequence on the same
//!   values the `im2col` matrix would have held. CSR and int8 conv
//!   weights, and v1, still lower through `im2col`.
//! * **Fused GEMM epilogues (v2, dense weights).** The blocked GEMM body
//!   is also monomorphized over how it stores a finished accumulator:
//!   plainly, as `act(acc + bias[j])` for a linear stage
//!   ([`crate::tensor::matmul_blocked_bias_act_kernel`]), or, for a conv,
//!   as `relu(acc + bias[c])` written channel-major straight into the
//!   next activations (or the pre-pool buffer), so dense v2 convs stage
//!   no `[spots, cout]` GEMM result. The accumulator is the value the
//!   plain GEMM would have stored, and the epilogue applies the same
//!   rounded add and the same activation rule the separate passes
//!   applied afterwards, so every bit is the same. CSR and int8 keep
//!   their post-pass, which applies the same rule.
//! * **Narrow outputs (v2).** When a dense GEMM has fewer than 8 output
//!   columns (the 3-class heads) and at least 8 rows, the AVX2 body puts
//!   its lanes over groups of 8 rows instead of columns, transposing
//!   8×8 tiles of the left operand in registers. Each output still gets
//!   `+0.0`, then `acc + (a0·b0 + a1·b1)` per `k` pair, then the odd-`k`
//!   tail, with no FMA; rows left over after the groups of 8 run the
//!   scalar body, so results do not depend on the row count.
//! * **Attention scores (v1 and v2).**
//!   [`crate::tensor::attention_scores_kernel`] reads a head's queries and
//!   keys in place from the stacked projection rows, transposes the keys
//!   into plan-owned scratch and accumulates with lanes over keys. Each
//!   score keeps [`crate::tensor::matmul_t_kernel`]'s order (`+0.0`, then
//!   `q[d]·k[d]` for `d` ascending, no FMA) and is stored as
//!   `acc · scale`, the multiply the separate scaling pass did, so v1
//!   bits are untouched too.
//!
//! ReLU has one explicit rule everywhere, [`crate::infer::relu`]: `v` if
//! `v > 0`, else `+0.0` (what `vmaxps(v, 0)` computes). Where `f32::max`
//! used to leave the sign of a `-0.0` input's result to code generation,
//! the rule now gives `+0.0`; that is invisible downstream, because every
//! ReLU output reaches only GEMMs (through the pool, in pooled convs):
//! dense and CSR accumulators start at `+0.0`, and a sum with a `+0.0`
//! operand is never `-0.0`, so a `±0` term never changes a result; v1's
//! dense kernel skips `a == 0.0` terms, and int8 quantizes both zeros to
//! `0`.
//!
//! The golden traces of both versions lock all of this, together with
//! the seeded sweeps in `tests/tests/classify_kernels.rs`.

use crate::infer::{
    self, CnnInfer, ConvInfer, ExecScratch, InferModel, LstmInfer, MatRep, TfInfer,
};
use crate::tensor::{attention_scores_kernel, matmul_kernel, scores_key_stride, ConvGather};

/// Which numerics generation a compiled plan (or ensemble scratch) runs —
/// see the module docs for the contract each version carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVersion {
    /// Per-window forward passes; bit-identical to all v1-era artifacts.
    V1,
    /// Batched multi-window GEMMs; row-count-invariant reassociated math.
    V2,
}

impl PlanVersion {
    /// The version newly compiled plans get: **V2**, unless the
    /// environment opts the whole process back into the frozen v1
    /// numerics with `COGARM_PLAN=1` (or `v1`, case-insensitive).
    #[must_use]
    pub fn runtime_default() -> Self {
        match std::env::var("COGARM_PLAN") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("v1") => PlanVersion::V1,
            _ => PlanVersion::V2,
        }
    }
}

/// A compiled, reusable execution plan for one [`InferModel`] (see the
/// module docs). Cheap to move, safe to keep for the life of a session;
/// compile one per ensemble member per inference lane.
#[derive(Debug, Clone)]
pub struct InferPlan {
    channels: usize,
    window: usize,
    classes: usize,
    version: PlanVersion,
    /// Largest batch the v2 buffers currently hold (v1 never grows past 1).
    batch_cap: usize,
    kind: KindPlan,
    qs: ExecScratch,
}

// One plan exists per inference lane and lives for a session; the variant
// size gap (a dozen `Vec` headers) is irrelevant and boxing would cost an
// indirection on the hottest loop in the system.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum KindPlan {
    Cnn(CnnPlan),
    Lstm(LstmPlan),
    Tf(TfPlan),
}

/// Ping-pong activation buffers plus the conv stages' GEMM staging.
/// `cols` holds `im2col` patches and `flat` the plain GEMM result only
/// for stages that still lower through `im2col` (every stage under v1;
/// CSR/int8 weights under v2); `prepool` holds one window of a pooled
/// stage's conv output.
#[derive(Debug, Clone)]
struct CnnPlan {
    a: Vec<f32>,
    b: Vec<f32>,
    cols: Vec<f32>,
    flat: Vec<f32>,
    prepool: Vec<f32>,
    /// Per conv stage: the implicit-GEMM offset tables.
    gathers: Vec<ConvGather>,
}

/// Recurrent state and gate buffers, one slot per layer.
#[derive(Debug, Clone)]
struct LstmPlan {
    /// Hidden states, `cells × hidden`.
    h: Vec<f32>,
    /// Cell states, `cells × hidden`.
    c: Vec<f32>,
    h_new: Vec<f32>,
    input: Vec<f32>,
    z_in: Vec<f32>,
    z_out: Vec<f32>,
}

/// Encoder activation buffers sized to one window's sequence.
#[derive(Debug, Clone)]
struct TfPlan {
    rows: Vec<f32>,
    cur: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    head_v: Vec<f32>,
    /// One head's keys transposed for the key-parallel score kernel.
    kt: Vec<f32>,
    scores: Vec<f32>,
    ho: Vec<f32>,
    merged: Vec<f32>,
    attn: Vec<f32>,
    ff_mid: Vec<f32>,
    ff_out: Vec<f32>,
    pooled: Vec<f32>,
}

impl InferPlan {
    /// Compiles a plan for `model` at the process-wide
    /// [`PlanVersion::runtime_default`]: sizes every activation buffer the
    /// forward pass needs (no arithmetic happens here).
    #[must_use]
    pub fn compile(model: &InferModel) -> Self {
        Self::compile_with(model, PlanVersion::runtime_default())
    }

    /// [`InferPlan::compile`] pinned to an explicit numerics version —
    /// the hook tests and fixture generators use to compare v1 and v2
    /// side by side regardless of the environment.
    #[must_use]
    pub fn compile_with(model: &InferModel, version: PlanVersion) -> Self {
        // Compressed weights compile their execution formats now (CSC /
        // densified sparse, int8 layout selection) rather than on the
        // first inference call — plan build is the declared compile point,
        // and the memoized forms are shared by every clone of the model.
        model.visit_weights(infer::MatRep::precompile);
        let kind = match model {
            InferModel::Cnn(m) => KindPlan::Cnn(CnnPlan::compile(m, version)),
            InferModel::Lstm(m) => KindPlan::Lstm(LstmPlan::compile(m)),
            InferModel::Transformer(m) => KindPlan::Tf(TfPlan::compile(m)),
        };
        Self {
            channels: model.channels(),
            window: model.window(),
            classes: model.classes(),
            version,
            batch_cap: 1,
            kind,
            qs: ExecScratch::default(),
        }
    }

    /// Number of output classes the compiled head produces.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The numerics version this plan runs.
    #[must_use]
    pub fn version(&self) -> PlanVersion {
        self.version
    }

    /// Runs `batch` channel-major windows (concatenated in `windows`)
    /// through the compiled network, writing `batch × classes` logits to
    /// `out`. Zero heap allocations once the plan has seen its largest
    /// batch (v2 buffers grow on first use of a bigger batch; v1 never
    /// grows).
    ///
    /// Under **V1** each window runs the full per-window pass —
    /// bit-identical to [`InferModel::predict_logits`] on a v1 plan. Under
    /// **V2** the whole batch runs through stacked multi-window GEMMs;
    /// row-count invariance makes window `i`'s logits bit-identical to a
    /// `batch = 1` v2 call.
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// plan was compiled from, or if buffer lengths disagree with `batch`.
    pub fn predict_logits_into(
        &mut self,
        model: &InferModel,
        windows: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        assert_eq!(
            (self.channels, self.window, self.classes),
            (model.channels(), model.window(), model.classes()),
            "plan compiled for a different model shape"
        );
        let per_window = self.channels * self.window;
        assert_eq!(windows.len(), batch * per_window, "window batch size");
        assert_eq!(out.len(), batch * self.classes, "logit buffer size");
        match self.version {
            PlanVersion::V1 => {
                for b in 0..batch {
                    let window = &windows[b * per_window..(b + 1) * per_window];
                    let logits = &mut out[b * self.classes..(b + 1) * self.classes];
                    match (&mut self.kind, model) {
                        (KindPlan::Cnn(plan), InferModel::Cnn(m)) => {
                            plan.run(m, window, logits, &mut self.qs);
                        }
                        (KindPlan::Lstm(plan), InferModel::Lstm(m)) => {
                            plan.run(m, window, logits, &mut self.qs);
                        }
                        (KindPlan::Tf(plan), InferModel::Transformer(m)) => {
                            plan.run(m, window, logits, &mut self.qs);
                        }
                        _ => panic!("plan architecture disagrees with model"),
                    }
                }
            }
            PlanVersion::V2 => {
                let grow = batch > self.batch_cap;
                match (&mut self.kind, model) {
                    (KindPlan::Cnn(plan), InferModel::Cnn(m)) => {
                        if grow {
                            plan.grow(m, batch);
                        }
                        plan.run_batch(m, windows, batch, out, &mut self.qs);
                    }
                    (KindPlan::Lstm(plan), InferModel::Lstm(m)) => {
                        if grow {
                            plan.grow(m, batch);
                        }
                        plan.run_batch(m, windows, batch, out, &mut self.qs);
                    }
                    (KindPlan::Tf(plan), InferModel::Transformer(m)) => {
                        if grow {
                            plan.grow(m, batch);
                        }
                        plan.run_batch(m, windows, batch, out, &mut self.qs);
                    }
                    _ => panic!("plan architecture disagrees with model"),
                }
                self.batch_cap = self.batch_cap.max(batch);
            }
        }
    }
}

impl CnnPlan {
    fn compile(m: &CnnInfer, version: PlanVersion) -> Self {
        let (act, cols, flat, prepool) = Self::sizes(m, version, 1);
        Self {
            a: vec![0.0; act],
            b: vec![0.0; act],
            cols: vec![0.0; cols],
            flat: vec![0.0; flat],
            prepool: vec![0.0; prepool],
            gathers: m.convs.iter().map(ConvInfer::gather).collect(),
        }
    }

    /// Whether a stage runs the implicit GEMM (v2, dense weights) rather
    /// than `im2col` staging plus the representation's own kernel.
    fn implicit(conv: &ConvInfer, version: PlanVersion) -> bool {
        version == PlanVersion::V2 && matches!(conv.w, MatRep::Dense(_))
    }

    /// Buffer lengths `(act, cols, flat, prepool)` for `batch` windows.
    /// Implicit stages stage nothing in `cols` or `flat` (their fused
    /// epilogue stores straight into `prepool` or the next activations);
    /// `prepool` is always per-window and only sized for pooled stages.
    fn sizes(m: &CnnInfer, version: PlanVersion, batch: usize) -> (usize, usize, usize, usize) {
        let mut act = m.channels * m.window;
        let (mut cols, mut flat, mut prepool) = (0usize, 0usize, 0usize);
        for conv in &m.convs {
            if !Self::implicit(conv, version) {
                let (ho, wo) = conv.conv_out();
                let rows = batch * ho * wo;
                cols = cols.max(rows * conv.cin * conv.k * conv.k);
                flat = flat.max(rows * conv.bias.len());
            }
            prepool = prepool.max(conv.prepool_len());
            act = act.max(conv.out_len());
        }
        (act * batch, cols, flat, prepool)
    }

    fn run(&mut self, m: &CnnInfer, window: &[f32], logits: &mut [f32], qs: &mut ExecScratch) {
        let mut len = window.len();
        self.a[..len].copy_from_slice(window);
        for conv in &m.convs {
            len = conv.forward_into(
                &self.a[..len],
                &mut self.cols,
                &mut self.flat,
                &mut self.prepool,
                &mut self.b,
                qs,
            );
            std::mem::swap(&mut self.a, &mut self.b);
        }
        m.head.forward_into(&self.a[..len], 1, logits, qs);
    }

    /// Scales the ping-pong and GEMM staging buffers to hold `batch`
    /// windows under v2 (see [`CnnPlan::sizes`]).
    fn grow(&mut self, m: &CnnInfer, batch: usize) {
        let (act, cols, flat, _) = Self::sizes(m, PlanVersion::V2, batch);
        self.a.resize(act, 0.0);
        self.b.resize(act, 0.0);
        self.cols.resize(cols, 0.0);
        self.flat.resize(flat, 0.0);
    }

    /// The v2 forward. A dense-weight stage runs the implicit GEMM window
    /// by window ([`ConvInfer::forward_implicit_into`]), reading the
    /// patches straight from the activations through the stage's offset
    /// tables and storing `relu(acc + bias)` channel-major straight into
    /// the next activations (or `prepool`, ahead of the pool). A CSR or
    /// int8 stage lowers **all** windows' patches into one stacked
    /// `[batch·spots, patch]` matrix and multiplies the weights once. The
    /// blocked GEMM is row-count invariant and the gather reads exactly
    /// the `im2col` values, so each window's activations are
    /// bit-identical to a `batch = 1` call either way.
    fn run_batch(
        &mut self,
        m: &CnnInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let mut len = m.channels * m.window;
        self.a[..batch * len].copy_from_slice(&windows[..batch * len]);
        for (conv, gather) in m.convs.iter().zip(&self.gathers) {
            let spots = gather.spots();
            let cout = conv.bias.len();
            let out_len = conv.out_len();
            if let MatRep::Dense(_) = &conv.w {
                for b in 0..batch {
                    conv.forward_implicit_into(
                        &self.a[b * len..(b + 1) * len],
                        gather,
                        &mut self.prepool,
                        &mut self.b[b * out_len..(b + 1) * out_len],
                    );
                }
            } else {
                let patch = gather.patch();
                for b in 0..batch {
                    conv.im2col_into(
                        &self.a[b * len..(b + 1) * len],
                        &mut self.cols[b * spots * patch..(b + 1) * spots * patch],
                    );
                }
                // Not dense, so this is the CSR/int8 kernel v1 shares.
                conv.w.left_matmul_into(
                    &self.cols[..batch * spots * patch],
                    batch * spots,
                    &mut self.flat,
                    qs,
                );
                for b in 0..batch {
                    conv.bias_pool_into(
                        &self.flat[b * spots * cout..(b + 1) * spots * cout],
                        &mut self.prepool,
                        &mut self.b[b * out_len..(b + 1) * out_len],
                    );
                }
            }
            len = out_len;
            std::mem::swap(&mut self.a, &mut self.b);
        }
        m.head.forward_into_v2(&self.a[..batch * len], batch, logits, qs);
    }
}

impl LstmPlan {
    fn compile(m: &LstmInfer) -> Self {
        let cells = m.cells.len();
        let input = m.channels.max(m.hidden);
        Self {
            h: vec![0.0; cells * m.hidden],
            c: vec![0.0; cells * m.hidden],
            h_new: vec![0.0; m.hidden],
            input: vec![0.0; input],
            z_in: vec![0.0; input + m.hidden],
            z_out: vec![0.0; 4 * m.hidden],
        }
    }

    fn run(&mut self, m: &LstmInfer, window: &[f32], logits: &mut [f32], qs: &mut ExecScratch) {
        let hid = m.hidden;
        let t_len = m.window.div_ceil(m.time_stride);
        self.h.fill(0.0);
        self.c.fill(0.0);
        for ti in 0..t_len {
            let t_src = ti * m.time_stride;
            let mut in_len = m.channels;
            for ch in 0..m.channels {
                self.input[ch] = window[ch * m.window + t_src];
            }
            for (li, cell) in m.cells.iter().enumerate() {
                let z_len = in_len + hid;
                self.z_in[..in_len].copy_from_slice(&self.input[..in_len]);
                self.z_in[in_len..z_len].copy_from_slice(&self.h[li * hid..(li + 1) * hid]);
                cell.forward_into(&self.z_in[..z_len], 1, &mut self.z_out, qs);
                for j in 0..hid {
                    let i_g = infer::sigmoid(self.z_out[j]);
                    let f_g = infer::sigmoid(self.z_out[hid + j]);
                    let g_g = self.z_out[2 * hid + j].tanh();
                    let o_g = infer::sigmoid(self.z_out[3 * hid + j]);
                    let c = &mut self.c[li * hid + j];
                    *c = f_g * *c + i_g * g_g;
                    self.h_new[j] = o_g * c.tanh();
                }
                self.h[li * hid..(li + 1) * hid].copy_from_slice(&self.h_new[..hid]);
                self.input[..hid].copy_from_slice(&self.h[li * hid..(li + 1) * hid]);
                in_len = hid;
            }
        }
        let last = (m.cells.len() - 1) * hid;
        m.head.forward_into(&self.h[last..last + hid], 1, logits, qs);
    }

    /// Scales the recurrent state and gate staging buffers to hold
    /// `batch` windows.
    fn grow(&mut self, m: &LstmInfer, batch: usize) {
        let cells = m.cells.len();
        let input = m.channels.max(m.hidden);
        self.h.resize(cells * m.hidden * batch, 0.0);
        self.c.resize(cells * m.hidden * batch, 0.0);
        self.h_new.resize(m.hidden * batch, 0.0);
        self.input.resize(input * batch, 0.0);
        self.z_in.resize((input + m.hidden) * batch, 0.0);
        self.z_out.resize(4 * m.hidden * batch, 0.0);
    }

    /// The v2 forward: at every timestep each layer's `[x_t, h_{t-1}]`
    /// rows for **all** windows stack into one `[batch, in+h]` GEMM; the
    /// gate nonlinearities run per row. Recurrent state is laid out
    /// `[layer][window][hidden]`, so the final layer's hidden block feeds
    /// the head as a contiguous `[batch, hidden]` matrix.
    fn run_batch(
        &mut self,
        m: &LstmInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let hid = m.hidden;
        let iw = m.channels.max(hid);
        let per_window = m.channels * m.window;
        let t_len = m.window.div_ceil(m.time_stride);
        let cells = m.cells.len();
        self.h[..cells * batch * hid].fill(0.0);
        self.c[..cells * batch * hid].fill(0.0);
        for ti in 0..t_len {
            let t_src = ti * m.time_stride;
            let mut in_len = m.channels;
            for b in 0..batch {
                let window = &windows[b * per_window..(b + 1) * per_window];
                for ch in 0..m.channels {
                    self.input[b * iw + ch] = window[ch * m.window + t_src];
                }
            }
            for (li, cell) in m.cells.iter().enumerate() {
                let z_len = in_len + hid;
                for b in 0..batch {
                    let z = &mut self.z_in[b * z_len..(b + 1) * z_len];
                    z[..in_len].copy_from_slice(&self.input[b * iw..b * iw + in_len]);
                    z[in_len..].copy_from_slice(
                        &self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid],
                    );
                }
                cell.forward_into_v2(&self.z_in[..batch * z_len], batch, &mut self.z_out, qs);
                for b in 0..batch {
                    let z_out = &self.z_out[b * 4 * hid..(b + 1) * 4 * hid];
                    for j in 0..hid {
                        let i_g = infer::sigmoid(z_out[j]);
                        let f_g = infer::sigmoid(z_out[hid + j]);
                        let g_g = z_out[2 * hid + j].tanh();
                        let o_g = infer::sigmoid(z_out[3 * hid + j]);
                        let c = &mut self.c[(li * batch + b) * hid + j];
                        *c = f_g * *c + i_g * g_g;
                        self.h_new[b * hid + j] = o_g * c.tanh();
                    }
                    self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid]
                        .copy_from_slice(&self.h_new[b * hid..(b + 1) * hid]);
                    self.input[b * iw..b * iw + hid].copy_from_slice(
                        &self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid],
                    );
                }
                in_len = hid;
            }
        }
        let last = (cells - 1) * batch * hid;
        m.head
            .forward_into_v2(&self.h[last..last + batch * hid], batch, logits, qs);
    }
}

impl TfPlan {
    fn compile(m: &TfInfer) -> Self {
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let dh = d / m.heads;
        let ff = m
            .blocks
            .iter()
            .map(|b| b.ff1.out_width())
            .max()
            .unwrap_or(0);
        Self {
            rows: vec![0.0; t * m.channels],
            cur: vec![0.0; t * d],
            q: vec![0.0; t * d],
            k: vec![0.0; t * d],
            v: vec![0.0; t * d],
            head_v: vec![0.0; t * dh],
            kt: vec![0.0; dh * scores_key_stride(t)],
            scores: vec![0.0; t * t],
            ho: vec![0.0; t * dh],
            merged: vec![0.0; t * d],
            attn: vec![0.0; t * d],
            ff_mid: vec![0.0; t * ff],
            ff_out: vec![0.0; t * d],
            pooled: vec![0.0; d],
        }
    }

    fn run(&mut self, m: &TfInfer, window: &[f32], logits: &mut [f32], qs: &mut ExecScratch) {
        let chans = m.channels;
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let dh = d / m.heads;
        for (ti, t_src) in (0..m.window).step_by(m.time_stride).enumerate() {
            for ch in 0..chans {
                self.rows[ti * chans + ch] = window[ch * m.window + t_src];
            }
        }
        m.input_proj.forward_into(&self.rows[..t * chans], t, &mut self.cur, qs);
        for (c, &p) in self.cur[..t * d].iter_mut().zip(m.pos.data()) {
            *c += p;
        }
        let scale = 1.0 / (dh as f32).sqrt();
        for block in &m.blocks {
            block.wq.forward_into(&self.cur[..t * d], t, &mut self.q, qs);
            block.wk.forward_into(&self.cur[..t * d], t, &mut self.k, qs);
            block.wv.forward_into(&self.cur[..t * d], t, &mut self.v, qs);
            for hidx in 0..m.heads {
                let col = hidx * dh;
                attention_scores_kernel(
                    &self.q[col..],
                    &self.k[col..],
                    d,
                    t,
                    dh,
                    scale,
                    &mut self.kt,
                    &mut self.scores,
                );
                infer::slice_cols_into(&self.v, t, d, col, dh, &mut self.head_v);
                infer::softmax_rows_slice(&mut self.scores, t, t);
                matmul_kernel(&self.scores, &self.head_v, t, t, dh, &mut self.ho);
                for ti in 0..t {
                    self.merged[ti * d + hidx * dh..ti * d + (hidx + 1) * dh]
                        .copy_from_slice(&self.ho[ti * dh..(ti + 1) * dh]);
                }
            }
            block.wo.forward_into(&self.merged[..t * d], t, &mut self.attn, qs);
            // Residual adds run in place on `cur` — `a + b` in the same
            // order as the tensor path's clone-then-add_assign.
            for (c, &a) in self.cur[..t * d].iter_mut().zip(&self.attn[..t * d]) {
                *c += a;
            }
            infer::layer_norm_slice(&mut self.cur, t, d, &block.ln1.0, &block.ln1.1);
            let ff = block.ff1.out_width();
            block.ff1.forward_into(&self.cur[..t * d], t, &mut self.ff_mid, qs);
            block
                .ff2
                .forward_into(&self.ff_mid[..t * ff], t, &mut self.ff_out, qs);
            for (c, &f) in self.cur[..t * d].iter_mut().zip(&self.ff_out[..t * d]) {
                *c += f;
            }
            infer::layer_norm_slice(&mut self.cur, t, d, &block.ln2.0, &block.ln2.1);
        }
        // Mean pool over time.
        self.pooled.fill(0.0);
        for ti in 0..t {
            for (j, p) in self.pooled[..d].iter_mut().enumerate() {
                *p += self.cur[ti * d + j] / t as f32;
            }
        }
        m.head.forward_into(&self.pooled[..d], 1, logits, qs);
    }

    /// Scales the sequence-shaped buffers to hold `batch` windows'
    /// stacked rows (the per-window attention scratch — `head_v`, `kt`,
    /// `scores`, `ho` — is reused across windows and stays single-sized).
    fn grow(&mut self, m: &TfInfer, batch: usize) {
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let ff = m
            .blocks
            .iter()
            .map(|b| b.ff1.out_width())
            .max()
            .unwrap_or(0);
        self.rows.resize(t * m.channels * batch, 0.0);
        self.cur.resize(t * d * batch, 0.0);
        self.q.resize(t * d * batch, 0.0);
        self.k.resize(t * d * batch, 0.0);
        self.v.resize(t * d * batch, 0.0);
        self.merged.resize(t * d * batch, 0.0);
        self.attn.resize(t * d * batch, 0.0);
        self.ff_mid.resize(t * ff * batch, 0.0);
        self.ff_out.resize(t * d * batch, 0.0);
        self.pooled.resize(d * batch, 0.0);
    }

    /// The v2 forward: all projections and the feed-forward stages run
    /// once over the stacked `[batch·t, d]` rows; attention — inherently
    /// per-window (each window owns a `t × t` score matrix) — loops over
    /// windows with reused per-window scratch. LayerNorm, softmax and the
    /// residual adds are all row-local, so every window's rows see
    /// exactly the arithmetic a `batch = 1` call applies.
    fn run_batch(
        &mut self,
        m: &TfInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let chans = m.channels;
        let per_window = chans * m.window;
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let dh = d / m.heads;
        for b in 0..batch {
            let window = &windows[b * per_window..(b + 1) * per_window];
            for (ti, t_src) in (0..m.window).step_by(m.time_stride).enumerate() {
                for ch in 0..chans {
                    self.rows[(b * t + ti) * chans + ch] = window[ch * m.window + t_src];
                }
            }
        }
        let rows = batch * t;
        m.input_proj
            .forward_into_v2(&self.rows[..rows * chans], rows, &mut self.cur, qs);
        for b in 0..batch {
            for (c, &p) in self.cur[b * t * d..(b + 1) * t * d]
                .iter_mut()
                .zip(m.pos.data())
            {
                *c += p;
            }
        }
        let scale = 1.0 / (dh as f32).sqrt();
        for block in &m.blocks {
            block
                .wq
                .forward_into_v2(&self.cur[..rows * d], rows, &mut self.q, qs);
            block
                .wk
                .forward_into_v2(&self.cur[..rows * d], rows, &mut self.k, qs);
            block
                .wv
                .forward_into_v2(&self.cur[..rows * d], rows, &mut self.v, qs);
            for b in 0..batch {
                let row0 = b * t * d;
                for hidx in 0..m.heads {
                    let col = row0 + hidx * dh;
                    attention_scores_kernel(
                        &self.q[col..],
                        &self.k[col..],
                        d,
                        t,
                        dh,
                        scale,
                        &mut self.kt,
                        &mut self.scores,
                    );
                    infer::slice_cols_into(
                        &self.v[row0..row0 + t * d],
                        t,
                        d,
                        hidx * dh,
                        dh,
                        &mut self.head_v,
                    );
                    infer::softmax_rows_slice(&mut self.scores, t, t);
                    matmul_kernel(&self.scores, &self.head_v, t, t, dh, &mut self.ho);
                    for ti in 0..t {
                        let row = (b * t + ti) * d;
                        self.merged[row + hidx * dh..row + (hidx + 1) * dh]
                            .copy_from_slice(&self.ho[ti * dh..(ti + 1) * dh]);
                    }
                }
            }
            block
                .wo
                .forward_into_v2(&self.merged[..rows * d], rows, &mut self.attn, qs);
            for (c, &a) in self.cur[..rows * d].iter_mut().zip(&self.attn[..rows * d]) {
                *c += a;
            }
            infer::layer_norm_slice(&mut self.cur, rows, d, &block.ln1.0, &block.ln1.1);
            let ff = block.ff1.out_width();
            block
                .ff1
                .forward_into_v2(&self.cur[..rows * d], rows, &mut self.ff_mid, qs);
            block
                .ff2
                .forward_into_v2(&self.ff_mid[..rows * ff], rows, &mut self.ff_out, qs);
            for (c, &f) in self.cur[..rows * d].iter_mut().zip(&self.ff_out[..rows * d]) {
                *c += f;
            }
            infer::layer_norm_slice(&mut self.cur, rows, d, &block.ln2.0, &block.ln2.1);
        }
        // Mean pool over time, per window.
        self.pooled[..batch * d].fill(0.0);
        for b in 0..batch {
            let pooled = &mut self.pooled[b * d..(b + 1) * d];
            for ti in 0..t {
                for (j, p) in pooled.iter_mut().enumerate() {
                    *p += self.cur[(b * t + ti) * d + j] / t as f32;
                }
            }
        }
        m.head
            .forward_into_v2(&self.pooled[..batch * d], batch, logits, qs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{prune_global, quantize, QuantMode};
    use crate::models::{CnnConfig, ConvSpec, LstmConfig, PoolKind, TransformerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_window(channels: usize, win: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..channels * win).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn models() -> Vec<InferModel> {
        let cnn = CnnConfig {
            convs: vec![
                ConvSpec {
                    filters: 6,
                    kernel: 3,
                    stride: 2,
                },
                ConvSpec {
                    filters: 4,
                    kernel: 3,
                    stride: 1,
                },
            ],
            pool: PoolKind::Max,
            window: 40,
            channels: 16,
            dropout: 0.0,
        };
        let lstm = LstmConfig {
            hidden: 12,
            layers: 2,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        let tf = TransformerConfig {
            layers: 2,
            heads: 2,
            d_model: 16,
            dim_ff: 32,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        vec![
            infer::compile_cnn(&cnn.build(1).unwrap()),
            infer::compile_lstm(&lstm.build(2).unwrap()),
            infer::compile_transformer(&tf.build(3).unwrap()),
        ]
    }

    #[test]
    fn plan_is_bit_identical_to_legacy_path_per_window() {
        for (mi, model) in models().iter().enumerate() {
            let mut plan = InferPlan::compile(model);
            for seed in 0..4u64 {
                let w = random_window(model.channels(), model.window(), seed * 7 + mi as u64);
                let legacy = model.predict_logits(&w);
                let mut out = vec![0.0f32; model.classes()];
                plan.predict_logits_into(model, &w, 1, &mut out);
                for (a, b) in legacy.iter().zip(&out) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "model {mi} seed {seed}: {legacy:?} vs {out:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_logits_match_per_window_calls_bitwise() {
        for model in &models() {
            let mut plan = InferPlan::compile(model);
            let per = model.channels() * model.window();
            let batch = 5;
            let mut windows = Vec::with_capacity(batch * per);
            for b in 0..batch {
                windows.extend(random_window(model.channels(), model.window(), 100 + b as u64));
            }
            let mut batched = vec![0.0f32; batch * model.classes()];
            plan.predict_logits_into(model, &windows, batch, &mut batched);
            for b in 0..batch {
                let solo = model.predict_logits(&windows[b * per..(b + 1) * per]);
                let got = &batched[b * model.classes()..(b + 1) * model.classes()];
                for (x, y) in solo.iter().zip(got) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} window {b}", model.kind());
                }
            }
        }
    }

    #[test]
    fn plan_reuse_does_not_leak_state_across_windows() {
        // Recurrent/attention state must be reset per window: running the
        // same window twice through one plan must give the same answer as
        // a fresh plan.
        for model in &models() {
            let w = random_window(model.channels(), model.window(), 9);
            let mut plan = InferPlan::compile(model);
            let mut first = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &w, 1, &mut first);
            // Poison with a different window, then repeat the original.
            let other = random_window(model.channels(), model.window(), 10);
            let mut sink = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &other, 1, &mut sink);
            let mut second = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &w, 1, &mut second);
            for (a, b) in first.iter().zip(&second) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} state leaked", model.kind());
            }
        }
    }

    #[test]
    fn plan_covers_sparse_and_quantized_representations() {
        // The compressed deployment variants run different kernels; the
        // plan must route through the same ones bit-for-bit.
        for model in &models() {
            for variant in [0, 1] {
                let mut m = model.clone();
                if variant == 0 {
                    prune_global(&mut m, 0.5);
                } else {
                    quantize(&mut m, QuantMode::Calibrated).unwrap();
                }
                let w = random_window(m.channels(), m.window(), 31);
                let legacy = m.predict_logits(&w);
                let mut plan = InferPlan::compile(&m);
                let mut out = vec![0.0f32; m.classes()];
                plan.predict_logits_into(&m, &w, 1, &mut out);
                for (a, b) in legacy.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} variant {variant}", m.kind());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan compiled for a different model shape")]
    fn mismatched_model_is_rejected() {
        let models = models();
        let mut plan = InferPlan::compile(&models[0]);
        let w = random_window(models[1].channels(), models[1].window(), 0);
        let mut out = vec![0.0f32; models[1].classes()];
        plan.predict_logits_into(&models[1], &w, 1, &mut out);
    }
}
