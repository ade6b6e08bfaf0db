//! The classify kernels' bit-identity contract.
//!
//! Plan v2's classify stages run kernels that exist only to do the same
//! arithmetic with less work:
//!
//! 1. the **implicit-GEMM conv** ([`matmul_blocked_gather_kernel`]) reads
//!    each conv's patches straight from the input image through offset
//!    tables instead of staging an `im2col` matrix, and must reproduce
//!    `im2col_into` + [`matmul_blocked_kernel`] bit for bit — per window
//!    against the batch-stacked reference, so row-count invariance is
//!    checked too;
//! 2. the **key-parallel score kernel** ([`attention_scores_kernel`])
//!    computes one head's `q kᵀ` with lanes over keys from a transposed
//!    copy of K, reading the heads in place from the stacked projection
//!    rows, and must reproduce the column-sliced [`matmul_t_kernel`] bit
//!    for bit, including the score scaling it folds into its store;
//! 3. the **fused linear epilogue** ([`LinearInfer::forward_into_v2`] on
//!    dense weights, i.e. [`matmul_blocked_bias_act_kernel`]) must
//!    reproduce [`matmul_blocked_kernel`] followed by the bias and
//!    activation loops;
//! 4. the **fused conv epilogue** ([`ConvInfer::forward_implicit_into`])
//!    must reproduce [`matmul_blocked_gather_kernel`] followed by
//!    [`ConvInfer::bias_pool_into`], pooled and unpooled;
//! 5. the **row-lane narrow kernel** (what [`matmul_blocked_kernel`]
//!    dispatches to for `n < 8`, `m ≥ 8` on AVX2) must reproduce a
//!    per-element paired-`k` oracle written out below.
//!
//! The sweeps are seeded and mix adversarial values (±0.0, denormals,
//! NaN, ±Inf) into ordinary ones; every output bit must match except the
//! sign and payload of a NaN (see [`bits`]). They compare against
//! whichever kernel bodies the process dispatches to; CI runs this file a
//! second time under `COGARM_NO_SIMD=1`, so the scalar bodies are held to
//! the same bits.

use ml::infer::{Activation, ConvInfer, ExecScratch, LinearInfer, MatRep};
use ml::models::PoolKind;
use ml::tensor::{
    attention_scores_kernel, matmul_blocked_bias_act_kernel, matmul_blocked_gather_kernel,
    matmul_blocked_kernel, matmul_t_kernel, scores_key_stride, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values no kernel may treat specially: signed zeros, the smallest and a
/// mid-range denormal, a quiet NaN and both infinities.
const ADVERSARIAL: [f32; 7] = [
    0.0,
    -0.0,
    f32::from_bits(1),
    -1.0e-40,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// `len` seeded values in `[-2, 2)`, with roughly `special` of them
/// replaced by [`ADVERSARIAL`] entries.
fn seeded_values(len: usize, special: f64, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(special) {
                ADVERSARIAL[rng.gen_range(0..ADVERSARIAL.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// Raw bits, with every NaN mapped to one pattern. Which NaN an operation
/// returns when both operands are NaN is unspecified (IEEE 754 leaves it
/// open, Rust documents NaN sign and payload as non-deterministic, and x86
/// keeps the first operand's, an order the compiler may swap for a
/// commutative add). So a NaN must land in exactly the same elements, but
/// its sign and payload are not part of the contract; every other bit is.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

#[test]
fn implicit_conv_matches_im2col_gemm_bitwise() {
    let (h, w) = (9usize, 21usize);
    let mut case = 0u64;
    for cin in [1usize, 2] {
        for k in [3usize, 5] {
            for stride in [1usize, 2] {
                for cout in [4usize, 6, 8, 9, 16, 32] {
                    for batch in [1usize, 3, 64] {
                        case += 1;
                        let mut rng = StdRng::seed_from_u64(0xC0DE + case);
                        // One case in four runs clean, so the sweep also
                        // pins ordinary finite arithmetic.
                        let special = if case.is_multiple_of(4) { 0.0 } else { 0.03 };
                        let patch = cin * k * k;
                        let weights = seeded_values(patch * cout, special, &mut rng);
                        let conv = ConvInfer {
                            w: MatRep::Dense(Tensor::new(vec![patch, cout], weights.clone())),
                            bias: vec![0.0; cout],
                            cin,
                            h,
                            wdim: w,
                            k,
                            stride,
                            pool: PoolKind::None,
                        };
                        let img_len = cin * h * w;
                        let images = seeded_values(batch * img_len, special, &mut rng);
                        let gather = conv.gather();
                        let spots = gather.spots();
                        assert_eq!(gather.patch(), patch);
                        let (ho, wo) = conv.conv_out();
                        assert_eq!(spots, ho * wo);

                        // Reference: every window's patches stacked into
                        // one [batch·spots, patch] matrix, one GEMM.
                        let mut cols = vec![0.0f32; batch * spots * patch];
                        for b in 0..batch {
                            conv.im2col_into(
                                &images[b * img_len..(b + 1) * img_len],
                                &mut cols[b * spots * patch..(b + 1) * spots * patch],
                            );
                        }
                        let mut want = vec![0.0f32; batch * spots * cout];
                        matmul_blocked_kernel(
                            &cols,
                            &weights,
                            batch * spots,
                            patch,
                            cout,
                            &mut want,
                        );

                        // Implicit: one window at a time, straight from
                        // the image, into a dirty output buffer.
                        let mut got = vec![7.0f32; batch * spots * cout];
                        for b in 0..batch {
                            matmul_blocked_gather_kernel(
                                &images[b * img_len..(b + 1) * img_len],
                                &gather,
                                &weights,
                                cout,
                                &mut got[b * spots * cout..(b + 1) * spots * cout],
                            );
                        }
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "cin {cin} kernel {k} stride {stride} cout {cout} batch {batch}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn score_kernel_matches_sliced_matmul_t_bitwise() {
    let mut case = 0u64;
    for t in [1usize, 7, 25, 33] {
        for dh in [8usize, 16, 17] {
            for special in [0.0, 0.05] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0x5C0E + case);
                // Three heads side by side in stacked rows; score the
                // middle one, so the row stride and the column offset
                // both differ from the head width.
                let heads = 3;
                let ld = heads * dh;
                let mut q = seeded_values(t * ld, special, &mut rng);
                let mut k = seeded_values(t * ld, special, &mut rng);
                let col = dh;
                if special > 0.0 {
                    // The first and last queries all -0.0 against an
                    // all-positive first key: every product is -0.0, so
                    // only the +0.0 starting value makes that score +0.0.
                    for d in col..col + dh {
                        q[d] = -0.0;
                        q[(t - 1) * ld + d] = -0.0;
                        k[d] = k[d].abs();
                    }
                }

                let slice = |src: &[f32]| -> Vec<f32> {
                    (0..t)
                        .flat_map(|i| src[i * ld + col..i * ld + col + dh].iter().copied())
                        .collect()
                };
                let scale = 1.0 / (dh as f32).sqrt();
                let mut want = vec![0.0f32; t * t];
                matmul_t_kernel(&slice(&q), &slice(&k), t, dh, t, &mut want);
                for s in &mut want {
                    *s *= scale;
                }

                // Dirty scratch and output: padding lanes and stale
                // scores must never leak into the result.
                let mut kt = vec![f32::NAN; dh * scores_key_stride(t)];
                let mut got = vec![-3.0f32; t * t];
                attention_scores_kernel(&q[col..], &k[col..], ld, t, dh, scale, &mut kt, &mut got);
                assert_eq!(bits(&want), bits(&got), "t {t} dh {dh} special {special}");
            }
        }
    }
}

/// The activation rules the fused epilogues must reproduce, written out:
/// ReLU is `v > 0 ? v : +0.0` (NaN and -0.0 give +0.0).
fn reference_act(act: Activation, v: f32) -> f32 {
    match act {
        Activation::None => v,
        Activation::Relu => {
            if v > 0.0 {
                v
            } else {
                0.0
            }
        }
        Activation::Tanh => v.tanh(),
    }
}

#[test]
fn fused_linear_epilogue_matches_gemm_then_bias_act_bitwise() {
    let mut case = 0u64;
    for act in [Activation::None, Activation::Relu, Activation::Tanh] {
        for n in [1usize, 2, 3, 7, 8, 9, 16, 32, 64] {
            for m in [1usize, 3, 4, 5, 8, 9, 64, 1600] {
                case += 1;
                let k = [1usize, 2, 7, 16, 33][case as usize % 5];
                let mut rng = StdRng::seed_from_u64(0xB1A5 + case);
                let special = if case.is_multiple_of(4) { 0.0 } else { 0.03 };
                let w = seeded_values(k * n, special, &mut rng);
                let mut x = seeded_values(m * k, special, &mut rng);
                let mut bias = seeded_values(n, 0.3, &mut rng);
                // Column 0 gets a -0.0 bias and row 0 all -0.0 inputs, so
                // acc + bias is +0.0 + -0.0 there: as close to -0.0 as the
                // GEMM can get (every accumulator starts at +0.0, and a sum
                // with a +0.0 operand is never -0.0). The last column gets
                // a NaN bias, so NaN reaches the activation.
                bias[0] = -0.0;
                bias[n - 1] = f32::NAN;
                x[..k].fill(-0.0);
                let layer = LinearInfer {
                    w: MatRep::Dense(Tensor::new(vec![k, n], w.clone())),
                    bias: bias.clone(),
                    act,
                };

                let mut want = vec![0.0f32; m * n];
                matmul_blocked_kernel(&x, &w, m, k, n, &mut want);
                for i in 0..m {
                    for j in 0..n {
                        want[i * n + j] += bias[j];
                    }
                }
                for v in &mut want {
                    *v = reference_act(act, *v);
                }

                let mut got = vec![5.0f32; m * n];
                layer.forward_into_v2(&x, m, &mut got, &mut ExecScratch::default());
                assert_eq!(bits(&want), bits(&got), "{act:?} m {m} k {k} n {n}");
                if act == Activation::Relu {
                    assert!(
                        got.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()),
                        "ReLU produced -0.0 (m {m} k {k} n {n})"
                    );
                }
                let mut direct = vec![-5.0f32; m * n];
                matmul_blocked_bias_act_kernel(&x, &w, m, k, n, &bias, act, &mut direct);
                assert_eq!(bits(&got), bits(&direct), "{act:?} m {m} k {k} n {n}");
            }
        }
    }
}

#[test]
fn fused_conv_epilogue_matches_gather_gemm_then_bias_pool_bitwise() {
    let (h, w) = (9usize, 21usize);
    let mut case = 0u64;
    for pool in [PoolKind::None, PoolKind::Max, PoolKind::Avg] {
        for (cin, k, stride) in [(1usize, 5usize, 2usize), (2, 3, 1), (1, 3, 2)] {
            for cout in [4usize, 6, 8, 9, 16] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0xC0B5 + case);
                let special = if case.is_multiple_of(4) { 0.0 } else { 0.03 };
                let patch = cin * k * k;
                let weights = seeded_values(patch * cout, special, &mut rng);
                let mut bias = seeded_values(cout, 0.3, &mut rng);
                // -0.0 and NaN biases: see the linear sweep.
                bias[0] = -0.0;
                bias[cout - 1] = f32::NAN;
                let conv = ConvInfer {
                    w: MatRep::Dense(Tensor::new(vec![patch, cout], weights.clone())),
                    bias,
                    cin,
                    h,
                    wdim: w,
                    k,
                    stride,
                    pool,
                };
                let mut img = seeded_values(cin * h * w, special, &mut rng);
                // A -0.0 corner: the first spot's patch reads only -0.0.
                for c in 0..cin {
                    for dy in 0..k {
                        img[c * h * w + dy * w..c * h * w + dy * w + k].fill(-0.0);
                    }
                }
                let gather = conv.gather();
                let spots = gather.spots();
                let out_len = conv.out_len();

                let mut flat = vec![0.0f32; spots * cout];
                matmul_blocked_gather_kernel(&img, &gather, &weights, cout, &mut flat);
                let mut prepool = vec![0.0f32; cout * spots];
                let mut want = vec![0.0f32; out_len];
                conv.bias_pool_into(&flat, &mut prepool, &mut want);

                // Dirty scratch and output.
                let mut prepool = vec![f32::NAN; conv.prepool_len()];
                let mut got = vec![3.0f32; out_len];
                let written = conv.forward_implicit_into(&img, &gather, &mut prepool, &mut got);
                assert_eq!(written, out_len);
                assert_eq!(
                    bits(&want),
                    bits(&got),
                    "{pool:?} cin {cin} kernel {k} stride {stride} cout {cout}"
                );
            }
        }
    }
}

#[test]
fn narrow_gemm_matches_paired_k_oracle_bitwise() {
    let mut case = 0u64;
    for n in [1usize, 2, 3, 5, 7] {
        for m in [8usize, 9, 15, 64] {
            for k in [1usize, 2, 7, 8, 9, 2304] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(0x1A4E + case);
                let special = if case.is_multiple_of(4) { 0.0 } else { 0.02 };
                let a = seeded_values(m * k, special, &mut rng);
                let b = seeded_values(k * n, special, &mut rng);

                // Per output: +0.0, then acc + (a0·b0 + a1·b1) for each k
                // pair, then acc + a·b for an odd last k.
                let mut want = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        let mut p = 0;
                        while p + 2 <= k {
                            acc +=
                                a[i * k + p] * b[p * n + j] + a[i * k + p + 1] * b[(p + 1) * n + j];
                            p += 2;
                        }
                        if p < k {
                            acc += a[i * k + p] * b[p * n + j];
                        }
                        want[i * n + j] = acc;
                    }
                }

                let mut got = vec![9.0f32; m * n];
                matmul_blocked_kernel(&a, &b, m, k, n, &mut got);
                assert_eq!(bits(&want), bits(&got), "m {m} k {k} n {n}");
            }
        }
    }
}
