//! The classify kernels' bit-identity contract.
//!
//! Plan v2's convolution and attention stages run two kernels that exist
//! only to do the same arithmetic with less work:
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
//!    for bit.
//!
//! Both sweeps are seeded and mix adversarial values (±0.0, denormals,
//! NaN, ±Inf) into ordinary ones; every output bit must match except the
//! sign and payload of a NaN (see [`bits`]). They compare against
//! whichever kernel bodies the process dispatches to; CI runs this file a
//! second time under `COGARM_NO_SIMD=1`, so the scalar bodies are held to
//! the same bits.

use ml::infer::{ConvInfer, MatRep};
use ml::models::PoolKind;
use ml::tensor::{
    attention_scores_kernel, matmul_blocked_gather_kernel, matmul_blocked_kernel, matmul_t_kernel,
    scores_key_stride, Tensor,
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
                let mut want = vec![0.0f32; t * t];
                matmul_t_kernel(&slice(&q), &slice(&k), t, dh, t, &mut want);

                // Dirty scratch and output: padding lanes and stale
                // scores must never leak into the result.
                let mut kt = vec![f32::NAN; dh * scores_key_stride(t)];
                let mut got = vec![-3.0f32; t * t];
                attention_scores_kernel(&q[col..], &k[col..], ld, t, dh, &mut kt, &mut got);
                assert_eq!(bits(&want), bits(&got), "t {t} dh {dh} special {special}");
            }
        }
    }
}
