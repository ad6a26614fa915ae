//! Inter-bank skewing functions `H`, `H⁻¹` and the family `f0, f1, f2`.
//!
//! These are the functions of section 4.2 of the paper, originally proposed
//! for the skewed-associative cache (Seznec & Bodin, PARLE '93). A skewed
//! predictor indexes each of its banks with a *different* function of the
//! same information vector, so that two vectors colliding in one bank are
//! dispersed across different entries of the other banks.
//!
//! With the packed vector decomposed into bit substrings `(V3, V2, V1)`
//! (`V1`, `V2` the two lowest `n`-bit strings):
//!
//! ```text
//! H (y_n, .., y_1) = (y_n ^ y_1, y_n, y_{n-1}, .., y_2)      // LFSR step
//! f0(V3, V2, V1)   = H(V1) ^ H⁻¹(V2) ^ V2
//! f1(V3, V2, V1)   = H(V1) ^ H⁻¹(V2) ^ V1
//! f2(V3, V2, V1)   = H⁻¹(V1) ^ H(V2) ^ V2
//! ```
//!
//! The property that matters (and which the tests verify by rank
//! computation over GF(2)): **if two distinct vectors map to the same entry
//! in one bank, they do not conflict in any other bank unless their low
//! `2n` bits are identical.** Because every `f_i` is linear over GF(2),
//! this is exactly the statement that the combined map
//! `(V2, V1) ↦ (f_i, f_j)` is injective.
//!
//! A subtlety the paper glosses over: the combined map has full rank only
//! when `n ≢ 2 (mod 3)`. At `n ≡ 2 (mod 3)` its kernel has dimension 2, so
//! exactly 3 nonzero difference patterns (out of `2^2n - 1`) collide in two
//! banks at once — a fraction `≈ 2^(2-2n)`, which is why the property is
//! effectively universal at every realistic bank size.
//! [`dispersion_kernel_dim`] exposes the exact kernel dimension.
//!
//! Banks 3 and 4 (for the 5-bank ablation of section 5.1) are not specified
//! in the paper; we extend the family with two more functions built from the
//! same primitives. Their pairwise kernels are verified to be just as small
//! by the same rank test.

/// Maximum supported bank index width.
pub const MAX_INDEX_BITS: u32 = 30;

/// Number of distinct skewing functions provided.
pub const NUM_SKEW_FUNCTIONS: usize = 5;

#[inline]
fn mask(n: u32) -> u64 {
    (1u64 << n) - 1
}

/// One step of the `n`-bit LFSR-style mixing function `H`.
///
/// `H(y_n, .., y_1) = (y_n ^ y_1, y_n, y_{n-1}, .., y_3, y_2)`: the word is
/// shifted right by one and the vacated most-significant bit receives
/// `y_n ^ y_1`.
///
/// # Panics
///
/// Panics if `n < 2` or `n > MAX_INDEX_BITS`, or if `x` has bits above `n`.
#[inline]
pub fn h(x: u64, n: u32) -> u64 {
    debug_assert!((2..=MAX_INDEX_BITS).contains(&n), "h: n={n} out of range");
    debug_assert_eq!(x & !mask(n), 0, "h: operand wider than {n} bits");
    let msb = (x >> (n - 1)) & 1;
    let lsb = x & 1;
    (x >> 1) | ((msb ^ lsb) << (n - 1))
}

/// The inverse of [`h`]: `h_inv(h(x, n), n) == x`.
///
/// # Panics
///
/// Same preconditions as [`h`].
#[inline]
pub fn h_inv(x: u64, n: u32) -> u64 {
    debug_assert!(
        (2..=MAX_INDEX_BITS).contains(&n),
        "h_inv: n={n} out of range"
    );
    debug_assert_eq!(x & !mask(n), 0, "h_inv: operand wider than {n} bits");
    let b_n = (x >> (n - 1)) & 1;
    let b_n1 = (x >> (n - 2)) & 1;
    ((x << 1) & mask(n)) | (b_n ^ b_n1)
}

/// Apply [`h`] `times` times.
#[inline]
fn h_pow(mut x: u64, n: u32, times: u32) -> u64 {
    for _ in 0..times {
        x = h(x, n);
    }
    x
}

/// Apply [`h_inv`] `times` times.
#[inline]
fn h_inv_pow(mut x: u64, n: u32, times: u32) -> u64 {
    for _ in 0..times {
        x = h_inv(x, n);
    }
    x
}

/// The `n`-bit index of `packed` in bank `bank` (0-based).
///
/// `packed` is the binary representation of the information vector
/// `(V3, V2, V1)`; only the low `2n` bits participate (`V3` is ignored, as
/// in the paper).
///
/// Banks 0–2 are exactly the paper's `f0`, `f1`, `f2`; banks 3 and 4 extend
/// the family for the 5-bank ablation.
///
/// # Panics
///
/// Panics if `bank >= NUM_SKEW_FUNCTIONS` or `n` is out of `2..=30`.
///
/// ```
/// use bpred_core::skew::skew_index;
///
/// let v = 0b1101_0110_1010;
/// let i0 = skew_index(0, v, 6);
/// let i1 = skew_index(1, v, 6);
/// assert!(i0 < 64 && i1 < 64);
/// ```
#[inline]
pub fn skew_index(bank: usize, packed: u64, n: u32) -> u64 {
    assert!(
        (2..=MAX_INDEX_BITS).contains(&n),
        "skew_index: n={n} out of range 2..=30"
    );
    let m = mask(n);
    let v1 = packed & m;
    let v2 = (packed >> n) & m;
    match bank {
        0 => h(v1, n) ^ h_inv(v2, n) ^ v2,
        1 => h(v1, n) ^ h_inv(v2, n) ^ v1,
        2 => h_inv(v1, n) ^ h(v2, n) ^ v2,
        3 => h_inv(v1, n) ^ h(v2, n) ^ v1,
        4 => h_pow(v1, n, 2) ^ h_inv_pow(v2, n, 2) ^ v2,
        _ => panic!("skew bank {bank} not in 0..{NUM_SKEW_FUNCTIONS}"),
    }
}

/// The collision image of a *difference* vector under bank `bank`.
///
/// Because every `f_i` is linear over GF(2), `f_i(V) == f_i(W)` iff
/// `collision_image(bank, V ^ W, n) == 0`. Exposed for the aliasing
/// analyses and the dispersion-property tests.
#[inline]
pub fn collision_image(bank: usize, diff: u64, n: u32) -> u64 {
    skew_index(bank, diff, n)
}

/// Dimension of the space of difference vectors that collide in *both*
/// banks simultaneously.
///
/// 0 means perfect dispersion (the paper's property holds exactly);
/// dimension `d > 0` means a fraction `2^(d-2n)` of difference patterns
/// double-collide. For the paper's `f0..f2` this is 0 when
/// `n ≢ 2 (mod 3)` and 2 otherwise.
pub fn dispersion_kernel_dim(bank_i: usize, bank_j: usize, n: u32) -> usize {
    assert_ne!(bank_i, bank_j, "dispersion is a property of distinct banks");
    // Build the 2n x 2n matrix column by column from basis vectors, then
    // compute its rank by Gaussian elimination on u64 rows.
    let dims = (2 * n) as usize;
    let mut rows: Vec<u64> = Vec::with_capacity(dims);
    for bit in 0..dims {
        let basis = 1u64 << bit;
        let ci = collision_image(bank_i, basis, n);
        let cj = collision_image(bank_j, basis, n);
        // Column vector of the map for this basis element, packed as
        // (c_j << n) | c_i. Transpose is irrelevant for rank.
        rows.push((cj << n) | ci);
    }
    dims - rank_gf2(&mut rows)
}

/// Rank of a set of GF(2) row vectors (each a u64 bitmask).
fn rank_gf2(rows: &mut [u64]) -> usize {
    let mut rank = 0;
    for bit in (0..64).rev() {
        let Some(pivot) = (rank..rows.len()).find(|&r| rows[r] >> bit & 1 == 1) else {
            continue;
        };
        rows.swap(rank, pivot);
        let lead = rows[rank];
        for (r, row) in rows.iter_mut().enumerate() {
            if r != rank && (*row >> bit) & 1 == 1 {
                *row ^= lead;
            }
        }
        rank += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_matches_bit_level_definition() {
        // n = 4, y = (y4,y3,y2,y1) = 0b1011 -> (y4^y1, y4, y3, y2) = (1^1,1,0,1) = 0b0101
        assert_eq!(h(0b1011, 4), 0b0101);
        // y = 0b1000 -> (1^0, 1, 0, 0) = 0b1100
        assert_eq!(h(0b1000, 4), 0b1100);
        // y = 0b0001 -> (0^1, 0, 0, 0) = 0b1000
        assert_eq!(h(0b0001, 4), 0b1000);
    }

    #[test]
    fn h_inv_inverts_h_exhaustively_small_n() {
        for n in 2..=12u32 {
            for x in 0..(1u64 << n) {
                assert_eq!(h_inv(h(x, n), n), x, "n={n} x={x:#b}");
                assert_eq!(h(h_inv(x, n), n), x, "n={n} x={x:#b}");
            }
        }
    }

    #[test]
    fn h_is_a_bijection_small_n() {
        for n in 2..=10u32 {
            let mut seen = vec![false; 1 << n];
            for x in 0..(1u64 << n) {
                let y = h(x, n) as usize;
                assert!(!seen[y], "h not injective at n={n}");
                seen[y] = true;
            }
        }
    }

    #[test]
    fn skew_functions_are_distinct() {
        // On a random-ish sample, no two banks compute the same function.
        let n = 10;
        for i in 0..NUM_SKEW_FUNCTIONS {
            for j in (i + 1)..NUM_SKEW_FUNCTIONS {
                let differs = (0..4096u64)
                    .map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .any(|v| {
                        let v = v & ((1 << (2 * n)) - 1);
                        skew_index(i, v, n) != skew_index(j, v, n)
                    });
                assert!(differs, "banks {i} and {j} compute identical functions");
            }
        }
    }

    #[test]
    fn skew_index_ignores_v3() {
        let n = 8;
        let low = 0xABCDu64 & ((1 << 16) - 1);
        for bank in 0..3 {
            assert_eq!(
                skew_index(bank, low, n),
                skew_index(bank, low | (0xFFF << 16), n),
                "V3 must not influence bank {bank}"
            );
        }
    }

    #[test]
    fn paper_banks_disperse_at_experiment_sizes() {
        // The paper's property, verified by rank: a difference vector that
        // collides in one of f0,f1,f2 cannot collide in another unless its
        // low 2n bits are zero. Holds exactly when n % 3 != 2; at
        // n % 3 == 2 the kernel has dimension exactly 2 (3 nonzero
        // double-colliding patterns out of 2^2n - 1, i.e. negligible).
        for n in 3..=20u32 {
            for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
                let dim = dispersion_kernel_dim(i, j, n);
                if n % 3 == 2 {
                    assert_eq!(dim, 2, "banks {i},{j} at n={n}");
                } else {
                    assert_eq!(dim, 0, "banks {i},{j} fail dispersion at n={n}");
                }
            }
        }
    }

    #[test]
    fn extension_banks_keep_kernels_tiny() {
        // Banks 3 and 4 are our extension for the 5-bank ablation; verify
        // that every pairwise kernel stays negligible (dim <= 3) at the
        // sizes the ablation sweeps.
        for n in [6u32, 8, 10, 12, 14, 16] {
            for i in 0..NUM_SKEW_FUNCTIONS {
                for j in (i + 1)..NUM_SKEW_FUNCTIONS {
                    let dim = dispersion_kernel_dim(i, j, n);
                    assert!(
                        dim <= 3,
                        "banks {i},{j} kernel dim {dim} too large at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispersion_brute_force_matches_rank_small_n() {
        // Cross-check the linear-algebra machinery against brute force.
        for n in [3u32, 4, 6] {
            for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
                let mut kernel_count = 0u64;
                for d in 0..(1u64 << (2 * n)) {
                    if collision_image(i, d, n) == 0 && collision_image(j, d, n) == 0 {
                        kernel_count += 1;
                    }
                }
                let dim = dispersion_kernel_dim(i, j, n);
                assert_eq!(kernel_count, 1u64 << dim, "n={n} pair=({i},{j})");
            }
        }
    }

    #[test]
    fn collision_image_is_linear() {
        let n = 12;
        let m = (1u64 << (2 * n)) - 1;
        let a = 0x5A5A_5A5A & m;
        let b = 0x1234_CAFE & m;
        for bank in 0..NUM_SKEW_FUNCTIONS {
            assert_eq!(
                skew_index(bank, a, n) ^ skew_index(bank, b, n),
                collision_image(bank, a ^ b, n),
                "bank {bank} not linear"
            );
        }
    }

    #[test]
    fn indices_stay_in_range() {
        for n in [2u32, 7, 13, 30] {
            for bank in 0..NUM_SKEW_FUNCTIONS {
                for seed in 0..64u64 {
                    let v = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
                    let v = if n >= 30 {
                        v & ((1 << 60) - 1)
                    } else {
                        v & ((1 << (2 * n)) - 1)
                    };
                    assert!(skew_index(bank, v, n) < (1 << n));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in 0..")]
    fn out_of_range_bank_panics() {
        skew_index(5, 0, 8);
    }

    #[test]
    fn rank_gf2_known_cases() {
        assert_eq!(rank_gf2(&mut [0b1, 0b10, 0b100]), 3);
        assert_eq!(rank_gf2(&mut [0b11, 0b10, 0b01]), 2);
        assert_eq!(rank_gf2(&mut [0, 0, 0]), 0);
        assert_eq!(rank_gf2(&mut [0b101, 0b101]), 1);
    }
}
