//! Branch-free chunked ("lane") kernels for the Eq-4 hot path.
//!
//! The bank-select argmin of [`runtime`](crate::runtime) evaluates Eq 4 over
//! every healthy bank for every irregular allocation. Its integer parts —
//! the per-bank affinity hop sums (one dense `u16` distance column added per
//! affinity address) and the total-load reduction — run here as
//! straight-line loops over dense slices in eight independent lanes, which
//! LLVM lowers to SIMD adds on every target we build for. The scoring and
//! argmin itself is the one-pass [`argmin_eq4`](crate::policy::argmin_eq4),
//! which compares scores through [`total_order_key`].
//!
//! **Determinism contract**: every kernel here is bit-identical to its
//! scalar counterpart for *all* inputs — the lane order only reassociates
//! exact integer sums, never floating-point additions. The proptests below
//! and in `policy.rs` pin this.

/// Lane width of the chunked kernels. Eight 64-bit lanes fill one AVX-512
/// register or two NEON/AVX2 registers; the compiler picks the widest
/// profitable lowering per target.
pub const LANES: usize = 8;

/// Map an `f64` to a `u64` key whose unsigned order equals
/// [`f64::total_cmp`]'s total order: `total_order_key(a) < total_order_key(b)`
/// iff `a.total_cmp(&b) == Ordering::Less`. This is the standard sign-magnitude
/// flip — negative NaNs map lowest, positive NaNs highest.
#[inline]
#[must_use]
pub fn total_order_key(s: f64) -> u64 {
    let k = s.to_bits() as i64;
    let k = k ^ ((((k >> 63) as u64) >> 1) as i64);
    (k as u64) ^ (1 << 63)
}

/// Sum of a `u64` slice, eight partial accumulators wide — the per-call
/// total-load reduction of `select_bank`. Integer addition is associative,
/// so any lane order gives the scalar `iter().sum()` answer.
///
/// `inline(never)`: each binary compiles this once as a standalone loop nest
/// the vectorizer always fires on. Inlined into a large caller, thin-LTO's
/// cost model has been observed to scalarize such kernels in some binaries
/// (the `figures` bin once ran the Eq-4 sweep ~2.5× slower than a small test
/// binary built from the same source) — pinning the outlined form makes the
/// codegen identical everywhere.
#[inline(never)]
#[must_use]
pub fn sum_u64(xs: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let chunks = xs.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            acc[l] += xs[base + l];
        }
    }
    let mut total: u64 = acc.iter().sum();
    for &x in &xs[chunks * LANES..] {
        total += x;
    }
    total
}

/// Accumulate a `u16` distance column into `u32` hop sums:
/// `acc[i] += col[i]`. Exact integer adds, so lane order cannot change the
/// result; the loop body is a widening add the autovectorizer unrolls.
///
/// Truncates to the shorter slice (callers pass equal lengths).
/// `inline(never)` for the same per-binary codegen pinning as [`sum_u64`].
#[inline(never)]
pub fn add_u16_column(acc: &mut [u32], col: &[u16]) {
    let n = acc.len().min(col.len());
    let (acc, col) = (&mut acc[..n], &col[..n]);
    for i in 0..n {
        acc[i] += u32::from(col[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_key_matches_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0e-300,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // max-payload +NaN
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // min-keyed -NaN
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "key order diverged for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn column_adds_are_exact() {
        let mut acc = vec![1u32; 19];
        let col: Vec<u16> = (0..19).map(|i| i * 3).collect();
        add_u16_column(&mut acc, &col);
        for (i, &a) in acc.iter().enumerate() {
            assert_eq!(a, 1 + (i as u32) * 3);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `total_order_key` preserves `f64::total_cmp` order on arbitrary
        /// bit patterns (every NaN payload included).
        #[test]
        fn order_key_is_total_cmp(a in any::<u64>(), b in any::<u64>()) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(
                total_order_key(x).cmp(&total_order_key(y)),
                x.total_cmp(&y)
            );
        }

        /// The chunked u64 sum and u16 column add equal their scalar forms
        /// for every slice length.
        #[test]
        fn integer_lanes_are_exact(
            xs in proptest::collection::vec(0u64..1u64 << 50, 0..100),
            col in proptest::collection::vec(0u16..u16::MAX, 0..100),
        ) {
            prop_assert_eq!(sum_u64(&xs), xs.iter().sum::<u64>());
            let mut lanes_acc = vec![7u32; col.len()];
            let mut scalar_acc = lanes_acc.clone();
            add_u16_column(&mut lanes_acc, &col);
            for (a, &c) in scalar_acc.iter_mut().zip(&col) {
                *a += u32::from(c);
            }
            prop_assert_eq!(lanes_acc, scalar_acc);
        }
    }
}
