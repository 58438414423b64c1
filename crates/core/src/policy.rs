//! Bank-select policies for irregular allocation (§5.2 of the paper).
//!
//! The evaluated policies of Fig 13:
//!
//! * `Rnd` — uniform random bank,
//! * `Lnr` — round robin,
//! * `MinHop` — minimize average hops to the affinity addresses (Eq 4 with
//!   `H = 0`),
//! * `Hybrid { h }` — the full Eq 4 score
//!   `avg_hops + H · (load / avg_load − 1)`; `Hybrid { h: 5.0 }` is the
//!   paper's default.

use crate::lanes::total_order_key;

/// The bank-select policy of the irregular allocation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BankSelectPolicy {
    /// Uniform random bank (layout-oblivious baseline).
    Rnd,
    /// Round-robin over banks.
    Lnr,
    /// Pure affinity: minimize average hops (Eq 4, `H = 0`).
    MinHop,
    /// Eq 4 with load-balance weight `h` (paper default `h = 5`).
    Hybrid {
        /// The load-balance weight `H`.
        h: f64,
    },
}

impl BankSelectPolicy {
    /// The paper's default configuration (`Hybrid-5`).
    pub fn paper_default() -> Self {
        BankSelectPolicy::Hybrid { h: 5.0 }
    }

    /// Label used in figures (`Rnd`, `Lnr`, `Min-Hop`, `Hybrid-5`).
    pub fn label(&self) -> String {
        match self {
            BankSelectPolicy::Rnd => "Rnd".into(),
            BankSelectPolicy::Lnr => "Lnr".into(),
            BankSelectPolicy::MinHop => "Min-Hop".into(),
            BankSelectPolicy::Hybrid { h } => format!("Hybrid-{h:.0}"),
        }
    }

    /// Whether this policy consults affinity addresses at all.
    pub fn uses_affinity(&self) -> bool {
        matches!(self, BankSelectPolicy::MinHop | BankSelectPolicy::Hybrid { .. })
    }
}

/// Laplace smoothing constant for the Eq 4 load ratio. With only a handful
/// of allocations outstanding, the raw `load/avg_load` ratio is extreme and
/// would spill *every* allocation away from its affinity target — but the
/// paper's own worked example (Fig 7) colocates the first children with
/// their parent and only spills once a bank is measurably hot. Smoothing
/// both terms by a small constant reproduces that behaviour while leaving
/// the steady-state ratio untouched.
pub const LOAD_SMOOTHING: f64 = 8.0;

/// The Eq 4 score for one candidate bank. Lower is better.
///
/// `avg_hops` is the mean Manhattan distance from the candidate to the
/// affinity addresses; `load` the candidate's current irregular allocations;
/// `avg_load` the mean over banks. The load ratio is Laplace-smoothed by
/// [`LOAD_SMOOTHING`].
pub fn score(avg_hops: f64, load: u64, avg_load: f64, h: f64) -> f64 {
    let ratio = (load as f64 + LOAD_SMOOTHING) / (avg_load + LOAD_SMOOTHING);
    avg_hops + h * (ratio - 1.0)
}

/// Pick the argmin-score bank, breaking ties toward the lowest id
/// (deterministic replay). Total over all float inputs: a NaN score sorts
/// above every real score under IEEE total ordering, so a poisoned candidate
/// loses rather than panicking.
pub fn argmin_score<I>(scores: I) -> Option<u32>
where
    I: IntoIterator<Item = (u32, f64)>,
{
    scores
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(bank, _)| bank)
}

/// Eq-4 bank selection in one pass: the [`argmin_score`] of
/// [`score`]`(avg_hops, load, avg_load, h)` over the candidate banks `cands`,
/// where a candidate `b`'s `avg_hops` is `hop_sums[b] / aff_len` (0 with no
/// affinity addresses) and its `load` is `loads[b] × slowdowns[i]`.
///
/// `hop_sums` and `loads` are dense per-bank arrays indexed by bank id;
/// `slowdowns` runs parallel to `cands`. Each score is computed by exactly
/// the operations of [`score`], and the running minimum uses the
/// [`total_order_key`] image of [`f64::total_cmp`] with ties broken toward
/// the lowest id, so the pick is bit-identical to the scalar
/// `argmin_score` — NaN scores and ties included. `None` only for no
/// candidates.
///
/// # Panics
///
/// If a candidate id indexes past `hop_sums` or `loads`.
#[must_use]
pub fn argmin_eq4(
    cands: &[u32],
    slowdowns: &[u64],
    hop_sums: &[u32],
    loads: &[u64],
    aff_len: usize,
    avg_load: f64,
    h: f64,
) -> Option<u32> {
    let mut best_key = u64::MAX;
    let mut best_id = u32::MAX;
    for (&b, &slow) in cands.iter().zip(slowdowns) {
        let avg_hops = if aff_len == 0 {
            0.0
        } else {
            f64::from(hop_sums[b as usize]) / aff_len as f64
        };
        let key = total_order_key(score(avg_hops, loads[b as usize] * slow, avg_load, h));
        if key < best_key || (key == best_key && b < best_id) {
            best_key = key;
            best_id = b;
        }
    }
    // The `(u64::MAX, u32::MAX)` start can only survive a non-empty scan if
    // the true minimum is that exact pair (a maximal-payload +NaN at id
    // u32::MAX), in which case `best_id` is the right answer anyway.
    (!cands.is_empty() && !slowdowns.is_empty()).then_some(best_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_fig13() {
        assert_eq!(BankSelectPolicy::Rnd.label(), "Rnd");
        assert_eq!(BankSelectPolicy::Lnr.label(), "Lnr");
        assert_eq!(BankSelectPolicy::MinHop.label(), "Min-Hop");
        assert_eq!(BankSelectPolicy::Hybrid { h: 5.0 }.label(), "Hybrid-5");
    }

    #[test]
    fn eq4_balances_affinity_and_load() {
        // Bank A: 0 hops, heavily loaded; bank B: 2 hops, at average load.
        let a = score(0.0, 30, 10.0, 5.0); // 0 + 5*(3-1) = 10
        let b = score(2.0, 10, 10.0, 5.0); // 2 + 0 = 2
        assert!(b < a, "H=5 must spill away from the hot bank");
        // With H = 0 (Min-Hop), bank A wins regardless of load.
        assert!(score(0.0, 30, 10.0, 0.0) < score(2.0, 10, 10.0, 0.0));
    }

    #[test]
    fn below_average_load_is_rewarded() {
        let s = score(1.0, 0, 10.0, 5.0);
        assert!(s < 1.0, "idle banks get a negative load term");
    }

    #[test]
    fn smoothing_keeps_first_allocations_affine() {
        // One allocation outstanding on the target bank, 64 banks: affinity
        // (1 hop away) must still beat the load penalty.
        let target = score(0.0, 1, 1.0 / 64.0, 5.0);
        let neighbor = score(1.0, 0, 1.0 / 64.0, 5.0);
        assert!(target < neighbor, "early load noise must not force a spill");
    }

    #[test]
    fn slowdown_weighted_load_shifts_the_argmin() {
        // The runtime feeds Eq 4 `load × bank_slowdown` for degraded banks:
        // a 4×-slower bank at average load must score like a 4×-loaded one,
        // so the argmin moves to a healthy bank one hop away. This pins the
        // weighting a live fault epoch applies when it slows a bank.
        let avg = 10.0;
        let healthy_home = argmin_score([
            (0, score(0.0, 10, avg, 5.0)),
            (1, score(1.0, 10, avg, 5.0)),
        ]);
        assert_eq!(healthy_home, Some(0), "no fault: affinity wins");
        let slowed_home = argmin_score([
            (0, score(0.0, 10 * 4, avg, 5.0)), // home bank, slowed 4×
            (1, score(1.0, 10, avg, 5.0)),
        ]);
        assert_eq!(slowed_home, Some(1), "slowdown repels the argmin");
    }

    #[test]
    fn argmin_breaks_ties_deterministically() {
        let winner = argmin_score([(3, 1.0), (1, 1.0), (2, 5.0)]);
        assert_eq!(winner, Some(1));
        assert_eq!(argmin_score(std::iter::empty::<(u32, f64)>()), None);
    }

    #[test]
    fn affinity_usage_flags() {
        assert!(!BankSelectPolicy::Rnd.uses_affinity());
        assert!(!BankSelectPolicy::Lnr.uses_affinity());
        assert!(BankSelectPolicy::MinHop.uses_affinity());
        assert!(BankSelectPolicy::paper_default().uses_affinity());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Scalar reference: `argmin_score` over lazily computed `score()`s,
    /// the shape `select_bank` had before the fused pass.
    fn scalar(
        cands: &[u32],
        slowdowns: &[u64],
        hop_sums: &[u32],
        loads: &[u64],
        aff_len: usize,
        avg_load: f64,
        h: f64,
    ) -> Option<u32> {
        argmin_score(cands.iter().zip(slowdowns).map(|(&b, &slow)| {
            let avg_hops = if aff_len == 0 {
                0.0
            } else {
                f64::from(hop_sums[b as usize]) / aff_len as f64
            };
            (b, score(avg_hops, loads[b as usize] * slow, avg_load, h))
        }))
    }

    #[test]
    fn fused_argmin_matches_scalar_on_ties_and_nans() {
        let hop_sums = [0u32, 3, 3, 7, 1, 0, 12, 3];
        let loads = [4u64, 4, 4, 0, 9, 4, 2, 4];
        let ones = [1u64; 8];
        let cases: Vec<(Vec<u32>, f64, f64)> = vec![
            (vec![], 1.0, 5.0),
            (vec![6], 1.0, 5.0),
            // Equal scores under different ids, listed high id first.
            (vec![7, 2, 1], 4.0, 5.0),
            (vec![5, 0], 4.0, 0.0),
            // h = NaN poisons every score; the lowest id wins.
            (vec![3, 1, 6], 4.0, f64::NAN),
            (vec![3, 1, 6], 4.0, -f64::NAN),
            // h = ∞ times a zero load term is NaN for the average-load
            // banks only; the rest score ±∞.
            (vec![0, 3, 4, 6], 4.0, f64::INFINITY),
            // A zero denominator makes every ratio infinite: 0 · ∞ = NaN.
            (vec![2, 0, 7], -LOAD_SMOOTHING, 0.0),
            ((0..8).rev().collect(), 4.0, 5.0),
        ];
        for (cands, avg_load, h) in cases {
            for aff_len in [0, 1, 3] {
                let slow = &ones[..cands.len()];
                assert_eq!(
                    argmin_eq4(&cands, slow, &hop_sums, &loads, aff_len, avg_load, h),
                    scalar(&cands, slow, &hop_sums, &loads, aff_len, avg_load, h),
                    "diverged on {cands:?} avg_load={avg_load} h={h} aff_len={aff_len}"
                );
            }
        }
    }

    proptest! {
        /// The fused pass picks the same bank as the scalar argmin for
        /// arbitrary candidate sets, slowdowns and weights, including
        /// forced score ties and non-finite weights that make scores NaN.
        #[test]
        fn fused_argmin_matches_scalar_select(
            cands in proptest::collection::vec((0u32..256, 1u64..9), 0..300),
            hop_sums in proptest::collection::vec(0u32..2000, 256..257),
            loads in proptest::collection::vec(0u64..64, 256..257),
            aff_len in 0usize..33,
            avg_load in 0.0f64..64.0,
            pick in (0u8..8, 0usize..300),
        ) {
            let (mut ids, mut slow): (Vec<u32>, Vec<u64>) = cands.into_iter().unzip();
            // Force a tie: repeat one candidate's inputs under a
            // neighbouring id, so the lowest-id tie-break decides.
            let mut hop_sums = hop_sums;
            let mut loads = loads;
            if !ids.is_empty() {
                let i = pick.1 % ids.len();
                let (b, twin) = (ids[i] as usize, (ids[i] ^ 1) as usize);
                hop_sums[twin] = hop_sums[b];
                loads[twin] = loads[b];
                ids.push(twin as u32);
                slow.push(slow[i]);
            }
            let (avg_load, h) = match pick.0 {
                0 => (avg_load, f64::NAN),
                1 => (f64::from(loads[0] as u32), f64::INFINITY),
                2 => (-LOAD_SMOOTHING, 0.0),
                3 => (avg_load, 0.0),
                4 => (avg_load, 1.0),
                _ => (avg_load, 5.0),
            };
            prop_assert_eq!(
                argmin_eq4(&ids, &slow, &hop_sums, &loads, aff_len, avg_load, h),
                scalar(&ids, &slow, &hop_sums, &loads, aff_len, avg_load, h)
            );
        }
    }
}
