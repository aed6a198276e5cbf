//! The intention functions of Section 5 (Definitions 7 and 8).
//!
//! Both functions follow the same pattern: a weighted geometric trade-off
//! between two criteria when both are favourable, and a negative
//! "repulsion" term otherwise. The parameter `ε > 0` (usually 1) prevents
//! the negative branch from collapsing to zero when one criterion sits at
//! its extreme.
//!
//! With `ε = 1` the negative branch can produce values below `-1`; the
//! paper's own Figure 2 plots provider intentions down to ≈ `-2.5`. Raw
//! values are therefore returned as `f64` and are only clamped into
//! `[-1, 1]` (via [`sqlb_types::Intention::new`]) when they are recorded
//! into the Section 3 satisfaction model.

/// The paper's usual value for the `ε` parameter of Definitions 7–9.
pub const DEFAULT_EPSILON: f64 = 1.0;

/// Parameters shared by the intention functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntentionParams {
    /// The `ε > 0` constant of Definitions 7–9 (usually 1).
    pub epsilon: f64,
}

impl Default for IntentionParams {
    fn default() -> Self {
        IntentionParams {
            epsilon: DEFAULT_EPSILON,
        }
    }
}

impl IntentionParams {
    /// Creates parameters with an explicit `ε`, clamped to be strictly
    /// positive.
    pub fn with_epsilon(epsilon: f64) -> Self {
        IntentionParams {
            epsilon: if epsilon.is_finite() && epsilon > 0.0 {
                epsilon
            } else {
                DEFAULT_EPSILON
            },
        }
    }
}

/// `base^exp` with powf-free fast paths for the exponents the intention
/// and scoring trade-offs hit constantly.
///
/// The trade-off weights (`υ`, `δs`, `ω`) sit at exactly `0` or `1` in
/// common configurations — fixed-omega policies, the `υ = 1` evaluation
/// setting, fully (dis)satisfied participants — and IEEE 754 defines
/// `x^0 = 1` and `x^1 = x` *exactly*, so those paths are bit-identical to
/// the general `powf` branch (pinned by tests).
///
/// `exp == 0.5` deliberately has **no** `sqrt` fast path: `sqrt` is
/// correctly rounded but this platform's `pow` is not, and the two differ
/// by 1 ulp for some bases (e.g. `pow(2.4625, 0.5)`), which would break
/// the engine's bit-for-bit determinism contract. The pinning tests
/// encode this finding.
#[inline]
pub fn powf_fast(base: f64, exp: f64) -> f64 {
    if exp == 0.0 {
        1.0
    } else if exp == 1.0 {
        base
    } else {
        base.powf(exp)
    }
}

/// Consumer intention `ci_c(q, p)` (Definition 7).
///
/// * `preference` — `prf_c(q, p) ∈ [-1, 1]`, the consumer's preference for
///   allocating `q` to `p`;
/// * `reputation` — `rep(p) ∈ [-1, 1]`, the provider's reputation;
/// * `upsilon` — `υ ∈ [0, 1]`, the preference/reputation balance: `υ = 1`
///   means the consumer only considers its own preferences, `υ = 0` only
///   the provider's reputation, `υ = 0.5` both equally;
/// * `params` — the `ε` constant.
///
/// ```text
/// ci =  prf^υ · rep^(1-υ)                              if prf > 0 ∧ rep > 0
/// ci = -[(1 - prf + ε)^υ · (1 - rep + ε)^(1-υ)]        otherwise
/// ```
pub fn consumer_intention(
    preference: f64,
    reputation: f64,
    upsilon: f64,
    params: IntentionParams,
) -> f64 {
    let upsilon = upsilon.clamp(0.0, 1.0);
    let eps = params.epsilon;
    if preference > 0.0 && reputation > 0.0 {
        powf_fast(preference, upsilon) * powf_fast(reputation, 1.0 - upsilon)
    } else {
        -(powf_fast(1.0 - preference + eps, upsilon)
            * powf_fast(1.0 - reputation + eps, 1.0 - upsilon))
    }
}

/// Provider intention `pi_p(q)` (Definition 8).
///
/// * `preference` — `prf_p(q) ∈ [-1, 1]`, the provider's preference for
///   performing `q`;
/// * `utilization` — `Ut(p) ∈ [0, ∞)`;
/// * `satisfaction` — `δs(p) ∈ [0, 1]`, the provider's own
///   **preference-based** satisfaction ("the satisfaction it uses to make
///   the balance has to be based on its preferences and not on its
///   intentions … This is possible since a provider has access to its
///   private information", Section 5.2);
/// * `params` — the `ε` constant.
///
/// ```text
/// pi =  prf^(1-δs) · (1 - Ut)^δs                        if prf > 0 ∧ Ut < 1
/// pi = -[(1 - prf + ε)^(1-δs) · (Ut + ε)^δs]            otherwise
/// ```
///
/// Intuitively, a satisfied provider (`δs → 1`) is dominated by its
/// utilization term — it keeps accepting queries while it has spare
/// capacity, even uninteresting ones — whereas a dissatisfied provider
/// (`δs → 0`) focuses on its preferences to obtain the queries it wants.
pub fn provider_intention(
    preference: f64,
    utilization: f64,
    satisfaction: f64,
    params: IntentionParams,
) -> f64 {
    let satisfaction = satisfaction.clamp(0.0, 1.0);
    let utilization = utilization.max(0.0);
    let eps = params.epsilon;
    if preference > 0.0 && utilization < 1.0 {
        powf_fast(preference, 1.0 - satisfaction) * powf_fast(1.0 - utilization, satisfaction)
    } else {
        -(powf_fast(1.0 - preference + eps, 1.0 - satisfaction)
            * powf_fast(utilization + eps, satisfaction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P: IntentionParams = IntentionParams { epsilon: 1.0 };

    #[test]
    fn consumer_intention_pure_preference_when_upsilon_is_one() {
        // υ = 1 and both criteria positive: the intention equals the
        // preference ("the consumer only takes into account its
        // preferences", Section 5.1).
        for prf in [0.1, 0.5, 0.9, 1.0] {
            let i = consumer_intention(prf, 0.7, 1.0, P);
            assert!((i - prf).abs() < 1e-12);
        }
    }

    #[test]
    fn consumer_intention_pure_reputation_when_upsilon_is_zero() {
        for rep in [0.1, 0.5, 1.0] {
            let i = consumer_intention(0.4, rep, 0.0, P);
            assert!((i - rep).abs() < 1e-12);
        }
    }

    #[test]
    fn consumer_intention_balanced_is_geometric_mean() {
        let i = consumer_intention(0.4, 0.9, 0.5, P);
        assert!((i - (0.4f64 * 0.9).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn consumer_intention_negative_when_preference_negative() {
        let i = consumer_intention(-0.5, 0.9, 0.5, P);
        assert!(i < 0.0);
        // ε = 1 keeps the magnitude strictly positive even at rep = 1.
        let i = consumer_intention(-1.0, 1.0, 0.5, P);
        assert!(i < 0.0);
    }

    #[test]
    fn consumer_intention_negative_when_reputation_negative() {
        let i = consumer_intention(0.9, -0.2, 0.5, P);
        assert!(i < 0.0);
    }

    #[test]
    fn consumer_intention_epsilon_prevents_zero_magnitude() {
        // Without ε the negative branch would vanish when prf = 1.
        let i = consumer_intention(1.0, -1.0, 0.5, P);
        assert!(i < 0.0);
        assert!(i.abs() > 0.5);
    }

    #[test]
    fn consumer_intention_monotone_in_preference_positive_branch() {
        let low = consumer_intention(0.2, 0.8, 0.7, P);
        let high = consumer_intention(0.9, 0.8, 0.7, P);
        assert!(high > low);
    }

    #[test]
    fn provider_intention_prefers_idle_interested_provider() {
        // Interested and idle: strong positive intention.
        let i = provider_intention(0.9, 0.0, 0.5, P);
        assert!(i > 0.9, "got {i}");
        // Interested but overloaded: negative intention.
        let i = provider_intention(0.9, 1.5, 0.5, P);
        assert!(i < 0.0);
        // Not interested: negative intention even when idle.
        let i = provider_intention(-0.5, 0.0, 0.5, P);
        assert!(i < 0.0);
    }

    #[test]
    fn provider_intention_figure2_midpoint() {
        // Figure 2 plots pi for δs = 0.5: at prf = 1 and Ut = 0 the
        // intention is 1; it decreases as utilization grows and turns
        // negative past Ut = 1.
        assert!((provider_intention(1.0, 0.0, 0.5, P) - 1.0).abs() < 1e-12);
        let half = provider_intention(1.0, 0.5, 0.5, P);
        assert!((half - 0.5f64.sqrt()).abs() < 1e-12);
        let overloaded = provider_intention(1.0, 2.0, 0.5, P);
        // Negative branch: -[(1-1+1)^0.5 · (2+1)^0.5] = -√3 ≈ -1.73.
        assert!((overloaded + 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn provider_intention_satisfied_provider_follows_utilization() {
        // δs = 1: the preference exponent vanishes; the provider accepts
        // any liked query while it has spare capacity.
        let i = provider_intention(0.01, 0.2, 1.0, P);
        assert!((i - 0.8).abs() < 1e-12);
        // δs = 0: the provider only cares about its preference.
        let i = provider_intention(0.3, 0.99, 0.0, P);
        assert!((i - 0.3).abs() < 1e-12);
    }

    #[test]
    fn provider_intention_dissatisfied_provider_rejects_unwanted_queries_harder() {
        // For a negative preference, a dissatisfied provider shows a more
        // negative intention than a satisfied one at equal utilization —
        // it "focuses on its preferences in order to obtain desired
        // queries" (Section 5.2).
        let dissatisfied = provider_intention(-0.8, 0.4, 0.1, P);
        let satisfied = provider_intention(-0.8, 0.4, 0.9, P);
        assert!(dissatisfied < satisfied);
        assert!(dissatisfied < 0.0 && satisfied < 0.0);
    }

    #[test]
    fn powf_fast_paths_are_bit_identical_to_powf() {
        // The bases that can reach powf_fast: positive-branch inputs in
        // (0, 1] and negative-branch inputs in (0, 2 + ε]. Sweep densely
        // and compare raw bits, not approximate equality.
        let mut base = 1e-6;
        while base <= 4.5 {
            for exp in [0.0, 1.0, 0.5] {
                assert_eq!(
                    powf_fast(base, exp).to_bits(),
                    base.powf(exp).to_bits(),
                    "powf_fast({base}, {exp}) diverged from powf"
                );
            }
            base += 0.001953125; // 2^-9: exact in binary, no drift
        }
        // And the reason 0.5 is NOT shortcut to sqrt: pow is not correctly
        // rounded on every platform, so sqrt(x) can differ from
        // pow(x, 0.5) by 1 ulp. If this assertion ever fails the sqrt fast
        // path would be safe to (re)introduce on this platform.
        let tricky: f64 = 1.0 - (-0.4624999999999999) + 1.0;
        assert_ne!(
            tricky.sqrt().to_bits(),
            tricky.powf(0.5).to_bits(),
            "pow became correctly rounded; sqrt fast path is now viable"
        );
    }

    #[test]
    fn intention_params_validation() {
        assert_eq!(IntentionParams::default().epsilon, 1.0);
        assert_eq!(IntentionParams::with_epsilon(0.25).epsilon, 0.25);
        assert_eq!(IntentionParams::with_epsilon(0.0).epsilon, 1.0);
        assert_eq!(IntentionParams::with_epsilon(-2.0).epsilon, 1.0);
        assert_eq!(IntentionParams::with_epsilon(f64::NAN).epsilon, 1.0);
    }

    proptest! {
        #[test]
        fn prop_powf_fast_matches_powf_bitwise(
            base in 1e-9f64..=4.0,
            free_exp in 0.0f64..=1.0,
        ) {
            for exp in [0.0, 1.0, 0.5, free_exp] {
                prop_assert_eq!(powf_fast(base, exp).to_bits(), base.powf(exp).to_bits());
            }
        }

        #[test]
        fn prop_consumer_intention_sign_matches_branches(
            prf in -1.0f64..=1.0,
            rep in -1.0f64..=1.0,
            upsilon in 0.0f64..=1.0,
        ) {
            let i = consumer_intention(prf, rep, upsilon, P);
            prop_assert!(i.is_finite());
            if prf > 0.0 && rep > 0.0 {
                prop_assert!(i >= 0.0);
                prop_assert!(i <= 1.0 + 1e-12);
            } else {
                prop_assert!(i < 0.0);
            }
        }

        #[test]
        fn prop_provider_intention_sign_matches_branches(
            prf in -1.0f64..=1.0,
            ut in 0.0f64..=3.0,
            sat in 0.0f64..=1.0,
        ) {
            let i = provider_intention(prf, ut, sat, P);
            prop_assert!(i.is_finite());
            if prf > 0.0 && ut < 1.0 {
                prop_assert!(i >= 0.0);
                prop_assert!(i <= 1.0 + 1e-12);
            } else {
                prop_assert!(i < 0.0);
            }
        }

        #[test]
        fn prop_provider_intention_decreases_with_utilization_in_positive_branch(
            prf in 0.05f64..=1.0,
            sat in 0.05f64..=1.0,
            ut in 0.0f64..=0.9,
        ) {
            let low = provider_intention(prf, ut, sat, P);
            let high = provider_intention(prf, (ut + 0.05).min(0.999), sat, P);
            prop_assert!(high <= low + 1e-12);
        }

        #[test]
        fn prop_consumer_intention_increases_with_reputation_in_positive_branch(
            prf in 0.05f64..=1.0,
            upsilon in 0.0f64..=0.95,
            rep in 0.05f64..=0.9,
        ) {
            let low = consumer_intention(prf, rep, upsilon, P);
            let high = consumer_intention(prf, (rep + 0.05).min(1.0), upsilon, P);
            prop_assert!(high >= low - 1e-12);
        }
    }
}
