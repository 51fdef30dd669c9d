//! Acquisition functions in minimisation form.
//!
//! With `d = f(x⁺) − µ(x) − ξ` (paper Eqs. 2–4):
//!
//! * **PI**: `Φ(d/σ)` — probability the point improves on the incumbent;
//! * **EI**: `d·Φ(d/σ) + σ·φ(d/σ)` — expected magnitude of improvement;
//! * **LCB**: select the point minimising `µ − κσ`; scored here as
//!   `−(µ − κσ)` so that *larger is better* uniformly across all three.

use robotune_stats::{norm_cdf, norm_pdf};

/// The three portfolio members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcquisitionKind {
    /// Probability of improvement.
    Pi,
    /// Expected improvement.
    Ei,
    /// Lower confidence bound.
    Lcb,
}

/// All portfolio members in canonical order (PI, EI, LCB).
pub const ALL_ACQUISITIONS: [AcquisitionKind; 3] =
    [AcquisitionKind::Pi, AcquisitionKind::Ei, AcquisitionKind::Lcb];

impl AcquisitionKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AcquisitionKind::Pi => "PI",
            AcquisitionKind::Ei => "EI",
            AcquisitionKind::Lcb => "LCB",
        }
    }

    /// Higher-is-better acquisition score at a point with posterior mean
    /// `mu` and standard deviation `sigma`, given the incumbent best
    /// (lowest) observed value `best` and the exploration knobs `xi`
    /// (PI/EI) and `kappa` (LCB).
    pub fn score(self, mu: f64, sigma: f64, best: f64, xi: f64, kappa: f64) -> f64 {
        debug_assert!(sigma >= 0.0, "negative sigma");
        match self {
            AcquisitionKind::Pi => {
                if sigma <= 0.0 {
                    // Degenerate posterior: improvement is certain iff the
                    // mean already beats the incumbent.
                    return if best - mu - xi > 0.0 { 1.0 } else { 0.0 };
                }
                let d = best - mu - xi;
                norm_cdf(d / sigma)
            }
            AcquisitionKind::Ei => {
                if sigma <= 0.0 {
                    return 0.0; // Eq. 3's σ = 0 branch.
                }
                let d = best - mu - xi;
                let z = d / sigma;
                // EI is mathematically non-negative; the clamp absorbs the
                // ~1e-7 tail error of the erf approximation at extreme z.
                (d * norm_cdf(z) + sigma * norm_pdf(z)).max(0.0)
            }
            AcquisitionKind::Lcb => -(mu - kappa * sigma),
        }
    }

    /// The slopes `(∂/∂µ, ∂/∂σ²)` of [`AcquisitionKind::score`], by the
    /// chain rule through `(µ, σ)` with `∂σ = ∂σ²/(2σ)` and
    /// `z = (f(x⁺) − µ − ξ)/σ`: LCB `−∂µ + κ∂σ`, EI `−Φ(z)∂µ + φ(z)∂σ`,
    /// PI `φ(z)(−∂µ − z∂σ)/σ`. Both are zero where `σ = 0`, where the
    /// score has a kink or a step.
    pub fn score_slopes(self, mu: f64, sigma: f64, best: f64, xi: f64, kappa: f64) -> (f64, f64) {
        if sigma <= 0.0 {
            return (0.0, 0.0);
        }
        let per_var = 0.5 / sigma;
        let z = (best - mu - xi) / sigma;
        match self {
            AcquisitionKind::Pi => {
                let p = norm_pdf(z) / sigma;
                (-p, -p * z * per_var)
            }
            AcquisitionKind::Ei => (-norm_cdf(z), norm_pdf(z) * per_var),
            AcquisitionKind::Lcb => (-1.0, kappa * per_var),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XI: f64 = 0.01;
    const KAPPA: f64 = 1.96;

    #[test]
    fn ei_zero_at_zero_sigma() {
        assert_eq!(AcquisitionKind::Ei.score(1.0, 0.0, 5.0, XI, KAPPA), 0.0);
    }

    #[test]
    fn ei_positive_whenever_sigma_positive() {
        // Even a point with a worse mean has some expected improvement.
        let v = AcquisitionKind::Ei.score(10.0, 1.0, 5.0, XI, KAPPA);
        assert!(v > 0.0);
        assert!(v < 1e-3, "improvement should be tiny, got {v}");
    }

    #[test]
    fn ei_prefers_lower_mean_at_equal_sigma() {
        let lo = AcquisitionKind::Ei.score(3.0, 1.0, 5.0, XI, KAPPA);
        let hi = AcquisitionKind::Ei.score(4.0, 1.0, 5.0, XI, KAPPA);
        assert!(lo > hi);
    }

    #[test]
    fn ei_prefers_higher_sigma_at_equal_mean() {
        let narrow = AcquisitionKind::Ei.score(5.0, 0.1, 5.0, XI, KAPPA);
        let wide = AcquisitionKind::Ei.score(5.0, 2.0, 5.0, XI, KAPPA);
        assert!(wide > narrow);
    }

    #[test]
    fn pi_is_a_probability() {
        for (mu, sigma) in [(0.0, 1.0), (10.0, 0.5), (-3.0, 2.0)] {
            let p = AcquisitionKind::Pi.score(mu, sigma, 1.0, XI, KAPPA);
            assert!((0.0..=1.0).contains(&p), "PI out of range: {p}");
        }
    }

    #[test]
    fn pi_half_when_mean_equals_incumbent_minus_xi() {
        let p = AcquisitionKind::Pi.score(5.0 - XI, 1.0, 5.0, XI, KAPPA);
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pi_degenerate_sigma_is_an_indicator() {
        assert_eq!(AcquisitionKind::Pi.score(1.0, 0.0, 5.0, XI, KAPPA), 1.0);
        assert_eq!(AcquisitionKind::Pi.score(9.0, 0.0, 5.0, XI, KAPPA), 0.0);
    }

    #[test]
    fn lcb_balances_mean_and_uncertainty() {
        // Exploit: low mean, no uncertainty.
        let exploit = AcquisitionKind::Lcb.score(1.0, 0.0, 0.0, XI, KAPPA);
        // Explore: mediocre mean, huge uncertainty — wins under κ = 1.96.
        let explore = AcquisitionKind::Lcb.score(2.0, 1.0, 0.0, XI, KAPPA);
        assert!(explore > exploit);
        // But tame uncertainty loses to a clearly better mean.
        let tame = AcquisitionKind::Lcb.score(2.0, 0.1, 0.0, XI, KAPPA);
        assert!(exploit > tame);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = ALL_ACQUISITIONS.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["PI", "EI", "LCB"]);
    }
}
