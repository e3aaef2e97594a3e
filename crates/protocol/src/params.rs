//! Algorithm parameters and constants (§4.3.1 of the paper).
//!
//! The paper constrains its parameters as follows:
//!
//! * `ρ ∈ (0, 1)` — hardware clock drift bound (eq. before §3.1),
//! * `µ ≤ 1/10` (eq. 7) and `µ > 2ρ/(1−ρ)` so that `σ > 1` (eq. 8),
//! * `σ = (1−ρ)µ/(2ρ)` — the base of the gradient logarithm (eq. 8),
//! * `κ_e > 4(ε_e + µτ_e)` — edge weights (eq. 9),
//! * `δ_e ∈ (0, κ_e/2 − 2ε_e − 2µτ_e)` — slow-trigger slack (§4.3),
//! * `ι > 0` — the separation constant of the max-estimate condition
//!   (Definition 4.4, footnote 5),
//! * `B` — the convenience constant of the dynamic-estimate analysis
//!   (eq. 12).
//!
//! [`Params`] is validated at construction via [`ParamsBuilder`]; the
//! experiments that intentionally *violate* a constraint (ablation A3
//! sweeps `κ` below the proven threshold) use
//! [`ParamsBuilder::allow_unproven`].

use std::fmt;

use gcs_net::EdgeParams;

/// Errors returned by [`ParamsBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// `ρ` outside `(0, 1)`.
    RhoOutOfRange(f64),
    /// `µ` violates eq. (7) (`µ ≤ 1/10`) or positivity.
    MuOutOfRange(f64),
    /// `σ = (1−ρ)µ/2ρ ≤ 1`, i.e. `µ ≤ 2ρ/(1−ρ)`: fast mode cannot outrun
    /// drift (§4.3.1).
    SigmaNotAboveOne {
        /// The offending σ.
        sigma: f64,
    },
    /// `κ` scale ≤ 4 violates eq. (9).
    KappaScaleTooSmall(f64),
    /// `δ` fraction outside `(0, 1)`.
    DeltaFracOutOfRange(f64),
    /// `ι ≤ 0`.
    IotaNotPositive(f64),
    /// A tuning knob was not positive.
    NotPositive {
        /// Name of the offending knob.
        name: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::RhoOutOfRange(r) => write!(f, "rho must be in (0, 1), got {r}"),
            ParamsError::MuOutOfRange(m) => {
                write!(f, "mu must be in (0, 1/10] (eq. 7 of the paper), got {m}")
            }
            ParamsError::SigmaNotAboveOne { sigma } => write!(
                f,
                "sigma = (1-rho)*mu/(2*rho) must exceed 1, got {sigma}; increase mu or decrease rho"
            ),
            ParamsError::KappaScaleTooSmall(c) => write!(
                f,
                "kappa_scale must exceed 4 (eq. 9: kappa > 4(eps + mu*tau)), got {c}"
            ),
            ParamsError::DeltaFracOutOfRange(d) => {
                write!(f, "delta_frac must be in (0, 1), got {d}")
            }
            ParamsError::IotaNotPositive(i) => write!(f, "iota must be positive, got {i}"),
            ParamsError::NotPositive { name, value } => {
                write!(f, "{name} must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// How newly appearing edges are brought into the neighbour level sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InsertionStrategy {
    /// The paper's main contribution: the Listing 1 handshake followed by
    /// the staged, dyadically aligned level unlocking of Listing 2.
    Staged,
    /// The simpler strategy of \[16\] the paper compares against in §5.5:
    /// join all levels immediately with an inflated weight `κ₀ = 2·G̃`
    /// that halves every `halving` logical units until the final `κ`.
    /// No handshake or coordination is needed, but the decay must be slow
    /// enough for skew to drain — the source of the §5.5 overhead.
    DecayingWeight {
        /// Logical-clock distance per weight halving.
        halving: f64,
    },
}

/// Validated algorithm parameters.
///
/// Construct via [`Params::builder`]. All getters are cheap.
///
/// # Example
///
/// ```
/// use gcs_protocol::Params;
///
/// let p = Params::builder().rho(0.01).mu(0.1).build()?;
/// assert!(p.sigma() > 1.0);
/// assert!(p.beta() > 1.0); // fastest logical rate (1+rho)(1+mu)
/// # Ok::<(), gcs_protocol::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    rho: f64,
    mu: f64,
    kappa_scale: f64,
    delta_frac: f64,
    iota: f64,
    g_tilde: Option<f64>,
    dynamic_estimates: bool,
    insertion_scale: f64,
    b_constant: Option<f64>,
    tick: Option<f64>,
    refresh_period: Option<f64>,
    max_levels: u32,
    unproven: bool,
    insertion_strategy: InsertionStrategy,
}

impl Params {
    /// Starts building a parameter set. Defaults: `ρ = 10⁻⁴`, `µ = 0.05`,
    /// `κ` scale 4.5, `δ` fraction 0.5.
    #[must_use]
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder::default()
    }

    /// Drift bound `ρ`.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Fast-mode boost `µ`.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The gradient logarithm base `σ = (1−ρ)µ/(2ρ)` (eq. 8).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        (1.0 - self.rho) * self.mu / (2.0 * self.rho)
    }

    /// Minimum logical clock rate `α = 1 − ρ` (§3).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        1.0 - self.rho
    }

    /// Maximum logical clock rate `β = (1+ρ)(1+µ)` (§3).
    #[must_use]
    pub fn beta(&self) -> f64 {
        (1.0 + self.rho) * (1.0 + self.mu)
    }

    /// The max-estimate separation constant `ι` (Definition 4.4).
    #[must_use]
    pub fn iota(&self) -> f64 {
        self.iota
    }

    /// The static global-skew estimate `G̃`, if configured. The simulation
    /// builder derives one from the scenario when absent.
    #[must_use]
    pub fn g_tilde(&self) -> Option<f64> {
        self.g_tilde
    }

    /// Whether edges are inserted with the node-local, time-dependent
    /// global-skew estimates of §7 (eq. 11) instead of the static `G̃`
    /// (eq. 10).
    #[must_use]
    pub fn dynamic_estimates(&self) -> bool {
        self.dynamic_estimates
    }

    /// Multiplier applied to the insertion duration `I` (ablation A2;
    /// 1.0 = the paper's value).
    #[must_use]
    pub fn insertion_scale(&self) -> f64 {
        self.insertion_scale
    }

    /// The `B` constant of eq. (12). The paper's proven range is
    /// `µ/2ρ ≥ B ≥ 320·2⁷/(1−ρ)²`; since the lower end is astronomically
    /// conservative (the paper itself conjectures single-digit constants,
    /// §5.5), the default is `max(4, µ/2ρ)` capped at the proven upper end.
    #[must_use]
    pub fn b_constant(&self) -> f64 {
        self.b_constant
            .unwrap_or_else(|| (self.mu / (2.0 * self.rho)).max(4.0))
    }

    /// Trigger-evaluation period in seconds, if configured explicitly.
    #[must_use]
    pub fn tick(&self) -> Option<f64> {
        self.tick
    }

    /// Flood/estimate refresh period in *hardware* seconds, if configured.
    #[must_use]
    pub fn refresh_period(&self) -> Option<f64> {
        self.refresh_period
    }

    /// Safety cap on the trigger-level scan.
    #[must_use]
    pub fn max_levels(&self) -> u32 {
        self.max_levels
    }

    /// Whether constraint checking was relaxed (ablations only).
    #[must_use]
    pub fn is_unproven(&self) -> bool {
        self.unproven
    }

    /// Edge weight `κ_e = kappa_scale · (ε_e + µ·τ_e)` (eq. 9).
    #[must_use]
    pub fn kappa(&self, edge: EdgeParams, epsilon: f64) -> f64 {
        self.kappa_scale * (epsilon + self.mu * edge.tau)
    }

    /// Slow-trigger slack `δ_e = delta_frac · (κ_e/2 − 2ε_e − 2µτ_e)`
    /// (§4.3, constraint before Definition 4.6).
    ///
    /// With relaxed (`allow_unproven`) parameters the proven-positive width
    /// can be ≤ 0; the result is then clamped to a small positive fraction
    /// of `κ` so the algorithm still runs (and misbehaves measurably, which
    /// is the point of ablation A3).
    #[must_use]
    pub fn delta(&self, edge: EdgeParams, epsilon: f64) -> f64 {
        self.delta_for_kappa(self.kappa(edge, epsilon), edge, epsilon)
    }

    /// [`delta`](Params::delta) for an explicit (possibly inflated) weight —
    /// used by the decaying-weight insertion strategy, whose effective `κ`
    /// varies over time.
    #[must_use]
    pub fn delta_for_kappa(&self, kappa: f64, edge: EdgeParams, epsilon: f64) -> f64 {
        let width = kappa / 2.0 - 2.0 * epsilon - 2.0 * self.mu * edge.tau;
        if width > 0.0 {
            self.delta_frac * width
        } else {
            1e-3 * kappa
        }
    }

    /// The configured edge-insertion strategy.
    #[must_use]
    pub fn insertion_strategy(&self) -> InsertionStrategy {
        self.insertion_strategy
    }

    /// The handshake wait `∆` of Listing 1:
    /// `∆ = (1+ρ)(1+µ)(T+τ)/(1−ρ) + τ`.
    #[must_use]
    pub fn handshake_delta(&self, edge: EdgeParams) -> f64 {
        self.beta() * (edge.delay_bound() + edge.tau) / self.alpha() + edge.tau
    }

    /// The static insertion duration `I(G̃)` of eq. (10):
    /// `I = (20(1+µ)/(1−ρ) + 56µ + (8+56µ)/σ) · G̃/µ`, scaled by
    /// [`insertion_scale`](Params::insertion_scale).
    #[must_use]
    pub fn insertion_duration_static(&self, g_tilde: f64) -> f64 {
        let factor = 20.0 * (1.0 + self.mu) / (1.0 - self.rho)
            + 56.0 * self.mu
            + (8.0 + 56.0 * self.mu) / self.sigma();
        self.insertion_scale * factor * g_tilde / self.mu
    }

    /// The dynamic insertion duration `I(G̃_{u,v})` of eq. (11):
    /// `I = 2^⌈log₂ ℓ⌉` with
    /// `ℓ = (1+ρ)(1+µ)(∆ + 2τ) + 8B·G̃/µ`, scaled by `insertion_scale`
    /// before dyadic rounding (the rounding is what Lemma 7.1's alignment
    /// argument needs, so it is preserved under scaling).
    #[must_use]
    pub fn insertion_duration_dynamic(&self, edge: EdgeParams, g_tilde: f64) -> f64 {
        let ell = self.beta() * (self.handshake_delta(edge) + 2.0 * edge.tau)
            + 8.0 * self.b_constant() * g_tilde / self.mu;
        let scaled = self.insertion_scale * ell;
        2f64.powi(scaled.log2().ceil() as i32)
    }

    /// The insertion duration actually used for an edge, dispatching on
    /// [`dynamic_estimates`](Params::dynamic_estimates).
    #[must_use]
    pub fn insertion_duration(&self, edge: EdgeParams, g_tilde: f64) -> f64 {
        if self.dynamic_estimates {
            self.insertion_duration_dynamic(edge, g_tilde)
        } else {
            self.insertion_duration_static(g_tilde)
        }
    }

    /// Estimate uncertainty `ε` of the message-based estimate layer, derived
    /// from the edge parameters and the refresh period `P` (see
    /// `estimate` module docs): receive error
    /// `(1+ρ)(1+µ)T − (1−ρ)·delay_min` plus dead-reckoning divergence
    /// `(µ + ρµ + 2ρ) · (P/(1−ρ) + T)`.
    #[must_use]
    pub fn message_epsilon(&self, edge: EdgeParams, refresh_period: f64) -> f64 {
        let recv_err = self.beta() * edge.delay_bound() - self.alpha() * edge.delay_min;
        let window = refresh_period / self.alpha() + edge.delay_bound();
        let divergence_rate = self.mu + self.rho * self.mu + 2.0 * self.rho;
        recv_err + divergence_rate * window
    }

    /// Extra slack to allow on measured skew bounds due to evaluating the
    /// (continuous-time) triggers every `dt` seconds: two ticks of maximal
    /// relative clock movement.
    #[must_use]
    pub fn discretization_slack(&self, dt: f64) -> f64 {
        2.0 * dt * (self.beta() - self.alpha())
    }
}

/// Builder for [`Params`]; see [`Params::builder`].
#[derive(Debug, Clone)]
pub struct ParamsBuilder {
    rho: f64,
    mu: f64,
    kappa_scale: f64,
    delta_frac: f64,
    iota: Option<f64>,
    g_tilde: Option<f64>,
    dynamic_estimates: bool,
    insertion_scale: f64,
    b_constant: Option<f64>,
    tick: Option<f64>,
    refresh_period: Option<f64>,
    max_levels: u32,
    allow_unproven: bool,
    insertion_strategy: InsertionStrategy,
}

impl Default for ParamsBuilder {
    fn default() -> Self {
        ParamsBuilder {
            rho: 1e-4,
            mu: 0.05,
            kappa_scale: 4.5,
            delta_frac: 0.5,
            iota: None,
            g_tilde: None,
            dynamic_estimates: false,
            insertion_scale: 1.0,
            b_constant: None,
            tick: None,
            refresh_period: None,
            max_levels: 64,
            allow_unproven: false,
            insertion_strategy: InsertionStrategy::Staged,
        }
    }
}

impl ParamsBuilder {
    /// Sets the drift bound `ρ`.
    pub fn rho(&mut self, rho: f64) -> &mut Self {
        self.rho = rho;
        self
    }

    /// Sets the fast-mode boost `µ`.
    pub fn mu(&mut self, mu: f64) -> &mut Self {
        self.mu = mu;
        self
    }

    /// Sets the `κ` scale `c` in `κ = c(ε + µτ)`; the paper needs `c > 4`.
    pub fn kappa_scale(&mut self, c: f64) -> &mut Self {
        self.kappa_scale = c;
        self
    }

    /// Sets `δ` as a fraction of its permissible range.
    pub fn delta_frac(&mut self, f: f64) -> &mut Self {
        self.delta_frac = f;
        self
    }

    /// Sets the max-estimate separation `ι` explicitly (default: a small
    /// fraction of the smallest `κ`, chosen by the simulation builder).
    pub fn iota(&mut self, iota: f64) -> &mut Self {
        self.iota = Some(iota);
        self
    }

    /// Sets the static global-skew estimate `G̃`.
    pub fn g_tilde(&mut self, g: f64) -> &mut Self {
        self.g_tilde = Some(g);
        self
    }

    /// Enables §7 dynamic global-skew estimates for edge insertion.
    pub fn dynamic_estimates(&mut self, on: bool) -> &mut Self {
        self.dynamic_estimates = on;
        self
    }

    /// Scales the insertion duration `I` (ablation A2).
    pub fn insertion_scale(&mut self, s: f64) -> &mut Self {
        self.insertion_scale = s;
        self
    }

    /// Overrides the `B` constant of eq. (12).
    pub fn b_constant(&mut self, b: f64) -> &mut Self {
        self.b_constant = Some(b);
        self
    }

    /// Sets the trigger-evaluation period (seconds).
    pub fn tick(&mut self, dt: f64) -> &mut Self {
        self.tick = Some(dt);
        self
    }

    /// Sets the flood refresh period (hardware seconds).
    pub fn refresh_period(&mut self, p: f64) -> &mut Self {
        self.refresh_period = Some(p);
        self
    }

    /// Caps the trigger-level scan (default 64; at least 1).
    pub fn max_levels(&mut self, levels: u32) -> &mut Self {
        self.max_levels = levels;
        self
    }

    /// Disables the paper's parameter constraints (`µ ≤ 1/10`, `σ > 1`,
    /// `κ` scale > 4). Only the basic sanity checks remain. Intended for
    /// ablation experiments that measure what breaks.
    pub fn allow_unproven(&mut self) -> &mut Self {
        self.allow_unproven = true;
        self
    }

    /// Selects the edge-insertion strategy (default: the paper's staged
    /// insertion; see [`InsertionStrategy`]).
    pub fn insertion_strategy(&mut self, strategy: InsertionStrategy) -> &mut Self {
        self.insertion_strategy = strategy;
        self
    }

    /// Validates and produces the [`Params`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first violated constraint.
    pub fn build(&self) -> Result<Params, ParamsError> {
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(ParamsError::RhoOutOfRange(self.rho));
        }
        if self.mu <= 0.0 || (!self.allow_unproven && self.mu > 0.1 + 1e-12) {
            return Err(ParamsError::MuOutOfRange(self.mu));
        }
        let sigma = (1.0 - self.rho) * self.mu / (2.0 * self.rho);
        if !self.allow_unproven && sigma <= 1.0 {
            return Err(ParamsError::SigmaNotAboveOne { sigma });
        }
        if !self.allow_unproven && self.kappa_scale <= 4.0 {
            return Err(ParamsError::KappaScaleTooSmall(self.kappa_scale));
        }
        if self.kappa_scale <= 0.0 {
            return Err(ParamsError::NotPositive {
                name: "kappa_scale",
                value: self.kappa_scale,
            });
        }
        if !(self.delta_frac > 0.0 && self.delta_frac < 1.0) {
            return Err(ParamsError::DeltaFracOutOfRange(self.delta_frac));
        }
        if let Some(iota) = self.iota {
            if iota <= 0.0 {
                return Err(ParamsError::IotaNotPositive(iota));
            }
        }
        if self.max_levels == 0 {
            return Err(ParamsError::NotPositive {
                name: "max_levels",
                value: 0.0,
            });
        }
        let halving = match self.insertion_strategy {
            InsertionStrategy::Staged => None,
            InsertionStrategy::DecayingWeight { halving } => Some(halving),
        };
        for (name, v) in [
            ("insertion_scale", Some(self.insertion_scale)),
            ("g_tilde", self.g_tilde),
            ("b_constant", self.b_constant),
            ("tick", self.tick),
            ("refresh_period", self.refresh_period),
            ("halving", halving),
        ] {
            if let Some(v) = v {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(ParamsError::NotPositive { name, value: v });
                }
            }
        }
        Ok(Params {
            rho: self.rho,
            mu: self.mu,
            kappa_scale: self.kappa_scale,
            delta_frac: self.delta_frac,
            // A placeholder; the simulation builder replaces a missing iota
            // with a scenario-derived value before running.
            iota: self.iota.unwrap_or(f64::NAN),
            g_tilde: self.g_tilde,
            dynamic_estimates: self.dynamic_estimates,
            insertion_scale: self.insertion_scale,
            b_constant: self.b_constant,
            tick: self.tick,
            refresh_period: self.refresh_period,
            max_levels: self.max_levels,
            unproven: self.allow_unproven,
            insertion_strategy: self.insertion_strategy,
        })
    }
}

impl Params {
    /// Returns a copy with `ι` filled in (used by the simulation builder
    /// when the user did not choose one).
    #[doc(hidden)]
    #[must_use]
    pub fn with_iota_default(mut self, iota: f64) -> Self {
        if self.iota.is_nan() {
            self.iota = iota;
        }
        self
    }

    /// Returns a copy with the static `G̃` filled in.
    #[doc(hidden)]
    #[must_use]
    pub fn with_g_tilde_default(mut self, g: f64) -> Self {
        if self.g_tilde.is_none() {
            self.g_tilde = Some(g);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rho: f64, mu: f64) -> Params {
        Params::builder().rho(rho).mu(mu).build().unwrap()
    }

    #[test]
    fn defaults_build() {
        let p = Params::builder().build().unwrap();
        assert!(p.sigma() > 1.0);
        assert!(p.alpha() < 1.0 && p.beta() > 1.0);
        assert!(!p.dynamic_estimates());
    }

    #[test]
    fn sigma_matches_eq8() {
        let p = params(0.01, 0.1);
        assert!((p.sigma() - 0.99 * 0.1 / 0.02).abs() < 1e-12);
    }

    #[test]
    fn rejects_mu_above_tenth() {
        let err = Params::builder().rho(0.001).mu(0.2).build().unwrap_err();
        assert!(matches!(err, ParamsError::MuOutOfRange(_)));
    }

    #[test]
    fn rejects_sigma_below_one() {
        let err = Params::builder().rho(0.05).mu(0.05).build().unwrap_err();
        assert!(matches!(err, ParamsError::SigmaNotAboveOne { .. }));
    }

    #[test]
    fn allow_unproven_relaxes() {
        let p = Params::builder()
            .rho(0.05)
            .mu(0.05)
            .kappa_scale(2.0)
            .allow_unproven()
            .build()
            .unwrap();
        assert!(p.is_unproven());
        assert!(p.sigma() <= 1.0);
    }

    #[test]
    fn rejects_small_kappa_scale() {
        let err = Params::builder().kappa_scale(3.0).build().unwrap_err();
        assert!(matches!(err, ParamsError::KappaScaleTooSmall(_)));
    }

    #[test]
    fn rejects_zero_max_levels() {
        // A zero cap would leave the triggers no level to scan.
        let err = Params::builder().max_levels(0).build().unwrap_err();
        assert!(matches!(
            err,
            ParamsError::NotPositive {
                name: "max_levels",
                ..
            }
        ));
        assert!(Params::builder().max_levels(1).build().is_ok());
    }

    #[test]
    fn kappa_and_delta_satisfy_paper_constraints() {
        let p = params(0.01, 0.1);
        let e = EdgeParams::new(0.002, 0.01, 0.001, 0.01);
        let eps = e.epsilon;
        let kappa = p.kappa(e, eps);
        assert!(kappa > 4.0 * (eps + p.mu() * e.tau), "eq. (9)");
        let delta = p.delta(e, eps);
        assert!(delta > 0.0);
        assert!(
            delta < kappa / 2.0 - 2.0 * eps - 2.0 * p.mu() * e.tau,
            "delta within its permissible range"
        );
    }

    #[test]
    fn handshake_delta_matches_listing1() {
        let p = params(0.01, 0.1);
        let e = EdgeParams::new(0.002, 0.01, 0.001, 0.02);
        let expect = (1.01 * 1.1) * (0.02 + 0.01) / 0.99 + 0.01;
        assert!((p.handshake_delta(e) - expect).abs() < 1e-12);
    }

    #[test]
    fn static_insertion_duration_matches_eq10() {
        let p = params(0.01, 0.1);
        let factor = 20.0 * 1.1 / 0.99 + 5.6 + (8.0 + 5.6) / p.sigma();
        assert!((p.insertion_duration_static(2.0) - factor * 2.0 / 0.1).abs() < 1e-9);
    }

    #[test]
    fn dynamic_insertion_duration_is_dyadic() {
        let p = Params::builder()
            .rho(0.01)
            .mu(0.1)
            .dynamic_estimates(true)
            .build()
            .unwrap();
        let e = EdgeParams::default();
        let i = p.insertion_duration(e, 1.0);
        let log = i.log2();
        assert!(
            (log - log.round()).abs() < 1e-9,
            "I = {i} is not a power of 2"
        );
        // Larger estimates never shrink the duration.
        assert!(p.insertion_duration(e, 4.0) >= i);
    }

    #[test]
    fn insertion_scale_scales() {
        let mut b = Params::builder();
        b.rho(0.01).mu(0.1);
        let p1 = b.build().unwrap();
        b.insertion_scale(0.5);
        let p2 = b.build().unwrap();
        assert!(
            (p2.insertion_duration_static(1.0) - 0.5 * p1.insertion_duration_static(1.0)).abs()
                < 1e-9
        );
    }

    #[test]
    fn message_epsilon_grows_with_refresh_period() {
        let p = params(0.01, 0.1);
        let e = EdgeParams::default();
        assert!(p.message_epsilon(e, 0.1) < p.message_epsilon(e, 0.5));
        assert!(p.message_epsilon(e, 0.01) > 0.0);
    }

    #[test]
    fn b_constant_default_respects_floor() {
        let p = params(1e-4, 0.05);
        assert!(p.b_constant() >= 4.0);
        assert!((p.b_constant() - 0.05 / 2e-4).abs() < 1e-9);
    }

    #[test]
    fn error_display_is_informative() {
        let err = Params::builder().rho(2.0).build().unwrap_err();
        assert!(err.to_string().contains("rho"));
    }

    #[test]
    fn discretization_slack_scales_with_dt() {
        let p = params(0.01, 0.1);
        assert!((p.discretization_slack(0.02) - 2.0 * p.discretization_slack(0.01)).abs() < 1e-15);
    }
}
