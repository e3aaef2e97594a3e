//! The theorem experiments (the crate docs map each to its paper result).
//!
//! Every experiment sources its workload — topology, edge schedule,
//! drift, estimate layer, fault injections — from the scenario subsystem
//! ([`gcs_scenarios::presets`] / the registry), resized per sweep point;
//! the harness itself only chooses observation windows, seeds, baseline
//! policies, and parameter sweeps. The campaign runner therefore measures
//! the *same* workloads the experiments report on.

use gcs_analysis::report::fmt_val;
use gcs_analysis::{gradient_bound, kappa_diameter, local_skew, GradientChecker, Table};
use gcs_baselines::{MaxOnlyPolicy, SingleLevelPolicy};
use gcs_core::edge_state::Level;
use gcs_core::{ModePolicy, Params, ParamsBuilder, Simulation};
use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_scenarios::{campaign, presets, EstimateSpec, TopologySpec};

use crate::{parallel_map, Scale};

/// Baseline parameters every experiment starts from: `ρ = 1%`, `µ = 10%`,
/// hence `σ ≈ 4.95` (the scenario presets' defaults).
#[must_use]
pub fn base_params() -> ParamsBuilder {
    let mut pb = Params::builder();
    pb.rho(0.01).mu(0.1);
    pb
}

/// Samples `f` every `step` seconds over `[from, to]`, returning the max.
fn observe_max(
    sim: &mut Simulation,
    from: f64,
    to: f64,
    step: f64,
    mut f: impl FnMut(&Simulation) -> f64,
) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    let mut t = from;
    while t <= to + 1e-9 {
        sim.run_until_secs(t);
        worst = worst.max(f(sim));
        t += step;
    }
    worst
}

/// Polls until `pred` holds (sampled every `step`), returning the time, or
/// `None` if `deadline` passes first.
fn time_until(
    sim: &mut Simulation,
    from: f64,
    deadline: f64,
    step: f64,
    mut pred: impl FnMut(&Simulation) -> bool,
) -> Option<f64> {
    let mut t = from;
    while t <= deadline + 1e-9 {
        sim.run_until_secs(t);
        if pred(sim) {
            return Some(t);
        }
        t += step;
    }
    None
}

// ---------------------------------------------------------------------
// E1 — Theorem 5.6: global skew O(D); growth and recovery rates.
// ---------------------------------------------------------------------

/// E1: max global skew vs network extent on a line under worst-case
/// (two-block) drift. Expected shape: linear in the κ-diameter, far below
/// the conservative static estimate `G̃`.
///
/// The workload is [`presets::line_worstcase`] at every sweep size (the
/// registry's `line-worstcase` is its canonical instance).
#[must_use]
pub fn e1_global_skew(scale: Scale) -> Table {
    let rows = parallel_map(scale.sizes().to_vec(), |n| {
        let mut spec = presets::line_worstcase(n);
        spec.warmup = scale.warmup_secs();
        spec.duration = scale.observe_secs();
        let mut sim = spec
            .builder(n as u64)
            .expect("line-worstcase preset builds")
            .track_diameter(true)
            .build()
            .unwrap();
        sim.run_until_secs(scale.warmup_secs());
        let max_g = observe_max(
            &mut sim,
            scale.warmup_secs(),
            scale.warmup_secs() + scale.observe_secs(),
            0.5,
            |s| s.snapshot().global_skew(),
        );
        let kdiam = kappa_diameter(&sim, 1).unwrap_or(f64::NAN);
        let dyn_diam = sim.dynamic_diameter().unwrap_or(f64::NAN);
        let iota = sim.params().iota();
        let g_tilde = sim.params().g_tilde().unwrap();
        (n, kdiam, dyn_diam, iota, max_g, g_tilde)
    });

    let mut t = Table::new(
        "E1  Theorem 5.6 — global skew vs diameter (line, two-block drift)",
        &[
            "n",
            "kappa-diam",
            "measured D(t)",
            "max G(t)",
            "G/D(t)",
            "G <= D+iota",
            "static G~",
        ],
    );
    t.caption(
        "D(t) is the *measured* dynamic estimate diameter (Def. 3.1, eta-relation tracked \
         from actual flood traffic). Expected: G linear in the diameter, and the sharp \
         Theorem 5.6 bound G <= D(t) + iota holds at the observation end.",
    );
    for (n, kdiam, dyn_diam, iota, max_g, g_tilde) in rows {
        t.row([
            n.to_string(),
            fmt_val(kdiam),
            fmt_val(dyn_diam),
            fmt_val(max_g),
            fmt_val(max_g / dyn_diam),
            (max_g <= dyn_diam + iota).to_string(),
            fmt_val(g_tilde),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E2 — Theorem 5.22 / Corollary 5.26: gradient skew O(d log(D/d)).
// ---------------------------------------------------------------------

/// E2: max skew between node pairs vs their path weight `κ_p`, on a long
/// line and on a torus (where the diameter scales as `√n`). Expected
/// shape: the measured skew stays below `(s(p)+1)·κ_p ~
/// κ_p·log_σ(Ĝ/κ_p)`, and skew *per unit weight* shrinks as the distance
/// grows (the hallmark of the gradient property), on both topologies.
#[must_use]
pub fn e2_gradient_skew(scale: Scale) -> Table {
    let n = scale.profile_n();
    let side = (n as f64).sqrt().round() as usize;
    let specs = vec![
        presets::line_worstcase(n),
        presets::base("torus-profile", TopologySpec::Torus { w: side, h: side }),
    ];

    let results = parallel_map(specs, |mut spec| {
        let name = format!("{}({})", spec.topology.family(), spec.topology.node_count());
        spec.warmup = scale.warmup_secs();
        spec.duration = scale.observe_secs();
        let mut sim = spec.build(2).expect("profile spec builds");
        sim.run_until_secs(scale.warmup_secs());

        // Track the max skew per hop distance over the observation window.
        let mut per_hop: Vec<f64> = Vec::new();
        let mut max_g = 0.0f64;
        let mut t_now = scale.warmup_secs();
        let horizon = scale.warmup_secs() + scale.observe_secs();
        while t_now <= horizon {
            sim.run_until_secs(t_now);
            let profile = gcs_analysis::skew_profile(&sim);
            if per_hop.len() < profile.len() {
                per_hop.resize(profile.len(), 0.0);
            }
            for (d, s) in profile.iter().enumerate() {
                per_hop[d] = per_hop[d].max(*s);
            }
            max_g = max_g.max(sim.snapshot().global_skew());
            t_now += 1.0;
        }

        let kappa = sim
            .edge_info(sim.undirected_edges().next().unwrap())
            .unwrap()
            .kappa;
        let g_hat = max_g.max(kappa);
        let params = sim.params().clone();
        (name, kappa, g_hat, per_hop, params)
    });

    let mut t = Table::new(
        format!(
            "E2  Theorem 5.22 — gradient skew vs distance (line({n}) and torus, two-block drift)"
        ),
        &[
            "topology",
            "hops d",
            "kappa_p",
            "max skew",
            "bound (s(p)+1)k_p",
            "usage",
            "skew/d",
        ],
    );
    t.caption(
        "Expected: skew <= bound everywhere; skew/d falls as d grows (d log(D/d) shape) on \
         both 1-D and 2-D topologies. G^ anchored at the measured max global skew.",
    );
    for (name, kappa, g_hat, per_hop, params) in results {
        let mut d = 1usize;
        while d <= per_hop.len() {
            let kappa_p = d as f64 * kappa;
            let bound = gradient_bound(&params, g_hat, kappa_p);
            let measured = per_hop[d - 1];
            t.row([
                name.clone(),
                d.to_string(),
                fmt_val(kappa_p),
                fmt_val(measured),
                fmt_val(bound),
                format!("{:.1}%", 100.0 * measured / bound),
                fmt_val(measured / d as f64),
            ]);
            d *= 2;
        }
    }
    t
}

// ---------------------------------------------------------------------
// E3 — policy comparison: A_OPT vs sqrt-blocking vs max-only.
// ---------------------------------------------------------------------

/// E3: worst local skew and, more importantly, the *provisionable
/// guarantee* for the three policies. Expected: the guarantee columns grow
/// like `log D` / `√D` / `D`; measured skews respect each policy's budget.
///
/// The adversary is [`presets::drift_flip`] (flip-flop drift + hiding
/// estimates, the registry's `drift-flip` family) at every sweep size;
/// only the mode policy differs between the three contenders.
#[must_use]
pub fn e3_policy_comparison(scale: Scale) -> Table {
    #[derive(Clone, Copy)]
    enum Which {
        Aopt,
        Single,
        MaxOnly,
    }
    let jobs: Vec<(usize, Which)> = scale
        .sizes()
        .iter()
        .flat_map(|&n| {
            [Which::Aopt, Which::Single, Which::MaxOnly]
                .into_iter()
                .map(move |w| (n, w))
        })
        .collect();

    let results = parallel_map(jobs, |(n, which)| {
        let mut spec = presets::drift_flip(n, 5.0);
        spec.warmup = scale.warmup_secs();
        spec.duration = scale.observe_secs();
        // Shared facts needed for thresholds/bounds, from a static probe
        // of the same line at the same parameters.
        let probe = presets::base("e3-probe", TopologySpec::Line { n })
            .build(0)
            .expect("probe spec builds");
        let g_tilde = probe.params().g_tilde().unwrap();
        let kappa = probe
            .edge_info(EdgeKey::new(NodeId(0), NodeId(1)))
            .unwrap()
            .kappa;
        let (name, policy, guarantee): (&str, Option<Box<dyn ModePolicy>>, f64) = match which {
            Which::Aopt => ("aopt", None, gradient_bound(probe.params(), g_tilde, kappa)),
            Which::Single => {
                let b = SingleLevelPolicy::sqrt_threshold(0.01, 0.1, g_tilde, kappa);
                (
                    "single-level",
                    Some(Box::new(SingleLevelPolicy::new(b))),
                    1.5 * b + kappa,
                )
            }
            Which::MaxOnly => ("max-only", Some(Box::new(MaxOnlyPolicy)), g_tilde),
        };
        let mut builder = spec.builder(3).expect("drift-flip preset builds");
        if let Some(p) = policy {
            builder = builder.policy(p);
        }
        let mut sim = builder.build().unwrap();
        sim.run_until_secs(scale.warmup_secs());
        let worst = observe_max(
            &mut sim,
            scale.warmup_secs(),
            scale.warmup_secs() + scale.observe_secs(),
            0.5,
            local_skew,
        );
        (n, name, worst, guarantee)
    });

    let mut t = Table::new(
        "E3  local skew: A_OPT (log D) vs single-level (sqrt D) vs max-only (D)",
        &[
            "n",
            "policy",
            "measured local skew",
            "provisionable guarantee",
            "usage",
        ],
    );
    t.caption(
        "Line, flip-flop drift, adversarial (hiding) estimates. The guarantee column is what \
         each algorithm can promise: Theta(k log_sigma(G/k)) vs Theta(sqrt(rho G/mu)) vs Theta(G); \
         the ranking and growth shapes are the paper's headline comparison (Section 2, 5.5).",
    );
    for (n, name, worst, guarantee) in results {
        t.row([
            n.to_string(),
            name.to_string(),
            fmt_val(worst),
            fmt_val(guarantee),
            format!("{:.1}%", 100.0 * worst / guarantee),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4 — Theorem 5.25: stabilization time of a new edge, O(G~/mu).
// ---------------------------------------------------------------------

/// E4: time from a chord's appearance until it is inserted on all levels,
/// vs network size. Expected shape: linear in `G̃ ∝ n` and close to
/// `I(G̃)/β` (the logical insertion duration converted to real time).
///
/// The scenario (ring + antipodal chord at `t = 2 s`) comes from the
/// scenario subsystem — [`presets::ring_chord`], the registry's
/// `ring-chord` family — so the harness and the campaign runner measure
/// the same workload.
#[must_use]
pub fn e4_stabilization_time(scale: Scale) -> Table {
    const INSERTION_SCALE: f64 = 0.05;
    let rows = parallel_map(scale.sizes().to_vec(), |n| {
        let mut sim = presets::ring_chord(n, INSERTION_SCALE)
            .build(n as u64)
            .expect("ring-chord preset builds");
        let g_tilde = sim.params().g_tilde().unwrap();
        let predicted = sim.params().insertion_duration_static(g_tilde) / sim.params().beta();
        let deadline = 2.0 + 4.0 * predicted + 20.0;
        let done = time_until(&mut sim, 2.0, deadline, 0.25, |s| {
            s.level_between(NodeId(0), NodeId::from(n / 2)) == Some(Level::Infinite)
        });
        (n, g_tilde, predicted, done.map(|t| t - 2.0))
    });

    let mut t = Table::new(
        "E4  Theorem 5.25 — stabilization time of a new edge (ring + antipodal chord)",
        &[
            "n",
            "G~",
            "predicted I(G~)/beta",
            "measured",
            "measured/predicted",
        ],
    );
    t.caption(format!(
        "Insertion scale {INSERTION_SCALE} (same for every n, so the *shape* is unaffected). \
         Expected: measured time linear in n, ratio ~1 (plus handshake and alignment slack)."
    ));
    for (n, g_tilde, predicted, measured) in rows {
        let m = measured.unwrap_or(f64::NAN);
        t.row([
            n.to_string(),
            fmt_val(g_tilde),
            fmt_val(predicted),
            fmt_val(m),
            fmt_val(m / predicted),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E5 — Theorem 8.1: stabilization needs Omega(D) for any algorithm.
// ---------------------------------------------------------------------

/// E5: the lower-bound construction. A gradient-legal skew of `Θ(n)`
/// (2κ per edge, below every trigger threshold) is installed on a line —
/// the state the adversary of Theorem 8.1 can always reach — and then an
/// edge between the endpoints appears. Expected: the time until the new
/// edge's skew falls below its stable gradient bound grows linearly with
/// `n`, and is at least the information-theoretic floor
/// `(G − bound)/(β − α)` (clock rates alone limit how fast skew closes).
///
/// Both the shortcut schedule and the gradient install are data: the
/// workload is [`presets::shortcut_gradient`] (registry family
/// `line-shortcut`), its scripted clock-offset faults replayed via
/// [`campaign::apply_faults`].
#[must_use]
pub fn e5_lower_bound(scale: Scale) -> Table {
    let rows = parallel_map(scale.sizes().to_vec(), |n| {
        let mut spec = presets::shortcut_gradient(n, 0.05, 2.0, 2.0);
        let params = spec.params().expect("shortcut preset params");
        let injected = presets::gradient_install_skew(n);
        // Generous horizon: the settle poll below never outruns it.
        spec.duration = 20.0 * injected / (params.beta() - params.alpha()) + 120.0;
        let kappa = presets::default_edge_kappa();
        let mut sim = spec.build(n as u64).expect("shortcut preset builds");
        // Replay the scripted gradient install at the very instant the
        // shortcut appears (events at t = 2 have fired): node i leads
        // node i+1 by 2 kappa.
        campaign::apply_faults(&mut sim, &spec.faults);
        let g_at_insert = sim.snapshot().skew(NodeId(0), NodeId::from(n - 1));

        let g_hat = sim.params().g_tilde().unwrap();
        let bound = gradient_bound(sim.params(), g_hat, kappa);
        let floor = (g_at_insert - bound) / (sim.params().beta() - sim.params().alpha());
        let settled = time_until(&mut sim, 2.0, 2.0 + 20.0 * floor + 60.0, 0.1, |s| {
            s.snapshot().skew(NodeId(0), NodeId::from(n - 1)) <= bound
        });
        (n, g_at_insert, bound, floor, settled.map(|t| t - 2.0))
    });

    let mut t = Table::new(
        "E5  Theorem 8.1 — Omega(D) stabilization lower bound (line + endpoint edge)",
        &[
            "n",
            "installed skew G",
            "stable bound",
            "rate floor (G-b)/(beta-alpha)",
            "measured",
            "measured/floor",
        ],
    );
    t.caption(
        "A legal Theta(n) gradient exists (Thm 8.1's adversary); once the shortcut appears, \
         bounded clock rates alone force >= floor seconds before its skew is within bound. \
         Expected: measured grows linearly with n and stays above the floor (ratio >= 1).",
    );
    for (n, g_at_insert, bound, floor, measured) in rows {
        let m = measured.unwrap_or(f64::NAN);
        t.row([
            n.to_string(),
            fmt_val(g_at_insert),
            fmt_val(bound),
            fmt_val(floor),
            fmt_val(m),
            fmt_val(m / floor),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6 — self-stabilization: recovery rate mu(1-rho) - 2rho.
// ---------------------------------------------------------------------

/// E6: recovery time after corrupting one clock by `X`, for a sweep of
/// `X`. Expected: linear in `X` with slope `≈ 1/(µ(1−ρ)−2ρ)`.
///
/// The corruption is the [`presets::self_heal`] fault script (registry
/// family `self-heal`), resized to `X` per sweep point.
#[must_use]
pub fn e6_self_stabilization(scale: Scale) -> Table {
    let magnitudes: &[f64] = match scale {
        Scale::Quick => &[0.1, 0.2, 0.4],
        Scale::Full => &[0.1, 0.2, 0.4, 0.8, 1.6],
    };
    let rows = parallel_map(magnitudes.to_vec(), |x| {
        let mut spec = presets::self_heal(12, 5.0, x);
        let params = spec.params().expect("self-heal preset params");
        let rate = params.mu() * (1.0 - params.rho()) - 2.0 * params.rho();
        spec.warmup = 0.0;
        spec.duration = 5.0 + 4.0 * x / rate + 40.0;
        let mut sim = spec.build(6).expect("self-heal preset builds");
        // Learn the steady-state fluctuation band first, so the settle
        // threshold sits above the noise floor.
        let steady = sim
            .record_trace(5.0, 0.1)
            .global_skew_series()
            .iter()
            .map(|&(_, g)| g)
            .fold(0.0f64, f64::max);
        campaign::apply_faults(&mut sim, &spec.faults);
        // Record the decay and fit its linear rate (Theorem 5.6 II).
        let trace = sim.record_trace(5.0 + 4.0 * x / rate + 30.0, 0.1);
        let series = trace.global_skew_series();
        let measured_rate = gcs_analysis::convergence::linear_decay_rate(&series, steady + 0.2 * x);
        let recovered =
            gcs_analysis::convergence::settle_time(&series, steady + 0.05 * x).map(|t| t - 5.0);
        (x, rate, measured_rate, recovered)
    });

    let mut t = Table::new(
        "E6  self-stabilization — recovery time vs injected skew (line(12))",
        &[
            "injected X",
            "guaranteed rate",
            "measured decay rate",
            "predicted X/rate",
            "measured",
            "measured/predicted",
        ],
    );
    t.caption(
        "Theorem 5.6 (II): excess skew decays at rate >= mu(1-rho)-2rho. Expected: the fitted \
         decay rate meets or exceeds the guarantee, recovery time linear in X (ratio <= ~1).",
    );
    for (x, rate, measured_rate, measured) in rows {
        let m = measured.unwrap_or(f64::NAN);
        t.row([
            fmt_val(x),
            fmt_val(rate),
            fmt_val(measured_rate),
            fmt_val(x / rate),
            fmt_val(m),
            fmt_val(m / (x / rate)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E7 — Section 7: dynamic global-skew estimates for insertion.
// ---------------------------------------------------------------------

/// E7: full-insertion time of a chord under (a) the derived static `G̃`,
/// (b) a 10× conservative static `G̃`, (c) §7 dynamic node-local
/// `G̃_u(t)`. Expected: (b) pays the conservatism linearly; (c) tracks the
/// *actual* skew and lands near (a) or below, despite the same pessimistic
/// a-priori estimate as (b).
///
/// All three variants run the [`presets::ring_chord`] workload; only the
/// insertion-estimate parameters differ (the [`ScenarioSpec::builder_with`]
/// seam).
///
/// [`ScenarioSpec::builder_with`]: gcs_scenarios::ScenarioSpec::builder_with
#[must_use]
pub fn e7_dynamic_estimates(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 12,
        Scale::Full => 24,
    };
    const SCALE: f64 = 0.02;
    let probe = presets::base("e7-probe", TopologySpec::Ring { n })
        .build(0)
        .expect("probe spec builds");
    let derived = probe.params().g_tilde().unwrap();

    let variants: Vec<(&'static str, Params)> = vec![
        ("static, derived G~", {
            let mut pb = base_params();
            pb.g_tilde(derived).insertion_scale(SCALE);
            pb.build().unwrap()
        }),
        ("static, 10x G~", {
            let mut pb = base_params();
            pb.g_tilde(10.0 * derived).insertion_scale(SCALE);
            pb.build().unwrap()
        }),
        ("dynamic (Sec. 7)", {
            let mut pb = base_params();
            pb.g_tilde(10.0 * derived)
                .insertion_scale(SCALE)
                .b_constant(4.0)
                .dynamic_estimates(true);
            pb.build().unwrap()
        }),
    ];

    let rows = parallel_map(variants, |(name, params)| {
        let mut spec = presets::ring_chord(n, SCALE);
        spec.duration = 620.0;
        let mut sim = spec
            .builder_with(params, 7)
            .expect("ring-chord preset builds")
            .build()
            .unwrap();
        let done = time_until(&mut sim, 2.0, 600.0, 0.25, |s| {
            s.level_between(NodeId(0), NodeId::from(n / 2)) == Some(Level::Infinite)
        });
        let actual_g = sim.snapshot().global_skew();
        (name, done.map(|t| t - 2.0), actual_g)
    });

    let mut t = Table::new(
        format!("E7  Section 7 — dynamic G~ estimates vs static (ring({n}) + chord)"),
        &[
            "insertion estimate",
            "full-insertion time",
            "actual global skew",
        ],
    );
    t.caption(
        "All variants share the same pessimistic a-priori G~ except the first. Expected: the \
         10x static variant is ~10x slower than the derived one; the dynamic variant ignores \
         the pessimism and tracks the (tiny) actual skew.",
    );
    for (name, done, g) in rows {
        t.row([
            name.to_string(),
            done.map_or("> deadline".to_string(), fmt_val),
            fmt_val(g),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E8 — model generality: churn + mobility.
// ---------------------------------------------------------------------

/// E8: invariants and bounds under heavy scripted churn. Expected: zero
/// invariant violations, zero gradient-legality violations (legality is
/// defined over the level sets, which is exactly what staged insertion
/// protects), global skew within `G̃`.
#[must_use]
pub fn e8_churn(scale: Scale) -> Table {
    let horizon = scale.observe_secs() + scale.warmup_secs();
    // The churn workload is the scenario subsystem's `churn` preset (the
    // registry's `churn-storm` is the same family at its canonical size);
    // the harness only re-sizes the window and sweeps topologies.
    let configs = vec![
        ("grid churn", TopologySpec::Grid { w: 4, h: 4 }, 8u64),
        (
            "geometric churn",
            TopologySpec::Geometric {
                n: 16,
                radius: 0.45,
            },
            9u64,
        ),
        ("complete churn", TopologySpec::Complete { n: 8 }, 10u64),
    ];
    let rows = parallel_map(configs, |(name, topology, seed)| {
        let mut spec = presets::churn("churn-sweep", topology);
        spec.warmup = 0.0;
        spec.duration = horizon;
        let mut sim = spec.build(seed).expect("churn preset builds");
        let g_tilde = sim.params().g_tilde().unwrap();
        let slack = sim.params().discretization_slack(sim.tick_interval());
        let checker = GradientChecker::new(g_tilde, 12, slack);
        let mut invariant_violations = 0u32;
        let mut legality_violations = 0u32;
        let mut max_g = 0.0f64;
        let mut t_now = 1.0;
        while t_now <= horizon {
            sim.run_until_secs(t_now);
            if !sim.verify_invariants().is_empty() {
                invariant_violations += 1;
            }
            if !checker.check(&sim).is_legal() {
                legality_violations += 1;
            }
            max_g = max_g.max(sim.snapshot().global_skew());
            t_now += 1.0;
        }
        let stats = sim.stats();
        (
            name,
            invariant_violations,
            legality_violations,
            max_g,
            g_tilde,
            stats.edge_removals,
            stats.messages_dropped,
        )
    });

    let mut t = Table::new(
        "E8  model generality — invariants and bounds under churn",
        &[
            "scenario",
            "invariant viol.",
            "legality viol.",
            "max G",
            "G~",
            "edge removals",
            "msgs dropped",
        ],
    );
    t.caption("Expected: zero violations; global skew within G~ throughout heavy churn.");
    for (name, iv, lv, max_g, g_tilde, removals, dropped) in rows {
        t.row([
            name.to_string(),
            iv.to_string(),
            lv.to_string(),
            fmt_val(max_g),
            fmt_val(g_tilde),
            removals.to_string(),
            dropped.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E9 — heterogeneous edges: bounds in terms of kappa_p.
// ---------------------------------------------------------------------

/// E9: a line whose middle edge is progressively noisier. Expected: the
/// skew across the noisy edge grows with its `ε`, but stays within *its*
/// κ-weighted bound — the weighted generalization of §4.1.
///
/// The adversary (line + hiding estimates) is a scenario preset; the
/// per-edge ε override is the physical layer, supplied through the
/// builder seam.
#[must_use]
pub fn e9_heterogeneous(scale: Scale) -> Table {
    let factors: &[f64] = &[1.0, 4.0, 16.0];
    let n = 12usize;
    let mid = EdgeKey::new(NodeId::from(n / 2 - 1), NodeId::from(n / 2));
    let rows = parallel_map(factors.to_vec(), |f| {
        let base_edge = EdgeParams::default();
        let mut map = EdgeParamsMap::uniform(base_edge);
        map.set(
            mid,
            EdgeParams::new(
                base_edge.epsilon * f,
                base_edge.tau,
                base_edge.delay_min,
                base_edge.delay_max,
            ),
        );
        let mut spec = presets::base("line-heterogeneous", TopologySpec::Line { n });
        spec.estimates = EstimateSpec::OracleHide;
        spec.warmup = scale.warmup_secs();
        spec.duration = scale.observe_secs();
        let mut sim = spec
            .builder(f as u64)
            .expect("heterogeneous spec builds")
            .edge_params(map)
            .build()
            .unwrap();
        sim.run_until_secs(scale.warmup_secs());
        let worst_mid = observe_max(
            &mut sim,
            scale.warmup_secs(),
            scale.warmup_secs() + scale.observe_secs(),
            0.5,
            |s| s.snapshot().skew(mid.lo(), mid.hi()),
        );
        let info = sim.edge_info(mid).unwrap();
        let g_hat = sim.params().g_tilde().unwrap();
        let bound = gradient_bound(sim.params(), g_hat, info.kappa);
        (f, info.epsilon, info.kappa, worst_mid, bound)
    });

    let mut t = Table::new(
        "E9  heterogeneous edges — skew across a noisy edge vs its kappa bound (line(12))",
        &[
            "eps factor",
            "eps",
            "kappa",
            "max skew",
            "kappa bound",
            "usage",
        ],
    );
    t.caption(
        "Expected: absolute skew across the noisy edge grows with eps, but its usage of the \
         kappa-weighted bound stays level — the bound is per-weight, not per-hop.",
    );
    for (f, eps, kappa, worst, bound) in rows {
        t.row([
            format!("{f}x"),
            fmt_val(eps),
            fmt_val(kappa),
            fmt_val(worst),
            fmt_val(bound),
            format!("{:.1}%", 100.0 * worst / bound),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10 — partitions: why the model requires connectivity.
// ---------------------------------------------------------------------

/// E10: a ring is split into two halves for 30 s, then merged. Expected:
/// the cross-cut skew grows at (up to) the full drift rate `2ρ` while the
/// cut is open — no algorithm can do better, which is why the paper's
/// global bound presumes connectivity — while each side stays internally
/// tight; after the merge the skew collapses at the recovery rate and the
/// cut edges re-run the staged insertion.
///
/// The workload is [`presets::partition_heal`] — the registry's
/// `partition-heal` scenario, verbatim.
#[must_use]
pub fn e10_partition(scale: Scale) -> Table {
    let (split, merge) = (10.0, 40.0);
    let mut spec = presets::partition_heal(16, split, merge);
    spec.duration = merge + scale.observe_secs();
    let mut sim = spec.build(10).expect("partition-heal preset builds");

    let side = |sim: &Simulation, lo: u32, hi: u32| {
        let snap = sim.snapshot();
        let vals: Vec<f64> = (lo..hi).map(|u| snap.logical[u as usize]).collect();
        vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().copied().fold(f64::INFINITY, f64::min)
    };

    let mut t = Table::new(
        "E10  partition & merge — the connectivity requirement (ring(16), cut open 30 s)",
        &[
            "t",
            "phase",
            "global skew",
            "left-side skew",
            "right-side skew",
        ],
    );
    t.caption(
        "Expected: during the open cut the global (= cross-cut) skew grows at ~2 rho per \
         second while each side stays tight; after the merge it collapses at the \
         mu(1-rho)-2rho recovery rate.",
    );
    let horizon = merge + scale.observe_secs();
    for &at in &[
        5.0,
        split,
        20.0,
        30.0,
        merge,
        merge + 5.0,
        merge + 15.0,
        horizon,
    ] {
        sim.run_until_secs(at);
        let phase = if at < split {
            "connected"
        } else if at < merge {
            "cut open"
        } else {
            "merged"
        };
        t.row([
            format!("{at:.0}s"),
            phase.to_string(),
            fmt_val(sim.snapshot().global_skew()),
            fmt_val(side(&sim, 0, 8)),
            fmt_val(side(&sim, 8, 16)),
        ]);
    }
    t
}
