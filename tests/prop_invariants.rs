//! Property-based tests: the model and algorithm invariants hold across
//! randomized scenarios, parameters, and schedules.

use proptest::prelude::*;

use gradient_clock_sync::core::edge_state::InsertState;
use gradient_clock_sync::net::{ChurnOptions, NetworkSchedule, Topology};
use gradient_clock_sync::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (3usize..8).prop_map(Topology::line),
        (3usize..8).prop_map(Topology::ring),
        (2usize..4, 2usize..4).prop_map(|(w, h)| Topology::grid(w, h)),
        (3usize..7).prop_map(Topology::star),
        (3usize..6).prop_map(Topology::complete),
        (6usize..12, any::<u64>()).prop_map(|(n, s)| Topology::random_gnp(n, 0.3, s)),
    ]
}

fn arb_drift() -> impl Strategy<Value = DriftModel> {
    prop_oneof![
        Just(DriftModel::None),
        Just(DriftModel::TwoBlock),
        Just(DriftModel::Alternating),
        Just(DriftModel::RandomConstant),
        (0.5f64..3.0, 0.1f64..0.9)
            .prop_map(|(period, step_frac)| DriftModel::RandomWalk { period, step_frac }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full (small) simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_scenarios_never_violate_invariants(
        topo in arb_topology(),
        drift in arb_drift(),
        seed in any::<u64>(),
    ) {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let mut sim = SimBuilder::new(params)
            .topology(topo)
            .drift(drift)
            .seed(seed)
            .build()
            .unwrap();
        for k in 1..=8 {
            sim.run_until_secs(f64::from(k));
            let violations = sim.verify_invariants();
            prop_assert!(violations.is_empty(), "t={}s: {:?}", k, violations);
        }
        let g = sim.snapshot().global_skew();
        let g_tilde = sim.params().g_tilde().unwrap();
        prop_assert!(g <= g_tilde, "global skew {} above estimate {}", g, g_tilde);
    }

    #[test]
    fn churny_scenarios_never_violate_invariants(
        n in 4usize..8,
        seed in any::<u64>(),
        mean_up in 2.0f64..10.0,
        mean_down in 1.0f64..5.0,
    ) {
        let topo = Topology::complete(n);
        let schedule = NetworkSchedule::churn(
            &topo,
            ChurnOptions {
                horizon: 15.0,
                mean_up,
                mean_down,
                direction_skew_max: 0.004,
                start_up_probability: 0.6,
            },
            seed,
        );
        let mut pb = Params::builder();
        pb.rho(0.01).mu(0.1).insertion_scale(0.05);
        let mut sim = SimBuilder::new(pb.build().unwrap())
            .schedule(schedule)
            .drift(DriftModel::TwoBlock)
            .seed(seed)
            .build()
            .unwrap();
        for k in 1..=15 {
            sim.run_until_secs(f64::from(k));
            let violations = sim.verify_invariants();
            prop_assert!(violations.is_empty(), "t={}s: {:?}", k, violations);
        }
    }
}

/// Brute-force reference for the trigger definitions: scan every level up
/// to a huge cap with no early termination.
mod trigger_reference {
    use gradient_clock_sync::core::NodeView;

    pub fn fast(view: &NodeView<'_>) -> bool {
        (1..=2000u32).any(|s| {
            let sf = f64::from(s);
            let mut exists = false;
            for n in view.neighbors {
                if !n.level.includes(s) {
                    continue;
                }
                match n.estimate {
                    Some(est) => {
                        if est - view.logical >= sf * n.kappa - n.epsilon {
                            exists = true;
                        }
                        if view.logical - est > sf * n.kappa + 2.0 * view.mu * n.tau + n.epsilon {
                            return false; // blocked at this level
                        }
                    }
                    None => return false,
                }
            }
            exists
        })
    }

    pub fn slow(view: &NodeView<'_>) -> bool {
        (1..=2000u32).any(|s| {
            let sh = f64::from(s) + 0.5;
            let mut exists = false;
            for n in view.neighbors {
                if !n.level.includes(s) {
                    continue;
                }
                match n.estimate {
                    Some(est) => {
                        if view.logical - est >= sh * n.kappa - n.delta - n.epsilon {
                            exists = true;
                        }
                        if est - view.logical
                            > sh * n.kappa
                                + n.delta
                                + n.epsilon
                                + view.mu * (1.0 + view.rho) * n.tau
                        {
                            return false;
                        }
                    }
                    None => return false,
                }
            }
            exists
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn trigger_scan_limit_is_lossless(
        logical in -30.0f64..30.0,
        raw_neighbors in proptest::collection::vec(
            (-30.0f64..30.0, 0.5f64..2.0, proptest::option::of(0u32..8)),
            1..6,
        ),
    ) {
        use gradient_clock_sync::core::edge_state::Level;
        use gradient_clock_sync::core::{triggers, Mode, NeighborView, NodeView};
        let neighbors: Vec<NeighborView> = raw_neighbors
            .into_iter()
            .map(|(est, kappa, lvl)| NeighborView {
                estimate: Some(est),
                kappa,
                epsilon: 0.05 * kappa,
                tau: 0.01,
                delta: 0.1 * kappa,
                level: lvl.map_or(Level::Infinite, Level::Finite),
            })
            .collect();
        let view = NodeView {
            logical,
            max_estimate: logical + 1.0,
            current_mode: Mode::Slow,
            iota: 0.01,
            mu: 0.1,
            rho: 0.01,
            neighbors: &neighbors,
        };
        // The production scan terminates early via a computed level bound;
        // it must agree with the exhaustive reference exactly.
        prop_assert_eq!(
            triggers::fast_trigger(&view, 4096),
            trigger_reference::fast(&view)
        );
        prop_assert_eq!(
            triggers::slow_trigger(&view, 4096),
            trigger_reference::slow(&view)
        );
    }

    #[test]
    fn node_state_advance_respects_envelopes(
        rate in 0.99f64..1.01,
        fast_steps in proptest::collection::vec(proptest::bool::ANY, 1..20),
    ) {
        use gradient_clock_sync::core::node::NodeState;
        use gradient_clock_sync::core::{Mode, Params};
        use gradient_clock_sync::net::NodeId;
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let mut node = NodeState::new(NodeId(0), rate);
        let mut t = 0.0;
        for (k, fast) in fast_steps.iter().enumerate() {
            node.set_mode(if *fast { Mode::Fast } else { Mode::Slow });
            t += 0.5;
            node.advance_to(SimTime::from_secs(t), &params);
            // Envelope: alpha * t <= L <= beta * t.
            prop_assert!(node.logical() >= params.alpha() * t - 1e-9, "step {k}");
            prop_assert!(node.logical() <= params.beta() * t + 1e-9, "step {k}");
            // Structural invariants of Condition 4.3 and the bracket.
            prop_assert!(node.max_estimate() >= node.logical() - 1e-12);
            prop_assert!(node.min_lower_bound() <= node.logical() + 1e-12);
            prop_assert!(node.max_upper_bound() >= node.max_estimate() - 1e-12);
            prop_assert!(node.fast_secs() <= t + 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// The triggers' level-1 exit at its exact boundary. Random floats
    /// never land on a threshold, so each estimate is placed on one:
    /// `L + (κ − ε)` (the fast trigger's level-1 existential clause) or
    /// `L − (1.5κ − δ − ε)` (the slow one's), or one ulp either side, or
    /// at a random offset of up to two `κ`; some neighbours have no
    /// estimate or sit at level 0. `κ` is a multiple of 1/16 with
    /// `ε = κ/16` and `δ = κ/8`, and `L` a multiple of 1/1024, so every sum
    /// is exact and `est − L` equals the threshold bit for bit.
    #[test]
    fn trigger_level_one_exit_is_exact_at_its_boundary(
        logical_k in -30_720i32..30_720,
        raw_neighbors in proptest::collection::vec(
            (0u8..3, -1i8..=1, 8u32..33, 0u8..5, -2.0f64..2.0),
            1..6,
        ),
    ) {
        use gradient_clock_sync::core::edge_state::Level;
        use gradient_clock_sync::core::{triggers, Mode, NeighborView, NodeView};
        let logical = f64::from(logical_k) / 1024.0;
        let neighbors: Vec<NeighborView> = raw_neighbors
            .into_iter()
            .map(|(place, ulps, sixteenths, kind, offset)| {
                let kappa = f64::from(sixteenths) / 16.0;
                let (epsilon, delta) = (kappa / 16.0, kappa / 8.0);
                let est = match place {
                    0 => logical + (kappa - epsilon),
                    1 => logical - (1.5 * kappa - delta - epsilon),
                    _ => logical + offset * kappa,
                };
                let est = match ulps {
                    -1 => est.next_down(),
                    1 => est.next_up(),
                    _ => est,
                };
                NeighborView {
                    estimate: (kind != 0).then_some(est),
                    kappa,
                    epsilon,
                    tau: 0.01,
                    delta,
                    level: match kind {
                        1 => Level::Finite(0),
                        2 => Level::Finite(1),
                        3 => Level::Finite(3),
                        _ => Level::Infinite,
                    },
                }
            })
            .collect();
        let view = NodeView {
            logical,
            max_estimate: logical + 1.0,
            current_mode: Mode::Slow,
            iota: 0.01,
            mu: 0.1,
            rho: 0.01,
            neighbors: &neighbors,
        };
        prop_assert_eq!(
            triggers::fast_trigger(&view, 4096),
            trigger_reference::fast(&view)
        );
        prop_assert_eq!(
            triggers::slow_trigger(&view, 4096),
            trigger_reference::slow(&view)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn valid_params_build_and_derive_consistently(
        rho in 1e-6f64..0.02,
        mu_factor in 3.0f64..40.0,
    ) {
        // mu chosen as a multiple of 2rho/(1-rho) so sigma > 1 by
        // construction, capped by the paper's mu <= 1/10.
        let mu = (mu_factor * 2.0 * rho / (1.0 - rho)).min(0.1);
        prop_assume!(mu > 2.0 * rho / (1.0 - rho));
        let params = Params::builder().rho(rho).mu(mu).build().unwrap();
        prop_assert!(params.sigma() > 1.0);
        prop_assert!(params.alpha() < 1.0);
        prop_assert!(params.beta() > 1.0);
        prop_assert!(params.insertion_duration_static(1.0) > 0.0);
        // kappa constraint (eq. 9) for an arbitrary edge.
        let e = gradient_clock_sync::net::EdgeParams::default();
        let kappa = params.kappa(e, e.epsilon);
        prop_assert!(kappa > 4.0 * (e.epsilon + mu * e.tau));
        let delta = params.delta(e, e.epsilon);
        prop_assert!(delta > 0.0);
        prop_assert!(delta < kappa / 2.0 - 2.0 * e.epsilon - 2.0 * mu * e.tau);
    }

    #[test]
    fn insertion_times_are_monotone_and_dyadically_aligned(
        t0_mult in 0u32..1000,
        i_exp in -3i32..12,
        levels in 2u32..20,
    ) {
        let i = 2f64.powi(i_exp);
        let t0 = f64::from(t0_mult) * i;
        // Monotone increasing, converging to t0 + i.
        let mut prev = f64::NEG_INFINITY;
        for s in 1..=levels {
            let ts = InsertState::t_s(t0, i, s);
            prop_assert!(ts > prev);
            prop_assert!(ts <= t0 + i);
            // Quantization: T_s is an integer multiple of I / 2^{s-1}.
            let grid = i / 2f64.powi(s as i32 - 1);
            let ratio = ts / grid;
            prop_assert!((ratio - ratio.round()).abs() < 1e-9,
                "T_{} = {} not on the {} grid", s, ts, grid);
            prev = ts;
        }
        prop_assert!((InsertState::t_infinity(t0, i) - (t0 + i)).abs() < 1e-12);
    }

    #[test]
    fn level_at_inverts_t_s(
        t0_mult in 0u32..100,
        i_exp in -2i32..10,
        offset_frac in 0.0f64..1.5,
    ) {
        let i = 2f64.powi(i_exp);
        let t0 = f64::from(t0_mult) * i;
        let st = InsertState::Scheduled { t0, i };
        let l = t0 + offset_frac * i;
        match st.level_at(l) {
            gradient_clock_sync::core::edge_state::Level::Finite(s) => {
                if s > 0 {
                    prop_assert!(InsertState::t_s(t0, i, s) <= l + 1e-9);
                }
                prop_assert!(InsertState::t_s(t0, i, s + 1) > l - 1e-9);
            }
            gradient_clock_sync::core::edge_state::Level::Infinite => {
                prop_assert!(l >= t0 + i - 1e-9);
            }
        }
    }

    #[test]
    fn random_topologies_are_connected(
        n in 2usize..40,
        p in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let topo = Topology::random_gnp(n, p, seed);
        prop_assert!(topo.is_connected());
        let geo = Topology::random_geometric(n.max(2), 0.2, seed);
        prop_assert!(geo.is_connected());
    }

    #[test]
    fn drift_schedules_respect_rho(
        rho in 1e-5f64..0.1,
        seed in any::<u64>(),
        n in 2usize..10,
    ) {
        for model in [
            DriftModel::None,
            DriftModel::TwoBlock,
            DriftModel::Alternating,
            DriftModel::RandomConstant,
            DriftModel::RandomWalk { period: 1.0, step_frac: 0.5 },
            DriftModel::FlipFlop { period: 5.0 },
        ] {
            let s = model.realize(n, rho, SimTime::from_secs(20.0), seed);
            prop_assert!(s.respects_bound(rho), "{:?}", model);
            prop_assert_eq!(s.node_count(), n);
        }
    }
}
