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
/// to a cap (huge unless a test needs the policy's own) with no early
/// termination.
mod trigger_reference {
    use gradient_clock_sync::core::NodeView;

    pub const HUGE: u32 = 2000;

    pub fn fast(view: &NodeView<'_>, cap: u32) -> bool {
        (1..=cap).any(|s| {
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

    pub fn slow(view: &NodeView<'_>, cap: u32) -> bool {
        (1..=cap).any(|s| {
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
            trigger_reference::fast(&view, trigger_reference::HUGE)
        );
        prop_assert_eq!(
            triggers::slow_trigger(&view, 4096),
            trigger_reference::slow(&view, trigger_reference::HUGE)
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
            trigger_reference::fast(&view, trigger_reference::HUGE)
        );
        prop_assert_eq!(
            triggers::slow_trigger(&view, 4096),
            trigger_reference::slow(&view, trigger_reference::HUGE)
        );
    }
}

/// Decides exactly as `A_OPT` and counts the decisions it is asked for
/// over filled views, so a test can see which path `handlers::decide`
/// took.
#[derive(Debug)]
struct CountsFilled {
    aopt: AoptPolicy,
    filled: std::cell::Cell<u32>,
}

impl ModePolicy for CountsFilled {
    fn decide(&self, view: &gradient_clock_sync::core::NodeView<'_>) -> Mode {
        self.filled.set(self.filled.get() + 1);
        self.aopt.decide(view)
    }

    fn decide_and_certify(
        &self,
        view: &gradient_clock_sync::core::NodeView<'_>,
    ) -> (Mode, Option<gradient_clock_sync::core::StabilityCert>) {
        self.filled.set(self.filled.get() + 1);
        self.aopt.decide_and_certify(view)
    }

    fn name(&self) -> &'static str {
        "aopt-counting"
    }

    fn as_aopt(&self) -> Option<&AoptPolicy> {
        Some(&self.aopt)
    }
}

/// The smallest `e` with `e − l ≥ thr`, where an existential clause of
/// Definition 4.5 turns on. It steps ulp by ulp from `l + thr`, so keep
/// both well away from 0, where the ulps shrink.
fn first_ahead(l: f64, thr: f64) -> f64 {
    let mut e = l + thr;
    while e - l < thr {
        e = e.next_up();
    }
    while e.next_down() - l >= thr {
        e = e.next_down();
    }
    e
}

/// The largest `e` with `l − e ≥ thr`, where an existential clause of
/// Definition 4.6 turns on.
fn last_behind(l: f64, thr: f64) -> f64 {
    let mut e = l - thr;
    while l - e < thr {
        e = e.next_down();
    }
    while l - e.next_up() >= thr {
        e = e.next_up();
    }
    e
}

/// One neighbour of [`streamed_decisions_equal_the_filled_views_bit_for_bit`]:
/// `((slot kind, insertion offset, κ₀ doublings), (estimate placement,
/// ulps, offset), (κ in sixteenths, oracle bias))`.
#[allow(clippy::type_complexity)]
fn arb_neighbor() -> impl Strategy<Value = ((u8, i32, i32), (u8, i8, f64), (u32, f64))> {
    (
        (0u8..5, -4i32..13, 0i32..4),
        (0u8..9, -1i8..=1, -2.0f64..2.0),
        (8u32..33, -1.0f64..=1.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// `handlers::decide` decides `A_OPT`'s quiet case straight off the
    /// neighbour table; it must return, bit for bit, what the policy
    /// returns over views filled by `fill_views`, and fill them exactly
    /// when some neighbour in `N¹` meets a level-1 existential clause.
    /// Estimates sit on each level-1 threshold of the neighbour's own
    /// `κ`, `ε`, `δ` (decayed ones included) or one ulp either side, at a
    /// random offset of up to 2κ, within 0.9κ (the quiet majority), or
    /// are missing; in a calm case every estimate stays just short of the
    /// clauses, so quiet decisions see high degrees too. Slots are
    /// `Initial`, `Pending`, `FollowerWait`, `Scheduled` before, at,
    /// during, at the end of and after their insertion, or `Decaying`;
    /// both estimate layers run, with and without a scripted bias, with
    /// and without a certificate, at level caps 1, 3 and 64. Half the
    /// cases have at most five neighbours, so one neighbour on a threshold
    /// often decides alone.
    #[test]
    fn streamed_decisions_equal_the_filled_views_bit_for_bit(
        (logical_k, m_step, current_fast, cap_pick, certify) in
            (16_384i32..47_104, 0u8..5, proptest::bool::ANY, 0u8..3, proptest::bool::ANY),
        (layer, scripted, strategy_pick, calm_pick) in (
            0u8..4,
            prop_oneof![Just(None), Just(Some(0.0)), (-1.0f64..=1.0).prop_map(Some)],
            0u8..3,
            0u8..3,
        ),
        raw_neighbors in prop_oneof![
            proptest::collection::vec(arb_neighbor(), 0..6),
            proptest::collection::vec(arb_neighbor(), 0..71),
        ],
    ) {
        use gcs_protocol::edge_state::{EdgeSlot, EstimateEntry};
        use gcs_protocol::handlers::{self, Run};
        use gcs_protocol::{EdgeInfo, NodeState};
        use gradient_clock_sync::net::NodeId;

        let (decaying, calm) = (strategy_pick == 0, calm_pick == 0);
        let iota = 1.0 / 64.0;
        let cap = [1, 3, 64][usize::from(cap_pick)];
        let halving = 0.25;
        let mut pb = Params::builder();
        pb.rho(0.01).mu(0.1).iota(iota).max_levels(cap);
        if decaying {
            pb.insertion_strategy(InsertionStrategy::DecayingWeight { halving });
        }
        let params = pb.build().unwrap();
        let run = Run {
            params: &params,
            refresh: 0.1,
            mode: match layer {
                0 => EstimateMode::Messages,
                1 => EstimateMode::Oracle(ErrorModel::None),
                2 => EstimateMode::Oracle(ErrorModel::RandomBias),
                _ => EstimateMode::Oracle(ErrorModel::Hide),
            },
        };

        let logical = f64::from(logical_k) / 1024.0;
        let mut node = NodeState::new(NodeId(1000), 1.0);
        node.corrupt_logical(logical);
        let m_offset = [0.0, iota / 2.0, iota, 2.0 * iota, 1.0][usize::from(m_step)];
        node.merge_max_estimate(logical + m_offset);
        node.set_mode(if current_fast { Mode::Fast } else { Mode::Slow });
        if let Some(bias) = scripted {
            node.corrupt_estimates(bias);
        }
        let insertion = 0.5;
        for (v, &((kind, j, doublings), _, (sixteenths, oracle_bias))) in
            raw_neighbors.iter().enumerate()
        {
            let kappa = f64::from(sixteenths) / 16.0;
            let info = EdgeInfo {
                params: EdgeParams::default(),
                epsilon: kappa / 16.0,
                kappa,
                delta: kappa / 8.0,
            };
            let mut slot = EdgeSlot::initial();
            slot.oracle_bias = oracle_bias;
            slot.insert = match kind {
                0 => InsertState::Initial,
                1 => InsertState::Pending,
                2 => InsertState::FollowerWait {
                    l_ins: logical,
                    g_tilde: 1.0,
                    l_at_receive: logical,
                },
                // j < 0: before T₀; 0: at T₁ = T₀; 1..8: during; 8: at
                // T∞; beyond: after.
                3 => InsertState::Scheduled {
                    t0: logical - f64::from(j) * insertion / 8.0,
                    i: insertion,
                },
                _ => InsertState::Decaying {
                    l0: logical - f64::from(j) * halving / 4.0,
                    kappa0: kappa * f64::from(1 << doublings),
                },
            };
            node.slots.insert(NodeId(v as u32), info, slot);
        }

        // Place each estimate against the thresholds of the neighbour's
        // view as the decision will see it (a decayed κ moves them).
        let mut views = Vec::new();
        handlers::fill_views(&node, &run, |_| None, &mut views);
        let mut truth = vec![None; raw_neighbors.len()];
        for (v, (&(_, (place, ulps, offset), _), n)) in
            raw_neighbors.iter().zip(&views).enumerate()
        {
            let fast_at = 1.0 * n.kappa - n.epsilon;
            let slow_at = 1.5 * n.kappa - n.delta - n.epsilon;
            let (est, ulps) = match (place, calm) {
                (0, false) => (first_ahead(logical, fast_at), ulps),
                (0, true) => (first_ahead(logical, fast_at), -1),
                (1, false) => (last_behind(logical, slow_at), ulps),
                (1, true) => (last_behind(logical, slow_at), 1),
                (2, false) => (logical + offset * n.kappa, ulps),
                (3, _) => continue,
                _ => (logical + 0.45 * offset * n.kappa, ulps),
            };
            let est = match ulps {
                -1 => est.next_down(),
                1 => est.next_up(),
                _ => est,
            };
            truth[v] = Some(est);
            let hw_at_recv = node.hardware();
            node.slots.get_mut(NodeId(v as u32)).unwrap().estimate =
                Some(EstimateEntry { value: est, hw_at_recv });
        }
        let truth = |v: NodeId| truth[v.index()];

        let policy = CountsFilled {
            aopt: AoptPolicy::new(cap),
            filled: std::cell::Cell::new(0),
        };
        let got = handlers::decide(&node, &policy, certify, &run, truth, &mut Vec::new());

        let unlock_margin = handlers::fill_views(&node, &run, truth, &mut views);
        let view = handlers::node_view(&node, &params, &views);
        let (mode, cert) = if certify {
            policy.aopt.decide_and_certify(&view)
        } else {
            (policy.aopt.decide(&view), None)
        };
        let cert_bits = |c: Option<gradient_clock_sync::core::StabilityCert>| {
            c.map(|c| (c.estimate_margin.to_bits(), c.m_margin.to_bits(), c.m_jump_sensitive))
        };
        prop_assert_eq!(got.mode, mode);
        prop_assert_eq!(cert_bits(got.cert), cert_bits(cert));
        prop_assert_eq!(got.unlock_margin.to_bits(), unlock_margin.to_bits());

        // The views are filled exactly when the quiet case fails.
        let quiet = !views.iter().any(|n| {
            n.level.includes(1)
                && n.estimate.is_some_and(|est| {
                    est - logical >= 1.0 * n.kappa - n.epsilon
                        || logical - est >= 1.5 * n.kappa - n.delta - n.epsilon
                })
        });
        prop_assert_eq!(policy.filled.get(), u32::from(!quiet), "quiet = {}", quiet);

        // And both agree with Listing 3 over the exhaustive triggers.
        let listing3 = if trigger_reference::slow(&view, cap) {
            Mode::Slow
        } else if trigger_reference::fast(&view, cap) {
            Mode::Fast
        } else if logical >= view.max_estimate {
            Mode::Slow
        } else if logical <= view.max_estimate - iota {
            Mode::Fast
        } else {
            view.current_mode
        };
        prop_assert_eq!(got.mode, listing3);
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
