//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use gcs_sim::{DriftModel, EventQueue, SimTime};

proptest! {
    #[test]
    fn queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0.0f64..1000.0, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn queue_is_fifo_within_an_instant(
        groups in proptest::collection::vec((0.0f64..100.0, 1usize..5), 1..20),
    ) {
        let mut q = EventQueue::new();
        let mut expected: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut id = 0usize;
        for (t, k) in groups {
            // Quantize times so collisions actually happen.
            let qt = (t * 10.0).round() / 10.0;
            for _ in 0..k {
                q.schedule(SimTime::from_secs(qt), id);
                expected.entry((qt * 10.0).round() as u64).or_default().push(id);
                id += 1;
            }
        }
        let mut got: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        while let Some((t, v)) = q.pop() {
            got.entry((t.as_secs() * 10.0).round() as u64).or_default().push(v);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn drift_realizations_are_deterministic_and_bounded(
        rho in 1e-4f64..0.05,
        seed in any::<u64>(),
    ) {
        let model = DriftModel::RandomWalk { period: 1.0, step_frac: 0.4 };
        let horizon = SimTime::from_secs(25.0);
        let a = model.realize(6, rho, horizon, seed);
        let b = model.realize(6, rho, horizon, seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.respects_bound(rho));
        // Change times are within the horizon and sorted.
        prop_assert!(a.changes.windows(2).all(|w| w[0].time <= w[1].time));
        prop_assert!(a.changes.iter().all(|c| c.time <= horizon));
    }
}
