//! Random-waypoint mobility → dynamic estimate graphs.
//!
//! The paper motivates its model with mobile nodes whose links appear and
//! disappear as they move. This module makes that concrete: nodes perform a
//! random-waypoint walk in the unit square and an (undirected) estimate edge
//! exists while two nodes are within radio range. Hysteresis (connect below
//! `radius`, disconnect above `radius * hysteresis`) prevents link flapping
//! at the range boundary, and the two directions of each transition are
//! offset by a random amount `≤ direction_skew_max` to exercise the
//! asymmetric-detection part of the model.
//!
//! The walk is sampled every `sample_period` seconds; the resulting script is
//! a [`NetworkSchedule`] like any other.

use rand::Rng;

use gcs_sim::{rng, SimTime};

use crate::graph::{EdgeKey, NodeId};
use crate::schedule::{EdgeEventKind, NetworkSchedule};

/// Parameters of the random-waypoint walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Number of nodes.
    pub n: usize,
    /// Radio range as a fraction of the unit square's side.
    pub radius: f64,
    /// Disconnect at `radius * hysteresis`; must be `>= 1`.
    pub hysteresis: f64,
    /// Node speed range `[min, max]` in square-sides per second.
    pub speed: (f64, f64),
    /// Script horizon, seconds.
    pub horizon: f64,
    /// Position sampling period, seconds.
    pub sample_period: f64,
    /// Maximum offset between the two directions of a link transition.
    pub direction_skew_max: f64,
}

impl Default for RandomWaypoint {
    fn default() -> Self {
        RandomWaypoint {
            n: 16,
            radius: 0.35,
            hysteresis: 1.15,
            speed: (0.005, 0.02),
            horizon: 100.0,
            sample_period: 0.5,
            direction_skew_max: 0.002,
        }
    }
}

impl RandomWaypoint {
    /// Generates the mobility-driven schedule.
    ///
    /// Note: mobility alone does not guarantee connectivity; pair the result
    /// with a validator or choose `radius` generously. The returned schedule
    /// reflects geometry faithfully, including temporary partitions.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range (`n >= 2`, positive radius and
    /// periods, `hysteresis >= 1`, `0 < speed.0 <= speed.1`).
    #[must_use]
    pub fn generate(&self, seed: u64) -> NetworkSchedule {
        assert!(self.n >= 2, "need at least 2 nodes");
        assert!(self.radius > 0.0, "radius must be positive");
        assert!(self.hysteresis >= 1.0, "hysteresis must be >= 1");
        assert!(
            self.speed.0 > 0.0 && self.speed.0 <= self.speed.1,
            "speed range must satisfy 0 < min <= max"
        );
        assert!(
            self.horizon > 0.0 && self.sample_period > 0.0,
            "horizon and sample_period must be positive"
        );
        assert!(
            self.direction_skew_max < self.sample_period,
            "direction skew must be smaller than the sampling period, or a \
             mirrored transition could overtake the next one"
        );

        let mut walkers: Vec<Walker> = (0..self.n)
            .map(|i| Walker::new(seed, i as u64, self.speed))
            .collect();

        let mut schedule = NetworkSchedule::empty(self.n);
        let mut skew_rng = rng::stream(seed, "mobility-skew", 0);
        // Link state with hysteresis.
        let mut up = vec![false; self.n * self.n];
        let connect = self.radius;
        let disconnect = self.radius * self.hysteresis;

        // Initial positions determine initial edges (no hysteresis at t=0).
        for i in 0..self.n {
            for j in i + 1..self.n {
                if walkers[i].dist(&walkers[j]) <= connect {
                    up[i * self.n + j] = true;
                    schedule.add_initial_undirected(EdgeKey::new(NodeId::from(i), NodeId::from(j)));
                }
            }
        }

        let steps = (self.horizon / self.sample_period).floor() as u64;
        for k in 1..=steps {
            let t = SimTime::from_secs(k as f64 * self.sample_period);
            for w in &mut walkers {
                w.step(self.sample_period);
            }
            for i in 0..self.n {
                for j in i + 1..self.n {
                    let d = walkers[i].dist(&walkers[j]);
                    let idx = i * self.n + j;
                    let e = EdgeKey::new(NodeId::from(i), NodeId::from(j));
                    let skew = if self.direction_skew_max > 0.0 {
                        skew_rng.gen_range(0.0..=self.direction_skew_max)
                    } else {
                        0.0
                    };
                    if up[idx] && d > disconnect {
                        up[idx] = false;
                        schedule.append_undirected(e, t, skew, EdgeEventKind::Down);
                    } else if !up[idx] && d <= connect {
                        up[idx] = true;
                        schedule.append_undirected(e, t, skew, EdgeEventKind::Up);
                    }
                }
            }
        }
        schedule.sort_events();
        schedule
    }
}

/// One node's random-waypoint state.
#[derive(Debug, Clone)]
struct Walker {
    pos: (f64, f64),
    target: (f64, f64),
    speed: f64,
    speed_range: (f64, f64),
    rng: rand::rngs::StdRng,
}

impl Walker {
    fn new(seed: u64, index: u64, speed_range: (f64, f64)) -> Self {
        let mut rng = rng::stream(seed, "mobility-walker", index);
        let pos = (rng.gen::<f64>(), rng.gen::<f64>());
        let target = (rng.gen::<f64>(), rng.gen::<f64>());
        let speed = rng.gen_range(speed_range.0..=speed_range.1);
        Walker {
            pos,
            target,
            speed,
            speed_range,
            rng,
        }
    }

    fn dist(&self, other: &Walker) -> f64 {
        let dx = self.pos.0 - other.pos.0;
        let dy = self.pos.1 - other.pos.1;
        (dx * dx + dy * dy).sqrt()
    }

    fn step(&mut self, dt: f64) {
        let mut remaining = self.speed * dt;
        while remaining > 0.0 {
            let dx = self.target.0 - self.pos.0;
            let dy = self.target.1 - self.pos.1;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= remaining {
                // Arrive and pick a fresh waypoint and speed.
                self.pos = self.target;
                remaining -= d;
                self.target = (self.rng.gen::<f64>(), self.rng.gen::<f64>());
                self.speed = self.rng.gen_range(self.speed_range.0..=self.speed_range.1);
                if d == 0.0 {
                    break; // degenerate: target == pos; avoid spinning
                }
            } else {
                self.pos.0 += dx / d * remaining;
                self.pos.1 += dy / d * remaining;
                remaining = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let m = RandomWaypoint {
            n: 8,
            horizon: 30.0,
            ..RandomWaypoint::default()
        };
        let a = m.generate(4);
        let b = m.generate(4);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.initial_directed(), b.initial_directed());
    }

    #[test]
    fn events_alternate_per_direction() {
        let m = RandomWaypoint {
            n: 10,
            radius: 0.3,
            horizon: 120.0,
            speed: (0.02, 0.05),
            ..RandomWaypoint::default()
        };
        let s = m.generate(7);
        use std::collections::HashMap;
        let mut last: HashMap<(NodeId, NodeId), EdgeEventKind> = HashMap::new();
        let initially_up: std::collections::HashSet<_> =
            s.initial_directed().iter().copied().collect();
        for ev in s.events() {
            match last.insert((ev.from, ev.to), ev.kind) {
                Some(prev) => assert_ne!(prev, ev.kind, "non-alternating events"),
                None => {
                    let expect = if initially_up.contains(&(ev.from, ev.to)) {
                        EdgeEventKind::Down
                    } else {
                        EdgeEventKind::Up
                    };
                    assert_eq!(ev.kind, expect, "first event inconsistent with t=0 state");
                }
            }
        }
    }

    #[test]
    fn dense_radius_connects_everything_initially() {
        let m = RandomWaypoint {
            n: 6,
            radius: 2.0, // covers the whole unit square
            horizon: 5.0,
            ..RandomWaypoint::default()
        };
        let s = m.generate(1);
        assert_eq!(s.initial_directed().len(), 6 * 5);
        assert!(s.events().is_empty()); // nothing can ever disconnect
    }

    #[test]
    fn walkers_stay_in_unit_square() {
        let mut w = Walker::new(3, 0, (0.05, 0.1));
        for _ in 0..1000 {
            w.step(1.0);
            assert!((0.0..=1.0).contains(&w.pos.0));
            assert!((0.0..=1.0).contains(&w.pos.1));
        }
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn rejects_bad_radius() {
        let m = RandomWaypoint {
            radius: 0.0,
            ..RandomWaypoint::default()
        };
        let _ = m.generate(0);
    }
}
