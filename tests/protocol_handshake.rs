//! The §6 staged-insertion handshake with no engine underneath: two bare
//! `NodeState`s, the shared handlers of `gcs_protocol::handlers`, and a
//! host that only records what the handlers ask for. The test plays
//! network and clock by hand — it carries the recorded offer across and
//! fires the recorded timers — which is all either real host does.

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::edge_state::InsertState;
use gcs_protocol::handlers::{self, Delivered, Discovered, Fired, Host, Message, Run, Timer};
use gcs_protocol::runtime::derive_run_config;
use gcs_protocol::{EstimateMode, NodeState, Params};
use gcs_sim::SimTime;

const LEADER: NodeId = NodeId(0);
const FOLLOWER: NodeId = NodeId(1);

#[derive(Default)]
struct Recorder {
    sends: Vec<(NodeId, Message)>,
    wakes: Vec<(SimTime, Timer)>,
}

impl Host for Recorder {
    fn send(&mut self, dst: NodeId, _edge: EdgeParams, msg: Message) {
        self.sends.push((dst, msg));
    }

    fn wake(&mut self, at: SimTime, timer: Timer) {
        self.wakes.push((at, timer));
    }
}

fn insert_state(node: &NodeState, peer: NodeId) -> InsertState {
    node.slots.get(peer).expect("slot installed").insert
}

#[test]
fn both_ends_install_bit_equal_insertion_times() {
    let mut base = Params::builder();
    base.rho(0.01).mu(0.1).insertion_scale(0.02);
    let edge = EdgeKey::new(LEADER, FOLLOWER);
    let cfg = derive_run_config(
        &base.build().unwrap(),
        EstimateMode::default(),
        &EdgeParamsMap::uniform(EdgeParams::default()),
        &[edge],
        2,
    );
    let run = Run {
        params: &cfg.params,
        refresh: cfg.refresh,
        mode: EstimateMode::default(),
    };
    let info = cfg.edge_info[&edge];
    let mut leader = NodeState::new(LEADER, 1.005);
    let mut follower = NodeState::new(FOLLOWER, 0.995);
    let (mut at_leader, mut at_follower) = (Recorder::default(), Recorder::default());
    let found = |peer, generation| Discovered {
        peer,
        info,
        generation,
        oracle_bias: 0.0,
    };

    // Neighbour-up on both ends: only the lower id starts a wait.
    let up = SimTime::from_secs(2.0);
    let staged_l =
        !handlers::neighbor_up(&mut leader, up, found(FOLLOWER, 7), &run, &mut at_leader);
    let up_f = SimTime::from_secs(2.001);
    let staged_f = !handlers::neighbor_up(
        &mut follower,
        up_f,
        found(LEADER, 8),
        &run,
        &mut at_follower,
    );
    assert!(
        staged_l && staged_f,
        "staged insertion installs nothing on the spot"
    );
    assert_eq!(insert_state(&leader, FOLLOWER), InsertState::Pending);
    assert_eq!(insert_state(&follower, LEADER), InsertState::Pending);
    assert!(
        at_follower.wakes.is_empty(),
        "the higher id waits for the offer"
    );
    let (check_at, check) = at_leader.wakes.pop().expect("the lower id leads");
    assert!(matches!(
        check,
        Timer::LeaderCheck {
            peer: FOLLOWER,
            generation: 7,
            ..
        }
    ));
    assert!(check_at > up);

    // A check that arrives before its logical target re-arms itself…
    let early = SimTime::from_secs(2.0005);
    let fired = handlers::on_timer(&mut leader, early, check, &run, &mut at_leader);
    assert_eq!(fired, Fired::Rearmed);
    let (again_at, again) = at_leader.wakes.pop().expect("re-armed");
    assert_eq!(again, check);
    assert!(again_at > early);
    // …and one carrying an earlier incarnation's generation is ignored.
    let Timer::LeaderCheck { target_logical, .. } = check else {
        unreachable!()
    };
    let stale = Timer::LeaderCheck {
        peer: FOLLOWER,
        generation: 6,
        target_logical,
    };
    let fired = handlers::on_timer(&mut leader, again_at, stale, &run, &mut at_leader);
    assert_eq!(fired, Fired::Stale);
    assert_eq!(insert_state(&leader, FOLLOWER), InsertState::Pending);
    assert!(at_leader.sends.is_empty() && at_leader.wakes.is_empty());

    // LeaderCheck at the requested instant: schedule installed, offer sent.
    let fired = handlers::on_timer(&mut leader, again_at, check, &run, &mut at_leader);
    assert_eq!(fired, Fired::Offered);
    let (to, offer) = at_leader.sends.pop().expect("offer sent");
    assert_eq!(to, FOLLOWER);
    assert!(matches!(offer, Message::InsertEdge { .. }));

    // InsertEdge arrives: the follower starts its T + tau wait.
    let arrive = SimTime::from_secs(again_at.as_secs() + 0.004);
    let got = handlers::deliver(
        &mut follower,
        arrive,
        LEADER,
        again_at,
        offer,
        &run,
        &mut at_follower,
    );
    assert_eq!(got, Delivered::Offer { accepted: true });
    assert!(matches!(
        insert_state(&follower, LEADER),
        InsertState::FollowerWait { .. }
    ));
    let (apply_at, apply) = at_follower.wakes.pop().expect("follower waits");
    assert!(matches!(
        apply,
        Timer::FollowerApply {
            peer: LEADER,
            generation: 8,
            ..
        }
    ));
    // A second offer finds the slot no longer `Pending` and is ignored.
    let later = SimTime::from_secs(arrive.as_secs() + 0.001);
    let got = handlers::deliver(
        &mut follower,
        later,
        LEADER,
        again_at,
        offer,
        &run,
        &mut at_follower,
    );
    assert_eq!(got, Delivered::Offer { accepted: false });
    assert!(at_follower.wakes.is_empty());

    // FollowerApply: Lemma 5.5 — both ends hold the same (T0, I), bit for bit.
    let fired = handlers::on_timer(&mut follower, apply_at, apply, &run, &mut at_follower);
    assert_eq!(fired, Fired::Applied);
    let InsertState::Scheduled { t0: lt0, i: li } = insert_state(&leader, FOLLOWER) else {
        panic!("leader not scheduled");
    };
    let InsertState::Scheduled { t0: ft0, i: fi } = insert_state(&follower, LEADER) else {
        panic!("follower not scheduled");
    };
    assert_eq!((lt0.to_bits(), li.to_bits()), (ft0.to_bits(), fi.to_bits()));
    assert!(li > 0.0 && lt0 >= leader.logical());
}
