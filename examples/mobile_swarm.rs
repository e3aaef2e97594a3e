//! Gradient synchronization in a mobile swarm.
//!
//! Twelve nodes wander a unit square under random-waypoint mobility; radio
//! links appear and disappear with distance (with hysteresis). The paper's
//! model was built for exactly this: links churn arbitrarily, yet the
//! algorithm keeps currently-adjacent nodes tightly synchronized while the
//! global skew stays bounded.
//!
//! The walk parameters live in the registry scenario `mobile-swarm`
//! (`scenarios/mobile-swarm.scn`); this example just replays and narrates
//! it.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example mobile_swarm
//! ```

use gradient_clock_sync::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = registry::find("mobile-swarm").expect("built-in scenario");
    // Schedule generation is deterministic per seed, so inspecting the
    // script here and letting build() compile its own copy below yields
    // the exact same link events.
    let schedule = spec.schedule(23)?;
    println!(
        "mobile swarm: {} nodes, {} scripted link events\n",
        schedule.node_count(),
        schedule.events().len()
    );
    let mut sim = spec.build(23)?;

    println!("   t    links   global skew   worst link skew");
    let end = spec.end_secs();
    let steps = (end / 10.0).floor() as u32;
    for step in 0..=steps {
        let t = f64::from(step) * 10.0;
        sim.run_until_secs(t);
        let links = sim.undirected_edges().count();
        println!(
            "{:>5.0}s  {:>5}   {:>10.6}s   {:>10.6}s",
            t,
            links,
            sim.snapshot().global_skew(),
            local_skew(&sim),
        );
    }

    let stats = sim.stats();
    println!(
        "\n{} messages sent, {} delivered, {} dropped by link churn;",
        stats.messages_sent, stats.messages_delivered, stats.messages_dropped
    );
    println!(
        "{} edge removals detected, {} insertions scheduled.",
        stats.edge_removals, stats.insertions_scheduled
    );
    Ok(())
}
