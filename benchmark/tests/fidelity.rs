//! The benchmark must measure the program `repro` runs, not a lookalike:
//! its builders, with every app decorated, sliced `run_for` and tracing
//! on or off, reproduce the repository's own scenario and testbed runs.
//! The metric lists must match `BENCHMARK.json`.

use banscore::scenario::swarm::{run_swarm, SwarmSpec as ReproSwarmSpec};
use banscore::testbed::{addrs, Testbed, TestbedConfig};
use banscore_benchmark::sim::{self, telemetry_digest, BedSpec, Layout, SwarmSpec};
use banscore_benchmark::trace;
use banscore_benchmark::workloads;
use btc_attack::defamation::PostConnDefamer;
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::sim::{HostConfig, TapFilter};
use btc_netsim::time::{MILLIS, SECS};
use btc_node::node::{NodeConfig, PeerPolicy};

fn small_swarm(workers: usize, traced: bool) -> SwarmSpec {
    SwarmSpec {
        swarm_hosts: 200,
        regions: 5,
        workers,
        dur: 3 * SECS,
        innocents: 4,
        seed: 7,
        swarm_offset: 0,
        sybil_port: 50_000,
        ping_stop: None,
        traced,
    }
}

#[test]
fn swarm_builder_reproduces_the_swarm_scenario_digest() {
    let repro = run_swarm(&ReproSwarmSpec {
        case: "bm-dos",
        swarm_hosts: 200,
        regions: 5,
        workers: 2,
        dur: 3 * SECS,
        innocents: 4,
        seed: 7,
    });
    for (workers, traced, slices) in [(2, false, 1), (2, false, 30), (1, true, 30)] {
        if traced {
            trace::start();
        }
        let mut sw = sim::build_swarm(small_swarm(workers, traced));
        sw.run(3 * SECS / slices, slices);
        let rec = trace::finish();
        let out = sw.outcome();
        assert_eq!(
            out.digest, repro.digest,
            "workers={workers} traced={traced} slices={slices}"
        );
        assert_eq!(out.delivered, repro.delivered);
        assert_eq!(out.target_msgs, repro.target_msgs);
        assert_eq!(out.flood_msgs, repro.flood_msgs);
        assert_eq!(rec.is_some(), traced);
        if let Some(rec) = rec {
            assert!(rec.callbacks() > 0 && rec.top_ns > 0);
        }
    }
}

/// Runs the same testbed twice — once through `Testbed::build` with bare
/// apps and one `run_for`, once through the benchmark's builder with
/// decorated apps and sliced runs — and compares the target's outcome.
fn compare_testbeds(node: NodeConfig, innocents: usize, target_outbound: usize, defamer: bool) {
    let seed = 11;
    let dur = 6 * SECS;
    let flood = FloodConfig {
        payload: FloodPayload::OversizeAddr,
        connections: 2,
        reconnect_on_ban: true,
        sybil_port_start: Layout::TESTBED.sybil_port,
        ..FloodConfig::default()
    };

    let mut tb = Testbed::build(TestbedConfig {
        node: node.clone(),
        feeders: 3,
        innocents,
        target_outbound,
        seed,
        ..TestbedConfig::default()
    });
    tb.sim.add_host(
        addrs::ATTACKER,
        Box::new(Flooder::new(FloodConfig {
            target: tb.target_addr,
            ..flood.clone()
        })),
        HostConfig::default(),
    );
    if defamer {
        let tap = tb.sim.add_tap(TapFilter::Host(addrs::TARGET));
        let mut d = PostConnDefamer::new(tb.target_addr, tb.innocent_ips.clone(), tap);
        d.poll = 100 * MILLIS;
        tb.sim
            .add_host([10, 0, 9, 10], Box::new(d), HostConfig::default());
    }
    tb.sim.run_for(dur);

    for traced in [false, true] {
        let mut bed = sim::build_bed(&BedSpec {
            node: node.clone(),
            feeders: 3,
            innocents,
            target_outbound,
            seed,
            layout: Layout::TESTBED,
            traced,
        });
        bed.add_flooder(&Layout::TESTBED, flood.clone());
        if defamer {
            bed.add_defamer(&Layout::TESTBED, 100 * MILLIS);
        }
        if traced {
            trace::start();
        }
        bed.run(dur / 12, 12);
        let rec = trace::finish();
        let (a, b) = (&tb.target_node().telemetry, &bed.target().telemetry);
        assert_eq!(a.messages, b.messages, "traced={traced}");
        assert_eq!(telemetry_digest(a), telemetry_digest(b), "traced={traced}");
        assert_eq!(tb.sim.delivered_packets(), bed.sim.delivered_packets());
        assert_eq!(tb.sim.host_counters(addrs::TARGET), bed.target_counters());
        let repro_flood = tb
            .sim
            .app::<Flooder>(addrs::ATTACKER)
            .expect("flooder")
            .stats
            .messages_sent;
        assert_eq!(bed.attack_sent().0, repro_flood);
        assert_eq!(rec.is_some(), traced);
    }
}

#[test]
fn testbed_builder_reproduces_a_stock_testbed_run() {
    compare_testbeds(NodeConfig::default(), 0, 0, false);
}

#[test]
fn testbed_builder_reproduces_a_trust_tier_defamation_run() {
    let node = NodeConfig {
        peer_policy: PeerPolicy::TrustTiers,
        ..NodeConfig::default()
    };
    compare_testbeds(node, 6, 3, true);
}

/// `"name": "<value>"` entries of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |v: Vec<(String, &'static str)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    assert_eq!(
        names_in(&json, "end_to_end"),
        names(workloads::end_to_end_names())
    );
    assert_eq!(
        names_in(&json, "per_layer"),
        names(workloads::layer_metric_names())
    );
    assert_eq!(names_in(&json, "workloads"), workloads::WORKLOADS.to_vec());
}
