//! Connection-count scaling bench for the server; writes
//! `BENCH_server_scale.json` at the repository root.
//!
//! Two sections, both driven by the one load driver:
//!
//! * `sweep` — an open-loop GET stream at a fixed 1,000 ops/s offered
//!   rate, spread over 64 → 10,000 concurrent connections by the driver's
//!   single reactor thread. Fixed load + growing connection count
//!   isolates the cost of *holding and serving sockets*; the deliverable
//!   is the p99-vs-connections curve (latency measured from scheduled
//!   arrival, so backlog can never hide as reduced throughput).
//! * `tcp_vs_in_process_64` — the same closed-loop mix at 64
//!   connections over TCP, and driven straight into the store by 64
//!   threads through the driver's op picker, in the same run.
//!
//! Floors (asserted here, not just reported):
//!
//! * the sweep establishes ≥ 10,000 concurrent connections (≥ 1,024
//!   under `--quick`) with zero errors, zero unanswered requests and zero
//!   payload mismatches (every GET is verified);
//! * p99 at every point stays bounded (≤ 2 s — an open-loop stream that
//!   backlogs past that has stopped keeping up);
//! * TCP ops/s at 64 connections ≥ [`TCP_FLOOR`] × in-process ops/s.
//!
//! The 10k sweep point needs two sockets per connection, which does not
//! fit one process's fd budget under a 20k hard cap — the sweep server
//! therefore runs as a separate process (the sibling `tornado` binary;
//! build the workspace first). Usage: `cargo run --release -p
//! tornado-bench --bin bench_server_scale`. `--check` verifies floors
//! without rewriting the JSON; `--quick` is the CI smoke (smaller sweep,
//! JSON schema-validated in memory but never written). Debug builds
//! refuse to write since their numbers are meaningless.

use tornado_bench::experiments::server_scale::{self, OVERHEAD_CONNECTIONS};

/// TCP closed-loop ops/s at 64 connections as a share of the same mix
/// run in process by 64 threads (see EXPERIMENTS.md for the runs it was
/// set from).
const TCP_FLOOR: f64 = 0.5;

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 42u64;

    let r = server_scale::measure(quick, seed);

    println!(
        "server scale: {} sweep server, {} shards, {} build",
        r.sweep_server,
        r.shards,
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!(
        "  {:>11}  {:>10}  {:>9}  {:>9}  {:>6}  {:>6}  {:>6}",
        "connections", "ops/s", "p50 us", "p99 us", "busy", "shed", "errors"
    );
    for p in &r.sweep {
        println!(
            "  {:>11}  {:>10.0}  {:>9}  {:>9}  {:>6}  {:>6}  {:>6}",
            p.connected, p.achieved_rate, p.p50_us, p.p99_us, p.busy, p.shed, p.errors
        );
    }
    println!(
        "  {OVERHEAD_CONNECTIONS} connections closed loop: TCP {:.0} ops/s (p99 {} us)   in process {:.0} ops/s (p99 {} us)   ratio {:.2}",
        r.tcp.ops_per_sec,
        r.tcp.p99_us,
        r.in_process.ops_per_sec,
        r.in_process.p99_us,
        r.tcp_ratio()
    );

    let conn_floor = if quick { 1_024 } else { 10_000 };
    let p99_ceiling_us = 2_000_000u64;
    let max_conns = r.max_connections();
    let worst_p99 = r.sweep.iter().map(|p| p.p99_us).max().unwrap_or(0);
    let target_met =
        max_conns >= 10_000 && worst_p99 <= p99_ceiling_us && r.tcp_ratio() >= TCP_FLOOR;
    println!(
        "  target: >=10k conns, p99 <= {p99_ceiling_us} us, TCP >= {TCP_FLOOR}x in process at {OVERHEAD_CONNECTIONS} conns -> {}",
        if target_met { "MET" } else { "NOT MET" }
    );

    // Hand-formatted JSON (the workspace deliberately has no serde); the
    // parser round-trip below keeps the formatting honest.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"server_scale\",\n");
    json.push_str("  \"graph\": \"tornado_graph_1 (96 nodes, 48 data)\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    ));
    json.push_str(&format!("  \"sweep_server\": \"{}\",\n", r.sweep_server));
    json.push_str(&format!("  \"shards\": {},\n", r.shards));
    json.push_str("  \"discipline\": \"open_loop_1000_ops_per_sec_scheduled_latency\",\n");
    json.push_str("  \"sweep\": [\n");
    for (i, p) in r.sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"connections\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"busy\": {}, \"shed\": {}, \"errors\": {}, \"unanswered\": {}, \"payload_mismatches\": {}}}{}\n",
            p.connected,
            p.achieved_rate,
            p.p50_us,
            p.p99_us,
            p.busy,
            p.shed,
            p.errors,
            p.unanswered,
            p.payload_mismatches,
            if i + 1 < r.sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"tcp_vs_in_process_64\": {{\"tcp_ops_per_sec\": {:.1}, \"tcp_p50_us\": {}, \"tcp_p99_us\": {}, \"in_process_ops_per_sec\": {:.1}, \"in_process_p50_us\": {}, \"in_process_p99_us\": {}, \"ratio\": {:.3}, \"floor\": {TCP_FLOOR}}},\n",
        r.tcp.ops_per_sec,
        r.tcp.p50_us,
        r.tcp.p99_us,
        r.in_process.ops_per_sec,
        r.in_process.p50_us,
        r.in_process.p99_us,
        r.tcp_ratio()
    ));
    json.push_str(&format!(
        "  \"target\": \">=10000 concurrent connections with bounded p99 and every GET verified; TCP >= {TCP_FLOOR}x in process at 64 connections\",\n"
    ));
    json.push_str(&format!("  \"target_met\": {target_met}\n"));
    json.push_str("}\n");

    // Schema self-check: the JSON must parse and carry every field the
    // docs (EXPERIMENTS.md) and CI rely on.
    let doc = tornado_obs::json::parse(&json).expect("bench JSON must parse");
    for field in ["bench", "sweep_server", "shards", "sweep", "tcp_vs_in_process_64", "target_met"] {
        assert!(doc.get(field).is_some(), "bench JSON is missing the '{field}' field");
    }
    let sweep_rows = match doc.get("sweep") {
        Some(tornado_obs::Json::Arr(rows)) => rows.len(),
        _ => 0,
    };
    assert_eq!(sweep_rows, r.sweep.len(), "sweep rows survive the JSON round-trip");

    for p in &r.sweep {
        assert_eq!(
            p.connected, p.connections,
            "only {} of {} connections established",
            p.connected, p.connections
        );
        assert_eq!(p.errors, 0, "sweep at {} conns hit {} errors", p.connected, p.errors);
        assert_eq!(
            p.unanswered, 0,
            "sweep at {} conns left {} requests unanswered",
            p.connected, p.unanswered
        );
        assert_eq!(p.payload_mismatches, 0, "sweep GETs must verify byte-for-byte");
        assert!(
            p.p99_us <= p99_ceiling_us,
            "p99 {} us at {} conns exceeds the {} us ceiling",
            p.p99_us,
            p.connected,
            p99_ceiling_us
        );
    }
    assert!(
        max_conns >= conn_floor,
        "sweep reached {max_conns} concurrent connections — floor is {conn_floor}"
    );
    assert!(
        r.tcp_ratio() >= TCP_FLOOR,
        "TCP at {:.0} ops/s is {:.2}x in process ({:.0} ops/s) — floor is {TCP_FLOOR}x",
        r.tcp.ops_per_sec,
        r.tcp_ratio(),
        r.in_process.ops_per_sec
    );

    if quick {
        println!("--quick: connection, latency, and TCP/in-process floors hold, JSON schema valid");
        return;
    }
    if cfg!(debug_assertions) {
        println!("debug build: numbers are meaningless, not writing JSON");
        return;
    }
    if check_only {
        println!("--check: floors hold, JSON left untouched");
        return;
    }

    // The bin lives two levels below the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server_scale.json");
    std::fs::write(out, json).expect("write BENCH_server_scale.json");
    println!("wrote {out}");
}
