//! End-to-end integration: the §3 pipeline feeds the archival store, the
//! store survives its certified failures, the scrubber restores
//! redundancy, and the reliability model consumes the measured profile.

use tornado::analysis::reliability::system_failure_probability;
use tornado::analysis::AdjustConfig;
use tornado::core::pipeline::{build_profiled_graph, PipelineConfig};
use tornado::gen::TornadoParams;
use tornado::sim::{monte_carlo_profile, MonteCarloConfig};
use tornado::store::scrubber::scrub;
use tornado::store::{ArchivalStore, StoreError};

/// 32-node pipeline configuration (debug-affordable exhaustive sweeps).
fn pipeline_cfg(seed: u64) -> PipelineConfig {
    PipelineConfig {
        params: TornadoParams {
            num_data: 16,
            ..TornadoParams::default()
        },
        screen_size: 2,
        screen_attempts: 256,
        adjust: AdjustConfig {
            target_first_failure: 3,
            max_iterations: 16,
            collect_cap: 128,
            candidate_budget: 128,
        },
        seed,
    }
}

#[test]
fn pipeline_to_store_to_recovery() {
    let profiled = build_profiled_graph(&pipeline_cfg(5)).expect("pipeline");
    let tolerance = profiled.verified_loss_tolerance;
    assert!(tolerance >= 1);

    let store = ArchivalStore::new(profiled.graph.clone());
    let payloads: Vec<Vec<u8>> = (0..5u8)
        .map(|i| (0..100 * (i as usize + 1)).map(|j| (j as u8).wrapping_mul(i + 1)).collect())
        .collect();
    let ids: Vec<_> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| store.put(&format!("obj-{i}"), p).expect("put"))
        .collect();

    // Fail exactly the certified tolerance; everything must read back.
    for d in 0..tolerance {
        store.fail_device(d * 7 % store.num_devices()).expect("fail");
    }
    for (id, payload) in ids.iter().zip(&payloads) {
        assert_eq!(&store.get(*id).expect("degraded get"), payload);
    }

    // Replace drives, scrub, verify full redundancy.
    for d in store.offline_devices() {
        store.replace_device(d).expect("replace");
    }
    let outcome = scrub(&store, tolerance + 1, true);
    assert!(outcome.blocks_repaired > 0);
    let clean = scrub(&store, tolerance + 1, false);
    assert_eq!(clean.degraded_count(), 0);
}

#[test]
fn profile_feeds_reliability_model() {
    let profiled = build_profiled_graph(&pipeline_cfg(6)).expect("pipeline");
    let n = profiled.graph.num_nodes();
    let profile = monte_carlo_profile(
        &profiled.graph,
        &MonteCarloConfig {
            trials_per_k: 2_000,
            seed: 1,
            ks: None,
        },
    );
    let p_tornado = system_failure_probability(&profile, 0.01);
    assert!((0.0..1.0).contains(&p_tornado));

    // Striping over the same device count must be far worse.
    let mut striped = tornado::sim::FailureProfile::new(n);
    for k in 1..=n {
        striped.record(k, 1, 1, true);
    }
    let p_striped = system_failure_probability(&striped, 0.01);
    assert!(
        p_striped > 10.0 * p_tornado,
        "striping {p_striped} vs tornado {p_tornado}"
    );
}

#[test]
fn losses_beyond_tolerance_are_reported_not_corrupted() {
    let profiled = build_profiled_graph(&pipeline_cfg(7)).expect("pipeline");
    let store = ArchivalStore::new(profiled.graph.clone());
    let id = store.put("x", b"precious").expect("put");
    // Kill a whole critical cone: the data node's device plus every check
    // device transitively above it (rotation is 0 for the first object).
    let mut cone = vec![0u32];
    let mut frontier = vec![0u32];
    while let Some(v) = frontier.pop() {
        for &c in profiled.graph.checks_of(v) {
            if !cone.contains(&c) {
                cone.push(c);
                frontier.push(c);
            }
        }
    }
    for &d in &cone {
        store.fail_device(d as usize).expect("fail");
    }
    match store.get(id) {
        Err(StoreError::Unrecoverable { lost_blocks, .. }) => {
            assert!(lost_blocks.contains(&0));
        }
        Ok(_) => panic!("read succeeded with the entire recovery cone gone"),
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn catalog_graph_runs_the_whole_stack() {
    // The certified 96-node catalog graph through store + scrub + fetch
    // accounting in one pass.
    let store = ArchivalStore::new(tornado::core::catalog::tornado_graph_3());
    let id = store.put("big", &vec![9u8; 10_000]).expect("put");
    for d in [1usize, 30, 60, 90] {
        store.fail_device(d).expect("fail");
    }
    let (payload, stats) = store.get_detailed(id).expect("get");
    assert_eq!(payload.len(), 10_000);
    assert!(stats.blocks_fetched <= 96);
    let health = scrub(&store, 5, false);
    assert_eq!(health.degraded_count(), 1);
    assert!(health.stripes[0].recoverable);
}
