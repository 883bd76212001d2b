//! The traced run's second step: the TCP run's op stream replayed
//! in-process against an `ArchivalStore` with the same backend and the
//! same failed devices, with spans and counter deltas around each call
//! into the store and codec layers.

use crate::gen::{Key, Kind, Mix, Op, Stream};
use crate::stats::{self, Spans};
use crate::tcp::Inputs;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tornado_codec::{Codec, EncodedStripe};
use tornado_graph::Graph;
use tornado_obs::Json;
use tornado_store::{ArchivalStore, BackendKind, DurableConfig, GetStats};

/// Track (trace id) of the replay's spans.
const TRACK: u64 = 100;

/// Per-call samples and counter totals gathered by the replay.
#[derive(Default)]
pub struct Layers {
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub put_us: Vec<f64>,
    pub get_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub gets: Vec<GetStats>,
    /// `get_us` minus the planner, fetch and decode times it reports.
    pub get_unattributed_us: Vec<f64>,
    /// Durable put minus memory put of the same payload (`Ingest`).
    pub persist_us: Vec<f64>,
    pub fsyncs: u64,
    pub journal_appends: u64,
    pub encode_bytes: u64,
    pub encode_s: f64,
    pub bytes_xored: u64,
    pub bytes_hashed: u64,
}

fn kernel_counts() -> (u64, u64) {
    let m = tornado_codec::kernels::metrics();
    (m.bytes_xored.get(), m.bytes_hashed.get())
}

fn backend_counts() -> (u64, u64) {
    let m = tornado_store::backend::metrics();
    (m.fsyncs.get(), m.journal_appends.get())
}

/// Replays `order` (one connection index per completed TCP operation)
/// through fresh per-connection streams.
pub fn replay(
    inputs: &Inputs,
    graph: &Graph,
    order: &[u32],
    work: &Path,
    spans: &mut Spans,
) -> Result<Layers, String> {
    let store = match inputs.mix {
        Mix::Ingest => {
            let cfg = DurableConfig::new(work.join("replay-data"), BackendKind::Segment);
            ArchivalStore::open(graph.clone(), cfg)
                .map_err(|e| format!("replay open: {e}"))?
                .0
        }
        Mix::Degraded => ArchivalStore::new(graph.clone()),
    };
    // The reference a durable put is compared with: the same payload put
    // into a memory store.
    let memory = (inputs.mix == Mix::Ingest).then(|| ArchivalStore::new(graph.clone()));
    let mut prefill_ids = Vec::with_capacity(inputs.prefill.len());
    for (i, payload) in inputs.prefill.iter().enumerate() {
        prefill_ids.push(
            store
                .put(&format!("prefill-{i}"), payload)
                .map_err(|e| format!("replay prefill: {e}"))?,
        );
    }
    for &d in &inputs.failed {
        store
            .fail_device(d as usize)
            .map_err(|e| format!("replay fail {d}: {e}"))?;
    }

    let codec = Codec::new(graph);
    let mut streams: Vec<Stream> = (0..crate::tcp::CONNECTIONS)
        .map(|c| inputs.stream(c))
        .collect();
    // Own keys map to (store id, memory-store id, payload).
    let mut own: HashMap<Key, (u64, u64, Vec<u8>)> = HashMap::new();
    let mut l = Layers::default();
    for &conn in order {
        let op = streams[conn as usize].next_op();
        l.ops += 1;
        let root = spans.next_id();
        let root_start = Instant::now();
        let kind = op.kind();
        let (k0, b0) = (kernel_counts(), backend_counts());
        let result: Result<(), String> = match op {
            Op::Put { key, payload } => (|| {
                let name = format!("replay-{}", l.ops);
                let t = Instant::now();
                let stripe =
                    EncodedStripe::from_object(&codec, &payload).map_err(|e| e.to_string())?;
                l.encode_s += spans.child(TRACK, root, "codec.from_object", t, vec![]) / 1e6;
                l.encode_bytes += payload.len() as u64;
                black_box(stripe);
                let (k1, b1) = (kernel_counts(), backend_counts());
                let t = Instant::now();
                let id = store
                    .put(&name, &payload)
                    .map_err(|e| format!("put: {e}"))?;
                let us = spans.child(TRACK, root, "store.put", t, vec![]);
                let (k2, b2) = (kernel_counts(), backend_counts());
                l.put_us.push(us);
                add_deltas(&mut l, k1, k2, b1, b2);
                let mut mem_id = 0;
                if let Some(mem) = &memory {
                    let t = Instant::now();
                    mem_id = mem
                        .put(&name, &payload)
                        .map_err(|e| format!("memory put: {e}"))?;
                    let mem_us = spans.child(TRACK, root, "store.put.memory", t, vec![]);
                    l.persist_us.push(us - mem_us);
                }
                if inputs.mix == Mix::Ingest {
                    own.insert(key, (id, mem_id, payload));
                }
                Ok(())
            })(),
            Op::Get(key) => (|| {
                let (id, want) = match key {
                    Key::Prefill(i) => (prefill_ids[i], &inputs.prefill[i]),
                    Key::Own { .. } => {
                        let (id, _, p) = own.get(&key).ok_or("get of an object never stored")?;
                        (*id, p)
                    }
                };
                let t = Instant::now();
                let (got, st) = store
                    .get_detailed(id)
                    .map_err(|e| format!("get {id}: {e}"))?;
                let us = spans.child(
                    TRACK,
                    root,
                    "store.get_detailed",
                    t,
                    vec![
                        ("blocks_fetched", Json::U64(st.blocks_fetched as u64)),
                        ("blocks_recovered", Json::U64(st.blocks_recovered as u64)),
                    ],
                );
                let (k1, b1) = (kernel_counts(), backend_counts());
                add_deltas(&mut l, k0, k1, b0, b1);
                l.get_us.push(us);
                l.get_unattributed_us
                    .push(us - (st.plan_us + st.fetch_us + st.decode_us) as f64);
                l.gets.push(st);
                if got != *want {
                    return Err(format!("get {id}: payload mismatch"));
                }
                Ok(())
            })(),
            Op::Delete(key) => (|| {
                let (id, mem_id, _) = own.remove(&key).ok_or("delete of an object never stored")?;
                let t = Instant::now();
                store.delete(id).map_err(|e| format!("delete {id}: {e}"))?;
                let us = spans.child(TRACK, root, "store.delete", t, vec![]);
                let (k1, b1) = (kernel_counts(), backend_counts());
                add_deltas(&mut l, k0, k1, b0, b1);
                l.delete_us.push(us);
                if let Some(mem) = &memory {
                    mem.delete(mem_id)
                        .map_err(|e| format!("memory delete: {e}"))?;
                }
                Ok(())
            })(),
        };
        let name = match kind {
            Kind::Put => "replay.put",
            Kind::Get => "replay.get",
            Kind::Delete => "replay.delete",
        };
        spans.record(TRACK, root, None, name, root_start, vec![]);
        if let Err(e) = result {
            l.failed += 1;
            l.errors.push(format!("replay: {e}"));
        }
    }
    Ok(l)
}

fn add_deltas(l: &mut Layers, k0: (u64, u64), k1: (u64, u64), b0: (u64, u64), b1: (u64, u64)) {
    l.bytes_xored += k1.0 - k0.0;
    l.bytes_hashed += k1.1 - k0.1;
    l.fsyncs += b1.0 - b0.0;
    l.journal_appends += b1.1 - b0.1;
}

impl Layers {
    /// The per-layer metrics, into `report`. Times are shares of
    /// `client_us`, the time clients waited over TCP for the same ops;
    /// counts are per replayed op.
    pub fn report(&self, client_us: f64, report: &mut stats::Report) {
        // Folded from +0.0: an empty `Sum` of floats is -0.0.
        let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
        let share = |us: f64| us / client_us;
        let ops = self.ops.max(1) as f64;
        let (put, get, delete) = (sum(&self.put_us), sum(&self.get_us), sum(&self.delete_us));
        report.set("server.time_frac", 1.0 - share(put + get + delete), "frac");
        report.set("store.put.time_frac", share(put), "frac");
        report.set("store.get.time_frac", share(get), "frac");
        report.set("store.delete.time_frac", share(delete), "frac");
        let phase = |f: fn(&GetStats) -> u64| {
            self.gets
                .iter()
                .map(|g| f(g) as f64)
                .fold(0.0, |a, b| a + b)
        };
        report.set("store.get.plan_frac", share(phase(|g| g.plan_us)), "frac");
        report.set("store.get.fetch_frac", share(phase(|g| g.fetch_us)), "frac");
        report.set(
            "store.get.decode_frac",
            share(phase(|g| g.decode_us)),
            "frac",
        );
        report.set(
            "store.get.unattributed_frac",
            share(sum(&self.get_unattributed_us)),
            "frac",
        );
        report.set(
            "store.put.persist_frac",
            share(sum(&self.persist_us)),
            "frac",
        );
        let per_op = |f: fn(&GetStats) -> u64| phase(f) / ops;
        report.set(
            "store.get.blocks_fetched_per_op",
            per_op(|g| g.blocks_fetched as u64),
            "count",
        );
        report.set(
            "store.get.blocks_recovered_per_op",
            per_op(|g| g.blocks_recovered as u64),
            "count",
        );
        report.set(
            "store.get.repair_bytes_per_op",
            per_op(|g| g.repair_bytes_read),
            "B",
        );
        report.set(
            "store.get.replans_per_op",
            per_op(|g| g.replans as u64),
            "count",
        );
        report.set(
            "store.get.degraded_frac",
            per_op(|g| g.degraded() as u64),
            "frac",
        );
        report.set("store.put.fsyncs_per_op", self.fsyncs as f64 / ops, "count");
        report.set(
            "store.put.journal_appends_per_op",
            self.journal_appends as f64 / ops,
            "count",
        );
        report.set("codec.encode_frac", share(self.encode_s * 1e6), "frac");
        report.set(
            "codec.bytes_xored_per_op",
            self.bytes_xored as f64 / ops,
            "B",
        );
        report.set(
            "codec.bytes_hashed_per_op",
            self.bytes_hashed as f64 / ops,
            "B",
        );

        // The same calls in absolute terms, for readers.
        report.quantiles("store.put", self.put_us.clone(), "us");
        report.quantiles("store.get_detailed", self.get_us.clone(), "us");
        report.quantiles("store.delete", self.delete_us.clone(), "us");
        report.quantiles(
            "store.put persist (durable - memory)",
            self.persist_us.clone(),
            "us",
        );
        if self.encode_s > 0.0 {
            report.note(format!(
                "codec from_object: {:.1} MB/s over {} payload bytes",
                self.encode_bytes as f64 / 1e6 / self.encode_s,
                self.encode_bytes
            ));
        }
    }
}
