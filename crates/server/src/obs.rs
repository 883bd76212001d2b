//! Observability for the serving layer.
//!
//! A [`ServerObserver`] is shared by the acceptor, every event-loop shard,
//! and every engine worker. Counters and histograms are sharded
//! relaxed atomics (`tornado-obs`), so the hot request path pays a few
//! nanoseconds per emit; the JSON-lines event sink is disabled unless the
//! operator asks for it. The METRICS admin op and the `serve` command's
//! `--metrics` flag both serialize through [`ServerObserver::snapshot`],
//! which also refreshes the embedded [`StoreObserver`]'s device-health
//! gauges (offline devices, writes rejected while offline).

use crate::health::HealthModel;
use std::sync::{Arc, OnceLock};
use tornado_obs::{
    Counter, EventSink, Gauge, Histogram, Json, SeriesPoint, Snapshot, TimeSeries, Tracer,
};
use tornado_store::{ArchivalStore, StoreObserver};

/// How many periodic samples the server's time-series ring retains.
/// At the default 500 ms interval this is one minute of history.
pub const TIMESERIES_CAPACITY: usize = 120;

/// Per-shard event-loop statistics. One instance per shard, written only
/// by that shard's thread (plus the engine workers' completion handoff),
/// aggregated across shards at snapshot time.
#[derive(Default)]
pub struct LoopStats {
    /// Readiness wakeups (returns from the poller's wait).
    pub wakeups: Counter,
    /// Readiness events delivered, summed over wakeups — events ÷ wakeups
    /// is the loop's batching factor.
    pub events: Counter,
    /// Output flushes that coalesced two or more response frames into one
    /// write syscall (the write-batching win).
    pub batched_writes: Counter,
    /// Output flush syscalls, total.
    pub write_flushes: Counter,
    /// Request frames reassembled and dispatched or answered.
    pub frames_in: Counter,
    /// Response frames queued for output.
    pub responses_out: Counter,
    /// Engine-queue rejections surfaced as BUSY without blocking the loop
    /// (the event-loop backpressure signal).
    pub queue_busy: Counter,
    /// Connections currently owned by this shard.
    pub connections: Gauge,
    /// Frames dispatched to the engine and not yet answered, across this
    /// shard's connections.
    pub inflight: Gauge,
}

impl LoopStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Metrics and events for one server instance.
pub struct ServerObserver {
    /// Structured event sink (disabled by default).
    pub events: EventSink,
    /// Request-scoped span collector (disabled by default).
    pub tracer: Tracer,
    /// Periodic counter samples for windowed rates.
    pub timeseries: TimeSeries,
    /// Connections accepted, cumulative.
    pub connections_opened: Counter,
    /// Connections currently open.
    pub connections_active: Gauge,
    /// Requests admitted to the queue, by op class.
    pub puts: Counter,
    /// GET requests admitted.
    pub gets: Counter,
    /// DELETE requests admitted.
    pub deletes: Counter,
    /// STAT requests admitted.
    pub stats_ops: Counter,
    /// PING / admin requests admitted (fail, revive, metrics).
    pub admin: Counter,
    /// Requests rejected with BUSY (queue at depth — the backpressure
    /// signal).
    pub busy_rejected: Counter,
    /// Requests whose deadline expired before a worker picked them up.
    pub deadline_exceeded: Counter,
    /// Requests answered NOT_FOUND.
    pub not_found: Counter,
    /// GETs answered UNRECOVERABLE.
    pub unrecoverable: Counter,
    /// Malformed frames / requests.
    pub bad_requests: Counter,
    /// Internal errors.
    pub errors: Counter,
    /// GETs that took the degraded path (decoder reconstructed at least
    /// one block, or the plan was recomputed around corruption).
    pub degraded_reads: Counter,
    /// Blocks reconstructed by the decoder across all GETs.
    pub blocks_recovered: Counter,
    /// Retrieval replans across all GETs (a planned block turned out
    /// corrupt or racily lost mid-fetch) — the satellite export of
    /// `GetStats::replans`.
    pub replans: Counter,
    /// Repair-class bytes (check-block fetches) read to serve GETs.
    pub get_repair_bytes: Counter,
    /// Devices contacted by GETs, summed per request.
    pub get_devices_contacted: Counter,
    /// Object payload bytes received via PUT.
    pub bytes_in: Counter,
    /// Object payload bytes served via GET.
    pub bytes_out: Counter,
    /// Point-in-time queue depth (set as jobs are pushed and popped).
    pub queue_depth: Gauge,
    /// High-water queue depth.
    pub queue_depth_peak: Gauge,
    /// Microseconds jobs spent queued before a worker picked them up.
    pub queue_wait_us: Histogram,
    /// PUT service time, microseconds (excluding queue wait).
    pub put_us: Histogram,
    /// GET service time, microseconds (excluding queue wait).
    pub get_us: Histogram,
    /// Service time of everything else, microseconds.
    pub other_us: Histogram,
    /// Device-health gauges shared with the store layer. Behind an `Arc`
    /// so the store itself can hold a clone and refresh the gauges on
    /// fail/replace transitions (not only when a scrub or snapshot runs).
    pub store_obs: Arc<StoreObserver>,
    /// The durability observatory, installed by `serve` when
    /// [`crate::config::HealthConfig::enabled`] is set. Engine workers
    /// answer HEALTH from it; the sampler thread drives its SLO clock.
    pub health: OnceLock<Arc<HealthModel>>,
    /// Per-shard event-loop statistics, installed by `serve`. Until then
    /// (an observer that never served) `server.loop.*` metrics emit as
    /// zeros so dashboards never miss the keys.
    pub loop_shards: OnceLock<Vec<Arc<LoopStats>>>,
}

impl ServerObserver {
    /// An observer with no event output (metrics still accumulate).
    pub fn disabled() -> Self {
        Self {
            events: EventSink::disabled(),
            tracer: Tracer::disabled(),
            timeseries: TimeSeries::new(TIMESERIES_CAPACITY),
            connections_opened: Counter::new(),
            connections_active: Gauge::new(),
            puts: Counter::new(),
            gets: Counter::new(),
            deletes: Counter::new(),
            stats_ops: Counter::new(),
            admin: Counter::new(),
            busy_rejected: Counter::new(),
            deadline_exceeded: Counter::new(),
            not_found: Counter::new(),
            unrecoverable: Counter::new(),
            bad_requests: Counter::new(),
            errors: Counter::new(),
            degraded_reads: Counter::new(),
            blocks_recovered: Counter::new(),
            replans: Counter::new(),
            get_repair_bytes: Counter::new(),
            get_devices_contacted: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            queue_depth: Gauge::new(),
            queue_depth_peak: Gauge::new(),
            queue_wait_us: Histogram::new(),
            put_us: Histogram::new(),
            get_us: Histogram::new(),
            other_us: Histogram::new(),
            store_obs: Arc::new(StoreObserver::disabled()),
            health: OnceLock::new(),
            loop_shards: OnceLock::new(),
        }
    }

    /// Installs the event-loop shards' statistics (at most once; `serve`
    /// calls this before the shards start).
    pub fn install_loop_shards(&self, shards: Vec<Arc<LoopStats>>) {
        let _ = self.loop_shards.set(shards);
    }

    /// Sums a per-shard counter across installed shards (0 when the
    /// event-loop path is not active).
    fn loop_sum(&self, f: impl Fn(&LoopStats) -> u64) -> u64 {
        self.loop_shards
            .get()
            .map_or(0, |shards| shards.iter().map(|s| f(s)).sum())
    }

    /// Sums a per-shard gauge across installed shards.
    fn loop_gauge_sum(&self, f: impl Fn(&LoopStats) -> i64) -> i64 {
        self.loop_shards
            .get()
            .map_or(0, |shards| shards.iter().map(|s| f(s)).sum())
    }

    /// Shard imbalance: max − min connection count across shards (0 when
    /// fewer than two shards are installed). A persistently large value
    /// means the round-robin acceptor is fighting uneven connection
    /// lifetimes.
    fn loop_shard_imbalance(&self) -> i64 {
        let Some(shards) = self.loop_shards.get() else { return 0 };
        if shards.len() < 2 {
            return 0;
        }
        let counts: Vec<i64> = shards.iter().map(|s| s.connections.get()).collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Replaces the event sink.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Replaces the tracer (enables span collection).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Shared, disabled observer (the common construction).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::disabled())
    }

    /// Counts one admitted request by op class.
    pub(crate) fn count_op(&self, kind: &str) {
        match kind {
            "put" => self.puts.inc(),
            "get" => self.gets.inc(),
            "delete" => self.deletes.inc(),
            "stat" => self.stats_ops.inc(),
            _ => self.admin.inc(),
        }
    }

    /// Total requests admitted to the queue.
    pub fn requests_total(&self) -> u64 {
        self.puts.get()
            + self.gets.get()
            + self.deletes.get()
            + self.stats_ops.get()
            + self.admin.get()
    }

    /// Records the queue depth after a push/pop.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
        self.queue_depth_peak.raise(depth as i64);
    }

    /// Takes one time-series sample of the rate-relevant cumulative
    /// counters (the periodic sampler thread and tests call this).
    pub fn sample_timeseries(&self, t_ms: u64) {
        self.timeseries.push(SeriesPoint {
            t_ms,
            values: vec![
                ("server.requests".into(), self.requests_total()),
                ("server.put".into(), self.puts.get()),
                ("server.get".into(), self.gets.get()),
                ("server.busy_rejected".into(), self.busy_rejected.get()),
                ("server.deadline_exceeded".into(), self.deadline_exceeded.get()),
                ("server.get.degraded".into(), self.degraded_reads.get()),
                ("server.get.replans".into(), self.replans.get()),
                ("server.bytes_in".into(), self.bytes_in.get()),
                ("server.bytes_out".into(), self.bytes_out.get()),
                ("server.errors".into(), self.errors.get()),
                // Repair bandwidth: GET-side check-block fetches plus the
                // scrub decode tier's stripe reads. `watch` derives its
                // repair-MB/s column from this.
                (
                    "repair.bytes_read".into(),
                    self.get_repair_bytes.get() + self.store_obs.repair_bytes_read.get(),
                ),
                // Scrub-tier activity: a background scrub loop shows up
                // here as skipped/verified/decoded rates, so `watch` can
                // tell a healthy skip-mostly cadence from one that is
                // re-decoding the archive every pass.
                ("scrub.skipped".into(), self.store_obs.stripes_skipped.get()),
                ("scrub.verified".into(), self.store_obs.stripes_verified.get()),
                ("scrub.decoded".into(), self.store_obs.stripes_decoded.get()),
                // Observatory activity: alert firings and model recomputes
                // (both zero when the observatory is disabled), so `watch`
                // can show burn-rate trouble without a HEALTH round trip.
                (
                    "health.alerts".into(),
                    self.health.get().map_or(0, |m| m.alerts.get()),
                ),
                (
                    "health.recomputes".into(),
                    self.health.get().map_or(0, |m| m.recomputes.get()),
                ),
                // Event-loop activity. connections/inflight are
                // point-in-time gauges, not cumulative counters — `watch`
                // shows them raw, not as rates.
                (
                    "server.loop.connections".into(),
                    self.loop_gauge_sum(|s| s.connections.get()).max(0) as u64,
                ),
                (
                    "server.loop.inflight".into(),
                    self.loop_gauge_sum(|s| s.inflight.get()).max(0) as u64,
                ),
            ],
        });
    }

    /// Writes every server metric into `snap`.
    pub fn fill_snapshot(&self, snap: &mut Snapshot) {
        snap.counter("server.connections_opened", &self.connections_opened)
            .counter_value("server.requests", self.requests_total())
            .counter("server.put", &self.puts)
            .counter("server.get", &self.gets)
            .counter("server.delete", &self.deletes)
            .counter("server.stat", &self.stats_ops)
            .counter("server.admin", &self.admin)
            .counter("server.busy_rejected", &self.busy_rejected)
            .counter("server.deadline_exceeded", &self.deadline_exceeded)
            .counter("server.not_found", &self.not_found)
            .counter("server.unrecoverable", &self.unrecoverable)
            .counter("server.bad_requests", &self.bad_requests)
            .counter("server.errors", &self.errors)
            .counter("server.get.degraded", &self.degraded_reads)
            .counter("server.get.blocks_recovered", &self.blocks_recovered)
            .counter("server.get.replans", &self.replans)
            .counter("server.get.repair_bytes", &self.get_repair_bytes)
            .counter("server.get.devices_contacted", &self.get_devices_contacted)
            .counter("server.bytes_in", &self.bytes_in)
            .counter("server.bytes_out", &self.bytes_out)
            .counter_value("trace.spans_recorded", self.tracer.recorded())
            .counter_value("trace.spans_dropped", self.tracer.dropped())
            // Data-plane volume and scratch-arena effectiveness: process-
            // wide (the server owns its process), so load snapshots show
            // how many bytes moved through the kernels per request mix and
            // whether block reuse is holding.
            .counter_value(
                "kernel.bytes_xored",
                tornado_codec::kernels::metrics().bytes_xored.get(),
            )
            .counter_value(
                "kernel.bytes_muled",
                tornado_codec::kernels::metrics().bytes_muled.get(),
            )
            .counter_value(
                "kernel.bytes_hashed",
                tornado_codec::kernels::metrics().bytes_hashed.get(),
            )
            .counter_value("pool.hit", tornado_codec::pool::metrics().hits.get())
            .counter_value("pool.miss", tornado_codec::pool::metrics().misses.get())
            // Event-loop serving metrics: always present (zeros before
            // `serve` installs the shards) so dashboards never miss keys.
            .counter_value("server.loop.wakeups", self.loop_sum(|s| s.wakeups.get()))
            .counter_value("server.loop.events", self.loop_sum(|s| s.events.get()))
            .counter_value(
                "server.loop.batched_writes",
                self.loop_sum(|s| s.batched_writes.get()),
            )
            .counter_value(
                "server.loop.write_flushes",
                self.loop_sum(|s| s.write_flushes.get()),
            )
            .counter_value("server.loop.frames_in", self.loop_sum(|s| s.frames_in.get()))
            .counter_value(
                "server.loop.responses_out",
                self.loop_sum(|s| s.responses_out.get()),
            )
            .counter_value("server.queue.busy", self.loop_sum(|s| s.queue_busy.get()))
            .gauge_value(
                "server.loop.connections",
                self.loop_gauge_sum(|s| s.connections.get()),
            )
            .gauge_value("server.loop.inflight", self.loop_gauge_sum(|s| s.inflight.get()))
            .gauge_value("server.loop.shard_imbalance", self.loop_shard_imbalance())
            .gauge("server.connections_active", &self.connections_active)
            .gauge("server.queue_depth", &self.queue_depth)
            .gauge("server.queue_depth_peak", &self.queue_depth_peak);
        for (name, h) in [
            ("server.queue_wait_us", &self.queue_wait_us),
            ("server.put_us", &self.put_us),
            ("server.get_us", &self.get_us),
            ("server.other_us", &self.other_us),
        ] {
            if h.count() > 0 {
                snap.histogram(name, h);
            }
        }
        if let Some(model) = self.health.get() {
            snap.counter("health.recomputes", &model.recomputes)
                .counter("health.alerts", &model.alerts);
            if model.recompute_us.count() > 0 {
                snap.histogram("health.recompute_us", &model.recompute_us);
            }
        }
        self.store_obs.fill_snapshot(snap);
    }

    /// Builds a complete `tornado-metrics-v1` snapshot for the METRICS
    /// admin op, refreshing the device-health gauges from `store` first.
    pub fn snapshot(&self, store: &ArchivalStore, elapsed_ms: u64) -> Snapshot {
        self.store_obs.record_device_health(store);
        let mut snap = Snapshot::new("serve", elapsed_ms);
        snap.set("devices", Json::U64(store.num_devices() as u64));
        if !self.timeseries.is_empty() {
            // Extra top-level key: tornado-metrics-v1 validators ignore
            // unknown keys, so old consumers keep parsing these snapshots.
            snap.set("timeseries", self.timeseries.to_json());
        }
        // The cached health document rides along the same way (never a
        // fresh recompute on the metrics path — METRICS must stay cheap).
        if let Some(doc) = self.health.get().and_then(|m| m.cached()) {
            snap.set("health", doc);
        }
        self.fill_snapshot(&mut snap);
        snap
    }
}

impl Default for ServerObserver {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_samples_carry_scrub_tier_counters() {
        let obs = ServerObserver::disabled();
        obs.store_obs.stripes_skipped.add(7);
        obs.store_obs.stripes_verified.add(3);
        obs.store_obs.stripes_decoded.add(1);
        obs.sample_timeseries(100);
        let json = obs.timeseries.to_json();
        let points = tornado_obs::timeseries::points_from_json(&json).unwrap();
        let p = &points[0];
        let value = |k: &str| {
            p.values
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
        };
        assert_eq!(value("scrub.skipped"), Some(7));
        assert_eq!(value("scrub.verified"), Some(3));
        assert_eq!(value("scrub.decoded"), Some(1));
    }

    #[test]
    fn timeseries_samples_carry_repair_and_replan_counters() {
        let obs = ServerObserver::disabled();
        obs.replans.add(2);
        obs.get_repair_bytes.add(4096);
        obs.store_obs.repair_bytes_read.add(1024);
        obs.sample_timeseries(50);
        let points =
            tornado_obs::timeseries::points_from_json(&obs.timeseries.to_json()).unwrap();
        let p = &points[0];
        let value = |k: &str| {
            p.values
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
        };
        assert_eq!(value("server.get.replans"), Some(2));
        assert_eq!(
            value("repair.bytes_read"),
            Some(5120),
            "GET-side and scrub-side repair bytes combine"
        );
    }

    #[test]
    fn snapshot_carries_request_counters_and_validates() {
        let obs = ServerObserver::disabled();
        obs.count_op("put");
        obs.count_op("get");
        obs.count_op("get");
        obs.count_op("metrics");
        obs.degraded_reads.inc();
        obs.get_us.record(120);
        obs.record_queue_depth(5);
        obs.record_queue_depth(2);

        let mut snap = Snapshot::new("serve", 10);
        obs.fill_snapshot(&mut snap);
        let doc = tornado_obs::json::parse(&snap.to_pretty()).unwrap();
        tornado_obs::snapshot::validate(&doc).unwrap();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("server.requests").unwrap().as_u64(), Some(4));
        assert_eq!(counters.get("server.get").unwrap().as_u64(), Some(2));
        assert_eq!(counters.get("server.get.degraded").unwrap().as_u64(), Some(1));
        // The repair-cost accounting layer's counters are always present
        // (zero on an idle server), so dashboards never miss the key.
        for name in [
            "server.get.replans",
            "server.get.repair_bytes",
            "server.get.devices_contacted",
            "repair.bytes_read",
            "repair.blocks_fetched",
            "repair.devices_contacted",
        ] {
            assert_eq!(counters.get(name).unwrap().as_u64(), Some(0), "{name}");
        }
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("server.queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(gauges.get("server.queue_depth_peak").unwrap().as_u64(), Some(5));
        // The data-plane counters are process-wide and monotone; the
        // snapshot must carry them even when this process has not yet
        // encoded anything.
        for name in [
            "kernel.bytes_xored",
            "kernel.bytes_muled",
            "kernel.bytes_hashed",
            "pool.hit",
            "pool.miss",
        ] {
            assert!(counters.get(name).unwrap().as_u64().is_some(), "{name}");
        }
    }
}
