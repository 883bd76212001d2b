//! Observability hooks for the archival store.
//!
//! A [`StoreObserver`] collects what operators of the simulated archive
//! care about between scrub passes: how long a cycle took, how many
//! stripes are degraded or urgent right now (gauges — point-in-time, not
//! cumulative), how many blocks repair has rewritten and what that repair
//! read (counters — cumulative), and the device pool's health. Every
//! [`ArchivalStore`] owns one, disabled until
//! [`ArchivalStore::set_observer`] replaces it; the disabled observer
//! costs one branch per emit and a handful of relaxed stores per scrub.

use tornado_codec::DecodeMetrics;
use tornado_obs::{Counter, EventSink, Gauge, Histogram, Json, Snapshot, SpanTimer};

use crate::scrubber::ScrubOutcome;
use crate::store::ArchivalStore;

/// Observability bundle a store records its scrub passes and device
/// transitions into.
pub struct StoreObserver {
    /// Structured event sink (disabled by default).
    pub events: EventSink,
    /// Scrub cycle wall time, microseconds.
    pub scrub_cycle_us: Histogram,
    /// Scrub passes completed.
    pub scrub_cycles: Counter,
    /// Degraded stripes seen by the most recent scrub.
    pub degraded: Gauge,
    /// Urgent stripes (margin ≤ 1) seen by the most recent scrub.
    pub urgent: Gauge,
    /// Blocks rewritten by repair, cumulative.
    pub blocks_repaired: Counter,
    /// Stripes the incremental skip tier never touched, cumulative.
    pub stripes_skipped: Counter,
    /// Stripes fully checksum-verified (and intact), cumulative.
    pub stripes_verified: Counter,
    /// Stripes that needed the full read + decode tier, cumulative.
    pub stripes_decoded: Counter,
    /// Devices currently offline (point-in-time).
    pub devices_offline: Gauge,
    /// Writes rejected by offline devices across the pool (point-in-time
    /// sum of [`crate::device::DeviceStats::failed_writes`]).
    pub device_failed_writes: Gauge,
    /// Backend I/O failures across the pool (point-in-time sum of
    /// [`crate::device::DeviceStats::io_errors`]) — media trouble, as
    /// opposed to offline rejections.
    pub device_io_errors: Gauge,
    /// Bytes read to feed recoveries (scrub decode-tier stripe reads),
    /// cumulative — the repair-bandwidth headline number.
    pub repair_bytes_read: Counter,
    /// Blocks those repair reads fetched, cumulative.
    pub repair_blocks_fetched: Counter,
    /// Devices contacted by recoveries, summed per recovery (a device
    /// serving two recoveries counts twice), cumulative.
    pub repair_devices_contacted: Counter,
    /// Recovery-schedule depth per decoded recovery (log2 histogram).
    pub repair_depth: Histogram,
    /// Bytes read from devices across the pool, any class (point-in-time
    /// sum of [`crate::device::DeviceStats::bytes_read`]).
    pub device_bytes_read: Gauge,
    /// Repair-class bytes read across the pool (point-in-time sum of
    /// [`crate::device::DeviceStats::bytes_repair_read`]).
    pub device_bytes_repair_read: Gauge,
    /// Peeling-kernel counters drained from scrub decodes. Each
    /// scrub worker records into its own decoder and drains here at stripe
    /// boundaries; summation commutes, so the totals are independent of
    /// which worker scrubbed which stripe.
    pub decode: DecodeMetrics,
}

impl StoreObserver {
    /// An observer with no event output (metrics still accumulate, at
    /// negligible cost).
    pub fn disabled() -> Self {
        Self {
            events: EventSink::disabled(),
            scrub_cycle_us: Histogram::new(),
            scrub_cycles: Counter::new(),
            degraded: Gauge::new(),
            urgent: Gauge::new(),
            blocks_repaired: Counter::new(),
            stripes_skipped: Counter::new(),
            stripes_verified: Counter::new(),
            stripes_decoded: Counter::new(),
            devices_offline: Gauge::new(),
            device_failed_writes: Gauge::new(),
            device_io_errors: Gauge::new(),
            repair_bytes_read: Counter::new(),
            repair_blocks_fetched: Counter::new(),
            repair_devices_contacted: Counter::new(),
            repair_depth: Histogram::new(),
            device_bytes_read: Gauge::new(),
            device_bytes_repair_read: Gauge::new(),
            decode: DecodeMetrics::new(),
        }
    }

    /// Records one recovery's cost into the repair counters and depth
    /// histogram. Zero costs (nothing was read) are not recorded — a
    /// skipped or in-place-verified stripe is not a recovery.
    pub fn record_repair_cost(&self, cost: &crate::retrieval::RepairCost) {
        if cost.is_zero() {
            return;
        }
        self.repair_bytes_read.add(cost.bytes_read);
        self.repair_blocks_fetched.add(cost.blocks_fetched);
        self.repair_devices_contacted.add(cost.devices_contacted);
        self.repair_depth.record(cost.recovery_depth);
    }

    /// Refreshes the device-pool gauges from the store: offline device
    /// count and the pool-wide total of writes rejected while offline.
    pub fn record_device_health(&self, store: &ArchivalStore) {
        self.devices_offline.set(store.offline_devices().len() as i64);
        let mut failed_writes = 0u64;
        let mut bytes_read = 0u64;
        let mut bytes_repair = 0u64;
        let mut io_errors = 0u64;
        for d in (0..store.num_devices()).filter_map(|d| store.device(d).ok()) {
            let s = d.stats();
            failed_writes += s.failed_writes;
            bytes_read += s.bytes_read;
            bytes_repair += s.bytes_repair_read;
            io_errors += s.io_errors;
        }
        self.device_failed_writes.set(failed_writes as i64);
        self.device_bytes_read.set(bytes_read as i64);
        self.device_bytes_repair_read.set(bytes_repair as i64);
        self.device_io_errors.set(io_errors as i64);
    }

    /// Records a completed recovery-on-open: emits a `recovery` event
    /// with the full [`crate::durable::RecoveryReport`]. The `backend.*`
    /// counters the recovery bumped are process-wide and flow into every
    /// snapshot via [`StoreObserver::fill_snapshot`].
    pub fn record_recovery(&self, report: &crate::durable::RecoveryReport) {
        self.events.emit(
            "recovery",
            &[
                ("duration_us", Json::U64(report.duration_us)),
                ("journal_records", Json::U64(report.journal_records as u64)),
                ("torn_tail", Json::Bool(report.torn_tail)),
                ("committed_puts", Json::U64(report.committed_puts as u64)),
                ("rolled_back", Json::U64(report.rolled_back as u64)),
                ("deletes_replayed", Json::U64(report.deletes_replayed as u64)),
                ("invalid_sidecars", Json::U64(report.invalid_sidecars as u64)),
                ("objects", Json::U64(report.objects as u64)),
            ],
        );
    }

    /// Replaces the event sink.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Records one completed scrub pass: cycle span, health gauges, repair
    /// counters, and a `scrub_cycle` event.
    pub(crate) fn record_scrub(&self, outcome: &ScrubOutcome, elapsed_us: u64, repair: bool) {
        self.scrub_cycles.inc();
        self.degraded.set(outcome.degraded_count() as i64);
        self.urgent.set(outcome.urgent_count() as i64);
        self.blocks_repaired.add(outcome.blocks_repaired as u64);
        self.stripes_skipped.add(outcome.skipped_count() as u64);
        self.stripes_verified.add(outcome.verified_count() as u64);
        self.stripes_decoded.add(outcome.decoded_count() as u64);
        // Each decoded stripe is one recovery: its cost lands in the
        // repair counters and its depth in the histogram.
        for (cost, action) in outcome.costs.iter().zip(&outcome.actions) {
            if *action == crate::scrubber::ScrubAction::Decoded {
                self.record_repair_cost(cost);
            }
        }
        let repair_cost = outcome.repair_cost();
        self.events.emit(
            "scrub_cycle",
            &[
                ("repair_bytes_read", Json::U64(repair_cost.bytes_read)),
                (
                    "repair_devices_contacted",
                    Json::U64(repair_cost.devices_contacted),
                ),
                ("stripes", Json::U64(outcome.stripes.len() as u64)),
                ("degraded", Json::U64(outcome.degraded_count() as u64)),
                ("urgent", Json::U64(outcome.urgent_count() as u64)),
                ("skipped", Json::U64(outcome.skipped_count() as u64)),
                ("verified", Json::U64(outcome.verified_count() as u64)),
                ("decoded", Json::U64(outcome.decoded_count() as u64)),
                ("repaired", Json::U64(outcome.blocks_repaired as u64)),
                (
                    "incomplete",
                    Json::U64(outcome.objects_incomplete.len() as u64),
                ),
                ("repair", Json::Bool(repair)),
                ("elapsed_us", Json::U64(elapsed_us)),
            ],
        );
    }

    /// Writes every store metric into a snapshot.
    pub fn fill_snapshot(&self, snap: &mut Snapshot) {
        snap.counter("scrub.cycles", &self.scrub_cycles)
            .counter("scrub.blocks_repaired", &self.blocks_repaired)
            .counter("scrub.skipped", &self.stripes_skipped)
            .counter("scrub.verified", &self.stripes_verified)
            .counter("scrub.decoded", &self.stripes_decoded)
            .counter("repair.bytes_read", &self.repair_bytes_read)
            .counter("repair.blocks_fetched", &self.repair_blocks_fetched)
            .counter("repair.devices_contacted", &self.repair_devices_contacted)
            .gauge("scrub.degraded_stripes", &self.degraded)
            .gauge("scrub.urgent_stripes", &self.urgent)
            .gauge("device.offline", &self.devices_offline)
            .gauge("device.failed_writes", &self.device_failed_writes)
            .gauge("device.io_errors", &self.device_io_errors)
            .gauge("device.bytes_read", &self.device_bytes_read)
            .gauge("device.bytes_repair_read", &self.device_bytes_repair_read);
        // Process-wide persistence counters (journal + backend fsyncs +
        // recovery), surfaced by value like the kernel/pool counters.
        let b = crate::backend::metrics();
        snap.counter_value("backend.journal_appends", b.journal_appends.get())
            .counter_value("backend.journal_replays", b.journal_replays.get())
            .counter_value("backend.journal_rollbacks", b.journal_rollbacks.get())
            .counter_value("backend.fsyncs", b.fsyncs.get())
            .counter_value("backend.recoveries", b.recoveries.get())
            .counter_value("backend.recovery_us", b.recovery_us.get())
            .counter_value("backend.scan_bytes", b.scan_bytes.get());
        if self.repair_depth.count() > 0 {
            snap.histogram("repair.depth", &self.repair_depth);
        }
        if self.scrub_cycle_us.count() > 0 {
            snap.histogram("scrub.cycle_us", &self.scrub_cycle_us);
        }
        if self.decode.get(tornado_codec::metrics::cells::TRIALS) > 0 {
            self.decode.fill_snapshot(snap);
        }
    }

    /// Starts a span that records into the scrub cycle histogram.
    pub(crate) fn scrub_span(&self) -> SpanTimer<'_> {
        SpanTimer::new(&self.scrub_cycle_us)
    }
}

impl Default for StoreObserver {
    fn default() -> Self {
        Self::disabled()
    }
}
