//! Request execution: the worker pool behind the bounded queue.
//!
//! Event-loop shards decode frames and `Engine::submit` jobs; a fixed
//! pool of workers pops them, enforces per-request deadlines, executes
//! against the shared [`ArchivalStore`], and sends the [`Response`] back
//! to the shard through the job's `Reply`. The queue is the only buffer between
//! accept and execute, so a full queue is an immediate BUSY — the system
//! sheds load instead of hiding it in growing latency.

use crate::obs::ServerObserver;
use crate::protocol::{Op, Request, Response, StatMeta};
use crate::queue::{BoundedQueue, PushError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;
use tornado_obs::trace::{to_chrome_trace, SpanRecord, Tracer};
use tornado_obs::Json;
use tornado_store::{ArchivalStore, StoreError};

/// Trace context for one sampled request, created by the shard and
/// carried through the queue so worker-side spans attach to the same tree.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobTrace {
    /// The request's trace id.
    pub trace_id: u64,
    /// Span id reserved for the root `request` span (recorded by the
    /// shard after the reply; children reference it immediately).
    pub root_span: u64,
    /// Tracer-timebase instant the job was submitted (start of the
    /// queue-wait window).
    pub accepted_us: u64,
}

/// Where a finished response goes: into an event-loop shard's completion
/// mailbox, matched to its connection by slot/generation and to its
/// request by correlation id.
pub(crate) enum Reply {
    /// An event-loop shard: push into its mailbox and kick its waker.
    Shard {
        /// The owning shard's completion mailbox.
        mailbox: Arc<crate::shard::ShardMailbox>,
        /// Connection slot within the shard.
        slot: usize,
        /// Slot generation at dispatch time (stale completions for a
        /// reused slot are dropped by the shard).
        gen: u64,
        /// Correlation id from the request header (None for one-at-a-time
        /// clients — the shard holds frame extraction until it answers).
        corr: Option<u32>,
    },
    /// A test waiting on an mpsc channel, with no shard in the way.
    #[cfg(test)]
    Channel(std::sync::mpsc::Sender<Response>),
}

impl Reply {
    /// Delivers the response. A dead receiver (hung-up connection) is not
    /// an error; the work itself already happened.
    pub fn send(self, response: Response) {
        match self {
            Reply::Shard { mailbox, slot, gen, corr } => {
                mailbox.complete(slot, gen, corr, response);
            }
            #[cfg(test)]
            Reply::Channel(tx) => {
                let _ = tx.send(response);
            }
        }
    }
}

/// One queued request plus everything needed to answer it.
pub(crate) struct Job {
    /// The decoded request.
    pub request: Request,
    /// Where the answer goes.
    pub reply: Reply,
    /// When the server accepted the request (queue-wait measurement).
    pub accepted_at: Instant,
    /// Absolute deadline, if the request (or server default) set one.
    pub deadline: Option<Instant>,
    /// Trace context when this request is sampled.
    pub trace: Option<JobTrace>,
}

/// The worker pool and its bounded queue.
pub(crate) struct Engine {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    obs: Arc<ServerObserver>,
}

impl Engine {
    /// Spawns `workers` threads draining a queue of depth `queue_depth`.
    pub fn start(
        store: Arc<ArchivalStore>,
        obs: Arc<ServerObserver>,
        started: Instant,
        workers: usize,
        queue_depth: usize,
    ) -> Self {
        let queue = Arc::new(BoundedQueue::new(queue_depth));
        let handles = (0..workers.max(1))
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store);
                let obs = Arc::clone(&obs);
                thread::Builder::new()
                    .name(format!("tornado-worker-{worker}"))
                    .spawn(move || run_worker(&queue, &store, &obs, started))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { queue, workers: handles, obs }
    }

    /// Admits a job or answers with backpressure: `Busy` when the queue is
    /// at depth, `ShuttingDown` once draining has begun.
    pub fn submit(&self, job: Job) -> Result<(), Response> {
        let kind = job.request.op.kind();
        match self.queue.try_push(job) {
            Ok(depth) => {
                self.obs.count_op(kind);
                self.obs.record_queue_depth(depth);
                Ok(())
            }
            Err(PushError::Busy(_)) => {
                self.obs.busy_rejected.inc();
                self.obs.events.emit(
                    "server.busy",
                    &[("op", Json::Str(kind.into()))],
                );
                Err(Response::Busy)
            }
            Err(PushError::Closed(_)) => Err(Response::ShuttingDown),
        }
    }

    /// Closes the queue and joins every worker once queued jobs drain.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn run_worker(
    queue: &BoundedQueue<Job>,
    store: &ArchivalStore,
    obs: &ServerObserver,
    started: Instant,
) {
    static REQ_SEQ: AtomicU64 = AtomicU64::new(0);
    while let Some(job) = queue.pop() {
        obs.record_queue_depth(queue.len());
        let picked_up = Instant::now();
        let wait_us = picked_up.duration_since(job.accepted_at).as_micros() as u64;
        obs.queue_wait_us.record(wait_us);

        let tracer = &obs.tracer;
        if let Some(tr) = &job.trace {
            let picked_up_us = tracer.now_us();
            tracer.record(SpanRecord {
                trace_id: tr.trace_id,
                span_id: tracer.next_span_id(),
                parent_id: Some(tr.root_span),
                name: "queue.wait",
                start_us: tr.accepted_us,
                dur_us: picked_up_us.saturating_sub(tr.accepted_us),
                fields: vec![("queue_depth", Json::U64(queue.len() as u64))],
            });
        }

        let expired = job.deadline.is_some_and(|d| picked_up > d);
        if let Some(tr) = &job.trace {
            let check_start = tracer.now_us();
            tracer.record(SpanRecord {
                trace_id: tr.trace_id,
                span_id: tracer.next_span_id(),
                parent_id: Some(tr.root_span),
                name: "deadline.check",
                start_us: check_start,
                dur_us: tracer.now_us().saturating_sub(check_start),
                fields: vec![("expired", Json::Bool(expired))],
            });
        }
        let response = if expired {
            obs.deadline_exceeded.inc();
            Response::DeadlineExceeded
        } else {
            let exec_ctx = job.trace.as_ref().map(|tr| {
                let span_id = tracer.next_span_id();
                ExecTrace {
                    tracer,
                    trace_id: tr.trace_id,
                    span_id,
                    start_us: tracer.now_us(),
                }
            });
            let response = execute(&job.request.op, store, obs, started, exec_ctx.as_ref());
            if let Some(ctx) = exec_ctx {
                let end_us = ctx.tracer.now_us();
                ctx.tracer.record(SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent_id: Some(job.trace.as_ref().unwrap().root_span),
                    name: "execute",
                    start_us: ctx.start_us,
                    dur_us: end_us.saturating_sub(ctx.start_us),
                    fields: vec![
                        ("op", Json::Str(job.request.op.kind().into())),
                        ("status", Json::Str(response.kind().into())),
                    ],
                });
            }
            response
        };

        let service_us = picked_up.elapsed().as_micros() as u64;
        match job.request.op.kind() {
            "put" => obs.put_us.record(service_us),
            "get" => obs.get_us.record(service_us),
            _ => obs.other_us.record(service_us),
        }
        if obs.events.is_enabled() {
            obs.events.emit(
                "server.request",
                &[
                    ("seq", Json::U64(REQ_SEQ.fetch_add(1, Ordering::Relaxed))),
                    ("op", Json::Str(job.request.op.kind().into())),
                    ("status", Json::Str(response.kind().into())),
                    ("queue_wait_us", Json::U64(wait_us)),
                    ("service_us", Json::U64(service_us)),
                ],
            );
        }
        job.reply.send(response);
    }
}

/// Trace context for spans recorded inside [`execute`]: store-call child
/// spans hang off `span_id` (the `execute` span, recorded by the caller).
pub(crate) struct ExecTrace<'a> {
    tracer: &'a Tracer,
    trace_id: u64,
    span_id: u64,
    start_us: u64,
}

impl ExecTrace<'_> {
    /// Records a child span of the `execute` span over `[start_us, now]`,
    /// clamped into the execute window.
    fn child(
        &self,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
        fields: Vec<(&'static str, Json)>,
    ) -> u64 {
        let span_id = self.tracer.next_span_id();
        let end = self.tracer.now_us().max(start_us);
        self.tracer.record(
            SpanRecord {
                trace_id: self.trace_id,
                span_id,
                parent_id: Some(self.span_id),
                name,
                start_us,
                dur_us,
                fields,
            }
            .clamped_into(self.start_us, end),
        );
        span_id
    }
}

/// A recovery whose peeling schedule chained this deep is "expensive":
/// deep chains mean many sequential decode dependencies, the slow tail of
/// degraded reads.
const EXPENSIVE_RECOVERY_DEPTH: u64 = 3;

/// A recovery that pulled this many repair-class bytes (check blocks) is
/// "expensive" regardless of depth.
const EXPENSIVE_RECOVERY_BYTES: u64 = 1 << 20;

/// Runs one operation against the store and maps the result onto the wire.
fn execute(
    op: &Op,
    store: &ArchivalStore,
    obs: &ServerObserver,
    started: Instant,
    trace: Option<&ExecTrace<'_>>,
) -> Response {
    match op {
        Op::Ping => Response::Ok,
        Op::Put { name, payload } => {
            let start_us = trace.map(|t| t.tracer.now_us()).unwrap_or_default();
            let result = store.put(name, payload);
            if let Some(t) = trace {
                t.child(
                    "store.put",
                    start_us,
                    t.tracer.now_us().saturating_sub(start_us),
                    vec![("bytes", Json::U64(payload.len() as u64))],
                );
            }
            match result {
                Ok(id) => {
                    obs.bytes_in.add(payload.len() as u64);
                    Response::PutOk { id }
                }
                Err(e) => error_response(e, obs),
            }
        }
        Op::Get { id } => {
            let start_us = trace.map(|t| t.tracer.now_us()).unwrap_or_default();
            let result = store.get_detailed(*id);
            if let Some(t) = trace {
                let end_us = t.tracer.now_us();
                let get_span = t.child(
                    "store.get",
                    start_us,
                    end_us.saturating_sub(start_us),
                    vec![("id", Json::U64(*id))],
                );
                if let Ok((_, stats)) = &result {
                    record_get_phases(t, get_span, start_us, end_us, stats);
                }
            }
            match result {
                Ok((payload, stats)) => {
                    obs.replans.add(stats.replans as u64);
                    obs.get_repair_bytes.add(stats.repair_bytes_read);
                    obs.get_devices_contacted.add(stats.cost.devices_contacted);
                    if stats.degraded() {
                        obs.degraded_reads.inc();
                        obs.blocks_recovered.add(stats.blocks_recovered as u64);
                        // An expensive recovery (deep schedule or lots of
                        // repair traffic) is worth an event even when the
                        // request was not trace-sampled.
                        if stats.cost.recovery_depth >= EXPENSIVE_RECOVERY_DEPTH
                            || stats.repair_bytes_read >= EXPENSIVE_RECOVERY_BYTES
                        {
                            obs.events.emit(
                                "expensive_recovery",
                                &[
                                    ("id", Json::U64(*id)),
                                    ("bytes_read", Json::U64(stats.cost.bytes_read)),
                                    ("repair_bytes_read", Json::U64(stats.repair_bytes_read)),
                                    (
                                        "devices_contacted",
                                        Json::U64(stats.cost.devices_contacted),
                                    ),
                                    ("recovery_depth", Json::U64(stats.cost.recovery_depth)),
                                    ("replans", Json::U64(stats.replans as u64)),
                                ],
                            );
                        }
                    }
                    obs.bytes_out.add(payload.len() as u64);
                    Response::GetOk { payload }
                }
                Err(e) => error_response(e, obs),
            }
        }
        Op::Delete { id } => match store.delete(*id) {
            Ok(()) => Response::Ok,
            Err(e) => error_response(e, obs),
        },
        Op::Stat { id } => match store.meta(*id) {
            Some(meta) => Response::StatOk {
                meta: StatMeta {
                    id: meta.id,
                    name: meta.name,
                    size: meta.size as u64,
                    block_len: meta.block_len as u64,
                    rotation: meta.rotation as u32,
                },
            },
            None => {
                obs.not_found.inc();
                Response::NotFound { id: *id }
            }
        },
        Op::FailDevice { device } => match store.fail_device(*device as usize) {
            Ok(()) => {
                obs.events.emit("server.fail_device", &[("device", Json::U64(*device as u64))]);
                Response::Ok
            }
            Err(e) => error_response(e, obs),
        },
        Op::ReviveDevice { device } => match store.replace_device(*device as usize) {
            Ok(()) => {
                obs.events.emit("server.revive_device", &[("device", Json::U64(*device as u64))]);
                Response::Ok
            }
            Err(e) => error_response(e, obs),
        },
        Op::Metrics => {
            let elapsed_ms = started.elapsed().as_millis() as u64;
            Response::MetricsOk { json: obs.snapshot(store, elapsed_ms).to_pretty() }
        }
        Op::Health => match obs.health.get() {
            Some(model) => {
                let start_us = trace.map(|t| t.tracer.now_us()).unwrap_or_default();
                let before = model.recomputes.get();
                let now_ms = started.elapsed().as_millis() as u64;
                let doc = model.document(store, obs, now_ms);
                if let Some(t) = trace {
                    t.child(
                        "health.document",
                        start_us,
                        t.tracer.now_us().saturating_sub(start_us),
                        vec![("recomputed", Json::Bool(model.recomputes.get() > before))],
                    );
                }
                Response::HealthOk { json: doc.to_pretty() }
            }
            None => Response::BadRequest {
                message: "health observatory disabled on this server".into(),
            },
        },
        Op::TraceExport => Response::TraceOk {
            json: to_chrome_trace(&obs.tracer.spans()).to_pretty(),
        },
        // The connection layer intercepts SHUTDOWN before queueing; answer
        // OK if one slips through (e.g. submitted via the engine directly).
        Op::Shutdown => Response::Ok,
    }
}

/// Fabricates the sequential plan → fetch → decode child spans of a
/// `store.get` from the phase durations the store measured. Spans are laid
/// out back-to-back from the store-call start and clamped into the call
/// window, so they always nest. `decode.recover` is only recorded when the
/// decoder actually reconstructed blocks — its presence IS the
/// degraded-read signal in a trace.
fn record_get_phases(
    t: &ExecTrace<'_>,
    get_span: u64,
    start_us: u64,
    end_us: u64,
    stats: &tornado_store::GetStats,
) {
    let mut cursor = start_us;
    let mut phase = |name: &'static str, dur_us: u64, fields: Vec<(&'static str, Json)>| {
        let rec = SpanRecord {
            trace_id: t.trace_id,
            span_id: t.tracer.next_span_id(),
            parent_id: Some(get_span),
            name,
            start_us: cursor,
            dur_us,
            fields,
        }
        .clamped_into(start_us, end_us);
        cursor = rec.end_us();
        t.tracer.record(rec);
    };
    phase(
        "retrieval.plan",
        stats.plan_us,
        vec![("replans", Json::U64(stats.replans as u64))],
    );
    phase(
        "store.fetch",
        stats.fetch_us,
        vec![
            ("blocks_fetched", Json::U64(stats.blocks_fetched as u64)),
            ("bytes_read", Json::U64(stats.cost.bytes_read)),
            ("devices_contacted", Json::U64(stats.cost.devices_contacted)),
        ],
    );
    if stats.blocks_recovered > 0 {
        phase(
            "decode.recover",
            stats.decode_us,
            vec![
                ("blocks_recovered", Json::U64(stats.blocks_recovered as u64)),
                ("replans", Json::U64(stats.replans as u64)),
                ("repair_bytes_read", Json::U64(stats.repair_bytes_read)),
                ("recovery_depth", Json::U64(stats.cost.recovery_depth)),
            ],
        );
    }
}

fn error_response(e: StoreError, obs: &ServerObserver) -> Response {
    match e {
        StoreError::UnknownObject { id } => {
            obs.not_found.inc();
            Response::NotFound { id }
        }
        StoreError::Unrecoverable { id, lost_blocks } => {
            obs.unrecoverable.inc();
            Response::Unrecoverable { id, lost_blocks: lost_blocks.len() as u32 }
        }
        StoreError::NoSuchDevice { device, pool_size } => {
            obs.bad_requests.inc();
            Response::BadRequest {
                message: format!("device {device} out of range (pool size {pool_size})"),
            }
        }
        other => {
            obs.errors.inc();
            Response::ServerError { message: other.to_string() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use tornado_core::tornado_graph_1;
    use tornado_obs::trace::validate_chrome_trace;

    fn engine_over(store: Arc<ArchivalStore>, workers: usize, depth: usize) -> Engine {
        Engine::start(store, ServerObserver::shared(), Instant::now(), workers, depth)
    }

    fn roundtrip(engine: &Engine, op: Op) -> Response {
        let (tx, rx) = mpsc::channel();
        engine
            .submit(Job {
                request: Request { deadline_ms: 0, corr_id: None, trace_id: None, op },
                reply: Reply::Channel(tx),
                accepted_at: Instant::now(),
                deadline: None,
                trace: None,
            })
            .expect("queue has room");
        rx.recv().expect("worker replies")
    }

    #[test]
    fn put_get_delete_stat_round_trip_through_workers() {
        let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
        let engine = engine_over(Arc::clone(&store), 2, 8);

        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let id = match roundtrip(&engine, Op::Put { name: "a".into(), payload: payload.clone() }) {
            Response::PutOk { id } => id,
            other => panic!("{other:?}"),
        };
        match roundtrip(&engine, Op::Get { id }) {
            Response::GetOk { payload: got } => assert_eq!(got, payload),
            other => panic!("{other:?}"),
        }
        match roundtrip(&engine, Op::Stat { id }) {
            Response::StatOk { meta } => {
                assert_eq!(meta.id, id);
                assert_eq!(meta.size, payload.len() as u64);
                assert_eq!(meta.name, "a");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(roundtrip(&engine, Op::Delete { id }), Response::Ok);
        assert_eq!(roundtrip(&engine, Op::Get { id }), Response::NotFound { id });
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_is_rejected_without_executing() {
        let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
        let engine = engine_over(Arc::clone(&store), 1, 8);
        let (tx, rx) = mpsc::channel();
        engine
            .submit(Job {
                request: Request {
                    deadline_ms: 1,
                    corr_id: None,
                    trace_id: None,
                    op: Op::Put { name: "late".into(), payload: vec![1; 64] },
                },
                reply: Reply::Channel(tx),
                accepted_at: Instant::now() - std::time::Duration::from_millis(50),
                deadline: Some(Instant::now() - std::time::Duration::from_millis(10)),
                trace: None,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap(), Response::DeadlineExceeded);
        assert!(store.list().is_empty(), "expired request must not execute");
        engine.shutdown();
    }

    #[test]
    fn degraded_get_is_counted_and_correct() {
        let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
        let obs = ServerObserver::shared();
        // As `serve` does: the store refreshes the device gauges itself.
        store.set_observer(Arc::clone(&obs.store_obs));
        let engine = Engine::start(Arc::clone(&store), Arc::clone(&obs), Instant::now(), 2, 8);

        let payload: Vec<u8> = (0..9000u32).map(|i| (i * 7 % 256) as u8).collect();
        let id = match roundtrip(&engine, Op::Put { name: "d".into(), payload: payload.clone() }) {
            Response::PutOk { id } => id,
            other => panic!("{other:?}"),
        };
        for (offline, device) in [2, 17, 48, 95].into_iter().enumerate() {
            assert_eq!(roundtrip(&engine, Op::FailDevice { device }), Response::Ok);
            assert_eq!(obs.store_obs.devices_offline.get(), offline as i64 + 1);
        }
        match roundtrip(&engine, Op::Metrics) {
            Response::MetricsOk { json } => {
                let doc = tornado_obs::json::parse(&json).unwrap();
                let gauges = doc.get("gauges").unwrap();
                assert_eq!(gauges.get("device.offline").unwrap().as_u64(), Some(4));
            }
            other => panic!("{other:?}"),
        }
        match roundtrip(&engine, Op::Get { id }) {
            Response::GetOk { payload: got } => assert_eq!(got, payload),
            other => panic!("{other:?}"),
        }
        assert!(obs.degraded_reads.get() >= 1, "read through 4 failures is degraded");
        assert!(
            obs.get_repair_bytes.get() > 0,
            "a degraded GET reads check blocks, which are repair-class bytes"
        );
        assert!(obs.get_devices_contacted.get() > 0);
        match roundtrip(&engine, Op::Metrics) {
            Response::MetricsOk { json } => {
                let doc = tornado_obs::json::parse(&json).unwrap();
                tornado_obs::snapshot::validate(&doc).unwrap();
                let counters = doc.get("counters").unwrap();
                assert!(counters.get("server.get.degraded").unwrap().as_u64().unwrap() >= 1);
                assert!(
                    counters.get("server.get.repair_bytes").unwrap().as_u64().unwrap() > 0,
                    "repair-cost counters must surface through METRICS"
                );
                assert!(
                    counters
                        .get("server.get.devices_contacted")
                        .unwrap()
                        .as_u64()
                        .unwrap()
                        > 0
                );
                let gauges = doc.get("gauges").unwrap();
                assert_eq!(gauges.get("device.offline").unwrap().as_u64(), Some(4));
            }
            other => panic!("{other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn sampled_degraded_get_produces_a_nested_span_tree_with_decode_recover() {
        let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
        let obs = Arc::new(ServerObserver::disabled().with_tracer(Tracer::new(1, 1024, 4)));
        let engine = Engine::start(Arc::clone(&store), Arc::clone(&obs), Instant::now(), 1, 8);

        let payload: Vec<u8> = (0..9000u32).map(|i| (i * 13 % 256) as u8).collect();
        let id = store.put("traced", &payload).unwrap();
        for device in [2, 17, 48, 95] {
            store.fail_device(device).unwrap();
        }

        // Submit a traced GET exactly as a shard would:
        // reserve the root span id up front, record the root after reply.
        let trace_id = 0xABCDu64;
        let root_span = obs.tracer.next_span_id();
        let accepted_us = obs.tracer.now_us();
        let (tx, rx) = mpsc::channel();
        engine
            .submit(Job {
                request: Request {
                    deadline_ms: 0,
                    corr_id: None,
                    trace_id: Some(trace_id),
                    op: Op::Get { id },
                },
                reply: Reply::Channel(tx),
                accepted_at: Instant::now(),
                deadline: None,
                trace: Some(JobTrace { trace_id, root_span, accepted_us }),
            })
            .unwrap();
        match rx.recv().unwrap() {
            Response::GetOk { payload: got } => assert_eq!(got, payload),
            other => panic!("{other:?}"),
        }
        obs.tracer.record(SpanRecord {
            trace_id,
            span_id: root_span,
            parent_id: None,
            name: "request",
            start_us: accepted_us,
            dur_us: obs.tracer.now_us().saturating_sub(accepted_us),
            fields: vec![("op", Json::Str("get".into()))],
        });

        let names: Vec<&str> = obs.tracer.spans_for(trace_id).iter().map(|s| s.name).collect();
        for want in [
            "request",
            "queue.wait",
            "deadline.check",
            "execute",
            "store.get",
            "retrieval.plan",
            "store.fetch",
            "decode.recover",
        ] {
            assert!(names.contains(&want), "missing span '{want}' in {names:?}");
        }

        // The TRACE_EXPORT op serves the same tree as valid, well-nested
        // Chrome trace JSON.
        match roundtrip(&engine, Op::TraceExport) {
            Response::TraceOk { json } => {
                let doc = tornado_obs::json::parse(&json).unwrap();
                let stats =
                    validate_chrome_trace(&doc, &["request", "store.get", "decode.recover"])
                        .unwrap();
                assert!(stats.events >= 8, "{stats:?}");
                assert_eq!(stats.roots, 1);
            }
            other => panic!("{other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn untraced_jobs_record_no_spans_even_with_tracing_enabled() {
        let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
        let obs = Arc::new(ServerObserver::disabled().with_tracer(Tracer::new(1, 1024, 4)));
        let engine = Engine::start(Arc::clone(&store), Arc::clone(&obs), Instant::now(), 1, 8);
        assert_eq!(roundtrip(&engine, Op::Ping), Response::Ok);
        assert_eq!(obs.tracer.recorded(), 0, "no JobTrace → no spans");
        engine.shutdown();
    }
}
