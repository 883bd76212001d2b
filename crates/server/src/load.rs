//! The load driver for the archival block service.
//!
//! [`run_load`] drives `connections` client connections from one thread
//! over the same readiness reactor the server uses — nonblocking sockets,
//! per-connection frame reassembly, correlation-id matching — so thousands
//! of connections cost the driver sockets, not threads. Two parameters set
//! the discipline:
//!
//! * `pipeline_depth` — each connection keeps at most this many requests
//!   in flight; depth 1 is the classic closed loop (issue the next
//!   operation as soon as the last one answers);
//! * `rate_ops_per_sec` > 0 — arrivals follow a fixed aggregate schedule
//!   instead, each going to the next connection with window room (or
//!   shed, counted, when none has any). Latency is measured from the
//!   *scheduled* arrival, so server backlog shows up as queueing delay
//!   instead of quietly throttling the arrival stream (the
//!   coordinated-omission correction).
//!
//! Every connection draws from the seeded weighted mix ([`OpPicker`]) over
//! one shared object table: zipfian popularity by insertion rank, so GETs
//! concentrate on a warm set the way archival read traffic does. A DELETE
//! of an object with GETs in flight becomes a GET of it, so an
//! out-of-order DELETE can never turn a verified read into a NotFound. A
//! BUSY answer parks the request and resubmits it after a short
//! not-before delay — the reactor never sleeps, so one saturated
//! connection cannot stall the others.
//!
//! Determinism: every random choice (op, object, payload size, payload
//! bytes) derives from `LoadConfig::seed`, and trace ids are a pure
//! function of (seed, connection, op index). Payload bytes regenerate from
//! a per-object seed, which is how every GET is verified byte-for-byte —
//! any corruption the decoder fails to repair shows up as a
//! `payload_mismatches` count, not a silent pass.
//!
//! Mid-run failure injection: when `fail_devices` is non-empty, the admin
//! connection fails those devices (spaced by `fail_spacing_ms`) after
//! `fail_after_ms`, from a helper thread, while the reactor keeps the
//! other connections busy — exercising the transparently-degraded read
//! path under concurrency.

use crate::client::Client;
use crate::error::ClientError;
use crate::protocol::{append_frame, FrameBuffer, Op, Request, Response};
use crate::reactor::{Event, Interest, Poller};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};
use tornado_obs::{Histogram, Json, Snapshot};

/// Weighted operation mix (weights need not sum to anything particular).
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Relative weight of PUT.
    pub put: u32,
    /// Relative weight of GET.
    pub get: u32,
    /// Relative weight of DELETE.
    pub delete: u32,
}

impl Default for OpMix {
    /// Read-heavy archival mix: mostly GETs, steady ingest, rare deletes.
    fn default() -> Self {
        Self { put: 20, get: 75, delete: 5 }
    }
}

/// Tunables for one [`run_load`] run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7401`.
    pub addr: String,
    /// Concurrent connections, all driven from one thread.
    pub connections: usize,
    /// Measured window in milliseconds: no arrival is issued after it,
    /// and in-flight requests get a bounded drain.
    pub duration_ms: u64,
    /// Master seed — same seed, same per-connection operation stream.
    pub seed: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Smallest payload, bytes.
    pub payload_min: usize,
    /// Largest payload, bytes.
    pub payload_max: usize,
    /// Zipf exponent for object popularity (0 = uniform; ~0.99 typical).
    pub zipf_theta: f64,
    /// Objects PUT over the admin connection before the measured window
    /// opens, so GETs have something to hit from the first arrival.
    pub prefill: usize,
    /// Devices to fail mid-run (empty = no injection).
    pub fail_devices: Vec<u32>,
    /// Delay before the first injected failure, milliseconds.
    pub fail_after_ms: u64,
    /// Spacing between injected failures, milliseconds.
    pub fail_spacing_ms: u64,
    /// Per-request deadline stamped on every request (0 = none).
    pub deadline_ms: u32,
    /// Trace propagation: stamp every operation with a deterministic trace
    /// id and report the 1-in-N ids the server's sampler will keep (same
    /// `tornado_obs::trace::sampled` key function on both sides). 0 stamps
    /// no trace ids at all.
    pub trace_sample: u64,
    /// Stop each connection after this many operations (0 = run until the
    /// clock). With a generous `duration_ms` this makes the op count — and
    /// therefore the sampled trace-id set — an exact function of `seed`,
    /// independent of server worker count and pipeline depth.
    pub op_limit: u64,
    /// Requests each connection keeps in flight (0 counts as 1). Depth 1
    /// is closed loop; deeper windows pipeline, matching completions by
    /// correlation id in whatever order the server finishes them.
    pub pipeline_depth: usize,
    /// Open-loop arrival rate, operations per second across the whole run
    /// (0 = closed loop). Latency is measured from each operation's
    /// *scheduled* arrival (coordinated-omission corrected).
    pub rate_ops_per_sec: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7401".into(),
            connections: 4,
            duration_ms: 2_000,
            seed: 1,
            mix: OpMix::default(),
            payload_min: 1 << 10,
            payload_max: 64 << 10,
            zipf_theta: 0.99,
            prefill: 8,
            fail_devices: Vec::new(),
            fail_after_ms: 300,
            fail_spacing_ms: 50,
            deadline_ms: 0,
            trace_sample: 256,
            op_limit: 0,
            pipeline_depth: 1,
            rate_ops_per_sec: 0.0,
        }
    }
}

/// How many slowest-operation exemplars each run retains.
pub const EXEMPLAR_KEEP: usize = 5;

/// How long a BUSY-answered request waits before it is resubmitted.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// How long past the measured window in-flight requests may settle.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Longest reactor wait, so the stop and drain clocks stay responsive.
const MAX_WAIT: Duration = Duration::from_millis(10);

/// One slow sampled operation, printable next to p50/p99 so the operator
/// can jump straight from a latency number to its span tree in the
/// server's trace export.
#[derive(Clone, Copy, Debug)]
pub struct TraceExemplar {
    /// Client-observed latency, microseconds.
    pub latency_us: u64,
    /// The trace id stamped on the request (look it up in the export).
    pub trace_id: u64,
    /// Operation kind: `"put"`, `"get"`, or `"delete"`.
    pub op: &'static str,
}

/// Keeps the `EXEMPLAR_KEEP` slowest exemplars via min-replace.
fn note_exemplar(slowest: &mut Vec<TraceExemplar>, e: TraceExemplar) {
    if slowest.len() < EXEMPLAR_KEEP {
        slowest.push(e);
        return;
    }
    if let Some(i) = (0..slowest.len()).min_by_key(|&i| slowest[i].latency_us) {
        if e.latency_us > slowest[i].latency_us {
            slowest[i] = e;
        }
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Connections actually established.
    pub connected: usize,
    /// Measured window plus drain, milliseconds.
    pub elapsed_ms: u64,
    /// Completed operations (excludes busy retries and prefill).
    pub ops: u64,
    /// Completed PUTs.
    pub puts: u64,
    /// Completed GETs.
    pub gets: u64,
    /// Completed DELETEs.
    pub deletes: u64,
    /// BUSY answers absorbed (each resubmitted after a short delay).
    pub busy_retries: u64,
    /// Open-loop arrivals dropped because every connection's window was
    /// full (shed at the driver).
    pub shed: u64,
    /// Operations that failed with a transport or server error (including
    /// connections that could not be established, and requests lost with
    /// a dead connection).
    pub errors: u64,
    /// Requests still unanswered when the drain deadline expired.
    pub unanswered: u64,
    /// GETs answered UNRECOVERABLE (possible only past the fault
    /// tolerance of the graph).
    pub unrecoverable: u64,
    /// GETs whose payload did not match the expected bytes — must be zero.
    pub payload_mismatches: u64,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Client-observed operation latency, microseconds.
    pub latency_us: Histogram,
    /// Devices failed by the injector during the run.
    pub devices_failed: Vec<u32>,
    /// `server.get.degraded` from the server's final metrics snapshot.
    pub degraded_reads: u64,
    /// `server.get.replans` from the server's final metrics snapshot —
    /// GETs that had to fall back to a wider plan mid-fetch.
    pub replans: u64,
    /// `server.get.repair_bytes` from the server's final metrics snapshot
    /// — repair-class (check-block) bytes the degraded GETs pulled.
    pub repair_bytes: u64,
    /// The server's final `tornado-metrics-v1` snapshot (pretty JSON).
    pub server_metrics_json: String,
    /// Trace ids the server's deterministic sampler will have kept
    /// (sorted, deduplicated; empty when `trace_sample` is 0).
    pub sampled_trace_ids: Vec<u64>,
    /// The slowest sampled operations, latency descending (at most
    /// [`EXEMPLAR_KEEP`]).
    pub slowest: Vec<TraceExemplar>,
}

impl LoadReport {
    /// Median latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.latency_us.percentile(0.5).unwrap_or(0)
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.latency_us.percentile(0.99).unwrap_or(0)
    }

    /// Records one completed operation: latency, per-op counter, and —
    /// when its trace id is one the server's sampler keeps — the sampled
    /// id and a slowest-exemplar candidate.
    fn complete(&mut self, trace_sample: u64, trace_id: Option<u64>, op: &'static str, latency_us: u64) {
        self.latency_us.record(latency_us);
        self.ops += 1;
        match op {
            "put" => self.puts += 1,
            "get" => self.gets += 1,
            _ => self.deletes += 1,
        }
        if let Some(id) = trace_id.filter(|&id| tornado_obs::trace::sampled(id, trace_sample)) {
            self.sampled_trace_ids.push(id);
            note_exemplar(&mut self.slowest, TraceExemplar { latency_us, trace_id: id, op });
        }
    }

    /// Builds a client-side `tornado-metrics-v1` snapshot of this run,
    /// embedding the server's own final snapshot under `"server"`.
    pub fn snapshot(&self, seed: u64) -> Snapshot {
        let mut snap = Snapshot::new("load", self.elapsed_ms);
        snap.set("seed", Json::U64(seed))
            .set("ops_per_sec", Json::F64(self.ops_per_sec))
            .counter_value("load.ops", self.ops)
            .counter_value("load.put", self.puts)
            .counter_value("load.get", self.gets)
            .counter_value("load.delete", self.deletes)
            .counter_value("load.busy_retries", self.busy_retries)
            .counter_value("load.shed", self.shed)
            .counter_value("load.errors", self.errors)
            .counter_value("load.unanswered", self.unanswered)
            .counter_value("load.unrecoverable", self.unrecoverable)
            .counter_value("load.payload_mismatches", self.payload_mismatches)
            .counter_value("load.devices_failed", self.devices_failed.len() as u64)
            .counter_value("load.degraded_reads", self.degraded_reads)
            .counter_value("load.replans", self.replans)
            .counter_value("load.repair_bytes", self.repair_bytes)
            .counter_value("load.sampled_traces", self.sampled_trace_ids.len() as u64)
            .histogram("load.latency_us", &self.latency_us);
        if !self.slowest.is_empty() {
            let arr = self
                .slowest
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("latency_us".into(), Json::U64(e.latency_us)),
                        ("trace_id".into(), Json::Str(format!("{:#018x}", e.trace_id))),
                        ("op".into(), Json::Str(e.op.into())),
                    ])
                })
                .collect();
            snap.set("slowest_traces", Json::Arr(arr));
        }
        if let Ok(server) = tornado_obs::json::parse(&self.server_metrics_json) {
            snap.set("server", server);
        }
        snap
    }
}

/// Deterministic payload bytes for object seed `seed` — regenerated on the
/// GET side for byte-for-byte verification.
pub fn payload_for(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = vec![0u8; len];
    for chunk in buf.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    buf
}

/// `payload == payload_for(seed, len)`, without materialising the
/// expected bytes.
pub fn payload_matches(seed: u64, len: usize, payload: &[u8]) -> bool {
    let mut rng = SmallRng::seed_from_u64(seed);
    payload.len() == len
        && payload.chunks(8).all(|chunk| chunk == &rng.next_u64().to_le_bytes()[..chunk.len()])
}

/// The seeded op-choice stream of connection `conn`. Golden-ratio stride
/// keeps per-connection streams uncorrelated while the whole run stays a
/// pure function of the seed.
pub fn conn_rng(seed: u64, conn: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(conn + 1))
}

/// The trace id of operation `op` on connection `conn`: a mix of the
/// three, so the sampled set never depends on timing.
fn trace_id_for(seed: u64, conn: u64, op: u64) -> u64 {
    tornado_obs::trace::mix64(
        seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// One operation drawn from the mix.
#[derive(Clone, Debug)]
pub enum MixOp {
    /// Store a fresh object whose bytes are `payload_for(obj_seed, len)`.
    Put {
        /// Object name (unique across the run).
        name: String,
        /// Payload seed.
        obj_seed: u64,
        /// Payload length, bytes.
        len: usize,
    },
    /// Read an object; it must equal `payload_for(obj_seed, len)`.
    Get {
        /// Object id.
        id: u64,
        /// Payload seed the object was stored with.
        obj_seed: u64,
        /// Payload length, bytes.
        len: usize,
    },
    /// Delete an object (already out of the table, so no later op picks it).
    Delete {
        /// Object id.
        id: u64,
    },
}

impl MixOp {
    /// The wire request for this operation.
    fn to_op(&self) -> Op {
        match self {
            MixOp::Put { name, obj_seed, len } => {
                Op::Put { name: name.clone(), payload: payload_for(*obj_seed, *len) }
            }
            MixOp::Get { id, .. } => Op::Get { id: *id },
            MixOp::Delete { id } => Op::Delete { id: *id },
        }
    }
}

/// One stored object.
#[derive(Clone, Copy)]
struct ObjEntry {
    id: u64,
    seed: u64,
    len: usize,
}

/// The driver's op picker: the weighted mix over one object table that
/// every connection shares. Object at rank `r` (insertion order) has
/// weight `1/(r+1)^theta`, so earlier objects stay hottest.
pub struct OpPicker {
    mix: OpMix,
    payload_min: usize,
    payload_max: usize,
    theta: f64,
    entries: Vec<ObjEntry>,
    /// Running sum of the rank weights. Weights depend on rank alone, so
    /// removing an entry only drops the last sum.
    cumulative: Vec<f64>,
    /// Objects with GETs in flight, by id, with their count.
    reading: HashMap<u64, u32>,
    /// Next object-name sequence number.
    names: u64,
}

impl OpPicker {
    /// An empty table with `cfg`'s mix, payload sizes and popularity skew.
    pub fn new(cfg: &LoadConfig) -> Self {
        Self {
            mix: cfg.mix,
            payload_min: cfg.payload_min,
            payload_max: cfg.payload_max,
            theta: cfg.zipf_theta,
            entries: Vec::new(),
            cumulative: Vec::new(),
            reading: HashMap::new(),
            names: 0,
        }
    }

    /// Draws the next operation from `rng`. An empty table always PUTs;
    /// a DELETE of an object with GETs in flight becomes a GET of it.
    pub fn pick(&mut self, rng: &mut SmallRng) -> MixOp {
        let total = self.mix.put + self.mix.get + self.mix.delete;
        let roll = if total == 0 { 0 } else { rng.gen_range(0..total) };
        if roll < self.mix.put || self.entries.is_empty() {
            return self.pick_put(rng);
        }
        let i = self.sample(rng);
        let ObjEntry { id, seed, len } = self.entries[i];
        if roll >= self.mix.put + self.mix.get && !self.reading.contains_key(&id) {
            self.remove(i);
            return MixOp::Delete { id };
        }
        *self.reading.entry(id).or_insert(0) += 1;
        MixOp::Get { id, obj_seed: seed, len }
    }

    /// Draws a fresh PUT (size uniform in the payload range) regardless
    /// of the mix — how prefill fills the table.
    pub fn pick_put(&mut self, rng: &mut SmallRng) -> MixOp {
        let len = if self.payload_max > self.payload_min {
            rng.gen_range(self.payload_min..=self.payload_max)
        } else {
            self.payload_min
        };
        let name = format!("load-{}", self.names);
        self.names += 1;
        MixOp::Put { name, obj_seed: rng.next_u64(), len: len.max(1) }
    }

    /// Settles a finished operation: an acked PUT (`put_id`) enters the
    /// table, a GET stops pinning its object against DELETE.
    pub fn finish(&mut self, op: &MixOp, put_id: Option<u64>) {
        match *op {
            MixOp::Put { obj_seed, len, .. } => {
                if let Some(id) = put_id {
                    self.push(ObjEntry { id, seed: obj_seed, len });
                }
            }
            MixOp::Get { id, .. } => {
                if let Some(n) = self.reading.get_mut(&id) {
                    *n -= 1;
                    if *n == 0 {
                        self.reading.remove(&id);
                    }
                }
            }
            MixOp::Delete { .. } => {}
        }
    }

    fn push(&mut self, e: ObjEntry) {
        let rank = self.entries.len();
        let w = 1.0 / ((rank + 1) as f64).powf(self.theta);
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        self.entries.push(e);
        self.cumulative.push(total + w);
    }

    /// Samples an index zipfian-by-rank.
    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u).min(self.entries.len() - 1)
    }

    /// Removes index `i`; later entries move up one rank.
    fn remove(&mut self, i: usize) {
        self.cumulative.pop();
        self.entries.remove(i);
    }
}

/// One request on the wire (or parked after a BUSY), awaiting completion.
struct Pending {
    op: MixOp,
    trace_id: Option<u64>,
    /// Latency origin: the scheduled arrival (open loop) or the first
    /// submit (closed loop). Survives BUSY resubmits unchanged.
    sched: Instant,
}

/// One driven connection.
struct Conn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// Requests on the wire, by correlation id.
    inflight: Vec<(u32, Pending)>,
    /// Requests parked after a BUSY (they hold window room).
    parked: usize,
    next_corr: u32,
    /// Operations issued so far — the op index of the next trace id.
    issued: u64,
    rng: SmallRng,
    write_interest: bool,
    dead: bool,
}

impl Conn {
    fn window(&self) -> usize {
        self.inflight.len() + self.parked
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// The reactor and everything it drives.
struct Driver<'a> {
    cfg: &'a LoadConfig,
    poller: Poller,
    conns: Vec<Conn>,
    picker: OpPicker,
    depth: usize,
    /// BUSY-answered requests waiting for their not-before time.
    retries: Vec<(Instant, usize, Pending)>,
    /// Operations issued and not yet settled (in flight or parked).
    outstanding: usize,
    /// Connections that may still issue (alive, under `op_limit`).
    open: usize,
    report: LoadReport,
}

impl Driver<'_> {
    /// Connection `c` has reached its `op_limit`.
    fn limit_hit(&self, c: usize) -> bool {
        self.cfg.op_limit > 0 && self.conns[c].issued >= self.cfg.op_limit
    }

    /// Room for one more operation on connection `c`.
    fn has_room(&self, c: usize) -> bool {
        !self.conns[c].dead && self.conns[c].window() < self.depth && !self.limit_hit(c)
    }

    /// Draws the next operation for connection `c` and sends it.
    fn issue(&mut self, c: usize, sched: Instant) {
        let conn = &mut self.conns[c];
        let op = self.picker.pick(&mut conn.rng);
        let trace_id =
            (self.cfg.trace_sample > 0).then(|| trace_id_for(self.cfg.seed, c as u64, conn.issued));
        conn.issued += 1;
        self.outstanding += 1;
        if self.limit_hit(c) {
            self.open -= 1;
        }
        self.send(c, Pending { op, trace_id, sched });
    }

    /// Settles an operation that will get no (further) answer.
    fn settle_lost(&mut self, p: &Pending) {
        self.report.errors += 1;
        self.outstanding -= 1;
        self.picker.finish(&p.op, None);
    }

    /// Frames `p` onto connection `c`'s output buffer.
    fn send(&mut self, c: usize, p: Pending) {
        if self.conns[c].dead {
            return self.settle_lost(&p);
        }
        let conn = &mut self.conns[c];
        let corr = conn.next_corr;
        conn.next_corr = conn.next_corr.wrapping_add(1);
        let req = Request {
            deadline_ms: self.cfg.deadline_ms,
            corr_id: Some(corr),
            trace_id: p.trace_id,
            op: p.op.to_op(),
        };
        append_frame(&mut conn.out, &req.encode());
        conn.inflight.push((corr, p));
    }

    /// Closed loop: fills connection `c`'s window.
    fn top_up(&mut self, c: usize) {
        while self.has_room(c) {
            self.issue(c, Instant::now());
        }
    }

    /// Writes as much buffered output as the socket accepts, tracking
    /// write interest across WouldBlock.
    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return self.kill(c),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.write_interest {
                        conn.write_interest = true;
                        let _ = self.poller.reregister(&conn.stream, c as u64, Interest::READ_WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.kill(c),
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.write_interest {
            conn.write_interest = false;
            let _ = self.poller.reregister(&conn.stream, c as u64, Interest::READ);
        }
    }

    /// Drains readable bytes and settles every completed frame; a closed
    /// or broken connection dies after its last whole responses settle.
    fn read(&mut self, c: usize, scratch: &mut [u8]) {
        let mut closed = false;
        loop {
            match self.conns[c].stream.read(scratch) {
                Ok(0) => closed = true,
                Ok(n) => {
                    self.conns[c].inbuf.extend(&scratch[..n]);
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => closed = true,
            }
            break;
        }
        loop {
            match self.conns[c].inbuf.next_frame() {
                Ok(Some(body)) => self.settle(c, &body),
                Ok(None) => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed {
            self.kill(c);
        }
    }

    /// Matches one response frame to its request and records the outcome.
    fn settle(&mut self, c: usize, body: &[u8]) {
        let found = Response::decode_corr(body).ok().and_then(|(corr, resp)| {
            let conn = &mut self.conns[c];
            let i = conn.inflight.iter().position(|(k, _)| Some(*k) == corr)?;
            Some((conn.inflight.swap_remove(i).1, resp))
        });
        let Some((p, resp)) = found else {
            // Undecodable, uncorrelated, or a correlation id never issued.
            self.report.errors += 1;
            return;
        };
        if resp == Response::Busy {
            self.report.busy_retries += 1;
            self.conns[c].parked += 1;
            self.retries.push((Instant::now() + BUSY_BACKOFF, c, p));
            return;
        }
        let latency_us = p.sched.elapsed().as_micros() as u64;
        let trace_sample = self.cfg.trace_sample;
        let mut put_id = None;
        match (resp, &p.op) {
            (Response::PutOk { id }, MixOp::Put { .. }) => {
                put_id = Some(id);
                self.report.complete(trace_sample, p.trace_id, "put", latency_us);
            }
            (Response::GetOk { payload }, MixOp::Get { obj_seed, len, .. }) => {
                if !payload_matches(*obj_seed, *len, &payload) {
                    self.report.payload_mismatches += 1;
                }
                self.report.complete(trace_sample, p.trace_id, "get", latency_us);
            }
            (Response::Ok, MixOp::Delete { .. }) => {
                self.report.complete(trace_sample, p.trace_id, "delete", latency_us);
            }
            (Response::Unrecoverable { .. }, MixOp::Get { .. }) => self.report.unrecoverable += 1,
            _ => self.report.errors += 1,
        }
        self.outstanding -= 1;
        self.picker.finish(&p.op, put_id);
    }

    /// Resubmits every parked request whose not-before time has come,
    /// noting the connections that now have output.
    fn resubmit_due(&mut self, now: Instant, dirty: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].0 <= now {
                let (_, c, p) = self.retries.swap_remove(i);
                self.conns[c].parked -= 1;
                self.send(c, p);
                dirty.push(c);
            } else {
                i += 1;
            }
        }
    }

    /// Tears a connection down; its in-flight and parked requests become
    /// errors.
    fn kill(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        if conn.dead {
            return;
        }
        conn.dead = true;
        let _ = self.poller.deregister(&conn.stream);
        conn.out.clear();
        conn.out_pos = 0;
        conn.parked = 0;
        let lost: Vec<Pending> = conn.inflight.drain(..).map(|(_, p)| p).collect();
        if !self.limit_hit(c) {
            self.open -= 1;
        }
        let (parked, kept): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.retries).into_iter().partition(|r| r.1 == c);
        self.retries = kept;
        for p in lost.into_iter().chain(parked.into_iter().map(|r| r.2)) {
            self.settle_lost(&p);
        }
    }

    /// The reactor loop: arrivals, retries, readiness, until the window
    /// closes and in-flight requests settle (or the drain deadline).
    fn run(&mut self) -> Result<(), ClientError> {
        let interval = (self.cfg.rate_ops_per_sec > 0.0)
            .then(|| Duration::from_secs_f64(1.0 / self.cfg.rate_ops_per_sec));
        let start = Instant::now();
        let stop_at = start + Duration::from_millis(self.cfg.duration_ms);
        let drain_by = stop_at + DRAIN_GRACE;
        let mut arrivals = 0u64;
        let mut rr = 0usize;
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 64 << 10];
        let mut dirty: Vec<usize> = Vec::new();

        if interval.is_none() {
            for c in 0..self.conns.len() {
                self.top_up(c);
                self.flush(c);
            }
        }
        loop {
            let now = Instant::now();
            self.resubmit_due(now, &mut dirty);
            if let Some(iv) = interval {
                // Every arrival that is due goes to the next connection
                // with window room, or is shed.
                while now < stop_at && self.open > 0 {
                    let due = start + iv.mul_f64(arrivals as f64);
                    if due > now {
                        break;
                    }
                    arrivals += 1;
                    let n = self.conns.len();
                    match (0..n).map(|k| (rr + k) % n).find(|&c| self.has_room(c)) {
                        Some(c) => {
                            self.issue(c, due);
                            rr = c + 1;
                            dirty.push(c);
                        }
                        None => self.report.shed += 1,
                    }
                }
            }
            for c in dirty.drain(..) {
                self.flush(c);
            }

            if self.outstanding == 0 && (now >= stop_at || self.open == 0) {
                break;
            }
            if now >= drain_by {
                self.report.unanswered = self.outstanding as u64;
                break;
            }

            let mut wake = now + MAX_WAIT;
            if let (Some(iv), true) = (interval, now < stop_at) {
                wake = wake.min(start + iv.mul_f64(arrivals as f64));
            }
            if let Some(t) = self.retries.iter().map(|r| r.0).min() {
                wake = wake.min(t);
            }
            self.poller
                .wait(&mut events, Some(wake.saturating_duration_since(now)))
                .map_err(ClientError::Io)?;
            for ev in events.drain(..) {
                let c = ev.token as usize;
                if self.conns[c].dead {
                    continue;
                }
                if ev.readable {
                    self.read(c, &mut scratch);
                    if interval.is_none() && Instant::now() < stop_at {
                        self.top_up(c);
                    }
                }
                if !self.conns[c].dead && (ev.writable || self.conns[c].has_output()) {
                    self.flush(c);
                }
            }
        }
        self.report.elapsed_ms = (start.elapsed().as_millis() as u64).max(1);
        Ok(())
    }
}

/// Runs the load and returns the aggregated report.
///
/// Fails fast if the server is unreachable, prefill fails, or no
/// connection can be established; errors on individual connections
/// during the run are counted, not fatal.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    let mut admin = Client::connect(&cfg.addr)?;
    admin.ping()?;
    let mut picker = OpPicker::new(cfg);
    let connections = cfg.connections.max(1);
    let mut rng = conn_rng(cfg.seed, connections as u64);
    for _ in 0..cfg.prefill {
        let op = picker.pick_put(&mut rng);
        let MixOp::Put { name, obj_seed, len } = &op else { unreachable!("pick_put puts") };
        let id = admin.put(name, &payload_for(*obj_seed, *len))?;
        picker.finish(&op, Some(id));
    }

    // File descriptors: connections + listener-side headroom.
    let _ = crate::reactor::raise_nofile_limit(connections as u64 + 128);
    let poller = Poller::new().map_err(ClientError::Io)?;
    let mut conns = Vec::with_capacity(connections);
    let mut connect_errors = 0;
    for _ in 0..connections {
        // Blocking connect gives natural backpressure against the
        // server's accept queue; nonblocking takes over after.
        let stream = match TcpStream::connect(&cfg.addr) {
            Ok(s) => s,
            Err(_) => {
                connect_errors += 1;
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).map_err(ClientError::Io)?;
        let c = conns.len();
        poller.register(&stream, c as u64, Interest::READ).map_err(ClientError::Io)?;
        conns.push(Conn {
            stream,
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: Vec::new(),
            parked: 0,
            next_corr: 0,
            issued: 0,
            rng: conn_rng(cfg.seed, c as u64),
            write_interest: false,
            dead: false,
        });
    }
    if conns.is_empty() {
        return Err(ClientError::Unexpected("no load connections established".into()));
    }

    let connected = conns.len();
    let mut driver = Driver {
        cfg,
        poller,
        conns,
        picker,
        depth: cfg.pipeline_depth.max(1),
        retries: Vec::new(),
        outstanding: 0,
        open: connected,
        report: LoadReport { connected, errors: connect_errors, ..LoadReport::default() },
    };

    // Failure injection rides on the admin connection while the reactor
    // drives the others.
    let (run, devices_failed) = thread::scope(|s| {
        let injector = s.spawn(|| {
            let mut failed = Vec::new();
            if !cfg.fail_devices.is_empty() {
                thread::sleep(Duration::from_millis(cfg.fail_after_ms));
                for &device in &cfg.fail_devices {
                    if admin.fail_device(device).is_err() {
                        break;
                    }
                    failed.push(device);
                    thread::sleep(Duration::from_millis(cfg.fail_spacing_ms));
                }
            }
            failed
        });
        let run = driver.run();
        (run, injector.join().expect("failure injector panicked"))
    });
    run?;

    let mut report = driver.report;
    report.devices_failed = devices_failed;
    report.sampled_trace_ids.sort_unstable();
    report.sampled_trace_ids.dedup();
    report.slowest.sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_us));
    report.ops_per_sec = report.ops as f64 * 1000.0 / report.elapsed_ms as f64;

    report.server_metrics_json = admin.metrics()?;
    if let Ok(doc) = tornado_obs::json::parse(&report.server_metrics_json) {
        let counter = |key: &str| {
            doc.get("counters").and_then(|c| c.get(key)).and_then(Json::as_u64).unwrap_or(0)
        };
        report.degraded_reads = counter("server.get.degraded");
        report.replans = counter("server.get.replans");
        report.repair_bytes = counter("server.get.repair_bytes");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn payloads_are_deterministic_per_seed() {
        assert_eq!(payload_for(42, 1000), payload_for(42, 1000));
        assert_ne!(payload_for(42, 1000), payload_for(43, 1000));
        assert_eq!(payload_for(7, 13).len(), 13);
        assert!(payload_matches(42, 1000, &payload_for(42, 1000)));
        assert!(payload_matches(7, 13, &payload_for(7, 13)));
        assert!(!payload_matches(42, 999, &payload_for(42, 1000)));
        let mut flipped = payload_for(42, 1000);
        flipped[517] ^= 1;
        assert!(!payload_matches(42, 1000, &flipped));
    }

    /// A picker holding `n` objects with ids `0..n`.
    fn picker_with(n: u64, mix: OpMix, theta: f64) -> OpPicker {
        let mut p = OpPicker::new(&LoadConfig { mix, zipf_theta: theta, ..LoadConfig::default() });
        for i in 0..n {
            p.push(ObjEntry { id: i, seed: i, len: 1 });
        }
        p
    }

    #[test]
    fn zipf_prefers_early_ranks() {
        let t = picker_with(50, OpMix::default(), 0.99);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut hits = [0u32; 50];
        for _ in 0..20_000 {
            hits[t.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10], "rank 0 hotter than rank 10: {hits:?}");
        assert!(hits[0] > hits[49] * 3, "strongly skewed head");
        assert!(hits.iter().all(|&h| h > 0), "every rank still reachable");
    }

    #[test]
    fn zipf_remove_keeps_sampling_valid() {
        let mut t = picker_with(10, OpMix::default(), 1.0);
        t.remove(3);
        assert_eq!(t.entries.len(), 9);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = t.sample(&mut rng);
            assert!(i < 9);
            assert_ne!(t.entries[i].id, 3);
        }
    }

    #[test]
    fn delete_of_an_object_being_read_becomes_a_get() {
        let mut t = picker_with(1, OpMix { put: 0, get: 0, delete: 1 }, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        t.reading.insert(0, 1);
        assert!(matches!(t.pick(&mut rng), MixOp::Get { id: 0, .. }), "pinned object is read");
        assert_eq!(t.reading[&0], 2);
        let get = MixOp::Get { id: 0, obj_seed: 0, len: 1 };
        t.finish(&get, None);
        t.finish(&get, None);
        assert!(t.reading.is_empty());
        assert!(matches!(t.pick(&mut rng), MixOp::Delete { id: 0 }), "unpinned object is deleted");
        assert!(t.entries.is_empty());
        assert!(matches!(t.pick(&mut rng), MixOp::Put { .. }), "an empty table puts");
    }

    #[test]
    fn op_mix_default_is_read_heavy() {
        let m = OpMix::default();
        assert!(m.get > m.put + m.delete);
    }

    #[test]
    fn exemplar_keeper_retains_the_slowest() {
        let mut slowest = Vec::new();
        for (i, lat) in [50u64, 900, 10, 700, 300, 5, 800, 600].iter().enumerate() {
            note_exemplar(
                &mut slowest,
                TraceExemplar { latency_us: *lat, trace_id: i as u64, op: "get" },
            );
        }
        assert_eq!(slowest.len(), EXEMPLAR_KEEP);
        let mut kept: Vec<u64> = slowest.iter().map(|e| e.latency_us).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![300, 600, 700, 800, 900]);
    }

    #[test]
    fn report_keeps_only_server_sampled_trace_ids() {
        let mut report = LoadReport::default();
        let mut expected = Vec::new();
        for id in 0..400u64 {
            report.complete(4, Some(id), "get", id);
            if tornado_obs::trace::sampled(id, 4) {
                expected.push(id);
            }
        }
        assert_eq!(report.sampled_trace_ids, expected);
        assert!(!expected.is_empty(), "1-in-4 sampling over 400 ids keeps some");
        assert!(report.slowest.iter().all(|e| tornado_obs::trace::sampled(e.trace_id, 4)));
    }

    /// What the stub server has seen: requests served on the driver's
    /// other connections, sampled at every BUSY it answered.
    #[derive(Default)]
    struct StubLog {
        served_elsewhere: u64,
        at_busy: Vec<u64>,
    }

    /// A protocol-speaking stub server: every connection gets a thread
    /// (test scale only) that answers each request immediately, echoing
    /// correlation ids, over an in-memory object map (so GETs verify).
    /// The second connection accepted — the driver's first, after the
    /// admin connection — answers its first `busy_first` requests BUSY.
    fn spawn_stub_server(busy_first: u32) -> (std::net::SocketAddr, Arc<Mutex<StubLog>>) {
        use crate::protocol::{read_frame, write_frame, FrameRead};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let log = Arc::new(Mutex::new(StubLog::default()));
        let objects = Arc::new(Mutex::new(HashMap::<u64, Vec<u8>>::new()));
        let stub_log = Arc::clone(&log);
        thread::spawn(move || {
            for (index, stream) in listener.incoming().enumerate() {
                let Ok(mut s) = stream else { break };
                let _ = s.set_nodelay(true);
                let (log, objects) = (Arc::clone(&stub_log), Arc::clone(&objects));
                let mut busy_left = if index == 1 { busy_first } else { 0 };
                thread::spawn(move || loop {
                    let Ok(FrameRead::Frame(body)) = read_frame(&mut s) else { return };
                    let Ok(req) = Request::decode(&body) else { return };
                    let resp = if busy_left > 0 {
                        busy_left -= 1;
                        let mut log = log.lock().unwrap();
                        let served = log.served_elsewhere;
                        log.at_busy.push(served);
                        Response::Busy
                    } else {
                        if index > 1 {
                            log.lock().unwrap().served_elsewhere += 1;
                        }
                        let mut objects = objects.lock().unwrap();
                        match req.op {
                            Op::Put { payload, .. } => {
                                let id = objects.len() as u64 + 1;
                                objects.insert(id, payload);
                                Response::PutOk { id }
                            }
                            Op::Get { id } => match objects.get(&id) {
                                Some(p) => Response::GetOk { payload: p.clone() },
                                None => Response::NotFound { id },
                            },
                            Op::Metrics => Response::MetricsOk { json: "{}".into() },
                            _ => Response::Ok,
                        }
                    };
                    if write_frame(&mut s, &resp.encode_corr(req.corr_id)).is_err() {
                        return;
                    }
                });
            }
        });
        (addr, log)
    }

    /// A small-payload config against `addr` with tracing off.
    fn stub_cfg(addr: std::net::SocketAddr) -> LoadConfig {
        LoadConfig {
            addr: addr.to_string(),
            payload_min: 32,
            payload_max: 64,
            trace_sample: 0,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn pipelined_driver_completes_its_op_limit_exactly() {
        let (addr, _) = spawn_stub_server(0);
        let cfg = LoadConfig {
            connections: 2,
            duration_ms: 10_000,
            pipeline_depth: 8,
            prefill: 8,
            op_limit: 40,
            ..stub_cfg(addr)
        };
        let report = run_load(&cfg).expect("load run");
        assert_eq!(report.ops, 80, "40 per connection, prefill excluded: {report:?}");
        assert_eq!(report.puts + report.gets + report.deletes, 80);
        assert_eq!(report.errors, 0);
        assert_eq!(report.payload_mismatches, 0, "the stub serves back what was put");
        assert!(report.gets > 0, "the default mix reads");
    }

    #[test]
    fn open_loop_driver_sustains_many_connections() {
        let (addr, _) = spawn_stub_server(0);
        let cfg = LoadConfig {
            connections: 32,
            duration_ms: 400,
            rate_ops_per_sec: 500.0,
            pipeline_depth: 32,
            prefill: 4,
            ..stub_cfg(addr)
        };
        let report = run_load(&cfg).expect("open-loop run");
        assert_eq!(report.connected, 32);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.unanswered, 0, "drain settles everything");
        assert_eq!(report.shed, 0, "32x32 window absorbs 500/s");
        assert_eq!(report.payload_mismatches, 0);
        assert!(report.ops >= 100, "~200 arrivals in 400ms: {}", report.ops);
        assert!(report.p99_us() > 0);
    }

    #[test]
    fn a_busy_connection_does_not_stall_the_others() {
        // The driver's first connection is answered BUSY 20 times; each
        // retry waits out its not-before delay while the reactor keeps
        // serving the other three. A driver that slept (or spun) on the
        // retry would let at most one request per other connection
        // through between two BUSY answers.
        let (addr, log) = spawn_stub_server(20);
        let cfg = LoadConfig {
            connections: 4,
            duration_ms: 300,
            mix: OpMix { put: 100, get: 0, delete: 0 },
            prefill: 0,
            ..stub_cfg(addr)
        };
        let report = run_load(&cfg).expect("load run");
        assert_eq!(report.busy_retries, 20);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.unanswered, 0);
        let log = log.lock().unwrap();
        assert_eq!(log.at_busy.len(), 20);
        let widest = log.at_busy.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            widest >= 12,
            "other connections completed at most {widest} requests between two BUSY retries"
        );
    }

    #[test]
    fn trace_ids_are_a_function_of_seed_connection_and_index() {
        assert_eq!(trace_id_for(7, 1, 5), trace_id_for(7, 1, 5));
        assert_ne!(trace_id_for(7, 1, 5), trace_id_for(7, 2, 5));
        assert_ne!(trace_id_for(7, 1, 5), trace_id_for(7, 1, 6));
        assert_ne!(trace_id_for(7, 1, 5), trace_id_for(8, 1, 5));
    }
}
