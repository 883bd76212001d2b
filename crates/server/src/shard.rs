//! Event-loop connection shards.
//!
//! The server serves every connection from a small, fixed set of shards.
//! Each shard is one thread around a [`crate::reactor::Poller`]: it owns
//! a slab of connection states (per-connection read [`FrameBuffer`],
//! write buffer, and in-flight bookkeeping), reassembles frames
//! incrementally, dispatches decoded requests to the engine's worker
//! pool, and writes completed responses back — coalescing every response
//! queued since the last flush into one write syscall.
//!
//! Invariants the shard maintains:
//!
//! * **Never desync.** Partial frames interleaved across connections are
//!   reassembled per-connection by [`FrameBuffer`]; a frame's bytes are
//!   only consumed once the whole frame is present.
//! * **Legacy ordering.** A request without a correlation id (an
//!   old-header, one-at-a-time client) holds further frame extraction on
//!   its connection until it is answered, so responses stay in request
//!   order on the wire — the v1 one-at-a-time discipline.
//! * **Pipelining.** Correlated requests run concurrently up to
//!   `max_inflight_per_conn`; completions arrive out of order and are
//!   matched back by slot, generation, and correlation id. Stale
//!   completions for a reused slot are dropped by a per-slot generation
//!   counter.
//! * **Nonblocking backpressure.** A full engine queue answers BUSY
//!   inline (`server.queue.busy`); the loop never blocks on dispatch, so
//!   a saturated queue cannot stall readiness processing.
//! * **Bounded buffering.** A connection reads only until one complete
//!   frame is buffered. While a complete frame is held back (serial hold,
//!   in-flight cap, or more than `OUT_HIGH_WATER` (1 MiB) of unflushed
//!   output) the shard drops READ interest, so further requests wait in
//!   the kernel's socket buffer and a client that pipelines without
//!   reading its responses cannot grow server memory without limit.
//! * **Level-triggered liveness.** When a completion frees pipeline
//!   capacity, or a flush drains the output below the high-water mark,
//!   frame extraction re-runs immediately and READ interest comes back —
//!   buffered bytes are never stranded waiting for a readiness edge that
//!   will not come.
//! * **Drain ordering.** On shutdown a shard stops dispatching, answers
//!   already-buffered frames SHUTTING_DOWN, finishes in-flight requests,
//!   flushes every write buffer, then closes — with a force-close
//!   deadline so a stuck peer cannot wedge exit.

use crate::engine::{Job, JobTrace, Reply};
use crate::obs::{LoopStats, ServerObserver};
use crate::protocol::{append_frame, FrameBuffer, Op, Request, Response};
use crate::reactor::{Interest, Poller, Waker};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tornado_obs::trace::SpanRecord;
use tornado_obs::Json;

/// Poller token reserved for the shard's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Read scratch size per readiness event.
const READ_CHUNK: usize = 16 << 10;

/// Unflushed response bytes past which a connection stops extracting
/// frames until its peer reads. In-flight requests still complete, so the
/// output buffer peaks at this plus `max_inflight_per_conn` responses.
const OUT_HIGH_WATER: usize = 1 << 20;

/// How long a draining shard waits for in-flight requests and write
/// buffers before force-closing connections.
const DRAIN_FORCE_CLOSE: Duration = Duration::from_secs(5);

/// Where shards receive work from other threads: adopted connections from
/// the acceptor and completions from engine workers. Every push kicks the
/// shard's waker so the loop reacts without waiting out its poll timeout.
pub(crate) struct ShardMailbox {
    completions: Mutex<Vec<Completion>>,
    adopted: Mutex<Vec<TcpStream>>,
    waker: OnceLock<Waker>,
}

/// One finished request on its way back to a connection.
struct Completion {
    slot: usize,
    gen: u64,
    corr: Option<u32>,
    response: Response,
}

impl ShardMailbox {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            completions: Mutex::new(Vec::new()),
            adopted: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
        })
    }

    /// Delivers a finished response (engine worker side of [`Reply`]).
    pub fn complete(&self, slot: usize, gen: u64, corr: Option<u32>, response: Response) {
        self.completions
            .lock()
            .expect("mailbox lock")
            .push(Completion { slot, gen, corr, response });
        self.kick();
    }

    /// Hands a freshly accepted connection to the shard.
    pub fn adopt(&self, stream: TcpStream) {
        self.adopted.lock().expect("mailbox lock").push(stream);
        self.kick();
    }

    /// Wakes the shard's event loop (no-op until the shard installs its
    /// waker on startup; the loop's first pass drains the mailbox anyway).
    pub fn kick(&self) {
        if let Some(w) = self.waker.get() {
            w.wake();
        }
    }
}

/// Dispatches decoded requests to the worker pool. The engine implements
/// this; tests substitute doubles (e.g. an always-busy pool) to pin loop
/// behavior without standing up workers.
pub(crate) trait Dispatcher: Send + Sync + 'static {
    /// Admits a job or returns the rejection response (BUSY / SHUTTING_DOWN).
    fn dispatch(&self, job: Job) -> Result<(), Response>;
}

impl Dispatcher for crate::engine::Engine {
    fn dispatch(&self, job: Job) -> Result<(), Response> {
        self.submit(job)
    }
}

/// Everything a shard needs beyond its mailbox.
pub(crate) struct ShardContext<D: Dispatcher> {
    pub dispatcher: Arc<D>,
    pub obs: Arc<ServerObserver>,
    pub stats: Arc<LoopStats>,
    pub mailbox: Arc<ShardMailbox>,
    pub shutdown: Arc<AtomicBool>,
    /// Server-wide open-connection count (shared with the acceptor, which
    /// increments it; shards decrement on teardown).
    pub active: Arc<AtomicI64>,
    pub default_deadline_ms: u32,
    pub slow_request_us: u64,
    pub poll_interval_ms: u64,
    pub max_inflight_per_conn: usize,
}

/// Metadata for one dispatched, unanswered request.
struct PendingMeta {
    corr: Option<u32>,
    op_kind: &'static str,
    req_start: Instant,
    trace_id: u64,
    /// `(root_span, root_start_us)` when the request is trace-sampled.
    trace: Option<(u64, u64)>,
}

/// One connection's state within the shard slab.
struct Conn {
    stream: TcpStream,
    /// Generation stamped on dispatches; completions carrying an older
    /// generation targeted a previous tenant of this slot and are dropped.
    gen: u64,
    inbuf: FrameBuffer,
    /// Queued response bytes not yet written (`out_pos` marks progress of
    /// a partial write).
    out: Vec<u8>,
    out_pos: usize,
    /// Frames appended to `out` since the last fully-drained flush — the
    /// write-batching counter.
    out_frames: usize,
    /// Requests dispatched to the engine and not yet answered.
    pending: Vec<PendingMeta>,
    /// An uncorrelated (one-at-a-time) request is in flight: extraction
    /// holds until it is answered so legacy responses stay ordered.
    serial_hold: bool,
    /// The interest the poller currently holds for this fd.
    interest: Interest,
    /// Read side is finished (EOF or fatal error); tear down once
    /// in-flight requests drain and the write buffer flushes.
    peer_gone: bool,
    /// Close once the write buffer drains (post-SHUTDOWN reply).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            out_frames: 0,
            pending: Vec::new(),
            serial_hold: false,
            interest: Interest::READ,
            peer_gone: false,
            close_after_flush: false,
        }
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Too much unflushed output to take on more requests.
    fn out_backlogged(&self) -> bool {
        self.out.len() - self.out_pos > OUT_HIGH_WATER
    }

    /// The interest this connection needs: READ unless the read side is
    /// finished or a complete frame is already waiting to be extracted;
    /// WRITE while output is pending.
    fn wanted_interest(&self) -> Interest {
        let reading = !self.peer_gone && !self.close_after_flush && !self.inbuf.has_frame();
        Interest { read: reading, write: self.has_output() }
    }
}

/// Trace ids assigned to requests whose client sent none. A plain counter
/// is enough: the sampling decision mixes the id, so sequential ids still
/// sample uniformly.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Runs one shard's event loop until shutdown completes. This is the
/// shard thread's entire body.
pub(crate) fn run_shard<D: Dispatcher>(ctx: ShardContext<D>) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    let waker = match Waker::new(&poller, WAKER_TOKEN) {
        Ok(w) => w,
        Err(_) => return,
    };
    let _ = ctx.mailbox.waker.set(waker);

    let mut shard = ShardState {
        poller,
        ctx,
        conns: Vec::new(),
        free: Vec::new(),
        gen_counter: 0,
        drain_started: None,
    };
    shard.run();
}

struct ShardState<D: Dispatcher> {
    poller: Poller,
    ctx: ShardContext<D>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen_counter: u64,
    drain_started: Option<Instant>,
}

impl<D: Dispatcher> ShardState<D> {
    fn run(&mut self) {
        let mut events = Vec::new();
        let timeout = Some(Duration::from_millis(self.ctx.poll_interval_ms.max(1)));
        loop {
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.ctx.stats.wakeups.inc();
            self.ctx.stats.events.add(events.len() as u64);

            // Slots whose output changed this wakeup; flushed once at the
            // end so every response queued in this pass shares a syscall.
            let mut dirty: Vec<usize> = Vec::new();

            for ev in events.drain(..) {
                if ev.token == WAKER_TOKEN {
                    if let Some(w) = self.ctx.mailbox.waker.get() {
                        w.drain();
                    }
                    continue;
                }
                let slot = ev.token as usize;
                if ev.readable {
                    self.handle_readable(slot, &mut dirty);
                }
                if ev.writable {
                    self.flush(slot);
                    self.resume(slot, &mut dirty);
                }
            }

            self.adopt_new();
            self.process_completions(&mut dirty);

            // Flushing can drain a backlogged connection, whose resumed
            // extraction may queue more output (inline rejections), so
            // repeat until nothing new is dirty.
            while !dirty.is_empty() {
                let mut batch = std::mem::take(&mut dirty);
                batch.sort_unstable();
                batch.dedup();
                for slot in batch {
                    self.flush(slot);
                    self.resume(slot, &mut dirty);
                }
            }

            if self.ctx.shutdown.load(Ordering::SeqCst) && self.drain() {
                return;
            }
        }
    }

    /// Drain pass, entered once the shutdown flag is up. Returns true when
    /// the shard is fully drained (or force-closed) and the loop may exit.
    fn drain(&mut self) -> bool {
        let deadline_passed = match self.drain_started {
            None => {
                self.drain_started = Some(Instant::now());
                false
            }
            Some(t) => t.elapsed() >= DRAIN_FORCE_CLOSE,
        };
        // Close every connection that is finished: nothing in flight and
        // nothing left to write. Past the force-close deadline, close
        // unconditionally — a peer that stopped reading cannot wedge exit.
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => (c.inflight() == 0 && !c.has_output()) || deadline_passed,
                None => false,
            };
            if done {
                self.teardown(slot);
            }
        }
        self.conns.iter().all(Option::is_none)
    }

    /// Takes connections the acceptor handed over and registers them.
    fn adopt_new(&mut self) {
        let adopted: Vec<TcpStream> =
            std::mem::take(&mut *self.ctx.mailbox.adopted.lock().expect("mailbox lock"));
        for stream in adopted {
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                // Acceptor race during drain: the peer has sent nothing
                // yet, so closing is indistinguishable from never having
                // been accepted.
                self.ctx.active.fetch_sub(1, Ordering::SeqCst);
                self.sync_active_gauge();
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.ctx.active.fetch_sub(1, Ordering::SeqCst);
                self.sync_active_gauge();
                continue;
            }
            self.gen_counter += 1;
            let gen = self.gen_counter;
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self.poller.register(&stream, slot as u64, Interest::READ).is_err() {
                self.free.push(slot);
                self.ctx.active.fetch_sub(1, Ordering::SeqCst);
                self.sync_active_gauge();
                continue;
            }
            self.conns[slot] = Some(Conn::new(stream, gen));
            self.ctx.stats.connections.add(1);
        }
    }

    fn sync_active_gauge(&self) {
        self.ctx
            .obs
            .connections_active
            .set(self.ctx.active.load(Ordering::SeqCst));
    }

    /// Reads until `WouldBlock` or until a complete frame is buffered,
    /// then extracts as many complete frames as pipelining rules allow.
    /// Frames the rules hold back stay in the kernel's socket buffer: READ
    /// interest is dropped until extraction resumes. (A readable event
    /// while READ interest is off is a hang-up or error; the one read it
    /// triggers notices that.)
    fn handle_readable(&mut self, slot: usize, dirty: &mut Vec<usize>) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.peer_gone || conn.close_after_flush {
            return;
        }
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend(&scratch[..n]);
                    if conn.inbuf.has_frame() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.peer_gone = true;
                    break;
                }
            }
        }
        self.extract_frames(slot, dirty);
        self.update_interest(slot);
        self.maybe_teardown(slot);
    }

    /// Restarts extraction on a connection whose held-back frames may now
    /// be admissible (after a flush drained its output), and restores its
    /// READ interest once nothing is held.
    fn resume(&mut self, slot: usize, dirty: &mut Vec<usize>) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if conn.inbuf.has_frame() {
            self.extract_frames(slot, dirty);
        }
        self.update_interest(slot);
        self.maybe_teardown(slot);
    }

    /// Re-registers the connection when the interest it needs changed.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want = conn.wanted_interest();
        if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.reregister(&conn.stream, slot as u64, want);
        }
    }

    /// Pulls complete frames out of the connection's read buffer and
    /// dispatches them, honoring the serial hold (legacy ordering), the
    /// per-connection in-flight cap, and drain mode.
    fn extract_frames(&mut self, slot: usize, dirty: &mut Vec<usize>) {
        let shutting_down = self.ctx.shutdown.load(Ordering::SeqCst);
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.close_after_flush {
                return;
            }
            if !shutting_down {
                if conn.serial_hold {
                    return;
                }
                if conn.inflight() >= self.ctx.max_inflight_per_conn {
                    return;
                }
                if conn.out_backlogged() {
                    return;
                }
            }
            let body = match conn.inbuf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return,
                Err(_) => {
                    // Framing violation (oversized length prefix): the
                    // stream can never resync, so stop reading. In-flight
                    // requests still complete and flush before teardown.
                    conn.peer_gone = true;
                    return;
                }
            };
            self.ctx.stats.frames_in.inc();
            let req_start = Instant::now();
            let request = match Request::decode(&body) {
                Ok(r) => r,
                Err(e) => {
                    self.ctx.obs.bad_requests.inc();
                    // No correlation id survives a failed decode; answer
                    // unflagged.
                    let resp = Response::BadRequest { message: e.to_string() };
                    self.queue_response(slot, None, &resp, dirty);
                    continue;
                }
            };
            let decode_us = req_start.elapsed().as_micros() as u64;
            let corr = request.corr_id;

            if matches!(request.op, Op::Shutdown) {
                self.ctx.shutdown.store(true, Ordering::SeqCst);
                self.ctx.obs.admin.inc();
                self.ctx.obs.events.emit("server.shutdown_requested", &[]);
                self.queue_response(slot, corr, &Response::Ok, dirty);
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.close_after_flush = true;
                }
                return;
            }
            if shutting_down {
                self.queue_response(slot, corr, &Response::ShuttingDown, dirty);
                continue;
            }

            // Trace context: the client's id if it sent one (so its spans
            // and ours share a trace), a server-assigned id otherwise.
            // Sampling is a pure function of the id. TRACE_EXPORT itself
            // is never traced: it snapshots the ring mid-request, so its
            // own half-built tree would pollute every export with orphans.
            let obs = Arc::clone(&self.ctx.obs);
            let trace_id = request
                .trace_id
                .unwrap_or_else(|| TRACE_SEQ.fetch_add(1, Ordering::Relaxed));
            let traceable = !matches!(request.op, Op::TraceExport);
            let trace =
                (traceable && obs.tracer.is_enabled() && obs.tracer.sampled(trace_id)).then(|| {
                    let root_span = obs.tracer.next_span_id();
                    let now_us = obs.tracer.now_us();
                    let root_start_us = now_us.saturating_sub(decode_us);
                    obs.tracer.record(SpanRecord {
                        trace_id,
                        span_id: obs.tracer.next_span_id(),
                        parent_id: Some(root_span),
                        name: "frame.decode",
                        start_us: root_start_us,
                        dur_us: decode_us,
                        fields: vec![("frame_bytes", Json::U64(body.len() as u64))],
                    });
                    (root_span, root_start_us)
                });

            let op_kind = request.op.kind();
            let accepted_at = Instant::now();
            let deadline_ms = if request.deadline_ms > 0 {
                request.deadline_ms
            } else {
                self.ctx.default_deadline_ms
            };
            let deadline =
                (deadline_ms > 0).then(|| accepted_at + Duration::from_millis(deadline_ms as u64));
            let job_trace = trace.map(|(root_span, _)| JobTrace {
                trace_id,
                root_span,
                accepted_us: obs.tracer.now_us(),
            });
            let gen = self.conns[slot].as_ref().expect("conn present").gen;
            let job = Job {
                request,
                reply: Reply::Shard {
                    mailbox: Arc::clone(&self.ctx.mailbox),
                    slot,
                    gen,
                    corr,
                },
                accepted_at,
                deadline,
                trace: job_trace,
            };
            match self.ctx.dispatcher.dispatch(job) {
                Ok(()) => {
                    let conn = self.conns[slot].as_mut().expect("conn present");
                    conn.pending.push(PendingMeta {
                        corr,
                        op_kind,
                        req_start,
                        trace_id,
                        trace,
                    });
                    if corr.is_none() {
                        conn.serial_hold = true;
                    }
                    self.ctx.stats.inflight.add(1);
                }
                Err(rejection) => {
                    // Nonblocking backpressure: the rejection (BUSY /
                    // SHUTTING_DOWN) is queued inline and the loop moves
                    // on — a full engine queue never stalls readiness.
                    if matches!(rejection, Response::Busy) {
                        self.ctx.stats.queue_busy.inc();
                    }
                    let meta = PendingMeta { corr, op_kind, req_start, trace_id, trace };
                    self.finish_request(slot, &meta, &rejection, dirty);
                }
            }
        }
    }

    /// Applies completed requests from the engine, matching each back to
    /// its connection (slot + generation) and request (correlation id).
    fn process_completions(&mut self, dirty: &mut Vec<usize>) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *self.ctx.mailbox.completions.lock().expect("mailbox lock"));
        // Re-extract on every connection that got capacity back: buffered
        // frames beyond the in-flight cap have no readiness edge coming.
        let mut freed: VecDeque<usize> = VecDeque::new();
        for done in completions {
            let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != done.gen {
                continue; // a previous tenant of this slot
            }
            let idx = match done.corr {
                Some(c) => conn.pending.iter().position(|m| m.corr == Some(c)),
                None => conn.pending.iter().position(|m| m.corr.is_none()),
            };
            let Some(idx) = idx else { continue };
            let meta = conn.pending.remove(idx);
            if meta.corr.is_none() {
                conn.serial_hold = false;
            }
            self.ctx.stats.inflight.add(-1);
            self.finish_request(done.slot, &meta, &done.response, dirty);
            freed.push_back(done.slot);
        }
        while let Some(slot) = freed.pop_front() {
            self.extract_frames(slot, dirty);
            self.update_interest(slot);
            self.maybe_teardown(slot);
        }
    }

    /// Queues the response bytes, records the root span (last, so its
    /// window encloses every child), and emits the slow-request event.
    fn finish_request(
        &mut self,
        slot: usize,
        meta: &PendingMeta,
        response: &Response,
        dirty: &mut Vec<usize>,
    ) {
        self.queue_response(slot, meta.corr, response, dirty);
        let obs = &self.ctx.obs;
        if let Some((root_span, root_start_us)) = meta.trace {
            obs.tracer.record(SpanRecord {
                trace_id: meta.trace_id,
                span_id: root_span,
                parent_id: None,
                name: "request",
                start_us: root_start_us,
                dur_us: obs.tracer.now_us().saturating_sub(root_start_us),
                fields: vec![
                    ("op", Json::Str(meta.op_kind.into())),
                    ("status", Json::Str(response.kind().into())),
                ],
            });
        }
        let total_us = meta.req_start.elapsed().as_micros() as u64;
        if self.ctx.slow_request_us > 0
            && total_us >= self.ctx.slow_request_us
            && obs.events.is_enabled()
        {
            emit_slow_request(
                obs,
                meta.trace_id,
                meta.op_kind,
                response,
                total_us,
                meta.trace.is_some(),
            );
        }
    }

    /// Appends one response frame to the connection's write buffer.
    fn queue_response(
        &mut self,
        slot: usize,
        corr: Option<u32>,
        response: &Response,
        dirty: &mut Vec<usize>,
    ) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        append_frame(&mut conn.out, &response.encode_corr(corr));
        conn.out_frames += 1;
        self.ctx.stats.responses_out.inc();
        dirty.push(slot);
    }

    /// Writes the connection's whole output buffer in one syscall (the
    /// write-batching win: every frame queued since the last drain shares
    /// it). Short writes keep the remainder and register write interest.
    fn flush(&mut self, slot: usize) {
        let stats = &self.ctx.stats;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.has_output() {
            let frames = conn.out_frames;
            let mut wrote_all = false;
            let mut broken = false;
            loop {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        stats.write_flushes.inc();
                        conn.out_pos += n;
                        if conn.out_pos == conn.out.len() {
                            wrote_all = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                conn.peer_gone = true;
                conn.out.clear();
                conn.out_pos = 0;
                conn.out_frames = 0;
            } else if wrote_all {
                if frames >= 2 {
                    stats.batched_writes.inc();
                }
                conn.out.clear();
                conn.out_pos = 0;
                conn.out_frames = 0;
            }
        }
        self.update_interest(slot);
        self.maybe_teardown(slot);
    }

    /// Closes the connection if it has reached a terminal state: the peer
    /// is gone (or SHUTDOWN was answered) with nothing left in flight and
    /// nothing left to write.
    fn maybe_teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let flushed = !conn.has_output();
        let idle = conn.inflight() == 0;
        let closing = (conn.close_after_flush || conn.peer_gone) && flushed && idle;
        if closing {
            self.teardown(slot);
        }
    }

    fn teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        let _ = self.poller.deregister(&conn.stream);
        drop(conn);
        self.free.push(slot);
        self.ctx.stats.connections.add(-1);
        self.ctx.active.fetch_sub(1, Ordering::SeqCst);
        self.sync_active_gauge();
    }
}

/// Emits a `server.slow_request` event; when the request was sampled the
/// event carries its full span tree (name/span/parent/start/duration), so
/// the slow path is diagnosable straight from the event stream.
fn emit_slow_request(
    obs: &ServerObserver,
    trace_id: u64,
    op_kind: &str,
    response: &Response,
    total_us: u64,
    sampled: bool,
) {
    let mut fields = vec![
        ("trace_id", Json::Str(format!("{trace_id:#018x}"))),
        ("op", Json::Str(op_kind.into())),
        ("status", Json::Str(response.kind().into())),
        ("total_us", Json::U64(total_us)),
        ("sampled", Json::Bool(sampled)),
    ];
    if sampled {
        let spans: Vec<Json> = obs
            .tracer
            .spans_for(trace_id)
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("span".into(), Json::U64(s.span_id)),
                    (
                        "parent".into(),
                        s.parent_id.map(Json::U64).unwrap_or(Json::Null),
                    ),
                    ("start_us".into(), Json::U64(s.start_us)),
                    ("dur_us".into(), Json::U64(s.dur_us)),
                ])
            })
            .collect();
        fields.push(("spans", Json::Arr(spans)));
    }
    obs.events.emit("server.slow_request", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, FrameRead};
    use std::net::TcpListener;
    use std::thread;

    /// Dispatcher double whose queue is permanently full.
    struct AlwaysBusy;
    impl Dispatcher for AlwaysBusy {
        fn dispatch(&self, _job: Job) -> Result<(), Response> {
            Err(Response::Busy)
        }
    }

    /// Dispatcher double that answers every request inline (everything is
    /// Ok except GETs, which echo their id as a one-byte payload so tests
    /// can match responses to requests).
    struct Inline;
    impl Dispatcher for Inline {
        fn dispatch(&self, job: Job) -> Result<(), Response> {
            let response = match &job.request.op {
                Op::Get { id } => Response::GetOk { payload: vec![*id as u8] },
                _ => Response::Ok,
            };
            job.reply.send(response);
            Ok(())
        }
    }

    /// Payload size [`Large`] answers every GET with.
    const LARGE: usize = 128 << 10;

    /// Dispatcher double that answers every GET inline with [`LARGE`]
    /// bytes.
    struct Large;
    impl Dispatcher for Large {
        fn dispatch(&self, job: Job) -> Result<(), Response> {
            job.reply.send(Response::GetOk { payload: vec![7; LARGE] });
            Ok(())
        }
    }

    struct Harness {
        addr: std::net::SocketAddr,
        shutdown: Arc<AtomicBool>,
        mailbox: Arc<ShardMailbox>,
        stats: Arc<LoopStats>,
        accept: Option<thread::JoinHandle<()>>,
        shard: Option<thread::JoinHandle<()>>,
    }

    impl Harness {
        /// Stands up one shard behind a real listener: accepted
        /// connections go straight to the shard's mailbox.
        fn start<D: Dispatcher>(dispatcher: D, max_inflight: usize) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = Arc::new(AtomicBool::new(false));
            let mailbox = ShardMailbox::new();
            let stats = Arc::new(LoopStats::new());
            let active = Arc::new(AtomicI64::new(0));
            let ctx = ShardContext {
                dispatcher: Arc::new(dispatcher),
                obs: ServerObserver::shared(),
                stats: Arc::clone(&stats),
                mailbox: Arc::clone(&mailbox),
                shutdown: Arc::clone(&shutdown),
                active: Arc::clone(&active),
                default_deadline_ms: 0,
                slow_request_us: 0,
                poll_interval_ms: 5,
                max_inflight_per_conn: max_inflight,
            };
            let shard = thread::spawn(move || run_shard(ctx));
            let accept = {
                let shutdown = Arc::clone(&shutdown);
                let mailbox = Arc::clone(&mailbox);
                thread::spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                active.fetch_add(1, Ordering::SeqCst);
                                mailbox.adopt(stream);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                    }
                })
            };
            Self {
                addr,
                shutdown,
                mailbox,
                stats,
                accept: Some(accept),
                shard: Some(shard),
            }
        }

        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        }

        fn stop(mut self) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.mailbox.kick();
            if let Some(t) = self.accept.take() {
                let _ = t.join();
            }
            if let Some(t) = self.shard.take() {
                let _ = t.join();
            }
        }
    }

    fn req(corr: Option<u32>, op: Op) -> Vec<u8> {
        Request { deadline_ms: 0, corr_id: corr, trace_id: None, op }.encode()
    }

    fn read_response(stream: &mut TcpStream) -> (Option<u32>, Response) {
        match read_frame(stream).unwrap() {
            FrameRead::Frame(body) => Response::decode_corr(&body).unwrap(),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_complete_and_match_by_corr_id() {
        let h = Harness::start(Inline, 64);
        let mut c = h.connect();
        // Issue 10 GETs before reading anything; responses must carry the
        // echoed corr ids and the per-request payloads.
        for i in 0..10u32 {
            write_frame(&mut c, &req(Some(i), Op::Get { id: i as u64 })).unwrap();
        }
        let mut seen = [false; 10];
        for _ in 0..10 {
            let (corr, resp) = read_response(&mut c);
            let corr = corr.expect("pipelined response carries its corr id");
            assert!(!seen[corr as usize], "corr {corr} answered twice");
            seen[corr as usize] = true;
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![corr as u8]),
                other => panic!("{other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(h.stats.frames_in.get() >= 10);
        h.stop();
    }

    #[test]
    fn uncorrelated_requests_stay_strictly_ordered() {
        let h = Harness::start(Inline, 64);
        let mut c = h.connect();
        // A legacy client writes several frames back-to-back; replies must
        // come back unflagged and in order.
        for i in 0..5u64 {
            write_frame(&mut c, &req(None, Op::Get { id: i })).unwrap();
        }
        for i in 0..5u64 {
            let (corr, resp) = read_response(&mut c);
            assert_eq!(corr, None, "legacy responses are unflagged");
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![i as u8]),
                other => panic!("{other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn interleaved_partial_frames_across_connections_never_desync() {
        let h = Harness::start(Inline, 64);
        let mut conns: Vec<TcpStream> = (0..8).map(|_| h.connect()).collect();
        // Build one distinct correlated frame per connection, then drip
        // them byte-by-byte round-robin so every connection's frame is
        // partial most of the time.
        let frames: Vec<Vec<u8>> = (0..conns.len() as u32)
            .map(|i| {
                let body = req(Some(100 + i), Op::Get { id: i as u64 });
                let mut f = Vec::new();
                append_frame(&mut f, &body);
                f
            })
            .collect();
        let max_len = frames.iter().map(Vec::len).max().unwrap();
        for byte_idx in 0..max_len {
            for (ci, frame) in frames.iter().enumerate() {
                if byte_idx < frame.len() {
                    conns[ci].write_all(&frame[byte_idx..=byte_idx]).unwrap();
                }
            }
        }
        for (ci, c) in conns.iter_mut().enumerate() {
            let (corr, resp) = read_response(c);
            assert_eq!(corr, Some(100 + ci as u32));
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![ci as u8]),
                other => panic!("{other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn saturated_queue_answers_busy_without_stalling_readiness() {
        let h = Harness::start(AlwaysBusy, 64);
        let mut a = h.connect();
        let mut b = h.connect();
        // Every dispatch is rejected; the loop must keep answering — on
        // this connection and on others — without blocking.
        for i in 0..20u32 {
            write_frame(&mut a, &req(Some(i), Op::Ping)).unwrap();
        }
        write_frame(&mut b, &req(None, Op::Ping)).unwrap();
        for _ in 0..20 {
            let (corr, resp) = read_response(&mut a);
            assert!(corr.is_some());
            assert_eq!(resp, Response::Busy);
        }
        let (corr, resp) = read_response(&mut b);
        assert_eq!(corr, None);
        assert_eq!(resp, Response::Busy);
        assert_eq!(h.stats.queue_busy.get(), 21);
        assert_eq!(
            h.stats.inflight.get(),
            0,
            "rejected dispatches never count as in flight"
        );
        h.stop();
    }

    #[test]
    fn pipelined_client_against_shard_via_client_api() {
        // The library client's pipelined mode against a real shard.
        let h = Harness::start(Inline, 8);
        let mut pc = crate::client::Client::connect(h.addr).unwrap();
        let mut ids = Vec::new();
        for i in 0..6u64 {
            ids.push(pc.submit(Op::Get { id: i }).unwrap());
        }
        let mut got = 0;
        while got < 6 {
            let (corr, resp) = pc.recv().unwrap();
            let idx = ids.iter().position(|&c| c == corr).expect("known corr id");
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![idx as u8]),
                other => panic!("{other:?}"),
            }
            got += 1;
        }
        h.stop();
    }

    #[test]
    fn unread_responses_stop_dispatch_short() {
        // A client pipelines GETs of a large payload and never reads its
        // responses. Once the unflushed output passes the high-water mark
        // the shard stops extracting and leaves the rest of the requests
        // in the socket, so its memory stays bounded instead of growing
        // with every request sent.
        const GETS: u32 = 256;
        let h = Harness::start(Large, 8);
        let mut c = h.connect();
        for i in 0..GETS {
            write_frame(&mut c, &req(Some(i), Op::Get { id: i as u64 })).unwrap();
        }
        let mut dispatched = u64::MAX;
        loop {
            thread::sleep(Duration::from_millis(100));
            let now = h.stats.frames_in.get();
            if now == dispatched {
                break;
            }
            dispatched = now;
        }
        assert!(
            dispatched < GETS as u64 / 2,
            "{dispatched} of {GETS} GETs dispatched with no response read"
        );
        // Reading drains the output and extraction resumes: every GET is
        // answered in full.
        for _ in 0..GETS {
            match read_response(&mut c) {
                (Some(_), Response::GetOk { payload }) => assert_eq!(payload.len(), LARGE),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(h.stats.frames_in.get(), GETS as u64);
        h.stop();
    }

    #[test]
    fn shutdown_drains_and_closes() {
        let h = Harness::start(Inline, 8);
        let mut c = h.connect();
        write_frame(&mut c, &req(Some(1), Op::Ping)).unwrap();
        let (corr, resp) = read_response(&mut c);
        assert_eq!((corr, resp), (Some(1), Response::Ok));
        write_frame(&mut c, &req(Some(2), Op::Shutdown)).unwrap();
        let (corr, resp) = read_response(&mut c);
        assert_eq!((corr, resp), (Some(2), Response::Ok));
        // The server closes the connection after answering SHUTDOWN.
        match read_frame(&mut c).unwrap() {
            FrameRead::Eof => {}
            other => panic!("expected EOF after shutdown reply, got {other:?}"),
        }
        h.stop();
    }
}
