//! The blocking client for the archival block service.
//!
//! One [`Client`] wraps one TCP connection. Every request carries a
//! correlation id, so the connection can keep several requests in flight:
//! [`Client::submit`] sends without waiting and [`Client::recv`] returns
//! whichever response arrives next, matched back by id. The typed
//! methods ([`Client::put`], [`Client::get`], ...) are thin wrappers over
//! [`Client::roundtrip`], a depth-1 submit-then-receive. Error statuses
//! come back as typed [`ClientError`] variants so callers can distinguish
//! backpressure ([`ClientError::Busy`] — back off and retry) from real
//! failures.

use crate::error::ClientError;
use crate::protocol::{read_frame, write_frame, FrameRead, Op, Request, Response, StatMeta};
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to one server.
pub struct Client {
    stream: TcpStream,
    /// Deadline stamped on every request (milliseconds; 0 = none).
    deadline_ms: u32,
    /// Trace id stamped on every request (`None` = untraced header).
    trace_id: Option<u64>,
    /// Next correlation id to assign (wraps; in-flight windows are far
    /// smaller than 2³²).
    next_corr: u32,
    /// Requests submitted and not yet received.
    inflight: usize,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, deadline_ms: 0, trace_id: None, next_corr: 0, inflight: 0 })
    }

    /// Sets the per-request deadline stamped on subsequent requests
    /// (0 clears it).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Sets the trace id stamped on subsequent requests (`None` clears
    /// it). Retries of the same logical operation should keep the same
    /// id so their spans land in one trace.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// Requests submitted and not yet matched to a response.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Sends one request without waiting, returning the correlation id its
    /// response will carry.
    pub fn submit(&mut self, op: Op) -> Result<u32, ClientError> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        let req = Request {
            deadline_ms: self.deadline_ms,
            corr_id: Some(corr),
            trace_id: self.trace_id,
            op,
        };
        write_frame(&mut self.stream, &req.encode())?;
        self.inflight += 1;
        Ok(corr)
    }

    /// Reads the next response frame — whichever in-flight request
    /// finished first — as `(correlation id, response)`.
    pub fn recv(&mut self) -> Result<(u32, Response), ClientError> {
        match read_frame(&mut self.stream)? {
            FrameRead::Frame(body) => {
                let (corr, resp) = Response::decode_corr(&body)?;
                let corr = corr.ok_or_else(|| {
                    ClientError::Unexpected("server answered without a correlation id".into())
                })?;
                self.inflight = self.inflight.saturating_sub(1);
                Ok((corr, resp))
            }
            FrameRead::Eof => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))),
            FrameRead::TimedOut => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "timed out waiting for a response",
            ))),
        }
    }

    /// Sends one request and waits for its response. The correlation id
    /// is still matched, so a stray completion from an earlier unread
    /// [`Client::submit`] surfaces as an error rather than being
    /// misattributed.
    pub fn roundtrip(&mut self, op: Op) -> Result<Response, ClientError> {
        let want = self.submit(op)?;
        let (corr, resp) = self.recv()?;
        if corr != want {
            return Err(ClientError::Unexpected(format!(
                "response corr {corr} does not match request corr {want} \
                 (interleaved with unread completions?)"
            )));
        }
        Ok(resp)
    }

    /// Stores `payload` under `name`, returning the assigned object id.
    pub fn put(&mut self, name: &str, payload: &[u8]) -> Result<u64, ClientError> {
        match self.roundtrip(Op::Put { name: name.into(), payload: payload.to_vec() })? {
            Response::PutOk { id } => Ok(id),
            other => Err(error_from(other, "PUT")),
        }
    }

    /// Retrieves an object (transparently degraded under device failures).
    pub fn get(&mut self, id: u64) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip(Op::Get { id })? {
            Response::GetOk { payload } => Ok(payload),
            other => Err(error_from(other, "GET")),
        }
    }

    /// Deletes an object.
    pub fn delete(&mut self, id: u64) -> Result<(), ClientError> {
        self.expect_ok(Op::Delete { id }, "DELETE")
    }

    /// Fetches object metadata.
    pub fn stat(&mut self, id: u64) -> Result<StatMeta, ClientError> {
        match self.roundtrip(Op::Stat { id })? {
            Response::StatOk { meta } => Ok(meta),
            other => Err(error_from(other, "STAT")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(Op::Ping, "PING")
    }

    /// Admin: fails a device (its contents are destroyed).
    pub fn fail_device(&mut self, device: u32) -> Result<(), ClientError> {
        self.expect_ok(Op::FailDevice { device }, "FAIL_DEVICE")
    }

    /// Admin: replaces a failed device with an empty one.
    pub fn revive_device(&mut self, device: u32) -> Result<(), ClientError> {
        self.expect_ok(Op::ReviveDevice { device }, "REVIVE_DEVICE")
    }

    /// Admin: fetches the server's `tornado-metrics-v1` snapshot as JSON.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::Metrics)? {
            Response::MetricsOk { json } => Ok(json),
            other => Err(error_from(other, "METRICS")),
        }
    }

    /// Admin: fetches the server's `tornado-health-v1` durability
    /// document (live P(loss), risk margins, SLO burn rates) as JSON.
    pub fn health(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::Health)? {
            Response::HealthOk { json } => Ok(json),
            other => Err(error_from(other, "HEALTH")),
        }
    }

    /// Admin: exports the server's retained trace spans as Chrome
    /// trace-event JSON (loadable in Perfetto).
    pub fn trace_export(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::TraceExport)? {
            Response::TraceOk { json } => Ok(json),
            other => Err(error_from(other, "TRACE_EXPORT")),
        }
    }

    /// Admin: asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok(Op::Shutdown, "SHUTDOWN")
    }

    /// Runs `op`, accepting only a bare `OK`.
    fn expect_ok(&mut self, op: Op, name: &str) -> Result<(), ClientError> {
        match self.roundtrip(op)? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, name)),
        }
    }
}

/// Maps an error-status response onto a typed [`ClientError`].
fn error_from(resp: Response, op: &str) -> ClientError {
    match resp {
        Response::Busy => ClientError::Busy,
        Response::NotFound { id } => ClientError::NotFound(id),
        Response::Unrecoverable { id, lost_blocks } => ClientError::Unrecoverable { id, lost_blocks },
        Response::BadRequest { message } => ClientError::BadRequest(message),
        Response::DeadlineExceeded => ClientError::DeadlineExceeded,
        Response::ShuttingDown => ClientError::ShuttingDown,
        Response::ServerError { message } => ClientError::Server(message),
        ok => ClientError::Unexpected(format!("{op} answered {}", ok.kind())),
    }
}
