//! The server workloads over TCP: fresh server per run, setup outside the
//! clock, two closed-loop connections, every GET verified byte for byte.

use crate::gen::{self, Key, Kind, Mix, Op, Stream, Zipf};
use crate::server::{Server, WorkDir};
use crate::stats::Spans;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tornado_obs::Json;
use tornado_server::{Client, ClientError};

/// Closed-loop connections: archival clients upload or fetch a whole
/// object and wait for the reply.
pub const CONNECTIONS: u32 = 2;

/// What the workload's inputs are, derived from its seed.
pub struct Inputs {
    pub mix: Mix,
    pub seed: u64,
    pub prefill: Arc<Vec<Vec<u8>>>,
    pub zipf: Option<Arc<Zipf>>,
    pub failed: Vec<u32>,
}

impl Inputs {
    pub fn new(mix: Mix, seed: u64, devices: usize) -> Self {
        match mix {
            Mix::Ingest => Self {
                mix,
                seed,
                prefill: Arc::new(Vec::new()),
                zipf: None,
                failed: Vec::new(),
            },
            Mix::Degraded => Self {
                mix,
                seed,
                prefill: Arc::new(gen::prefill(seed)),
                zipf: Some(Arc::new(Zipf::new(seed))),
                failed: gen::failed_devices(seed, devices),
            },
        }
    }

    pub fn stream(&self, conn: u32) -> Stream {
        Stream::new(self.mix, self.seed, conn, self.zipf.clone())
    }
}

/// A started server with its connections open, prefilled and degraded.
pub struct Live {
    pub server: Server,
    clients: Vec<Client>,
    prefill_ids: Arc<Vec<u64>>,
    pub data_dir: Option<PathBuf>,
    /// Holds the run's files; removed when the run is dropped.
    _work: WorkDir,
}

/// Everything before the clock: server start, connecting, prefill,
/// failing devices, and waiting until HEALTH reflects the failures.
pub fn setup(inputs: &Inputs, bin: &Path, work: PathBuf) -> Result<Live, String> {
    let work = WorkDir::new(work)?;
    let data_dir = (inputs.mix == Mix::Ingest).then(|| work.0.join("data"));
    let server = Server::start(bin, &work.0, data_dir.as_deref())?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let admin = &mut clients[0];
    let mut prefill_ids = Vec::with_capacity(inputs.prefill.len());
    for (i, payload) in inputs.prefill.iter().enumerate() {
        let id = admin
            .put(&format!("prefill-{i}"), payload)
            .map_err(|e| format!("prefill: {e}"))?;
        prefill_ids.push(id);
    }
    for &d in &inputs.failed {
        admin
            .fail_device(d)
            .map_err(|e| format!("fail device {d}: {e}"))?;
    }
    Server::wait_offline(admin, inputs.failed.len() as u64)?;
    Ok(Live {
        server,
        clients,
        prefill_ids: Arc::new(prefill_ids),
        data_dir,
        _work: work,
    })
}

/// One completed operation.
pub struct Rec {
    pub conn: u32,
    pub kind: Kind,
    pub ok: bool,
    /// Payload bytes sent (PUT) or received (GET).
    pub bytes: usize,
    /// Send to verified reply.
    pub lat_us: f64,
    /// Completion, from the start of the clock.
    pub done_ns: u64,
}

/// One connection's outcome.
pub struct ConnRun {
    pub recs: Vec<Rec>,
    /// Acked, undeleted own objects with the bytes that were put
    /// (`Ingest` only: `Degraded` never reads its own puts back).
    pub live: HashMap<u64, Vec<u8>>,
    /// Ids of acked deletes.
    pub deleted: Vec<u64>,
    pub errors: Vec<String>,
    pub spans: Spans,
}

pub struct TcpRun {
    pub conns: Vec<ConnRun>,
    pub elapsed_s: f64,
}

impl TcpRun {
    pub fn recs(&self) -> impl Iterator<Item = &Rec> {
        self.conns.iter().flat_map(|c| c.recs.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.recs().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.recs().filter(|r| !r.ok).count() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.recs().filter(|r| r.ok).count() as f64 / self.elapsed_s
    }

    /// Latencies of the acked operations of `kind`, or of every kind.
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.recs()
            .filter(|r| r.ok && kind.is_none_or(|k| r.kind == k))
            .map(|r| r.lat_us)
            .collect()
    }

    pub fn errors(&self) -> impl Iterator<Item = &String> {
        self.conns.iter().flat_map(|c| c.errors.iter())
    }

    /// Connections in the order their operations completed: the
    /// interleaving the in-process replay follows.
    pub fn completion_order(&self) -> Vec<u32> {
        let mut all: Vec<(u64, u32)> = self.recs().map(|r| (r.done_ns, r.conn)).collect();
        all.sort_unstable();
        all.into_iter().map(|(_, c)| c).collect()
    }
}

/// Drives the live server closed-loop for `dur`; with `traced`, records
/// a client span per operation.
pub fn run(
    inputs: &Inputs,
    live: &mut Live,
    dur: Duration,
    traced: bool,
    epoch: Instant,
) -> TcpRun {
    let barrier = Barrier::new(live.clients.len());
    let start = Instant::now();
    let end = start + dur;
    let conns: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let barrier = &barrier;
                let prefill_ids = Arc::clone(&live.prefill_ids);
                let stream = inputs.stream(conn as u32);
                s.spawn(move || {
                    barrier.wait();
                    drive(
                        inputs,
                        client,
                        stream,
                        &prefill_ids,
                        conn as u32,
                        start,
                        end,
                        traced,
                        epoch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let last = conns
        .iter()
        .flat_map(|c| c.recs.iter())
        .map(|r| r.done_ns)
        .max()
        .unwrap_or(1);
    TcpRun {
        conns,
        elapsed_s: last as f64 / 1e9,
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    inputs: &Inputs,
    client: &mut Client,
    mut stream: Stream,
    prefill_ids: &[u64],
    conn: u32,
    start: Instant,
    end: Instant,
    traced: bool,
    epoch: Instant,
) -> ConnRun {
    let mut out = ConnRun {
        recs: Vec::new(),
        live: HashMap::new(),
        deleted: Vec::new(),
        errors: Vec::new(),
        spans: Spans::new(epoch),
    };
    let mut ids: HashMap<Key, u64> = HashMap::new();
    // An own key has no id when its put failed; the run is already
    // incorrect then, and the operation on it counts as failed too.
    let id_of = |ids: &HashMap<Key, u64>, key: Key| match key {
        Key::Prefill(i) => Ok(prefill_ids[i]),
        Key::Own { .. } => ids
            .get(&key)
            .copied()
            .ok_or_else(|| ClientError::Unexpected(format!("{key:?} was never stored"))),
    };
    while Instant::now() < end {
        let op = stream.next_op();
        let kind = op.kind();
        let t0 = Instant::now();
        let (result, bytes): (Result<(), ClientError>, usize) = match op {
            Op::Put { key, payload } => {
                let Key::Own { seq, .. } = key else {
                    unreachable!("puts name own keys")
                };
                let r = client.put(&format!("c{conn}-{seq}"), &payload);
                let n = payload.len();
                let r = r.map(|id| {
                    ids.insert(key, id);
                    if inputs.mix == Mix::Ingest {
                        out.live.insert(id, payload);
                    }
                });
                (r, n)
            }
            Op::Get(key) => match id_of(&ids, key).and_then(|id| Ok((id, client.get(id)?))) {
                Ok((id, bytes)) => {
                    let want = match key {
                        Key::Prefill(i) => Some(&inputs.prefill[i]),
                        Key::Own { .. } => out.live.get(&id),
                    };
                    let n = bytes.len();
                    if want == Some(&bytes) {
                        (Ok(()), n)
                    } else {
                        let e = format!("GET {id}: payload mismatch");
                        (Err(ClientError::Unexpected(e)), n)
                    }
                }
                Err(e) => (Err(e), 0),
            },
            Op::Delete(key) => {
                let r = id_of(&ids, key).and_then(|id| {
                    client.delete(id)?;
                    out.live.remove(&id);
                    out.deleted.push(id);
                    Ok(())
                });
                (r, 0)
            }
        };
        let done = Instant::now();
        if traced {
            let name = match kind {
                Kind::Put => "client.put",
                Kind::Get => "client.get",
                Kind::Delete => "client.delete",
            };
            let span = out.spans.next_id();
            out.spans.record(
                conn as u64 + 1,
                span,
                None,
                name,
                t0,
                vec![("bytes", Json::U64(bytes as u64))],
            );
        }
        let broken = matches!(result, Err(ClientError::Io(_) | ClientError::Wire(_)));
        if let Err(e) = &result {
            out.errors.push(format!("conn {conn}: {kind:?}: {e}"));
        }
        out.recs.push(Rec {
            conn,
            kind,
            ok: result.is_ok(),
            bytes,
            lat_us: done.duration_since(t0).as_secs_f64() * 1e6,
            done_ns: done.duration_since(start).as_nanos() as u64,
        });
        if broken {
            break;
        }
    }
    out
}

/// Sums the apparent size of every file under `dir`.
pub fn disk_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            disk_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// What the end of a run measures and checks.
pub struct Finish {
    pub rss_peak_mb: f64,
    /// `Ingest` only: disk bytes over live user bytes after the drain.
    pub space_amp: Option<f64>,
    /// `Ingest` only: median wall time of `ArchivalStore::open`, seconds.
    pub reopen_s: Option<f64>,
    /// `Ingest` only: `scan_bytes` delta across one reopen.
    pub reopen_scan_bytes: Option<u64>,
    /// Durability checks made after the reopen, and how many failed.
    pub checked: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Reopens of the drained data dir; the reported time is their median.
const REOPENS: usize = 3;

/// Reads the server's memory peak and SIGTERM-drains it. On `Ingest`,
/// then reopens the data dir in-process and checks that every acked,
/// undeleted put reads back byte for byte and every acked delete is gone.
pub fn finish(live: Live, run: &TcpRun, graph: &tornado_graph::Graph) -> Result<Finish, String> {
    let rss_peak_mb = live.server.rss_peak_mb()?;
    live.server.drain()?;
    let mut out = Finish {
        rss_peak_mb,
        space_amp: None,
        reopen_s: None,
        reopen_scan_bytes: None,
        checked: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let Some(dir) = &live.data_dir else {
        return Ok(out);
    };
    let live_bytes: u64 = run
        .conns
        .iter()
        .flat_map(|c| c.live.values())
        .map(|p| p.len() as u64)
        .sum();
    out.space_amp = Some(disk_bytes(dir)? as f64 / live_bytes.max(1) as f64);

    let mut times = Vec::with_capacity(REOPENS);
    let mut store = None;
    for _ in 0..REOPENS {
        drop(store.take());
        let scan0 = tornado_store::backend::metrics().scan_bytes.get();
        let cfg = tornado_store::DurableConfig::new(dir, tornado_store::BackendKind::Segment);
        let t0 = Instant::now();
        let (s, _) = tornado_store::ArchivalStore::open(graph.clone(), cfg)
            .map_err(|e| format!("reopen: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        out.reopen_scan_bytes = Some(tornado_store::backend::metrics().scan_bytes.get() - scan0);
        store = Some(s);
    }
    out.reopen_s = Some(crate::stats::median(times));
    let store = store.expect("reopened at least once");
    for (id, want) in run.conns.iter().flat_map(|c| c.live.iter()) {
        out.checked += 1;
        match store.get(*id) {
            Ok(got) if got == *want => {}
            Ok(_) => out
                .errors
                .push(format!("reopen: object {id} reads back different bytes")),
            Err(e) => out.errors.push(format!("reopen: acked object {id}: {e}")),
        }
    }
    for id in run.conns.iter().flat_map(|c| c.deleted.iter()) {
        out.checked += 1;
        if store.meta(*id).is_some() {
            out.errors
                .push(format!("reopen: deleted object {id} is still present"));
        }
    }
    out.failed = out.errors.len() as u64;
    Ok(out)
}
