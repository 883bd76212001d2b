//! The repository benchmark. One workload per invocation:
//!
//! * `degraded_read` — GET-heavy traffic over TCP with 4 devices failed;
//! * `fault_search` — the §3 testing system certifying catalog graph 1;
//! * `ingest_durable` — durable segment-backend ingest over TCP, fsync
//!   on. `BENCHMARK.json` does not list it: its fsync-bound figures
//!   follow the host disk, whose speed drifts by a third over tens of
//!   minutes, so two sets of runs of the same code disagree.
//!
//! `--trace 0` prints the manifest's end-to-end metrics; `--trace 1`
//! prints its per-layer metrics from a traced pass and writes the spans
//! as a Chrome trace. Every workload prints every metric of the mode;
//! one of a layer the workload never calls reads 0, and one the manifest
//! does not list is printed as a note. The last line of
//! standard output is the result object. Build and run it through
//! `perfbench/run.py`, which passes the paths below.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --tornado BIN --work DIR --manifest BENCHMARK.json --trace-out FILE`

mod gen;
mod replay;
mod search;
mod server;
mod stats;
mod tcp;

use gen::{Kind, Mix};
use stats::{Report, Spans};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A server-workload run is this many segments, each on a new server.
/// Rates are the median over segments; latency quantiles pool every
/// segment's samples.
const SEGMENTS: usize = 6;
/// Server set-ups per run (the segments' own among them); `setup_s` is
/// their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tornado: PathBuf,
    work: PathBuf,
    manifest: PathBuf,
    trace_out: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: get("--workload")?,
            seed: num("--seed")?,
            seconds,
            trace: match num("--trace")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace {t}: expected 0 or 1")),
            },
            tornado: get("--tornado")?.into(),
            work: get("--work")?.into(),
            manifest: get("--manifest")?.into(),
            trace_out: get("--trace-out")?.into(),
        })
    }
}

/// A finished run: its metrics and every correctness failure.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() {
    let result = Args::parse().and_then(|args| {
        let wanted = manifest_metrics(&args.manifest, args.trace)?;
        let out = match args.workload.as_str() {
            "ingest_durable" => server_workload(&args, Mix::Ingest),
            "degraded_read" => server_workload(&args, Mix::Degraded),
            "fault_search" => fault_search(&args),
            other => Err(format!("unknown workload {other}")),
        };
        let _ = std::fs::remove_dir_all(&args.work);
        let mut out = out?;
        out.report
            .complete(&wanted, bypassed(&args.workload, args.trace))?;
        Ok(out)
    });
    match result {
        Ok(out) => {
            for e in out.errors.iter().take(20) {
                eprintln!("perfbench: {e}");
            }
            let correct = out.errors.is_empty() && out.failed == 0;
            out.report.print(correct, out.attempted.max(1), out.failed);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The (name, unit) of every `end_to_end` (or, traced, `per_layer`)
/// metric in `BENCHMARK.json`.
fn manifest_metrics(path: &std::path::Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = tornado_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(|m| m.as_arr())
        .ok_or_else(|| format!("{}: no {key} list", path.display()))?
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{}: a {key} entry lacks a name or unit", path.display()))
        })
        .collect()
}

/// Name prefixes of the per-layer metrics of layers a workload never
/// calls: `fault_search` touches no server or store and encodes nothing;
/// the server workloads run no search. End-to-end metrics are measured on
/// every workload.
fn bypassed(workload: &str, trace: bool) -> &'static [&'static str] {
    match (trace, workload) {
        (false, _) => &[],
        (true, "fault_search") => &["server.", "store.", "codec.encode"],
        (true, _) => &["sim."],
    }
}

/// Bytes the store keeps for a payload: one block per node, each a 48th
/// of the length-framed payload.
fn stored_bytes(graph: &tornado_graph::Graph, len: usize) -> u64 {
    ((len + 8).div_ceil(graph.num_data()) * graph.num_nodes()) as u64
}

fn server_workload(args: &Args, mix: Mix) -> Result<Outcome, String> {
    let graph = tornado_core::tornado_graph_1();
    let inputs = tcp::Inputs::new(mix, args.seed, graph.num_nodes());
    let segment = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let mut report = Report::default();
    report.note(format!(
        "{} on {} cores, {} closed-loop connections, fsync {}, {SEGMENTS} segments of {:.1} s",
        args.workload,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        tcp::CONNECTIONS,
        if mix == Mix::Ingest {
            "on"
        } else {
            "n/a (memory backend)"
        },
        segment.as_secs_f64(),
    ));
    if args.trace {
        return traced_server_workload(args, &graph, &inputs, segment, report);
    }

    // The set-ups beyond the measured segments come first and are only
    // timed; each measured segment gets a set-up of its own.
    let mut times = Vec::with_capacity(SETUPS);
    let mut segs = Vec::with_capacity(SEGMENTS);
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let mut live = tcp::setup(&inputs, &args.tornado, args.work.join("run"))?;
        times.push(t0.elapsed().as_secs_f64());
        if i >= SETUPS - SEGMENTS {
            let run = tcp::run(&inputs, &mut live, segment, false, Instant::now());
            let fin = tcp::finish(live, &run, &graph)?;
            segs.push((run, fin));
        }
    }

    let median_of = |f: &dyn Fn(&(tcp::TcpRun, tcp::Finish)) -> Option<f64>| {
        let v: Vec<f64> = segs.iter().filter_map(f).collect();
        (!v.is_empty()).then(|| stats::median(v))
    };
    let pooled = |kind| -> Vec<f64> { segs.iter().flat_map(|(r, _)| r.latencies(kind)).collect() };
    report.note(format!("set-up times (s): {times:.3?}"));
    report.set("setup_s", stats::median(times), "s");
    if let Some(v) = median_of(&|(r, _)| Some(r.ops_per_s())) {
        report.set("ops_per_s", v, "1/s");
    }
    // One p50 over the whole mix, a latency every workload has. Per-kind
    // p50s are notes, as fault_search has no PUT or GET; so are the p99s,
    // which over ten seeds on the 2-vCPU machine spread by 0.24-0.48 of
    // their median, wider than any bound the benchmark may set.
    if let Some(p50) = report.quantiles("all ops", pooled(None), "us") {
        report.set("p50_us", p50, "us");
    }
    for kind in [Kind::Put, Kind::Get, Kind::Delete] {
        report.quantiles(&format!("{kind:?}"), pooled(Some(kind)), "us");
    }
    if let Some(v) = median_of(&|(_, f)| Some(f.rss_peak_mb)) {
        report.set("rss_peak_mb", v, "MB");
    }
    if let Some(v) = median_of(&|(_, f)| f.space_amp) {
        report.note(format!(
            "space_amp {v:.4} (bytes under the data dir / live user bytes, segment median)"
        ));
    }
    if let Some(v) = median_of(&|(_, f)| f.reopen_s) {
        report.note(format!(
            "reopen_s {v:.4} (ArchivalStore::open of the drained data dir, segment median)"
        ));
    }
    describe(&mut report, &graph, &inputs, &segs);
    let mut out = Outcome {
        report,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for (run, fin) in segs {
        out.add(&run, fin);
    }
    Ok(out)
}

impl Outcome {
    /// Counts a segment's operations, durability checks and errors.
    fn add(&mut self, run: &tcp::TcpRun, fin: tcp::Finish) {
        self.attempted += run.attempted() + fin.checked;
        self.failed += run.failed() + fin.failed;
        self.errors.extend(run.errors().cloned());
        self.errors.extend(fin.errors);
    }
}

/// Notes on what one segment stored and how many operations failed.
fn describe(
    report: &mut Report,
    graph: &tornado_graph::Graph,
    inputs: &tcp::Inputs,
    segs: &[(tcp::TcpRun, tcp::Finish)],
) {
    let sum = |lens: &mut dyn Iterator<Item = usize>| -> (u64, u64) {
        lens.fold((0, 0), |(user, stored), n| {
            (user + n as u64, stored + stored_bytes(graph, n))
        })
    };
    let (prefill_user, prefill_stored) = sum(&mut inputs.prefill.iter().map(Vec::len));
    report.note(format!(
        "prefill: {} objects, {prefill_user} user B, {prefill_stored} stored B",
        inputs.prefill.len()
    ));
    for (i, (run, fin)) in segs.iter().enumerate() {
        let puts: Vec<usize> = run
            .recs()
            .filter(|r| r.ok && r.kind == Kind::Put)
            .map(|r| r.bytes)
            .collect();
        let (put_user, put_stored) = sum(&mut puts.iter().copied());
        report.note(format!(
            "segment {i}: {} ops ({} failed) at {:.1} ops/s; {} puts ({put_user} user B, {put_stored} stored B); {} live own objects; {} durability checks ({} failed)",
            run.attempted(),
            run.failed(),
            run.ops_per_s(),
            puts.len(),
            run.conns.iter().map(|c| c.live.len()).sum::<usize>(),
            fin.checked,
            fin.failed,
        ));
    }
    let (attempted, failed) = segs.iter().fold((0, 0), |(a, f), (r, fin)| {
        (a + r.attempted() + fin.checked, f + r.failed() + fin.failed)
    });
    report.note(format!(
        "error_frac {:.6} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    if !inputs.failed.is_empty() {
        report.note(format!("failed devices: {:?}", inputs.failed));
    }
}

fn traced_server_workload(
    args: &Args,
    graph: &tornado_graph::Graph,
    inputs: &tcp::Inputs,
    segment: Duration,
    mut report: Report,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        report: Report::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    // Step 0: a segment without spans, the base of the overhead.
    let mut live = tcp::setup(inputs, &args.tornado, args.work.join("untraced"))?;
    let base = tcp::run(inputs, &mut live, segment, false, Instant::now());
    let fin = tcp::finish(live, &base, graph)?;
    out.add(&base, fin);

    // Step 1: a segment with a client span per operation.
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut live = tcp::setup(inputs, &args.tornado, args.work.join("traced"))?;
    let mut run = tcp::run(inputs, &mut live, segment, true, epoch);
    let fin = tcp::finish(live, &run, graph)?;
    let scan_bytes = fin.reopen_scan_bytes;
    out.add(&run, fin);
    for c in &mut run.conns {
        spans.absorb(std::mem::replace(&mut c.spans, Spans::new(epoch)));
    }

    // Step 2: the identical op stream in-process.
    let replay_dir = server::WorkDir::new(args.work.join("replay"))?;
    let layers = replay::replay(
        inputs,
        graph,
        &run.completion_order(),
        &replay_dir.0,
        &mut spans,
    )?;
    out.attempted += layers.ops;
    out.failed += layers.failed;
    out.errors.extend(layers.errors.iter().cloned());

    // Shares are of the time clients waited in the traced segment, whose
    // op stream the replay repeats call for call.
    let client_us: f64 = run.latencies(None).iter().sum();
    layers.report(client_us, &mut report);
    for kind in [Kind::Put, Kind::Get, Kind::Delete] {
        report.quantiles(&format!("client {kind:?}"), run.latencies(Some(kind)), "us");
    }
    if let Some(scan) = scan_bytes {
        report.set("store.reopen.scan_bytes", scan as f64, "B");
    }
    report.set(
        "trace.overhead_frac",
        1.0 - run.ops_per_s() / base.ops_per_s(),
        "frac",
    );
    report.note(format!(
        "traced pass: {} TCP ops at {:.1} ops/s (untraced {:.1}); {} replayed in-process",
        run.attempted(),
        run.ops_per_s(),
        base.ops_per_s(),
        layers.ops
    ));
    write_trace(&args.trace_out, &spans)?;
    out.report = report;
    Ok(out)
}

fn fault_search(args: &Args) -> Result<Outcome, String> {
    let mut report = Report::default();
    report.note(format!(
        "fault_search on {} cores (rayon default threads)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let (graph, setup_s) = search::setup(args.seed);
    // Whole certifications until the run's time is spent (the traced run
    // makes one untraced certification, the base of the overhead).
    let budget = Duration::from_secs(if args.trace { 0 } else { args.seconds });
    let t0 = Instant::now();
    let mut certs = vec![search::certify(&graph, args.seed)];
    while t0.elapsed() < budget {
        certs.push(search::certify(&graph, args.seed));
    }
    let mut errors = search::check(&certs);
    // Every search and Monte Carlo level examined counts as attempted.
    let levels = (certs[0].search_failures.len() + certs[0].mc_failures.len()) as u64;
    let mut attempted = levels * certs.len() as u64;
    if args.trace {
        let mut spans = Spans::new(Instant::now());
        errors.extend(search::traced(
            &graph,
            args.seed,
            &certs[0],
            &mut spans,
            &mut report,
        ));
        attempted += levels;
        write_trace(&args.trace_out, &spans)?;
    } else {
        search::end_to_end(&certs, setup_s, &mut report);
        report.set("rss_peak_mb", server::vm_hwm_mb("self")?, "MB");
    }
    Ok(Outcome {
        report,
        attempted,
        failed: errors.len() as u64,
        errors,
    })
}

fn write_trace(path: &std::path::Path, spans: &Spans) -> Result<(), String> {
    let json = tornado_obs::trace::to_chrome_trace(&spans.records).to_line();
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}
