//! `fault_search`: the paper's §3 testing system certifying catalog
//! graph 1 — exhaustive search to k = 5, then a Monte Carlo profile.

use crate::gen::seed_of;
use crate::stats::{self, Report, Spans};
use std::time::Instant;
use tornado_graph::Graph;
use tornado_obs::Json;
use tornado_sim::monte_carlo::sample_level;
use tornado_sim::worst_case::search_level;
use tornado_sim::{monte_carlo_profile, worst_case_search, MonteCarloConfig, WorstCaseConfig};

const MAX_K: usize = 5;
/// Catalog graph 1 first fails at five lost nodes, in exactly this many
/// of the C(96, 5) cases.
const K5_FAILURES: u64 = 13;
const MC_TRIALS: u64 = 20_000;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One certification's timings and failure counts.
pub struct Certification {
    pub search_s: f64,
    pub search_cases: u64,
    pub search_failures: Vec<u64>,
    pub mc_s: f64,
    pub mc_trials: u64,
    pub mc_failures: Vec<u64>,
}

fn mc_seed(seed: u64) -> u64 {
    seed_of(&[seed, 0x4D43])
}

/// Loading the graph plus a small warm-up of both searches, so lazy
/// set-up and cold caches stay out of the clock. Returns the graph and
/// the median setup time.
pub fn setup(seed: u64) -> (Graph, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut graph = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let g = tornado_core::tornado_graph_1();
        let warm = WorstCaseConfig {
            max_k: 3,
            ..WorstCaseConfig::default()
        };
        std::hint::black_box(worst_case_search(&g, &warm));
        std::hint::black_box(sample_level(&g, g.num_data(), 4096, mc_seed(seed)));
        times.push(t0.elapsed().as_secs_f64());
        graph = Some(g);
    }
    (graph.expect("at least one setup"), stats::median(times))
}

/// One untraced certification.
pub fn certify(graph: &Graph, seed: u64) -> Certification {
    let cfg = WorstCaseConfig {
        max_k: MAX_K,
        collect_cap: 64,
        stop_at_first_failure: false,
    };
    let t0 = Instant::now();
    let report = worst_case_search(graph, &cfg);
    let search_s = t0.elapsed().as_secs_f64();

    let mc = MonteCarloConfig {
        trials_per_k: MC_TRIALS,
        seed: mc_seed(seed),
        ks: None,
    };
    let t0 = Instant::now();
    let profile = monte_carlo_profile(graph, &mc);
    let mc_s = t0.elapsed().as_secs_f64();

    let ks = 1..=graph.num_nodes();
    Certification {
        search_s,
        search_cases: report.levels.iter().map(|l| l.cases as u64).sum(),
        search_failures: report.levels.iter().map(|l| l.failures).collect(),
        mc_s,
        mc_trials: ks.clone().map(|k| profile.entry(k).trials).sum(),
        mc_failures: ks.map(|k| profile.entry(k).failures).collect(),
    }
}

/// The search gate on every certification, and identical Monte Carlo
/// counts across certifications made with the same seed.
pub fn check(certs: &[Certification]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, c) in certs.iter().enumerate() {
        errors.extend(search_gate(&c.search_failures));
        if c.mc_failures != certs[0].mc_failures {
            errors.push(format!(
                "monte carlo counts of certification {i} differ from the first with the same seed"
            ));
        }
    }
    errors
}

/// Zero failures for k ≤ 4 and exactly 13 at k = 5.
fn search_gate(failures: &[u64]) -> Vec<String> {
    let mut errors = Vec::new();
    if failures.len() != MAX_K {
        errors.push(format!(
            "search covered {} levels, expected {MAX_K}",
            failures.len()
        ));
    }
    for (i, &f) in failures.iter().enumerate() {
        let want = if i + 1 == MAX_K { K5_FAILURES } else { 0 };
        if f != want {
            errors.push(format!("search k={}: {f} failures, expected {want}", i + 1));
        }
    }
    errors
}

/// The end-to-end metrics: the median over the certifications of the
/// decode trials per second (search cases and Monte Carlo trials) and of
/// the wall time of a whole certification.
pub fn end_to_end(certs: &[Certification], setup_s: f64, report: &mut Report) {
    let median = |f: &dyn Fn(&Certification) -> f64| stats::median(certs.iter().map(f).collect());
    report.set("setup_s", setup_s, "s");
    report.set(
        "ops_per_s",
        median(&|c| (c.search_cases + c.mc_trials) as f64 / (c.search_s + c.mc_s)),
        "1/s",
    );
    report.set("p50_us", median(&|c| (c.search_s + c.mc_s) * 1e6), "us");
    report.note(format!(
        "search {:.0} trials/s, monte carlo {:.0} trials/s (medians)",
        median(&|c| c.search_cases as f64 / c.search_s),
        median(&|c| c.mc_trials as f64 / c.mc_s),
    ));
    for c in certs {
        report.note(format!(
            "certification: search {} cases in {:.3} s, failures per k {:?}; monte carlo {} trials in {:.3} s",
            c.search_cases, c.search_s, c.search_failures, c.mc_trials, c.mc_s
        ));
    }
}

/// The traced pass: the same certification, level by level, with a span
/// around every `search_level` and `sample_level` call. Its counts must
/// equal the untraced pass's.
pub fn traced(
    graph: &Graph,
    seed: u64,
    untraced: &Certification,
    spans: &mut Spans,
    report: &mut Report,
) -> Vec<String> {
    const TRACK: u64 = 200;
    let mut errors = Vec::new();
    let mut search_s = 0.0;
    let mut cases = 0u64;
    let mut failures = Vec::new();
    // (cases, seconds) of each search level.
    let mut level_s = [(0.0, 0.0); MAX_K];
    let kernels0 = kernel_counts();
    let cert_start = Instant::now();
    let root = spans.next_id();
    let root_start = Instant::now();
    for k in 1..=MAX_K {
        let t = Instant::now();
        let level = search_level(graph, k, 64);
        let us = spans.child(
            TRACK,
            root,
            "sim.search_level",
            t,
            vec![
                ("k", Json::U64(k as u64)),
                ("failures", Json::U64(level.failures)),
            ],
        );
        search_s += us / 1e6;
        cases += level.cases as u64;
        failures.push(level.failures);
        level_s[k - 1] = (level.cases as f64, us / 1e6);
        if k == MAX_K {
            report.set("sim.search.k5_failures", level.failures as f64, "count");
        }
    }
    spans.record(
        TRACK,
        root,
        None,
        "sim.worst_case_search",
        root_start,
        vec![],
    );
    errors.extend(search_gate(&failures));

    let root = spans.next_id();
    let root_start = Instant::now();
    let (mut low, mut high) = ((0u64, 0.0), (0u64, 0.0));
    for k in 1..=graph.num_nodes() {
        let t = Instant::now();
        let f = sample_level(graph, k, MC_TRIALS, mc_seed(seed));
        let us = spans.child(
            TRACK,
            root,
            "sim.sample_level",
            t,
            vec![("k", Json::U64(k as u64)), ("failures", Json::U64(f))],
        );
        if k <= 24 {
            low = (low.0 + MC_TRIALS, low.1 + us / 1e6);
        } else if k >= 48 {
            high = (high.0 + MC_TRIALS, high.1 + us / 1e6);
        }
        if untraced.mc_failures.get(k - 1) != Some(&f) {
            errors.push(format!(
                "monte carlo k={k}: traced pass counted {f} failures, untraced {:?}",
                untraced.mc_failures.get(k - 1)
            ));
        }
    }
    spans.record(
        TRACK,
        root,
        None,
        "sim.monte_carlo_profile",
        root_start,
        vec![],
    );
    let cert_s = cert_start.elapsed().as_secs_f64();
    let kernels1 = kernel_counts();
    let trials = (cases + graph.num_nodes() as u64 * MC_TRIALS) as f64;
    report.set("sim.search.k4_frac", level_s[3].1 / cert_s, "frac");
    report.set("sim.search.k5_frac", level_s[4].1 / cert_s, "frac");
    report.set("sim.mc.low_k_frac", low.1 / cert_s, "frac");
    report.set("sim.mc.high_k_frac", high.1 / cert_s, "frac");
    report.set(
        "codec.bytes_xored_per_op",
        (kernels1.0 - kernels0.0) as f64 / trials,
        "B",
    );
    report.set(
        "codec.bytes_hashed_per_op",
        (kernels1.1 - kernels0.1) as f64 / trials,
        "B",
    );
    let untraced_s = untraced.search_s + untraced.mc_s;
    let untraced_trials = (untraced.search_cases + untraced.mc_trials) as f64;
    report.set(
        "trace.overhead_frac",
        1.0 - (trials / cert_s) / (untraced_trials / untraced_s),
        "frac",
    );
    report.note(format!(
        "traced certification: {cert_s:.3} s (untraced {untraced_s:.3} s); search k=4 {:.0} trials/s, k=5 {:.0} trials/s ({search_s:.3} s in all); monte carlo k<=24 {:.0} trials/s, k>=48 {:.0} trials/s",
        level_s[3].0 / level_s[3].1,
        level_s[4].0 / level_s[4].1,
        low.0 as f64 / low.1,
        high.0 as f64 / high.1,
    ));
    errors
}

/// Bytes XORed and hashed by the codec kernels so far.
fn kernel_counts() -> (u64, u64) {
    let m = tornado_codec::kernels::metrics();
    (m.bytes_xored.get(), m.bytes_hashed.get())
}
