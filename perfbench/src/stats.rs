//! Exact quantiles over raw samples, metric output, and in-memory spans.

use std::time::Instant;
use tornado_obs::trace::SpanRecord;
use tornado_obs::Json;

/// A tail quantile is reported only when at least this many samples lie
/// beyond it; with fewer it would be an estimate, not a measurement.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending), with the number of
/// samples beyond it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    nearest_rank(&sorted(v), 0.5).0
}

/// Named metrics in output order, plus human-readable notes printed
/// above the result line.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the sample count, p50 and p99 of `samples` (a p99 only when
    /// enough samples lie beyond it) and returns the p50.
    pub fn quantiles(&mut self, label: &str, samples: Vec<f64>, unit: &str) -> Option<f64> {
        if samples.is_empty() {
            self.note(format!("{label}: no samples"));
            return None;
        }
        let s = sorted(samples);
        let (p50, _) = nearest_rank(&s, 0.5);
        let (p99, beyond) = nearest_rank(&s, 0.99);
        let n = s.len();
        if beyond < MIN_BEYOND_TAIL {
            self.note(format!(
                "{label}: n={n} p50={p50:.1} {unit}; p99 omitted ({beyond} samples beyond it, {MIN_BEYOND_TAIL} needed)"
            ));
        } else {
            self.note(format!(
                "{label}: n={n} p50={p50:.1} p99={p99:.1} {unit} ({beyond} beyond p99)"
            ));
        }
        Some(p50)
    }

    /// Makes the metrics exactly `wanted` (name, unit), in that order. A
    /// wanted metric of a layer the workload never calls (its name starts
    /// with one of `bypassed`) reads 0: no work was done there. A metric
    /// the manifest does not list becomes a note; a missing one, or one in
    /// another unit, is an error.
    pub fn complete(
        &mut self,
        wanted: &[(String, String)],
        bypassed: &[&str],
    ) -> Result<(), String> {
        let mut out = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, _, u)) if u != unit => {
                    return Err(format!("metric {name} is in {u}, the manifest says {unit}"))
                }
                Some(&(_, v, _)) => v,
                None if bypassed.iter().any(|p| name.starts_with(p)) => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            out.push((name.clone(), value, unit.clone()));
        }
        for (name, value, unit) in std::mem::replace(&mut self.metrics, out) {
            if !wanted.iter().any(|(n, _)| *n == name) {
                self.note(format!("{name} = {value} {unit} (not in the manifest)"));
            }
        }
        Ok(())
    }

    /// Prints the notes, then the result object as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let body = vec![
                    ("value".to_string(), Json::F64(*value)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ];
                (name.clone(), Json::Obj(body))
            })
            .collect();
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::U64(attempted)),
            ("failed".into(), Json::U64(failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", doc.to_line());
    }
}

/// Spans recorded by the benchmark around its calls into each layer,
/// kept in memory and exported once at the end.
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    pub records: Vec<SpanRecord>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            next_id: 1,
            records: Vec::new(),
        }
    }

    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span that started at `start` and ends now;
    /// returns its duration in microseconds.
    pub fn record(
        &mut self,
        track: u64,
        span_id: u64,
        parent_id: Option<u64>,
        name: &'static str,
        start: Instant,
        fields: Vec<(&'static str, Json)>,
    ) -> f64 {
        let dur = start.elapsed();
        self.records.push(SpanRecord {
            trace_id: track,
            span_id,
            parent_id,
            name,
            start_us: start.duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
            fields,
        });
        dur.as_secs_f64() * 1e6
    }

    /// Records a finished child of `parent` under a fresh span id;
    /// returns its duration in microseconds.
    pub fn child(
        &mut self,
        track: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        fields: Vec<(&'static str, Json)>,
    ) -> f64 {
        let id = self.next_id();
        self.record(track, id, Some(parent), name, start, fields)
    }

    /// Re-bases span ids so several collections merge without clashes.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.next_id;
        let mut max = 0;
        for mut s in other.records {
            s.span_id += base;
            s.parent_id = s.parent_id.map(|p| p + base);
            max = max.max(s.span_id);
            self.records.push(s);
        }
        self.next_id = self.next_id.max(max + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), (50.0, 50));
        assert_eq!(nearest_rank(&s, 0.99), (99.0, 1));
        assert_eq!(nearest_rank(&[3.0], 0.99), (3.0, 0));
    }
}
