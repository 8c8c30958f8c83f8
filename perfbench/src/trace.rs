//! The benchmark's own spans: one per call it makes into a layer of the
//! program, kept in memory and written out when the run ends. The program's
//! tracing (`LM4DB_TRACE`) stays off; these spans time the calls from
//! outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. `req` ties the spans of one request (or batch)
/// together; 0 marks a span shared by many requests, such as a scheduler
/// step.
struct Span {
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; inert unless built with `on`.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self times (duration minus the part covered by child
    /// spans), in seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A recorder whose timestamps count from `t0`.
    pub fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
            self.spans.push(Span {
                name,
                req,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, req, start, Instant::now());
        r
    }

    /// Self time per span name over spans starting at or after `from_s`
    /// and ending by `to_s` (seconds since `t0`). Spans nest by interval
    /// containment; a span's self time is its duration minus the time its
    /// direct children cover.
    pub fn self_times(&self, from_s: f64, to_s: f64) -> BTreeMap<&'static str, SelfTime> {
        let (lo, hi) = ((from_s * 1e9) as u64, (to_s * 1e9) as u64);
        let mut idx: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].start_ns >= lo && self.spans[i].end_ns <= hi)
            .collect();
        // Parents before their children: earlier start first, and on a tie
        // the longer span first.
        idx.sort_by_key(|&i| (self.spans[i].start_ns, u64::MAX - self.spans[i].end_ns));
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for &i in &idx {
            let s = &self.spans[i];
            while open
                .last()
                .is_some_and(|&p| self.spans[p].end_ns <= s.start_ns)
            {
                open.pop();
            }
            if let Some(&p) = open.last() {
                child_ns[p] += s.end_ns - s.start_ns;
            }
            open.push(i);
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for &i in &idx {
            let s = &self.spans[i];
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as a Chrome trace-event file (loadable in
    /// Perfetto or `chrome://tracing`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{}}}}}{sep}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.req
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true, t0);
        tr.record("outer", 1, at(0), at(10));
        tr.record("inner", 1, at(2), at(5));
        tr.record("inner", 1, at(6), at(7));
        tr.record("flat", 0, at(10), at(12));
        let st = tr.self_times(0.0, 1.0);
        assert!((st["outer"].self_s - 0.006).abs() < 1e-9);
        assert!((st["inner"].self_s - 0.004).abs() < 1e-9);
        assert_eq!(st["inner"].count, 2);
        let sum: f64 = st.values().map(|s| s.self_s).sum();
        assert!(
            (sum - 0.012).abs() < 1e-9,
            "self times tile the covered wall time"
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.time("x", 0, || ());
        assert!(tr.self_times(0.0, 1e9).is_empty());
    }
}
