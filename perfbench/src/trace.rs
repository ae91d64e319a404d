//! Benchmark-side spans around each call into a layer of the program.
//!
//! Every thread that calls into the program owns one [`Recorder`] (a
//! *lane*). A span has a name (`<layer>.<call>`), start, end, parent and
//! request id; spans stay in memory and are written out once the run
//! ends. A layer's self time is its spans' durations minus their
//! children's; whatever a lane spent outside any span is the
//! unattributed remainder, so per lane the self times plus the remainder
//! add up to the lane's wall time exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.run`.
    pub name: &'static str,
    /// Start \[ns\].
    pub start_ns: u64,
    /// End \[ns\].
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane.
    pub parent: Option<usize>,
    /// Request (job, pass or trial block) the span belongs to.
    pub req: u64,
}

impl Span {
    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder; disabled recorders cost one branch.
pub struct Recorder {
    on: bool,
    origin: Instant,
    /// Lane name, e.g. `sender` or `main`.
    pub lane: &'static str,
    /// Recorded spans in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    start_ns: u64,
}

impl Recorder {
    /// A lane whose wall time starts now.
    pub fn new(on: bool, origin: Instant, lane: &'static str) -> Recorder {
        let start_ns = origin.elapsed().as_nanos() as u64;
        Recorder {
            on,
            origin,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
            start_ns,
        }
    }

    /// True when spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Closes the lane: returns its wall time \[s\] from creation to now.
    pub fn finish(&mut self) -> f64 {
        (self.now_ns() - self.start_ns) as f64 * 1e-9
    }
}

/// Self time per layer across lanes, plus the unattributed remainder.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Layer → summed self time \[s\].
    pub self_s: BTreeMap<&'static str, f64>,
    /// Lane time outside every span \[s\].
    pub unattributed_s: f64,
    /// Summed lane wall time \[s\] (lanes × window for concurrent lanes).
    pub wall_s: f64,
    /// Number of lanes.
    pub lanes: usize,
}

impl Ledger {
    /// Adds one finished lane whose wall time was `wall_s`.
    pub fn add_lane(&mut self, rec: &Recorder, wall_s: f64) {
        let mut child_ns = vec![0u64; rec.spans.len()];
        let mut root_ns = 0u64;
        for s in &rec.spans {
            match s.parent {
                Some(p) => child_ns[p] += s.dur_ns(),
                None => root_ns += s.dur_ns(),
            }
        }
        for (s, &c) in rec.spans.iter().zip(&child_ns) {
            *self.self_s.entry(s.layer()).or_default() += (s.dur_ns() - c) as f64 * 1e-9;
        }
        self.unattributed_s += wall_s - root_ns as f64 * 1e-9;
        self.wall_s += wall_s;
        self.lanes += 1;
    }

    /// Self time of `layer` \[s\] (0 when it recorded no span).
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    /// Σ self times + unattributed − wall; zero up to rounding.
    pub fn residual_s(&self) -> f64 {
        self.self_s.values().sum::<f64>() + self.unattributed_s - self.wall_s
    }
}

/// Renders recorded lanes as one JSON document (`perfbench-spans/1`).
pub fn spans_json(workload: &str, seed: u64, lanes: &[&Recorder]) -> String {
    let mut out = format!(
        "{{\"schema\":\"perfbench-spans/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    let mut first = true;
    for rec in lanes {
        for (i, s) in rec.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"lane\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                rec.lane, s.name, s.start_ns, s.end_ns, s.req
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_plus_remainder_equal_wall() {
        let origin = Instant::now();
        let mut rec = Recorder::new(true, origin, "main");
        let spin = |us: u64| {
            let t = Instant::now();
            while t.elapsed().as_micros() < us as u128 {}
        };
        rec.span("bench.pass", 0, |rec| {
            spin(200);
            rec.span("engine.run", 0, |rec| {
                spin(300);
                rec.span("wire.render", 0, |_| spin(100));
            });
        });
        spin(150);
        let wall = rec.finish();
        let mut ledger = Ledger::default();
        ledger.add_lane(&rec, wall);
        assert!(ledger.residual_s().abs() < 1e-9);
        assert!(ledger.layer_s("engine") >= 300e-6);
        assert!(ledger.layer_s("wire") >= 100e-6);
        assert!(ledger.unattributed_s >= 150e-6);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), "main");
        let v = rec.span("engine.run", 0, |_| 42);
        assert_eq!(v, 42);
        assert!(rec.spans.is_empty());
    }
}
