//! Reading the program's own counters, output oracles, and the
//! benchmark-timed linear-algebra probe.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fts_logic::TruthTable;
use fts_spice::{Netlist, SparseLu, Symbolic};
use fts_telemetry::HistogramSummary;

use crate::stats;

/// A snapshot of the process-wide telemetry counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSummary>,
}

/// Reads the current telemetry state.
pub fn tally() -> Tally {
    let snap = fts_telemetry::snapshot();
    Tally {
        counters: snap
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
        hists: snap
            .histograms
            .iter()
            .map(|h| (h.name.clone(), h.summary))
            .collect(),
    }
}

impl Tally {
    /// A counter's value (0 when never incremented).
    pub fn c(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's summary (all zero when never recorded).
    pub fn h(&self, name: &str) -> HistogramSummary {
        self.hists.get(name).copied().unwrap_or(HistogramSummary {
            n: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
        })
    }

    /// The exact sum of an integer-valued histogram.
    pub fn total(&self, name: &str) -> u64 {
        let h = self.h(name);
        (h.n as f64 * h.mean).round() as u64
    }

    /// The work counts that must repeat exactly for a fixed input:
    /// op Newton iterations, transient steps, lockstep iterations,
    /// numeric factorizations and solves.
    pub fn work_counts(&self) -> [u64; 5] {
        [
            self.total("spice.op.newton_iterations"),
            self.c("spice.transient.steps"),
            self.c("spice.ensemble.lockstep_iterations"),
            self.c("spice.sparse.factor") + self.c("spice.ensemble.factor"),
            self.c("spice.sparse.solve") + self.c("spice.ensemble.solve"),
        ]
    }
}

/// Element-wise `after - before` of two work-count vectors.
pub fn count_delta(after: [u64; 5], before: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// The lattice circuit is the pull-down network of its bench, so its
/// output is high exactly where the function is 0. Thresholds `v` at
/// VDD/2 and compares against the truth table at `assignment`.
pub fn output_matches(tt: &TruthTable, assignment: u32, v: f64, vdd: f64) -> bool {
    (v > vdd / 2.0) != tt.eval(assignment)
}

/// Benchmark-timed `SparseLu::factor` and `solve_in_place` on the MNA
/// sparsity pattern of `netlist`, filled with diagonally dominant values
/// (the public API exposes the pattern, not the Newton Jacobian). Returns
/// the medians of `reps` calls in microseconds.
pub fn linalg_probe(netlist: &Netlist, reps: usize) -> (f64, f64) {
    let mut a = netlist.mna_pattern();
    let n = a.n();
    let mut diag = vec![1.0f64; n];
    for (r, d) in diag.iter_mut().enumerate() {
        for c in (0..n).filter(|&c| c != r) {
            if let Some(slot) = a.slot(r, c) {
                let v = -1.0 / (1.0 + ((r + c) % 7) as f64);
                a.values_mut()[slot] = v;
                *d += v.abs();
            }
        }
    }
    for (r, d) in diag.iter().enumerate() {
        if let Some(slot) = a.slot(r, r) {
            a.values_mut()[slot] = *d;
        }
    }
    let mut lu = SparseLu::new(Arc::new(Symbolic::analyze(&a)));
    let mut factor = Vec::with_capacity(reps);
    let mut solve = Vec::with_capacity(reps);
    let mut b = vec![0.0; n];
    for _ in 0..reps {
        let t = Instant::now();
        lu.factor(std::hint::black_box(&a))
            .expect("probe matrix is nonsingular");
        factor.push(t.elapsed().as_secs_f64() * 1e6);
        b.iter_mut().for_each(|x| *x = 1.0);
        let t = Instant::now();
        lu.solve_in_place(std::hint::black_box(&mut b));
        solve.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (stats::median(&factor), stats::median(&solve))
}

/// Peak resident set of this process \[MiB\], from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
