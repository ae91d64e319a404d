//! `tran-lattice`: a batch of lattice transients through `Engine::run`
//! and its bounded waveform sink — the Fig. 11 XOR3 input walk at the
//! paper's bench plus larger m×n lattices (seeded pull-ups) on adaptive
//! timestep control — pass after pass in a closed loop.

use std::time::Instant;

use fts_circuit::experiments::Xor3Experiment;
use fts_circuit::lattice_netlist::{pwl_from_bits, BenchConfig, LatticeCircuit};
use fts_circuit::model::SwitchCircuitModel;
use fts_engine::{BatchReport, Engine, SimJob, SimOutcome, Waveforms};
use fts_lattice::Lattice;
use fts_logic::{Literal, TruthTable};
use fts_spice::analysis::TranConfig;
use fts_spice::{Netlist, NodeId};

use crate::probe::{self, Tally};
use crate::report::quote;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;
use crate::{Run, Workload};

/// Retained-sample budget of the engine's decimating sink per job.
pub const MAX_SAMPLES: usize = 1024;
/// Sizes of the lattices that join the Fig. 11 job.
pub const LATTICES: [(usize, usize); 3] = [(4, 4), (5, 5), (6, 6)];
/// Input phase of the seeded lattices \[s\].
pub const PHASE_S: f64 = 120e-9;
/// Share of a phase, counted from its end, in which the output must
/// already sit at its logic level. The sink decimates, so the last
/// retained sample of a phase can sit well before the phase ends.
const SETTLED_SHARE: f64 = 0.5;

struct Spec {
    name: String,
    netlist: Netlist,
    cfg: TranConfig,
    out: NodeId,
    phase: f64,
    table: TruthTable,
}

/// The set-up batch.
pub struct TranLattice {
    specs: Vec<Spec>,
    engine: Engine,
    vdd: f64,
}

/// An m×n cyclic literal tiling over three variables, as in the engine
/// stress benchmark: `True` sites keep every size conducting somewhere.
fn cyclic_lattice(rows: usize, cols: usize) -> Result<Lattice, String> {
    let pool = [
        Literal::pos(0),
        Literal::neg(1),
        Literal::pos(2),
        Literal::neg(0),
        Literal::pos(1),
        Literal::neg(2),
        Literal::True,
    ];
    let lits = (0..rows * cols).map(|k| pool[k % pool.len()]).collect();
    Lattice::from_literals(rows, cols, lits).map_err(|e| e.to_string())
}

impl TranLattice {
    /// Builds the Fig. 11 bench and the seeded lattices, and runs one
    /// warm-up pass.
    pub fn setup(seed: u64) -> Result<TranLattice, String> {
        let model = SwitchCircuitModel::square_hfo2().map_err(|e| e.to_string())?;
        let fig11 = Xor3Experiment::paper();
        let (ckt, cfg) = fig11.prepare(&model).map_err(|e| e.to_string())?;
        let mut specs = vec![Spec {
            name: "fig11-xor3".into(),
            out: ckt.out(),
            netlist: ckt.netlist().clone(),
            cfg,
            phase: fig11.phase,
            table: fts_circuit::experiments::xor3_lattice()
                .truth_table(3)
                .map_err(|e| e.to_string())?,
        }];
        let mut rng = Rng::new(seed, 0x7A);
        for (rows, cols) in LATTICES {
            // The seed perturbs each pull-up within ±1%: distinct circuits
            // of one size, without changing how much work a pass is.
            let bench = BenchConfig {
                pullup_ohms: BenchConfig::default().pullup_ohms * (0.99 + 0.02 * rng.unit()),
                ..BenchConfig::default()
            };
            let lat = cyclic_lattice(rows, cols)?;
            let mut ckt =
                LatticeCircuit::build(&lat, 3, &model, bench).map_err(|e| e.to_string())?;
            for v in 0..3usize {
                let bits: Vec<bool> = (0..8u32).map(|x| (x >> v) & 1 == 1).collect();
                let (p, n) = pwl_from_bits(&bits, PHASE_S, 1e-9, bench.vdd);
                ckt.set_stimulus(v, p, n).map_err(|e| e.to_string())?;
            }
            specs.push(Spec {
                name: format!("lattice{rows}x{cols}"),
                out: ckt.out(),
                netlist: ckt.netlist().clone(),
                cfg: TranConfig::adaptive(PHASE_S * 8.0),
                phase: PHASE_S,
                table: lat.truth_table(3).map_err(|e| e.to_string())?,
            });
        }
        let me = TranLattice {
            specs,
            engine: Engine::new().threads(crate::nproc()),
            vdd: BenchConfig::default().vdd,
        };
        me.engine.run(me.jobs());
        Ok(me)
    }

    fn jobs(&self) -> Vec<SimJob> {
        self.specs
            .iter()
            .map(|s| {
                SimJob::transient(s.netlist.clone(), s.cfg)
                    .probes(&[s.out])
                    .max_samples(MAX_SAMPLES)
                    .label(&s.name)
            })
            .collect()
    }

    /// Thresholds the settled output at the end of every input phase
    /// against the truth table; returns the first mismatch.
    fn check(&self, spec: &Spec, w: &Waveforms) -> Result<(), String> {
        let v = w.voltage(spec.out).ok_or("output not probed")?;
        let t = w.time();
        for x in 0..8u32 {
            let end = (x + 1) as f64 * spec.phase;
            let from = end - SETTLED_SHARE * spec.phase;
            let k = (0..t.len())
                .rev()
                .find(|&k| t[k] <= end && t[k] >= from)
                .ok_or_else(|| format!("no retained sample late in phase {x}"))?;
            if !probe::output_matches(&spec.table, x, v[k], self.vdd) {
                return Err(format!("phase {x}: v(out) = {} V at t = {} s", v[k], t[k]));
            }
        }
        Ok(())
    }
}

impl Workload for TranLattice {
    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> Run {
        if traced {
            fts_telemetry::reset();
        }
        let mut rec = Recorder::new(traced, origin, "main");
        let mut run = Run::default();
        let n = self.specs.len();
        let mut first: Option<BatchReport> = None;
        let mut walls = Vec::new();
        let mut job_s = Vec::new();
        let mut mean_job_s = Vec::new();
        let mut engine_wall = 0.0;
        let mut counts = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let before = traced.then(|| probe::tally().work_counts());
            let k = walls.len() as u64;
            let t = Instant::now();
            let report = rec.span("bench.pass", k, |rec| {
                let jobs = rec.span("build.jobs", k, |_| self.jobs());
                rec.span("engine.run", k, |_| self.engine.run(jobs))
            });
            walls.push(t.elapsed().as_secs_f64());
            if let Some(before) = before {
                counts.push(probe::count_delta(probe::tally().work_counts(), before));
            }
            job_s.extend(report.stats.iter().map(|s| s.wall_s));
            mean_job_s.push(report.stats.iter().map(|s| s.wall_s).sum::<f64>() / n as f64);
            engine_wall += report.wall_s;
            // Later passes must repeat pass 0 outcome for outcome; only
            // pass 0 is kept, so memory does not grow with the pass count.
            match &first {
                None => first = Some(report),
                Some(first) => {
                    let differ = report
                        .outcomes
                        .iter()
                        .zip(&first.outcomes)
                        .filter(|(a, b)| a != b)
                        .count();
                    if differ > 0 {
                        run.failed += differ as u64;
                        run.problem(format!("pass {k}: {differ} outcomes differ from pass 0"));
                    }
                }
            }
        }
        let wall = rec.finish();
        let tally = if traced {
            probe::tally()
        } else {
            Tally::default()
        };

        // Pass 0 thresholded per phase; work counts must repeat exactly.
        run.attempted += (walls.len() * n) as u64;
        let outcomes = first.as_ref().map_or(&[][..], |r| &r.outcomes[..]);
        for (spec, outcome) in self.specs.iter().zip(outcomes) {
            let verdict = match outcome {
                SimOutcome::Transient(w) => self.check(spec, w),
                other => Err(format!("outcome {}", other.kind())),
            };
            if let Err(e) = verdict {
                run.failed += walls.len() as u64;
                run.problem(format!("{}: {e}", spec.name));
            }
        }
        if counts.windows(2).any(|w| w[0] != w[1]) {
            run.failed += 1;
            run.problem(format!("work counts differ across passes: {counts:?}"));
        }

        let rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
        run.e2e.set("throughput_per_s", stats::median(&rates));
        run.e2e.set("ttr_p50_ms", stats::median(&walls) * 1e3);
        // The mean over the pass's four job types, so the median does
        // not straddle the mix.
        run.e2e.set("path_p50_ms", stats::median(&mean_job_s) * 1e3);
        run.note("passes", walls.len().to_string());
        if let Some(c) = counts.first() {
            run.note("work_counts_per_pass", format!("{c:?}"));
        }

        if traced {
            let l = &mut run.layer;
            let jobs = stats::sorted(&job_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
            let job_wall: f64 = job_s.iter().sum();
            l.set("engine.job_ms.p50", stats::percentile(&jobs, 50.0));
            l.set("engine.job_ms.p99", stats::percentile(&jobs, 99.0));
            l.set(
                "engine.busy_share",
                job_wall / (self.engine.thread_count() as f64 * engine_wall.max(1e-12)),
            );
            let retries = tally.c("engine.jobs.retries") as f64 / jobs.len().max(1) as f64;
            l.set("engine.attempts_per_job", 1.0 + retries);
            l.set("engine.failed", tally.c("engine.jobs.failed") as f64);
            crate::op_layer_metrics(l, &tally, walls.len(), n, 0.0);
            let (retained, stride): (Vec<f64>, Vec<f64>) = outcomes
                .iter()
                .filter_map(|o| match o {
                    SimOutcome::Transient(w) => Some((w.len() as f64, w.stride() as f64)),
                    _ => None,
                })
                .unzip();
            l.set(
                "sink.retained_samples",
                retained.iter().sum::<f64>() / n as f64,
            );
            l.set("sink.stride", stride.iter().sum::<f64>() / n as f64);
            let largest = &self.specs[self.specs.len() - 1].netlist;
            let (factor_us, solve_us) = probe::linalg_probe(largest, 200);
            l.set("linalg.factor_us", factor_us);
            l.set("linalg.solve_us", solve_us);
            run.lanes.push((rec, wall));
        }
        run
    }

    fn envelope(&self) -> Vec<(String, String)> {
        let names: Vec<&str> = self.specs.iter().map(|s| s.name.as_str()).collect();
        vec![
            (
                "engine_threads".into(),
                self.engine.thread_count().to_string(),
            ),
            ("jobs".into(), quote(&names.join(","))),
            ("max_samples".into(), MAX_SAMPLES.to_string()),
            (
                "fig11".into(),
                quote("Xor3Experiment::paper(): 120 ns phases, dt 0.2 ns, trapezoidal"),
            ),
            (
                "lattice_stepping".into(),
                quote("TranConfig::adaptive, 120 ns phases"),
            ),
        ]
    }
}
