//! `batch-op`: the full op corpus (every named function × every input
//! pattern) through the calls `fts batch` makes — `build_job`,
//! `Engine::run` with one worker per core, `outcome_json` — with bypass
//! semantics, pass after pass in a closed loop.

use std::time::Instant;

use four_terminal_lattice::batch::PipelineJobBuilder;
use four_terminal_lattice::named_function;
use fts_engine::{CacheMode, Engine};
use fts_logic::TruthTable;
use fts_server::service::build_job;
use fts_server::wire::{outcome_json, AnalysisSpec, JobSource, JobSpec, Json};
use fts_spice::Netlist;

use crate::probe::{self, Tally};
use crate::report::quote;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;
use crate::{Run, Workload};

/// Every function `fts batch` and `fts serve` know by name.
pub const CORPUS: [&str; 14] = [
    "and2", "and3", "and4", "or2", "or3", "or4", "xor2", "xor3", "xor4", "xnor2", "xnor3", "maj3",
    "maj5", "th24",
];

/// Supply of the §V bench the pipeline builds.
const VDD: f64 = 1.2;

struct Item {
    spec: JobSpec,
    table: usize,
    input: u32,
}

/// The set-up corpus: realized functions and the seeded job order.
pub struct BatchOp {
    builder: PipelineJobBuilder,
    engine: Engine,
    tables: Vec<TruthTable>,
    items: Vec<Item>,
    realize_s: f64,
    largest: Netlist,
}

impl BatchOp {
    /// Realizes every function (first build per function), orders the
    /// corpus by the seed, and runs one warm-up pass.
    pub fn setup(seed: u64) -> Result<BatchOp, String> {
        let builder = PipelineJobBuilder::new();
        let mut tables = Vec::new();
        let mut items = Vec::new();
        let mut realize_s = 0.0;
        let mut largest = Netlist::new();
        for (table, name) in CORPUS.iter().enumerate() {
            let tt = named_function(name)?;
            for input in 0..1u32 << tt.vars() {
                let spec = JobSpec {
                    source: JobSource::Function {
                        name: (*name).to_owned(),
                        analysis: AnalysisSpec::Op { input },
                    },
                    deadline_ms: None,
                    ladder: false,
                    label: None,
                    waveform: false,
                    cache: CacheMode::Bypass,
                };
                if input == 0 {
                    let t = Instant::now();
                    let built =
                        build_job(&builder, &spec, items.len()).map_err(|e| e.to_string())?;
                    realize_s += t.elapsed().as_secs_f64();
                    if built.job.netlist.unknown_count() > largest.unknown_count() {
                        largest = built.job.netlist;
                    }
                }
                items.push(Item { spec, table, input });
            }
            tables.push(tt);
        }
        // The seed fixes the manifest order (Fisher–Yates).
        let mut rng = Rng::new(seed, 0xBA7C);
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i + 1));
        }
        let me = BatchOp {
            builder,
            engine: Engine::new().threads(crate::nproc()),
            tables,
            items,
            realize_s,
            largest,
        };
        let mut warm = Recorder::new(false, Instant::now(), "main");
        me.pass(&mut warm, 0)?;
        Ok(me)
    }

    /// One `fts batch` pass: build, run, render. Returns the rendered
    /// results and per-job engine wall times.
    fn pass(&self, rec: &mut Recorder, k: u64) -> Result<(Vec<String>, Vec<f64>), String> {
        rec.span("bench.pass", k, |rec| {
            let mut jobs = Vec::with_capacity(self.items.len());
            let mut outs = Vec::with_capacity(self.items.len());
            for (i, item) in self.items.iter().enumerate() {
                let built = rec
                    .span("build.job", k, |_| build_job(&self.builder, &item.spec, i))
                    .map_err(|e| e.to_string())?;
                outs.push(built.out);
                jobs.push(built.job);
            }
            let report = rec.span("engine.run", k, |_| self.engine.run(jobs));
            let rows = rec.span("wire.outcome_json", k, |_| {
                report
                    .outcomes
                    .iter()
                    .zip(&outs)
                    .map(|(o, &out)| outcome_json(o, out, false))
                    .collect()
            });
            Ok((rows, report.stats.iter().map(|s| s.wall_s).collect()))
        })
    }
}

impl Workload for BatchOp {
    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> Run {
        if traced {
            fts_telemetry::reset();
        }
        let mut rec = Recorder::new(traced, origin, "main");
        let mut run = Run::default();
        let n = self.items.len();
        let mut first: Option<Vec<String>> = None;
        let mut walls = Vec::new();
        let mut job_s = Vec::new();
        let mut counts = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let before = traced.then(|| probe::tally().work_counts());
            let t = Instant::now();
            let pass = self.pass(&mut rec, walls.len() as u64);
            let wall = t.elapsed().as_secs_f64();
            if let Some(before) = before {
                counts.push(probe::count_delta(probe::tally().work_counts(), before));
            }
            let (rows, stats) = match pass {
                Ok(p) => p,
                Err(e) => {
                    run.problem(format!("build failed: {e}"));
                    run.attempted += n as u64;
                    run.failed += n as u64;
                    break;
                }
            };
            walls.push(wall);
            job_s.extend(stats);
            // Later passes must repeat pass 0 byte for byte; only pass 0
            // is kept, so memory does not grow with the pass count.
            match &first {
                None => first = Some(rows),
                Some(first) => {
                    let differ = rows.iter().zip(first).filter(|(a, b)| a != b).count();
                    if differ > 0 {
                        run.failed += differ as u64;
                        run.problem(format!("pass {}: {differ} results differ", walls.len() - 1));
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

        // Pass 0 against the truth tables; work counts must repeat exactly.
        run.attempted += (walls.len() * n) as u64;
        for (row, item) in first.iter().flatten().zip(&self.items) {
            let v = Json::parse(row)
                .ok()
                .and_then(|d| d.get("out_v").and_then(Json::as_f64));
            let ok = v.is_some_and(|v| {
                probe::output_matches(&self.tables[item.table], item.input, v, VDD)
            });
            if !ok {
                run.failed += walls.len() as u64;
                run.problem(format!("{:?}: {row}", item.spec.source));
            }
        }
        if counts.windows(2).any(|w| w[0] != w[1]) {
            run.failed += 1;
            run.problem(format!("work counts differ across passes: {counts:?}"));
        }

        let rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
        run.e2e.set("throughput_per_s", stats::median(&rates));
        run.e2e.set("ttr_p50_ms", stats::median(&walls) * 1e3);
        run.e2e.set("path_p50_ms", stats::median(&job_s) * 1e3);
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
            let engine_wall: f64 = rec
                .spans
                .iter()
                .filter(|s| s.name == "engine.run")
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .sum();
            l.set(
                "engine.busy_share",
                job_wall / (self.engine.thread_count() as f64 * engine_wall.max(1e-12)),
            );
            let attempts = tally.c("engine.jobs.retries") as f64 / jobs.len().max(1) as f64;
            l.set("engine.attempts_per_job", 1.0 + attempts);
            l.set("engine.failed", tally.c("engine.jobs.failed") as f64);
            crate::op_layer_metrics(l, &tally, walls.len(), n, job_wall);
            let build_us: Vec<f64> = rec
                .spans
                .iter()
                .filter(|s| s.name == "build.job")
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
                .collect();
            l.set("build.job_us.p50", stats::median(&build_us));
            l.set("build.realize_s", self.realize_s);
            let (factor_us, solve_us) = probe::linalg_probe(&self.largest, 200);
            l.set("linalg.factor_us", factor_us);
            l.set("linalg.solve_us", solve_us);
            run.lanes.push((rec, wall));
        }
        run
    }

    fn envelope(&self) -> Vec<(String, String)> {
        vec![
            (
                "engine_threads".into(),
                self.engine.thread_count().to_string(),
            ),
            ("functions".into(), quote(&CORPUS.join(","))),
            ("jobs_per_pass".into(), self.items.len().to_string()),
            ("cache_mode".into(), quote("bypass")),
            (
                "linalg_probe_unknowns".into(),
                self.largest.unknown_count().to_string(),
            ),
        ]
    }
}
