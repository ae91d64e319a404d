//! `perfbench`: the repository benchmark. One seeded workload per run,
//! driven through the public APIs of `fts-server`, `core::batch`,
//! `fts-engine`, `fts-spice` and `fts-montecarlo`, with every output
//! checked against an independent oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-op|batch-op|yield-mc|tran-lattice> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload untraced for half the time and then
//! traced (benchmark spans plus the program's telemetry counters) for the
//! other half, and reports the per-layer ledger. The last stdout line is
//! the result document; the run envelope precedes it. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod batch;
mod mc;
mod probe;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod tran;

use std::time::Instant;

use probe::Tally;
use report::{Metrics, END_TO_END, LEDGER_LAYERS, PER_LAYER};
use trace::{Ledger, Recorder};

/// Bumped whenever a workload's inputs or measurement change.
pub const WORKLOAD_VERSION: u32 = 1;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Failure descriptions printed per run.
const MAX_PROBLEMS_SHOWN: usize = 10;

/// What one measured window produced.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (jobs, submissions or trials).
    pub attempted: u64,
    /// Of which failed: errors, refusals, lost results, oracle misses.
    pub failed: u64,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    pub e2e: Metrics,
    /// Per-layer metrics (traced windows only).
    pub layer: Metrics,
    /// Span lanes of a traced window, each with its wall time \[s\].
    pub lanes: Vec<(Recorder, f64)>,
    /// Envelope entries (sample counts, chosen percentiles, …).
    pub notes: Vec<(String, String)>,
    /// Why operations failed.
    pub problems: Vec<String>,
    /// Set when the run must not be reported (e.g. generator lag).
    pub invalid: Option<String>,
}

impl Run {
    /// Adds an envelope entry (`value` is JSON).
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_owned(), value));
    }

    /// Records a failure description.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }
}

/// A set-up workload: measured windows, then teardown.
pub trait Workload {
    /// Precomputes the oracle (outside `setup_s`; once per process).
    fn prepare_oracle(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Measures for `seconds`, then checks every output.
    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> Run;

    /// Settings to record in the run envelope.
    fn envelope(&self) -> Vec<(String, String)>;

    /// Stops everything the workload started and waits for it.
    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the op-analysis, transient and linear-algebra per-layer metrics
/// from a telemetry tally covering `passes` repetitions of an input of
/// `jobs` engine jobs that took `job_wall_s` in all. Counts are per pass,
/// so they repeat exactly for a fixed seed.
pub fn op_layer_metrics(l: &mut Metrics, t: &Tally, passes: usize, jobs: usize, job_wall_s: f64) {
    let passes = passes.max(1) as f64;
    let per_pass = |x: u64| x as f64 / passes;
    let per_job = |x: u64| x as f64 / (passes * jobs.max(1) as f64);
    let iters = t.h("spice.op.newton_iterations");
    let total = t.total("spice.op.newton_iterations");
    l.set("op.newton_iters.mean", iters.mean);
    l.set("op.newton_iters.p50", iters.p50);
    l.set("op.newton_iters.max", iters.max);
    l.set("op.newton_iters.total", per_pass(total));
    let solved = t.c("spice.op.solved");
    let plain = t.c("spice.op.strategy.newton");
    l.set(
        "op.homotopy_share",
        (solved - plain.min(solved)) as f64 / solved.max(1) as f64,
    );
    if total > 0 && job_wall_s > 0.0 {
        l.set("op.us_per_newton_iter", job_wall_s * 1e6 / total as f64);
    }
    let dense = t.c("spice.solver.dense");
    let sparse = t.c("spice.solver.sparse") + t.c("spice.solver.sparse_ensemble");
    l.set(
        "op.dense_share",
        dense as f64 / (dense + sparse).max(1) as f64,
    );
    l.set("linalg.factor_per_job", per_job(t.c("spice.sparse.factor")));
    l.set(
        "linalg.refactor_per_job",
        per_job(t.c("spice.sparse.refactor")),
    );
    l.set("linalg.solve_per_job", per_job(t.c("spice.sparse.solve")));
    let reuse = t.c("spice.sparse.symbolic_reuse");
    let fresh = t.c("spice.sparse.symbolic_new");
    l.set(
        "linalg.symbolic_reuse_ratio",
        reuse as f64 / (reuse + fresh).max(1) as f64,
    );
    l.set("linalg.factor_nnz", t.h("spice.sparse.factor_nnz").mean);
    let steps = t.c("spice.transient.steps");
    l.set("tran.steps_per_job", per_job(steps));
    l.set(
        "tran.step_failures",
        per_pass(t.c("spice.transient.step_failures")),
    );
    l.set(
        "tran.lte_rejections",
        per_pass(t.c("spice.transient.lte_rejections")),
    );
    if steps > 0 {
        l.set(
            "tran.newton_iters_per_step",
            t.total("spice.transient.newton_iterations") as f64 / steps as f64,
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "serve-op" => Box::new(serve::ServeOp::setup(seed)?),
        "batch-op" => Box::new(batch::BatchOp::setup(seed)?),
        "yield-mc" => Box::new(mc::YieldMc::setup(seed)?),
        "tran-lattice" => Box::new(tran::TranLattice::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (serve-op, batch-op, yield-mc, tran-lattice)"
            ))
        }
    })
}

/// Output of a command, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args, origin) {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one invocation; `Ok(false)` when an output failed its check.
fn bench(args: &Args, origin: Instant) -> Result<bool, String> {
    // Set-up, repeated; every repetition but the last is torn down.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut current: Option<Box<dyn Workload>> = None;
    let mut t0 = origin;
    for _ in 0..SETUP_REPS {
        if let Some(old) = current.take() {
            old.close()?;
            t0 = Instant::now();
        }
        let w = setup(&args.workload, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        current = Some(w);
    }
    let mut wl = current.expect("at least one set-up");
    wl.prepare_oracle()?;
    let setup_s = stats::median(&setups);

    let runs = if args.trace {
        let base = wl.run(args.seconds / 2.0, false, origin);
        fts_telemetry::set_enabled(true);
        vec![base, wl.run(args.seconds / 2.0, true, origin)]
    } else {
        vec![wl.run(args.seconds, false, origin)]
    };
    let mut envelope = wl.envelope();
    wl.close()?;
    let (metrics, declared) = if args.trace {
        (layer_metrics(args, &runs[0], &runs[1])?, &PER_LAYER[..])
    } else {
        let mut m = runs[0].e2e.clone();
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", probe::peak_rss_mb());
        (m, &END_TO_END[..])
    };
    if let Some((bad, _)) = declared.iter().find(|(n, _)| !report::valid_name(n)) {
        return Err(format!("metric name {bad:?} is not [A-Za-z0-9_.-]+"));
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    for p in runs
        .iter()
        .flat_map(|r| &r.problems)
        .take(MAX_PROBLEMS_SHOWN)
    {
        eprintln!("FAILED: {p}");
    }
    if let Some(why) = runs.iter().find_map(|r| r.invalid.as_ref()) {
        return Err(format!("invalid run, not reported: {why}"));
    }

    let head = [
        ("schema", report::quote("perfbench-envelope/1")),
        ("workload", report::quote(&args.workload)),
        ("workload_version", WORKLOAD_VERSION.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{}", args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "git_rev",
            report::quote(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", report::quote(&command_line("rustc", &["-V"]))),
        ("nproc", nproc().to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("setup_s_each", format!("{setups:?}")),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        (
            "failed_share",
            format!("{}", failed as f64 / attempted.max(1) as f64),
        ),
    ];
    let mut fields: Vec<(String, String)> =
        head.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    fields.append(&mut envelope);
    for (k, run) in runs.iter().enumerate() {
        let tag = if args.trace && k == 1 { "traced." } else { "" };
        fields.extend(
            run.notes
                .iter()
                .map(|(n, v)| (format!("{tag}{n}"), v.clone())),
        );
    }
    println!("envelope {}", report::object(&fields));
    for &(name, unit) in declared {
        println!("{name} = {} {unit}", metrics.get(name));
    }
    println!(
        "failed_share = {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, declared, &metrics)
    );
    Ok(correct)
}

/// Per-layer metrics of a `--trace 1` invocation: the traced window's
/// layer values, its ledger, and the tracing overhead against the
/// untraced window. Spans are written to `perfbench/out/`.
fn layer_metrics(args: &Args, base: &Run, traced: &Run) -> Result<Metrics, String> {
    let mut m = traced.layer.clone();
    let mut ledger = Ledger::default();
    // Concurrent lanes cover the same window; each adds its own wall.
    for (lane, wall) in &traced.lanes {
        ledger.add_lane(lane, *wall);
    }
    if ledger.residual_s().abs() > 1e-6 {
        return Err(format!(
            "ledger does not add up: residual {} s",
            ledger.residual_s()
        ));
    }
    for layer in LEDGER_LAYERS {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| *n == format!("ledger.{layer}_s"))
            .expect("ledger layer declared")
            .0;
        m.set(name, ledger.layer_s(layer));
    }
    let other: f64 = ledger
        .self_s
        .iter()
        .filter(|(k, _)| !LEDGER_LAYERS.contains(k))
        .map(|(_, v)| v)
        .sum();
    if other > 0.0 {
        return Err(format!(
            "spans outside the declared ledger layers: {:?}",
            ledger.self_s
        ));
    }
    m.set("ledger.unattributed_s", ledger.unattributed_s);
    let untraced = base.e2e.get("ttr_p50_ms");
    if untraced > 0.0 {
        m.set(
            "trace.overhead_share",
            traced.e2e.get("ttr_p50_ms") / untraced - 1.0,
        );
    }
    println!(
        "ledger {} lane(s), wall {:.6} s: {}; unattributed {:.6} s",
        ledger.lanes,
        ledger.wall_s,
        ledger
            .self_s
            .iter()
            .map(|(k, v)| format!("{k} {v:.6} s"))
            .collect::<Vec<_>>()
            .join(", "),
        ledger.unattributed_s
    );
    let lanes: Vec<&Recorder> = traced.lanes.iter().map(|(r, _)| r).collect();
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::spans_json(&args.workload, args.seed, &lanes))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(m)
}
