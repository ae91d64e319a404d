//! `yield-mc`: the XOR3 lattice's Monte Carlo yield under process
//! variation and defect injection, on the lockstep ensemble path at its
//! default width, pass after pass in a closed loop.

use std::sync::Arc;
use std::time::Instant;

use fts_circuit::experiments::xor3_lattice;
use fts_circuit::lattice_netlist::{BenchConfig, LatticeCircuit};
use fts_circuit::model::SwitchCircuitModel;
use fts_lattice::defects::inject_all;
use fts_lattice::Lattice;
use fts_montecarlo::rng::trial_rng;
use fts_montecarlo::{MonteCarlo, VariationModel, YieldReport};
use fts_spice::{LaneOutcome, OpEnsemble, OpOptions, Waveform};

use crate::probe::{self, Tally};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;
use crate::{Run, Workload};

/// Trials per yield report: four 16-trial blocks, so two workers split
/// a report evenly.
pub const TRIALS: u64 = 64;
/// Reports re-run after the window to check bit reproducibility.
pub const REPEATS: u64 = 2;
/// Master seed of the set-up warm-up report, the same for every run so
/// set-up does the same work whatever the benchmark seed.
const WARM_UP_SEED: u64 = 0x5EED;

/// Per-switch defect probability.
pub const DEFECT_PROB: f64 = 0.02;
/// Trials re-solved through the scalar simulator after the window.
pub const TWIN_TRIALS: u64 = 16;
/// Largest lane-vs-scalar difference allowed \[V\].
pub const TWIN_TOLERANCE_V: f64 = 1e-9;

/// The configured ensemble and its nominal circuit model.
pub struct YieldMc {
    seed: u64,
    mc: MonteCarlo,
    lattice: Lattice,
    nominal: SwitchCircuitModel,
    twin_first: u64,
}

impl YieldMc {
    /// Extracts the nominal switch model and runs one warm-up report.
    pub fn setup(seed: u64) -> Result<YieldMc, String> {
        let nominal = SwitchCircuitModel::square_hfo2().map_err(|e| e.to_string())?;
        let mc = MonteCarlo::new(TRIALS, WARM_UP_SEED)
            .variation(VariationModel::standard().with_defect_prob(DEFECT_PROB))
            .threads(crate::nproc());
        let mut rng = Rng::new(seed, 0x3C);
        let me = YieldMc {
            seed,
            mc,
            lattice: xor3_lattice(),
            nominal,
            twin_first: rng.below((TRIALS - TWIN_TRIALS + 1) as usize) as u64,
        };
        me.run_mc(me.mc)
            .map_err(|e| format!("warm-up yield run: {e}"))?;
        Ok(me)
    }

    /// The ensemble of report `pass`: its master seed comes from the
    /// benchmark seed, a new one per report, so a run averages over many
    /// trial draws instead of repeating one.
    fn pass_mc(&self, pass: u64) -> MonteCarlo {
        MonteCarlo {
            master_seed: Rng::new(self.seed, 0x3C00 + pass).next_u64(),
            ..self.mc
        }
    }

    fn run_mc(&self, mc: MonteCarlo) -> Result<YieldReport, String> {
        mc.run(&self.lattice, 3, &self.nominal)
            .map_err(|e| e.to_string())
    }

    /// Re-solves trials `twin_first..+TWIN_TRIALS` of report 0 lane by lane and
    /// through the scalar simulator at every input assignment; returns
    /// `(lane trials, max |ΔV|)`.
    fn twin_check(&self) -> Result<(u64, f64), String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mc = self.pass_mc(0);
        let variation = mc.variation;
        let bench = BenchConfig::default();
        let lat = &self.lattice;
        let mut reference =
            LatticeCircuit::build(lat, 3, &self.nominal, bench).map_err(|e| err(&e))?;
        let sym = reference.mna_symbolic();
        reference.share_symbolic(Arc::clone(&sym));
        let out = reference.out();
        let mut ensemble = OpEnsemble::new(reference.netlist());
        let mut lanes = Vec::new();
        for t in self.twin_first..self.twin_first + TWIN_TRIALS {
            let mut rng = trial_rng(mc.master_seed, t);
            let defects = variation.sample_defects(lat, &mut rng);
            let faulty = inject_all(lat, &defects).map_err(|e| err(&e))?;
            let base = variation
                .sample_base_model(&self.nominal, &mut rng)
                .map_err(|e| err(&e))?;
            let sites = variation.sample_site_models(&base, lat, &mut rng);
            let cols = lat.cols();
            let mut ckt =
                LatticeCircuit::build_with(&faulty, 3, bench, |(r, c)| sites[r * cols + c])
                    .map_err(|e| err(&e))?;
            ckt.share_symbolic(Arc::clone(&sym));
            if ensemble.try_push(ckt.netlist().clone()).is_ok() {
                lanes.push(ckt);
            }
        }
        let mut max_dev = 0.0f64;
        for step in 0..8u32 {
            // The engine's Gray-code sweep, so lanes warm-start alike.
            let x = step ^ (step >> 1);
            for lane in 0..ensemble.len() {
                let nl = ensemble.lane_mut(lane);
                for var in 0..3usize {
                    let bit = (x >> var) & 1 == 1;
                    let (p, n) = if bit {
                        (bench.vdd, 0.0)
                    } else {
                        (0.0, bench.vdd)
                    };
                    nl.set_vsource(&format!("VIN{var}"), Waveform::Dc(p))
                        .map_err(|e| err(&e))?;
                    nl.set_vsource(&format!("VIN{var}N"), Waveform::Dc(n))
                        .map_err(|e| err(&e))?;
                }
            }
            for (lane, outcome) in ensemble
                .solve_op(&OpOptions::full())
                .into_iter()
                .enumerate()
            {
                let scalar = lanes[lane].dc_output(x).map_err(|e| err(&e))?;
                match outcome {
                    LaneOutcome::Solved(op) | LaneOutcome::Fallback(op) => {
                        max_dev = max_dev.max((op.voltage(out) - scalar).abs());
                    }
                    LaneOutcome::Failed(e) => return Err(format!("lane {lane} at {x}: {e}")),
                }
            }
        }
        Ok((lanes.len() as u64, max_dev))
    }
}

impl Workload for YieldMc {
    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> Run {
        if traced {
            fts_telemetry::reset();
        }
        let mut rec = Recorder::new(traced, origin, "main");
        let mut reports = 0u64;
        let mut kept = Vec::new();
        let mut walls = Vec::new();
        let mut counts = Vec::new();
        let mut run = Run::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let before = traced.then(|| probe::tally().work_counts());
            let k = reports;
            let t = Instant::now();
            let r = rec.span("montecarlo.run", k, |_| self.run_mc(self.pass_mc(k)));
            walls.push(t.elapsed().as_secs_f64());
            match r {
                Ok(report) => {
                    if report.evaluated != TRIALS || report.sim_failures > 0 {
                        run.failed += report
                            .sim_failures
                            .max(TRIALS - report.evaluated.min(TRIALS));
                        run.problem(format!(
                            "report {k}: {} of {TRIALS} trials evaluated, {} simulator failures",
                            report.evaluated, report.sim_failures
                        ));
                    }
                    // Only the reports re-run below are kept.
                    if k < REPEATS {
                        kept.push(report);
                    }
                    reports += 1;
                }
                Err(e) => {
                    run.problem(format!("yield run failed: {e}"));
                    run.attempted += TRIALS;
                    run.failed += TRIALS;
                    break;
                }
            }
            if let Some(before) = before {
                counts.push(probe::count_delta(probe::tally().work_counts(), before));
            }
        }
        let wall = rec.finish();
        let tally = if traced {
            probe::tally()
        } else {
            Tally::default()
        };

        // Oracles: the first reports re-run bit for bit with the same
        // work counts; the lane-vs-scalar twin holds on a seeded sample.
        run.attempted += reports * TRIALS;
        for k in 0..kept.len() as u64 {
            let before = probe::tally().work_counts();
            let again = self.run_mc(self.pass_mc(k));
            let delta = probe::count_delta(probe::tally().work_counts(), before);
            if again.as_ref() != Ok(&kept[k as usize]) {
                run.failed += TRIALS;
                run.problem(format!("report {k} does not reproduce bit for bit"));
            }
            if traced && delta != counts[k as usize] {
                run.failed += 1;
                run.problem(format!(
                    "report {k} work counts {delta:?} != {:?}",
                    counts[k as usize]
                ));
            }
        }
        if let Some(first) = kept.first() {
            run.note(
                "functional_yield_0",
                format!("{}", first.functional_yield()),
            );
        }
        match self.twin_check() {
            Ok((lanes, dev)) if dev <= TWIN_TOLERANCE_V => {
                run.note("twin_lanes", lanes.to_string());
                run.note("twin_max_dev_v", format!("{dev}"));
            }
            Ok((_, dev)) => {
                run.failed += TWIN_TRIALS;
                run.problem(format!(
                    "ensemble lane deviates from its scalar twin by {dev:e} V"
                ));
            }
            Err(e) => {
                run.failed += TWIN_TRIALS;
                run.problem(format!("twin check: {e}"));
            }
        }
        let ok_walls = &walls[..reports as usize];
        let rates: Vec<f64> = ok_walls.iter().map(|w| TRIALS as f64 / w).collect();
        run.e2e.set("throughput_per_s", stats::median(&rates));
        run.e2e.set("ttr_p50_ms", stats::median(ok_walls) * 1e3);
        run.e2e
            .set("path_p50_ms", stats::median(ok_walls) * 1e3 / TRIALS as f64);
        run.note("passes", reports.to_string());
        if let Some(c) = counts.first() {
            run.note("work_counts_report_0", format!("{c:?}"));
        }

        if traced {
            let l = &mut run.layer;
            let width = self.mc.ensemble_width as f64;
            let lanes = tally.c("spice.ensemble.lanes") as f64;
            l.set(
                "ensemble.lane_utilization",
                tally.h("spice.ensemble.lane_utilization").mean,
            );
            l.set(
                "ensemble.scalar_fallback_share",
                tally.c("spice.ensemble.scalar_fallback") as f64 / lanes.max(1.0),
            );
            let passes = reports.max(1) as f64;
            crate::op_layer_metrics(l, &tally, reports as usize, TRIALS as usize, 0.0);
            // Reports draw new trials each pass: exact counts come from
            // report 0, which the repeat check re-ran.
            if let Some(c) = counts.first() {
                l.set("op.newton_iters.total", c[0] as f64);
                l.set("ensemble.lockstep_iters", c[2] as f64);
            }
            l.set(
                "ensemble.factors",
                tally.c("spice.ensemble.factor") as f64 / passes,
            );
            let chunk = tally.h("mc.chunk.wall_s");
            l.set("mc.trial_ms.p50", chunk.p50 * 1e3 / width);
            l.set("mc.trial_ms.p99", chunk.p99 * 1e3 / width);
            l.set(
                "mc.blocks_per_worker",
                tally.h("engine.executor.blocks_per_worker").mean,
            );
            let ckt =
                LatticeCircuit::build(&self.lattice, 3, &self.nominal, BenchConfig::default());
            if let Ok(ckt) = ckt {
                let (factor_us, solve_us) = probe::linalg_probe(ckt.netlist(), 200);
                l.set("linalg.factor_us", factor_us);
                l.set("linalg.solve_us", solve_us);
            }
            run.lanes.push((rec, wall));
        }
        run
    }

    fn envelope(&self) -> Vec<(String, String)> {
        vec![
            ("lattice".into(), "\"xor3\"".into()),
            ("trials_per_pass".into(), TRIALS.to_string()),
            ("defect_prob".into(), format!("{DEFECT_PROB}")),
            (
                "master_seed_0".into(),
                self.pass_mc(0).master_seed.to_string(),
            ),
            ("mc_threads".into(), self.mc.threads.to_string()),
            ("ensemble_width".into(), self.mc.ensemble_width.to_string()),
            ("block_size".into(), self.mc.block_size.to_string()),
            (
                "twin_trials".into(),
                format!("[{}, {}]", self.twin_first, TWIN_TRIALS),
            ),
        ]
    }
}
