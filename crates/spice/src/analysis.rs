//! DC operating point, DC sweep, transient, and AC analyses.
//!
//! The entry point is [`crate::Simulator`]; this module owns the analysis
//! implementations plus their public configuration and result types
//! ([`OpOptions`], [`TranConfig`], [`OpResult`], [`Transient`],
//! [`AcResult`]).

use std::cell::{Cell, RefCell};

use crate::cancel::CancelToken;
use crate::complex::{CMatrix, Complex};
use crate::netlist::{Element, Netlist, NodeId, Waveform};
use crate::stamp::{self, CapMode, SolverWorkspace, StampContext};
use crate::SpiceError;

/// Homotopy solver callback shared by the continuation helpers:
/// `(gmin, source_scale, initial_guess)` → converged solution vector.
type HomotopySolve<'a> = dyn Fn(f64, f64, &[f64]) -> Result<Vec<f64>, SpiceError> + 'a;

/// Which rung of the §V homotopy ladder produced the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpStrategy {
    /// Plain Newton from the initial guess.
    Newton,
    /// Adaptive gmin stepping.
    GminStepping,
    /// Adaptive source stepping (plus the closing gmin ramp).
    SourceStepping,
    /// Pseudo-transient continuation.
    PseudoTransient,
}

impl OpStrategy {
    /// Stable lowercase name (used in telemetry counters and JSON).
    pub fn name(self) -> &'static str {
        match self {
            OpStrategy::Newton => "newton",
            OpStrategy::GminStepping => "gmin_stepping",
            OpStrategy::SourceStepping => "source_stepping",
            OpStrategy::PseudoTransient => "pseudo_transient",
        }
    }
}

/// Convergence diagnostics for one DC operating-point solve — previously
/// computed and discarded, now carried on every [`OpResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// The escalation stage that finally converged.
    pub strategy: OpStrategy,
    /// Total Newton iterations across every homotopy rung attempted
    /// (failed rungs charge their full iteration budget).
    pub newton_iterations: u64,
    /// Number of Newton solves attempted (homotopy continuation points).
    pub solves: u64,
    /// Step-norm residual of the final converged solve: the largest
    /// absolute update of its last iteration.
    pub final_residual: f64,
}

/// Scratch tally threaded through the homotopy ladder via `Cell`s (the
/// continuation helpers take `Fn` closures, so interior mutability).
#[derive(Default)]
struct OpTally {
    iterations: Cell<u64>,
    solves: Cell<u64>,
    residual: Cell<f64>,
}

impl OpTally {
    fn report(&self, strategy: OpStrategy) -> ConvergenceReport {
        ConvergenceReport {
            strategy,
            newton_iterations: self.iterations.get(),
            solves: self.solves.get(),
            final_residual: self.residual.get(),
        }
    }
}

/// Runs one tallied Newton solve: iteration counts accumulate into
/// `tally` (a failed solve charges its whole budget) and the residual of
/// the most recent successful solve is retained.
fn newton_tallied(
    netlist: &Netlist,
    ctx: &StampContext<'_>,
    x0: &[f64],
    max_iterations: usize,
    tally: &OpTally,
    ws: &RefCell<SolverWorkspace>,
) -> Result<Vec<f64>, SpiceError> {
    tally.solves.set(tally.solves.get() + 1);
    match stamp::newton(netlist, ctx, x0, max_iterations, &mut ws.borrow_mut()) {
        Ok(solve) => {
            tally
                .iterations
                .set(tally.iterations.get() + solve.iterations as u64);
            tally.residual.set(solve.max_step);
            // a = iterations consumed, b = final step-norm residual.
            fts_telemetry::trace::emit(
                "newton_converged",
                "",
                solve.iterations as f64,
                solve.max_step,
            );
            Ok(solve.x)
        }
        Err(e) => {
            tally
                .iterations
                .set(tally.iterations.get() + max_iterations as u64);
            // Cancellation is not divergence — the engine records the
            // cancel/deadline event at the attempt level.
            if !e.is_cancellation() {
                // a = iteration budget charged.
                fts_telemetry::trace::emit("newton_diverged", "", max_iterations as f64, 0.0);
            }
            Err(e)
        }
    }
}

/// Convergence-aid policy for a DC operating-point solve: which rungs of
/// the homotopy ladder may run after plain Newton fails. The batch
/// engine's retry ladder re-runs a failed job with progressively stronger
/// policies instead of always paying for the full ladder up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOptions {
    /// Allow adaptive gmin stepping.
    pub gmin_stepping: bool,
    /// Allow adaptive source stepping (plus its closing gmin ramp).
    pub source_stepping: bool,
    /// Allow pseudo-transient continuation.
    pub pseudo_transient: bool,
    /// Newton iteration budget per solve.
    pub max_iterations: usize,
}

impl Default for OpOptions {
    fn default() -> OpOptions {
        OpOptions::full()
    }
}

impl OpOptions {
    /// The full ladder — gmin stepping, then source stepping, then
    /// pseudo-transient. This is the historical `op` behavior.
    pub fn full() -> OpOptions {
        OpOptions {
            gmin_stepping: true,
            source_stepping: true,
            pseudo_transient: true,
            max_iterations: 120,
        }
    }

    /// Plain Newton only: fails fast, for callers that escalate elsewhere.
    pub fn newton_only() -> OpOptions {
        OpOptions {
            gmin_stepping: false,
            source_stepping: false,
            pseudo_transient: false,
            max_iterations: 120,
        }
    }
}

/// Transient integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Integrator {
    /// Backward Euler: robust, first order, numerically damped.
    BackwardEuler,
    /// Trapezoidal: second order, the SPICE default.
    Trapezoidal,
}

/// A solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    x: Vec<f64>,
    node_count: usize,
    convergence: ConvergenceReport,
}

impl OpResult {
    /// Assembles an operating-point result from a solved unknown vector —
    /// the constructor the ensemble driver uses for lanes it converged
    /// without going through [`op_at_impl`]'s ladder.
    pub(crate) fn from_parts(
        x: Vec<f64>,
        node_count: usize,
        convergence: ConvergenceReport,
    ) -> OpResult {
        OpResult {
            x,
            node_count,
            convergence,
        }
    }
    /// How this operating point converged: strategy reached, Newton
    /// iterations spent, final residual.
    pub fn convergence(&self) -> &ConvergenceReport {
        &self.convergence
    }

    /// Node voltage \[V\].
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Current through the named voltage source, measured flowing from its
    /// `+` terminal through the source to `−` (a battery delivering power
    /// therefore reads negative).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for unknown names.
    pub fn vsource_current(&self, netlist: &Netlist, name: &str) -> Result<f64, SpiceError> {
        for dev in &netlist.devices {
            if dev.name == name {
                if let Element::VSource { branch, .. } = &dev.element {
                    return Ok(self.x[self.node_count - 1 + branch]);
                }
            }
        }
        Err(SpiceError::NotFound {
            name: name.to_owned(),
        })
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Operating point over a caller-owned solver workspace, so sweeps and
/// transient analyses amortize the workspace (and the sparse symbolic
/// factorization) across many operating-point solves. `opts` gates the
/// homotopy rungs; `cancel` is checked inside every Newton iteration and
/// between rungs.
pub(crate) fn op_at_impl(
    netlist: &Netlist,
    t: f64,
    initial: Option<&[f64]>,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
) -> Result<OpResult, SpiceError> {
    let _span = fts_telemetry::span("spice.op");
    let n = netlist.unknown_count();
    let x0 = initial.map(|v| v.to_vec()).unwrap_or_else(|| vec![0.0; n]);
    let tally = OpTally::default();
    let solve = |gmin: f64, scale: f64, x0: &[f64]| -> Result<Vec<f64>, SpiceError> {
        let ctx = StampContext {
            t,
            cap_mode: CapMode::Open,
            cap_states: &[],
            gmin,
            source_scale: scale,
            cancel,
        };
        newton_tallied(netlist, &ctx, x0, opts.max_iterations, &tally, ws)
    };
    // Helper run between homotopy rungs: the continuation loops swallow
    // individual solve failures, so a cancellation surfacing inside a rung
    // is re-raised here (with the analysis-level label) before the next,
    // potentially expensive, rung starts.
    let check_cancel = || -> Result<(), SpiceError> {
        match cancel {
            Some(token) => token.check("dc operating point"),
            None => Ok(()),
        }
    };
    let finish = |x: Vec<f64>, strategy: OpStrategy| -> OpResult {
        let convergence = tally.report(strategy);
        if fts_telemetry::enabled() {
            fts_telemetry::counter("spice.op.solved", 1);
            match strategy {
                OpStrategy::Newton => fts_telemetry::counter("spice.op.strategy.newton", 1),
                OpStrategy::GminStepping => {
                    fts_telemetry::counter("spice.op.strategy.gmin_stepping", 1)
                }
                OpStrategy::SourceStepping => {
                    fts_telemetry::counter("spice.op.strategy.source_stepping", 1)
                }
                OpStrategy::PseudoTransient => {
                    fts_telemetry::counter("spice.op.strategy.pseudo_transient", 1)
                }
            }
            fts_telemetry::record(
                "spice.op.newton_iterations",
                convergence.newton_iterations as f64,
            );
            fts_telemetry::record("spice.op.residual", convergence.final_residual);
        }
        // a = total Newton iterations across rungs, b = final residual.
        fts_telemetry::trace::emit(
            "op_solved",
            strategy.name(),
            convergence.newton_iterations as f64,
            convergence.final_residual,
        );
        OpResult {
            x,
            node_count: netlist.node_count(),
            convergence,
        }
    };

    // Plain Newton.
    fts_telemetry::trace::emit("homotopy_step", "newton", 0.0, 0.0);
    if let Ok(x) = solve(1e-12, 1.0, &x0) {
        return Ok(finish(x, OpStrategy::Newton));
    }
    check_cancel()?;
    // Adaptive gmin stepping: ramp the shunt conductance down from 10 mS,
    // shrinking the per-step reduction whenever Newton stalls instead of
    // giving up outright.
    if opts.gmin_stepping {
        // a = starting shunt conductance of the ramp.
        fts_telemetry::trace::emit("homotopy_step", "gmin_stepping", 1e-2, 0.0);
        if let Some(x) = gmin_ramp(&solve, &x0, 1e-2) {
            return Ok(finish(x, OpStrategy::GminStepping));
        }
        check_cancel()?;
    }
    // Source stepping with a safety gmin: grow the drive adaptively
    // (bisect the scale step on failure), then ramp the gmin out at full
    // drive.
    if opts.source_stepping {
        fts_telemetry::trace::emit("homotopy_step", "source_stepping", 0.0, 0.0);
        const GMIN_SAFE: f64 = 1e-9;
        let mut x = vec![0.0; n];
        let mut scale = 0.0f64;
        let mut step = 0.05f64;
        let mut source_stepping_failed = false;
        while scale < 1.0 {
            let target = (scale + step).min(1.0);
            match solve(GMIN_SAFE, target, &x) {
                Ok(sol) => {
                    x = sol;
                    scale = target;
                    step = (step * 2.0).min(0.25);
                }
                Err(_) => {
                    step *= 0.5;
                    if step < 1e-4 {
                        source_stepping_failed = true;
                        break;
                    }
                }
            }
        }
        if !source_stepping_failed {
            if let Some(x) = gmin_ramp(&solve, &x, GMIN_SAFE) {
                return Ok(finish(x, OpStrategy::SourceStepping));
            }
        }
        check_cancel()?;
    }
    // Pseudo-transient continuation: let the circuit's capacitors settle a
    // backward-Euler march to steady state, then polish with the true
    // cap-open Newton. Slowest, but it follows a physical trajectory and
    // rescues bias points where every static homotopy oscillates.
    if opts.pseudo_transient {
        fts_telemetry::trace::emit("homotopy_step", "pseudo_transient", 0.0, 0.0);
        if let Some(x) = pseudo_transient(netlist, t, &solve, &tally, ws, opts, cancel) {
            return Ok(finish(x, OpStrategy::PseudoTransient));
        }
        check_cancel()?;
    }
    fts_telemetry::counter("spice.op.failed", 1);
    // a = Newton iterations burned across the ladder, b = solves attempted.
    fts_telemetry::trace::emit(
        "op_failed",
        "",
        tally.iterations.get() as f64,
        tally.solves.get() as f64,
    );
    Err(SpiceError::NoConvergence {
        analysis: "dc operating point",
        residual: 1.0,
    })
}

/// Marches damped backward-Euler steps (growing `dt`, shrinking on
/// failure) from the all-zero state until the solution stops moving, then
/// solves the static system from the settled state.
fn pseudo_transient(
    netlist: &Netlist,
    t: f64,
    solve: &HomotopySolve<'_>,
    tally: &OpTally,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
) -> Option<Vec<f64>> {
    let n = netlist.unknown_count();
    let mut x = vec![0.0; n];
    let mut cap_states = stamp::init_cap_states(netlist, &x);
    let mut dt = 1.0e-12;
    let mut settled = false;
    for _ in 0..600 {
        if cancel.is_some_and(|c| c.check("dc operating point").is_err()) {
            return None;
        }
        let ctx = StampContext {
            t,
            cap_mode: CapMode::Step {
                dt,
                trapezoidal: false,
            },
            cap_states: &cap_states,
            gmin: 1e-12,
            source_scale: 1.0,
            cancel,
        };
        match newton_tallied(netlist, &ctx, &x, opts.max_iterations, tally, ws) {
            Ok(next) => {
                let max_dv = x
                    .iter()
                    .zip(&next)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                stamp::update_cap_states(netlist, &next, &mut cap_states, dt, false);
                x = next;
                // As dt grows the capacitor conductance C/dt vanishes and
                // a BE step becomes the static solve itself, so "settled"
                // means: huge step, nothing moved.
                if max_dv < 1.0e-9 && dt >= 1.0 {
                    settled = true;
                    break;
                }
                dt *= 2.0;
            }
            Err(_) => {
                dt *= 0.25;
                if dt < 1.0e-18 {
                    return None;
                }
            }
        }
    }
    if !settled {
        return None;
    }
    solve(1e-12, 1.0, &x).ok()
}

/// Continuation in the shunt conductance: solve at `start` gmin, then
/// reduce it toward the 1 pS floor, shrinking the reduction factor when a
/// step fails. Returns the converged full-accuracy solution, or `None`
/// when the ramp stalls.
fn gmin_ramp(solve: &HomotopySolve<'_>, x0: &[f64], start: f64) -> Option<Vec<f64>> {
    const FLOOR: f64 = 1e-12;
    let mut x = solve(start, 1.0, x0).ok()?;
    let mut gmin = start;
    let mut factor = 10.0f64;
    while gmin > FLOOR {
        let next = (gmin / factor).max(FLOOR);
        match solve(next, 1.0, &x) {
            Ok(sol) => {
                x = sol;
                gmin = next;
                factor = (factor * factor).min(100.0);
            }
            Err(_) => {
                factor = factor.sqrt();
                if factor < 1.05 {
                    return None;
                }
            }
        }
    }
    Some(x)
}

/// DC sweep of the named voltage source over a caller-owned workspace,
/// policy, and cancel token: one operating point per value, warm-started
/// along the sweep. One workspace serves the whole sweep — changing a
/// source waveform leaves the MNA pattern (and the symbolic
/// factorization) intact.
pub(crate) fn dc_sweep_impl(
    netlist: &mut Netlist,
    source: &str,
    values: &[f64],
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
) -> Result<Vec<OpResult>, SpiceError> {
    let mut out = Vec::with_capacity(values.len());
    let mut warm: Option<Vec<f64>> = None;
    for &v in values {
        if let Some(token) = cancel {
            token.check("dc sweep")?;
        }
        netlist.set_vsource(source, Waveform::Dc(v))?;
        let r = op_at_impl(netlist, 0.0, warm.as_deref(), ws, opts, cancel)?;
        warm = Some(r.x.clone());
        out.push(r);
    }
    Ok(out)
}

/// Step-size control for a [`TranConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stepping {
    /// Fixed step of `dt` seconds.
    Fixed {
        /// Time step \[s\].
        dt: f64,
    },
    /// Step-doubling local-truncation-error control (backward Euler): each
    /// accepted interval is integrated once with `dt` and once as two
    /// `dt/2` steps; their disagreement drives the step size.
    Adaptive {
        /// Initial step \[s\].
        dt_initial: f64,
        /// Smallest permitted step \[s\].
        dt_min: f64,
        /// Largest permitted step \[s\].
        dt_max: f64,
        /// Local-truncation-error target per step \[V\].
        error_target: f64,
    },
}

/// Unified transient configuration: one entry point for fixed-step and
/// adaptive runs (replaces the former `TransientOptions` /
/// `AdaptiveOptions` split).
///
/// `integrator` and `uic` apply to [`Stepping::Fixed`] only: the adaptive
/// path always integrates backward Euler from a DC operating point, as
/// its step-doubling error estimate requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranConfig {
    /// Stop time \[s\].
    pub tstop: f64,
    /// Step-size control.
    pub stepping: Stepping,
    /// Integration method (fixed stepping only).
    pub integrator: Integrator,
    /// Skip the initial DC operating point and start from all-zero state
    /// (fixed stepping only).
    pub uic: bool,
}

impl TranConfig {
    /// Fixed-step trapezoidal run from a DC operating point — the
    /// conventional configuration.
    pub fn fixed(dt: f64, tstop: f64) -> TranConfig {
        TranConfig {
            tstop,
            stepping: Stepping::Fixed { dt },
            integrator: Integrator::Trapezoidal,
            uic: false,
        }
    }

    /// Adaptive run with reasonable defaults for nanosecond-scale logic
    /// transients.
    pub fn adaptive(tstop: f64) -> TranConfig {
        TranConfig {
            tstop,
            stepping: Stepping::Adaptive {
                dt_initial: tstop / 1000.0,
                dt_min: tstop / 1_000_000.0,
                dt_max: tstop / 50.0,
                error_target: 1.0e-4,
            },
            integrator: Integrator::BackwardEuler,
            uic: false,
        }
    }

    /// Selects the integration method (fixed stepping only).
    pub fn integrator(mut self, integrator: Integrator) -> TranConfig {
        self.integrator = integrator;
        self
    }

    /// Starts from all-zero state instead of the DC operating point
    /// (fixed stepping only).
    pub fn uic(mut self, uic: bool) -> TranConfig {
        self.uic = uic;
        self
    }

    /// Sets the adaptive LTE target; no effect on fixed stepping.
    pub fn error_target(mut self, target: f64) -> TranConfig {
        if let Stepping::Adaptive {
            ref mut error_target,
            ..
        } = self.stepping
        {
            *error_target = target;
        }
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for non-positive or inconsistent
    /// steps.
    pub fn validate(&self) -> Result<(), SpiceError> {
        match self.stepping {
            Stepping::Fixed { dt } => {
                if !(dt > 0.0) || !(self.tstop > 0.0) || self.tstop < dt {
                    return Err(SpiceError::InvalidAnalysis {
                        reason: "transient needs 0 < dt <= tstop",
                    });
                }
            }
            Stepping::Adaptive {
                dt_initial,
                dt_min,
                dt_max,
                ..
            } => {
                if !(dt_initial > 0.0)
                    || !(self.tstop > 0.0)
                    || dt_min > dt_initial
                    || dt_initial > dt_max
                {
                    return Err(SpiceError::InvalidAnalysis {
                        reason: "adaptive transient needs 0 < dt_min <= dt_initial <= dt_max",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Receives transient samples as they are produced, instead of
/// accumulating the full waveform in memory. The batch engine's
/// decimating waveform sink implements this to bound per-job memory.
pub trait SampleSink {
    /// Called once per accepted sample — including the initial state at
    /// `t = 0` — with the full unknown vector (node voltages then branch
    /// currents).
    fn accept(&mut self, t: f64, x: &[f64]);
}

/// The in-memory sink behind [`Transient`]-returning entry points.
#[derive(Default)]
struct CollectSink {
    time: Vec<f64>,
    samples: Vec<Vec<f64>>,
}

impl SampleSink for CollectSink {
    fn accept(&mut self, t: f64, x: &[f64]) {
        self.time.push(t);
        self.samples.push(x.to_vec());
    }
}

/// A transient simulation result: sampled unknowns over time.
#[derive(Debug, Clone, PartialEq)]
pub struct Transient {
    node_count: usize,
    /// Sample instants \[s\].
    pub time: Vec<f64>,
    samples: Vec<Vec<f64>>,
}

impl Transient {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Voltage of `node` at sample `k` \[V\].
    pub fn voltage_at(&self, node: NodeId, k: usize) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.samples[k][node.index() - 1]
        }
    }

    /// The full waveform of a node \[V\].
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        (0..self.len()).map(|k| self.voltage_at(node, k)).collect()
    }

    /// Current waveform through the named voltage source (same sign
    /// convention as [`OpResult::vsource_current`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for unknown names.
    pub fn vsource_current(&self, netlist: &Netlist, name: &str) -> Result<Vec<f64>, SpiceError> {
        for dev in &netlist.devices {
            if dev.name == name {
                if let Element::VSource { branch, .. } = &dev.element {
                    let idx = self.node_count - 1 + branch;
                    return Ok(self.samples.iter().map(|s| s[idx]).collect());
                }
            }
        }
        Err(SpiceError::NotFound {
            name: name.to_owned(),
        })
    }
}

/// A small-signal frequency-sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResult {
    /// Sweep frequencies \[Hz\].
    pub freqs: Vec<f64>,
    samples: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Complex node voltage phasor at sweep point `k` (the AC source has
    /// unit magnitude, so this is also the transfer function to `node`).
    pub fn voltage_at(&self, node: NodeId, k: usize) -> Complex {
        if node.index() == 0 {
            Complex::ZERO
        } else {
            self.samples[k][node.index() - 1]
        }
    }

    /// Magnitude response of a node across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|k| self.voltage_at(node, k).abs())
            .collect()
    }

    /// Phase response in degrees across the sweep.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|k| self.voltage_at(node, k).arg_deg())
            .collect()
    }

    /// The −3 dB bandwidth of a node relative to its first sweep point,
    /// by log-linear interpolation. `None` when the response never drops.
    pub fn bandwidth_3db(&self, node: NodeId) -> Option<f64> {
        let mags = self.magnitude(node);
        let ref_mag = mags.first().copied()?;
        let target = ref_mag / 2.0f64.sqrt();
        for k in 1..mags.len() {
            if mags[k] <= target {
                let (f0, f1) = (self.freqs[k - 1], self.freqs[k]);
                let (m0, m1) = (mags[k - 1], mags[k]);
                if m0 == m1 {
                    return Some(f1);
                }
                let t = (m0 - target) / (m0 - m1);
                return Some(f0 * (f1 / f0).powf(t));
            }
        }
        None
    }
}

/// Logarithmically spaced frequency points from `f_start` to `f_stop`.
///
/// # Panics
///
/// Panics unless `0 < f_start <= f_stop` and `points >= 2`.
pub fn log_sweep(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop >= f_start && points >= 2,
        "invalid log sweep"
    );
    (0..points)
        .map(|k| f_start * (f_stop / f_start).powf(k as f64 / (points - 1) as f64))
        .collect()
}

/// Small-signal AC analysis (the §VI-A "phase margin" extension) over a
/// caller-owned workspace, policy, and cancel token: the circuit is
/// linearized around its DC operating point; the voltage source named
/// `ac_source` receives a unit phasor and all node voltages are solved at
/// each frequency.
///
/// # Errors
///
/// Propagates operating-point failures, [`SpiceError::NotFound`] for an
/// unknown source, and singular-matrix errors.
pub(crate) fn ac_impl(
    netlist: &Netlist,
    ac_source: &str,
    freqs: &[f64],
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
) -> Result<AcResult, SpiceError> {
    // Validate the source exists up front.
    if !netlist
        .devices
        .iter()
        .any(|d| d.name == ac_source && matches!(d.element, Element::VSource { .. }))
    {
        return Err(SpiceError::NotFound {
            name: ac_source.to_owned(),
        });
    }
    let op = op_at_impl(netlist, 0.0, None, ws, opts, cancel)?;
    let n = netlist.unknown_count();
    let mut samples = Vec::with_capacity(freqs.len());
    // One matrix allocation reused across the whole frequency sweep.
    let mut a = CMatrix::zeros(n);
    let mut b = vec![Complex::ZERO; n];
    for &f in freqs {
        if let Some(token) = cancel {
            token.check("ac")?;
        }
        let omega = 2.0 * std::f64::consts::PI * f;
        a.clear();
        b.fill(Complex::ZERO);
        stamp::stamp_ac(netlist, op.unknowns(), omega, ac_source, &mut a, &mut b);
        samples.push(a.solve(&b)?);
    }
    Ok(AcResult {
        freqs: freqs.to_vec(),
        samples,
    })
}

/// Runs a transient and collects the full waveform into a [`Transient`].
///
/// The initial state is the DC operating point with sources evaluated at
/// `t = 0` (unless `uic` is set, in which case everything starts at zero).
pub(crate) fn transient_collect(
    netlist: &Netlist,
    cfg: &TranConfig,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
) -> Result<Transient, SpiceError> {
    let mut sink = CollectSink::default();
    transient_into_impl(netlist, cfg, ws, opts, cancel, &mut sink)?;
    Ok(Transient {
        node_count: netlist.node_count(),
        time: sink.time,
        samples: sink.samples,
    })
}

/// Runs a transient, streaming every accepted sample into `sink`.
pub(crate) fn transient_into_impl(
    netlist: &Netlist,
    cfg: &TranConfig,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
    sink: &mut dyn SampleSink,
) -> Result<(), SpiceError> {
    cfg.validate()?;
    match cfg.stepping {
        Stepping::Fixed { dt } => transient_fixed(netlist, dt, cfg, ws, opts, cancel, sink),
        Stepping::Adaptive { .. } => transient_adaptive_into(netlist, cfg, ws, opts, cancel, sink),
    }
}

fn transient_fixed(
    netlist: &Netlist,
    dt: f64,
    cfg: &TranConfig,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
    sink: &mut dyn SampleSink,
) -> Result<(), SpiceError> {
    let _span = fts_telemetry::span("spice.transient");
    let n = netlist.unknown_count();
    let mut x = if cfg.uic {
        vec![0.0; n]
    } else {
        op_at_impl(netlist, 0.0, None, ws, opts, cancel)?.x
    };
    let mut cap_states = stamp::init_cap_states(netlist, &x);

    let steps = (cfg.tstop / dt).round() as usize;
    sink.accept(0.0, &x);

    for k in 1..=steps {
        if let Some(token) = cancel {
            token.check("transient")?;
        }
        let t = k as f64 * dt;
        // Trapezoidal integration starts with one backward-Euler step: the
        // initial capacitor currents are unknown, and BE does not need them.
        let trapezoidal = cfg.integrator == Integrator::Trapezoidal && k > 1;
        let ctx = StampContext {
            t,
            cap_mode: CapMode::Step { dt, trapezoidal },
            cap_states: &cap_states,
            gmin: 1e-12,
            source_scale: 1.0,
            cancel,
        };
        let solve = stamp::newton(netlist, &ctx, &x, 200, &mut ws.borrow_mut()).map_err(|e| {
            if e.is_cancellation() {
                return e;
            }
            fts_telemetry::counter("spice.transient.step_failures", 1);
            // a = simulation time of the failed step, b = dt.
            fts_telemetry::trace::emit("tran_step_failed", "fixed", t, dt);
            SpiceError::NoConvergence {
                analysis: "transient step",
                residual: t,
            }
        })?;
        fts_telemetry::record("spice.transient.newton_iterations", solve.iterations as f64);
        // a = simulation time, b = Newton iterations for the step. Chatty
        // by design — the per-job ring drops oldest once full.
        fts_telemetry::trace::emit("tran_step", "fixed", t, solve.iterations as f64);
        x = solve.x;
        stamp::update_cap_states(netlist, &x, &mut cap_states, dt, trapezoidal);

        sink.accept(t, &x);
    }
    fts_telemetry::counter("spice.transient.steps", steps as u64);
    Ok(())
}

/// Adaptive-step transient using step-doubling error control: each
/// accepted interval is integrated once with `dt` and once as two `dt/2`
/// backward-Euler steps; their disagreement estimates the local truncation
/// error, and the step grows or shrinks to hold it near the configured
/// `error_target`. Slower per step than fixed stepping but chooses its
/// own resolution — fine steps across switching edges, long strides
/// through quiescent phases.
fn transient_adaptive_into(
    netlist: &Netlist,
    cfg: &TranConfig,
    ws: &RefCell<SolverWorkspace>,
    opts: &OpOptions,
    cancel: Option<&CancelToken>,
    sink: &mut dyn SampleSink,
) -> Result<(), SpiceError> {
    let Stepping::Adaptive {
        dt_initial,
        dt_min,
        dt_max,
        error_target,
    } = cfg.stepping
    else {
        unreachable!("transient_adaptive_into requires Stepping::Adaptive");
    };
    let _span = fts_telemetry::span("spice.transient_adaptive");
    let n = netlist.unknown_count();
    let nv = netlist.node_count() - 1;
    let mut x = op_at_impl(netlist, 0.0, None, ws, opts, cancel)?.x;
    let mut cap_states = stamp::init_cap_states(netlist, &x);

    sink.accept(0.0, &x);
    let mut accepted = 1usize;
    let mut t = 0.0f64;
    let mut dt = dt_initial;

    let step_be = |t_to: f64,
                   dt: f64,
                   x0: &[f64],
                   caps: &[stamp::CapState]|
     -> Result<(Vec<f64>, Vec<stamp::CapState>), SpiceError> {
        let ctx = StampContext {
            t: t_to,
            cap_mode: CapMode::Step {
                dt,
                trapezoidal: false,
            },
            cap_states: caps,
            gmin: 1e-12,
            source_scale: 1.0,
            cancel,
        };
        let solve = stamp::newton(netlist, &ctx, x0, 200, &mut ws.borrow_mut())?;
        fts_telemetry::record("spice.transient.newton_iterations", solve.iterations as f64);
        let xn = solve.x;
        let mut caps2 = caps.to_vec();
        stamp::update_cap_states(netlist, &xn, &mut caps2, dt, false);
        Ok((xn, caps2))
    };

    while t < cfg.tstop - 1e-18 {
        if let Some(token) = cancel {
            token.check("transient")?;
        }
        let dt_eff = dt.min(cfg.tstop - t);
        // Full step.
        let (x_full, caps_full) = step_be(t + dt_eff, dt_eff, &x, &cap_states)?;
        // Two half steps.
        let (x_h1, caps_h1) = step_be(t + dt_eff / 2.0, dt_eff / 2.0, &x, &cap_states)?;
        let (x_h2, caps_h2) = step_be(t + dt_eff, dt_eff / 2.0, &x_h1, &caps_h1)?;
        // LTE estimate: max node-voltage disagreement.
        let mut err = 0.0f64;
        for i in 0..nv.min(n) {
            err = err.max((x_full[i] - x_h2[i]).abs());
        }
        if err <= error_target || dt_eff <= dt_min * 1.0000001 {
            // Accept the more accurate half-step result.
            fts_telemetry::counter("spice.transient.lte_accepted", 1);
            // a = simulation time reached, b = accepted dt.
            fts_telemetry::trace::emit("lte_accepted", "", t + dt_eff, dt_eff);
            t += dt_eff;
            x = x_h2;
            cap_states = caps_h2;
            let _ = (x_full, caps_full);
            sink.accept(t, &x);
            accepted += 1;
            // Grow when comfortably under target.
            if err < 0.25 * error_target {
                dt = (dt * 2.0).min(dt_max);
            }
        } else {
            fts_telemetry::counter("spice.transient.lte_rejections", 1);
            // a = simulation time of the rejected step, b = LTE estimate.
            fts_telemetry::trace::emit("lte_rejected", "", t, err);
            dt = (dt / 2.0).max(dt_min);
        }
        if accepted > 5_000_000 {
            return Err(SpiceError::NoConvergence {
                analysis: "adaptive transient (step explosion)",
                residual: t,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosParams;
    use crate::Simulator;

    fn op(nl: &Netlist) -> Result<OpResult, SpiceError> {
        Simulator::new(nl).op()
    }

    fn transient_cfg(nl: &Netlist, cfg: &TranConfig) -> Result<Transient, SpiceError> {
        Simulator::new(nl).transient(cfg)
    }

    fn dc_sweep(
        nl: &mut Netlist,
        source: &str,
        values: &[f64],
    ) -> Result<Vec<OpResult>, SpiceError> {
        Simulator::new(nl).dc_sweep(source, values)
    }

    fn ac(nl: &Netlist, source: &str, freqs: &[f64]) -> Result<AcResult, SpiceError> {
        Simulator::new(nl).ac(source, freqs)
    }

    fn divider() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(2.0))
            .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 3.0e3).unwrap();
        (nl, out)
    }

    #[test]
    fn divider_op() {
        let (nl, out) = divider();
        let r = op(&nl).unwrap();
        assert!((r.voltage(out) - 1.5).abs() < 1e-6);
        // Battery delivers 0.5 mA; branch current convention is negative.
        let i = r.vsource_current(&nl, "V1").unwrap();
        assert!((i + 0.5e-3).abs() < 1e-8, "i = {i}");
    }

    #[test]
    fn op_reports_convergence_details() {
        let (nl, _) = divider();
        let r = op(&nl).unwrap();
        let c = r.convergence();
        // A linear divider converges with plain Newton in a couple of solves.
        assert_eq!(c.strategy, OpStrategy::Newton);
        assert!(
            c.newton_iterations >= 1,
            "iterations = {}",
            c.newton_iterations
        );
        assert!(c.solves >= 1);
        assert!(c.final_residual.is_finite() && c.final_residual < 1.0e-6);
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (nl, _) = divider();
        let r = op(&nl).unwrap();
        assert_eq!(r.voltage(Netlist::GROUND), 0.0);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I1", Netlist::GROUND, a, Waveform::Dc(1.0e-3))
            .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 2.0e3).unwrap();
        let r = op(&nl).unwrap();
        assert!((r.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dc_sweep_tracks_source() {
        let (mut nl, out) = divider();
        let vals = [0.0, 1.0, 2.0, 4.0];
        let results = dc_sweep(&mut nl, "V1", &vals).unwrap();
        for (v, r) in vals.iter().zip(&results) {
            assert!((r.voltage(out) - 0.75 * v).abs() < 1e-6);
        }
        assert!(dc_sweep(&mut nl, "nope", &vals).is_err());
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // 1 kΩ · 1 µF, 1 V step at t = 0 via PULSE.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource(
            "V1",
            vin,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: 0.0,
            },
        )
        .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-6).unwrap();
        let tau = 1.0e-3;
        for integ in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let tr = transient_cfg(
                &nl,
                &TranConfig::fixed(tau / 200.0, 5.0 * tau)
                    .integrator(integ)
                    .uic(true),
            )
            .unwrap();
            let tol = if integ == Integrator::Trapezoidal {
                2e-3
            } else {
                8e-3
            };
            for (k, &t) in tr.time.iter().enumerate() {
                let expect = 1.0 - (-t / tau).exp();
                let got = tr.voltage_at(out, k);
                assert!(
                    (got - expect).abs() < tol,
                    "{integ:?} t={t:.4e}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn trapezoidal_beats_backward_euler_on_rc() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-6).unwrap();
        let tau = 1.0e-3;
        let opts = |integ| {
            TranConfig::fixed(tau / 20.0, tau)
                .integrator(integ)
                .uic(true)
        };
        let err = |integ| -> f64 {
            let tr = transient_cfg(&nl, &opts(integ)).unwrap();
            tr.time
                .iter()
                .enumerate()
                .map(|(k, &t)| {
                    let expect = 1.0 - (-t / tau).exp();
                    (tr.voltage_at(out, k) - expect).abs()
                })
                .fold(0.0, f64::max)
        };
        assert!(err(Integrator::Trapezoidal) < 0.3 * err(Integrator::BackwardEuler));
    }

    fn switch_params() -> MosParams {
        MosParams {
            kp: 2.0e-5,
            vth: 0.3,
            lambda: 0.05,
            w_over_l: 2.0,
        }
    }

    #[test]
    fn nmos_inverter_transfer() {
        // Resistor-load inverter: out high when gate low, pulled down when
        // gate high.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let gate = nl.node("g");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.2))
            .unwrap();
        nl.vsource("VG", gate, Netlist::GROUND, Waveform::Dc(0.0))
            .unwrap();
        nl.resistor("RL", vdd, out, 500.0e3).unwrap();
        nl.nmos("M1", out, gate, Netlist::GROUND, switch_params())
            .unwrap();
        let low_gate = op(&nl).unwrap();
        assert!(low_gate.voltage(out) > 1.19, "off transistor: out ≈ VDD");
        let mut nl2 = nl.clone();
        nl2.set_vsource("VG", Waveform::Dc(1.2)).unwrap();
        let high_gate = op(&nl2).unwrap();
        assert!(
            high_gate.voltage(out) < 0.3,
            "on transistor pulls down: {}",
            high_gate.voltage(out)
        );
    }

    #[test]
    fn nmos_pass_gate_conducts_both_ways() {
        // Symmetric pass switch: source and drain roles depend on bias.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let g = nl.node("g");
        nl.vsource("VA", a, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.vsource("VG", g, Netlist::GROUND, Waveform::Dc(5.0))
            .unwrap();
        nl.resistor("RB", b, Netlist::GROUND, 1.0e6).unwrap();
        nl.nmos("M1", a, g, b, switch_params()).unwrap();
        let fwd = op(&nl).unwrap();
        assert!(
            fwd.voltage(b) > 0.9,
            "strongly on switch passes: {}",
            fwd.voltage(b)
        );
        // Reverse the driven terminal.
        let mut nl2 = Netlist::new();
        let a2 = nl2.node("a");
        let b2 = nl2.node("b");
        let g2 = nl2.node("g");
        nl2.vsource("VB", b2, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl2.vsource("VG", g2, Netlist::GROUND, Waveform::Dc(5.0))
            .unwrap();
        nl2.resistor("RA", a2, Netlist::GROUND, 1.0e6).unwrap();
        nl2.nmos("M1", a2, g2, b2, switch_params()).unwrap();
        let rev = op(&nl2).unwrap();
        assert!(
            rev.voltage(a2) > 0.9,
            "reverse conduction: {}",
            rev.voltage(a2)
        );
    }

    #[test]
    fn transient_rejects_bad_options() {
        let (nl, _) = divider();
        assert!(transient_cfg(&nl, &TranConfig::fixed(0.0, 1.0)).is_err());
        assert!(transient_cfg(&nl, &TranConfig::fixed(1.0, 0.5)).is_err());
    }

    #[test]
    fn floating_node_is_regularized_not_singular() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("floating");
        nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.capacitor("C1", a, b, 1e-15).unwrap();
        let r = op(&nl).unwrap();
        assert!(r.voltage(b).abs() < 1.0, "gmin keeps the system solvable");
    }

    #[test]
    fn ac_rc_lowpass_matches_analytic() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(0.0))
            .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-9).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1.0e-9);
        let freqs = log_sweep(fc / 100.0, fc * 100.0, 41);
        let res = ac(&nl, "V1", &freqs).unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            let h = res.voltage_at(out, k);
            let expect = 1.0 / (1.0 + (f / fc).powi(2)).sqrt();
            assert!(
                (h.abs() - expect).abs() < 1e-3,
                "f={f:.3e}: {} vs {expect}",
                h.abs()
            );
        }
        // Phase at the pole is −45°.
        let res_pole = ac(&nl, "V1", &[fc]).unwrap();
        assert!((res_pole.voltage_at(out, 0).arg_deg() + 45.0).abs() < 0.5);
        // −3 dB bandwidth lands on the pole frequency.
        let bw = res.bandwidth_3db(out).expect("lowpass rolls off");
        assert!((bw / fc - 1.0).abs() < 0.05, "bw {bw:.3e} vs fc {fc:.3e}");
    }

    #[test]
    fn ac_common_source_gain_matches_gm_over_gl() {
        // Resistor-loaded common-source amplifier: |H(0)| = gm·RL (gds
        // negligible at lambda = 0).
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let gate = nl.node("g");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(5.0))
            .unwrap();
        nl.vsource("VG", gate, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.resistor("RL", vdd, out, 1.0e4).unwrap();
        nl.nmos(
            "M1",
            out,
            gate,
            Netlist::GROUND,
            MosParams {
                kp: 2.0e-5,
                vth: 0.4,
                lambda: 0.0,
                w_over_l: 2.0,
            },
        )
        .unwrap();
        let res = ac(&nl, "VG", &[1.0]).unwrap();
        let gm = 2.0e-5 * 2.0 * (1.0 - 0.4);
        let expect = gm * 1.0e4;
        let gain = res.voltage_at(out, 0).abs();
        assert!(
            (gain - expect).abs() < 0.02 * expect,
            "gain {gain} vs {expect}"
        );
        // Inverting stage: phase ≈ 180°.
        assert!((res.voltage_at(out, 0).arg_deg().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn ac_rejects_unknown_source() {
        let (nl, _) = divider();
        assert!(matches!(
            ac(&nl, "nope", &[1.0]),
            Err(SpiceError::NotFound { .. })
        ));
    }

    #[test]
    fn nmos3_long_channel_matches_nmos_in_dc() {
        use crate::mos3::Mos3Params;
        let build = |level3: bool| -> f64 {
            let mut nl = Netlist::new();
            let d = nl.node("d");
            let g = nl.node("g");
            nl.vsource("VD", d, Netlist::GROUND, Waveform::Dc(2.0))
                .unwrap();
            nl.vsource("VG", g, Netlist::GROUND, Waveform::Dc(1.5))
                .unwrap();
            if level3 {
                nl.nmos3(
                    "M1",
                    d,
                    g,
                    Netlist::GROUND,
                    Mos3Params::long_channel(2e-5, 0.4, 0.05, 2.0),
                )
                .unwrap();
            } else {
                nl.nmos(
                    "M1",
                    d,
                    g,
                    Netlist::GROUND,
                    MosParams {
                        kp: 2e-5,
                        vth: 0.4,
                        lambda: 0.05,
                        w_over_l: 2.0,
                    },
                )
                .unwrap();
            }
            let op = op(&nl).unwrap();
            -op.vsource_current(&nl, "VD").unwrap()
        };
        let (i1, i3) = (build(false), build(true));
        assert!(
            (i1 - i3).abs() < 1e-9 + 1e-4 * i1.abs(),
            "{i1:.4e} vs {i3:.4e}"
        );
    }

    #[test]
    fn nmos3_gate_caps_slow_the_transient() {
        use crate::mos3::Mos3Params;
        // Source follower driving a load: with large gate caps the output
        // edge through the RC-loaded gate is slower.
        let build = |cg: f64| -> Netlist {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let gin = nl.node("gin");
            let gate = nl.node("gate");
            let out = nl.node("out");
            nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(5.0))
                .unwrap();
            nl.vsource(
                "VG",
                gin,
                Netlist::GROUND,
                Waveform::Pulse {
                    v0: 0.0,
                    v1: 3.0,
                    delay: 1e-9,
                    rise: 1e-10,
                    fall: 1e-10,
                    width: 1e-6,
                    period: 0.0,
                },
            )
            .unwrap();
            nl.resistor("RG", gin, gate, 1.0e5).unwrap();
            let mut p = Mos3Params::long_channel(2e-5, 0.4, 0.01, 2.0);
            p.cgs = cg;
            p.cgd = cg;
            nl.nmos3("M1", vdd, gate, out, p).unwrap();
            nl.resistor("RS", out, Netlist::GROUND, 1.0e5).unwrap();
            nl
        };
        let run = |nl: &Netlist| -> Vec<f64> {
            let tr = transient_cfg(nl, &TranConfig::fixed(2e-10, 8e-8)).unwrap();
            let out = nl.find_node("out").unwrap();
            tr.voltage(out)
        };
        let fast = run(&build(1e-16));
        let slow = run(&build(5e-14));
        // Compare mid-transient progress.
        let k = fast.len() / 3;
        assert!(
            slow[k] < fast[k],
            "gate caps delay the follower: {} vs {}",
            slow[k],
            fast[k]
        );
    }

    #[test]
    fn adaptive_transient_matches_analytic_rc() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-6).unwrap();
        let tau = 1.0e-3;
        // uic-like: start from zero by keeping the source at 0 until t=0+.
        let cfg = TranConfig::adaptive(5.0 * tau).error_target(2e-4);
        let tr = transient_cfg(&nl, &cfg).unwrap();
        // Initial OP already charges the cap to 1 V (DC source), so the
        // waveform is flat at 1 V — verify flatness and step growth.
        for k in 0..tr.len() {
            assert!((tr.voltage_at(out, k) - 1.0).abs() < 1e-6);
        }
        assert!(
            tr.len() < 400,
            "quiescent run should take long strides: {}",
            tr.len()
        );
    }

    #[test]
    fn adaptive_transient_tracks_a_pulse() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource(
            "V1",
            vin,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 2.0e-4,
                rise: 1.0e-6,
                fall: 1.0e-6,
                width: 1.0,
                period: 0.0,
            },
        )
        .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-7).unwrap();
        let tau = 1.0e-4;
        let cfg = TranConfig::adaptive(2.0e-3).error_target(5e-4);
        let tr = transient_cfg(&nl, &cfg).unwrap();
        // Compare the settled tail against the analytic value.
        let last = tr.voltage_at(out, tr.len() - 1);
        assert!((last - 1.0).abs() < 1e-3, "settles to 1 V: {last}");
        // Mid-rise accuracy: pick the sample nearest 2e-4 + tau.
        let t_probe = 2.0e-4 + tau;
        let k = tr.time.iter().position(|&t| t >= t_probe).unwrap();
        let expect = 1.0 - (-(tr.time[k] - 2.0e-4) / tau).exp();
        assert!(
            (tr.voltage_at(out, k) - expect).abs() < 0.02,
            "{} vs {expect}",
            tr.voltage_at(out, k)
        );
    }

    #[test]
    fn adaptive_rejects_inconsistent_options() {
        let (nl, _) = divider();
        let mut cfg = TranConfig::adaptive(1.0);
        cfg.stepping = Stepping::Adaptive {
            dt_initial: 0.5,
            dt_min: 1.0,
            dt_max: 1.0,
            error_target: 1.0e-4,
        };
        assert!(transient_cfg(&nl, &cfg).is_err());
    }
}
