//! MNA device stamping and the shared Newton kernel.
//!
//! Every path that writes an MNA system — the dense Newton oracle, the
//! sparse hot path ([`SparseSystem`]), the lockstep ensemble
//! ([`EnsembleSystem`]) and the conductance part of the AC system — goes
//! through one pipeline:
//!
//! 1. **Footprint → plan.** [`Plan::new`] lists, once per device type, the
//!    `(row, col)` entries and rhs rows its stamps touch, resolving each
//!    entry to a slot of one value layout: row-major flat indices into a
//!    dense [`Matrix`] ([`Plan::dense`]) or value indices of the fixed
//!    sparse pattern ([`Plan::sparse`]). The sparse pattern itself
//!    ([`mna_pattern`]) is the set of entries the footprint lists.
//! 2. **One applier.** [`Plan::apply`] writes the stamps of one lane of a
//!    lane-minor value array (a scalar system is the one-lane case), in
//!    device order; a [`Pass`] selects the linear stamps, the MOSFET
//!    stamps, or both interleaved.
//! 3. **One MOSFET linearization.** [`linearize_mos`] orients the channel
//!    by `vd ≥ vs`, evaluates the level-1 or level-3 model and the
//!    companion current, for the applier and (through it) for AC alike.
//!
//! Floating-point sums depend on their order and every path's results are
//! pinned bit for bit, so each path fixes the order in which a matrix slot
//! or rhs row receives its additions. The dense path restamps everything
//! each iteration in one [`Pass::All`], interleaving linear and MOSFET
//! stamps in device order with the gmin diagonal last. The sparse and
//! ensemble paths stamp the bias-independent baseline (linear devices,
//! sources, gmin diagonal) once per Newton solve and add only the MOSFET
//! stamps on top each iteration.
//!
//! [`SolverWorkspace`] picks between dense and sparse from the netlist's
//! [`SolverKind`](crate::netlist::SolverKind) and size.

use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::complex::{CMatrix, Complex};
use crate::linalg::{Matrix, SparseLu, SparseMatrix, SparseMatrixEnsemble, Symbolic};
use crate::netlist::{Device, Element, MosParams, Netlist, NodeId, SolverKind};
use crate::SpiceError;

/// How capacitors are handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CapMode {
    /// DC: capacitors are open circuits.
    Open,
    /// Transient step of size `dt` with the chosen integrator.
    Step { dt: f64, trapezoidal: bool },
}

/// Per-capacitor dynamic state (previous voltage and branch current).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub v: f64,
    pub i: f64,
}

pub(crate) struct StampContext<'a> {
    pub t: f64,
    pub cap_mode: CapMode,
    pub cap_states: &'a [CapState],
    pub gmin: f64,
    pub source_scale: f64,
    /// Cooperative cancellation, checked at every Newton iteration so a
    /// cancel or deadline stops the solve within one linear solve.
    pub cancel: Option<&'a CancelToken>,
}

/// Index of a node voltage inside the unknown vector (`None` = ground).
fn vidx(node: NodeId) -> Option<usize> {
    if node.index() == 0 {
        None
    } else {
        Some(node.index() - 1)
    }
}

fn voltage(x: &[f64], node: NodeId) -> f64 {
    match vidx(node) {
        None => 0.0,
        Some(i) => x[i],
    }
}

/// Level-1 current and small-signal conductances (forward orientation,
/// `vds ≥ 0`).
fn level1(params: &MosParams, vgs: f64, vds: f64) -> (f64, f64, f64) {
    let beta = params.kp * params.w_over_l;
    let vov = vgs - params.vth;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let clm = 1.0 + params.lambda * vds;
    if vds <= vov {
        let ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
        let gm = beta * vds * clm;
        let gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * params.lambda;
        (ids, gm, gds)
    } else {
        let ids = 0.5 * beta * vov * vov * clm;
        let gm = beta * vov * clm;
        let gds = 0.5 * beta * vov * vov * params.lambda;
        (ids, gm, gds)
    }
}

/// A MOSFET linearized around one bias point.
struct MosLin {
    /// `vd ≥ vs`: the declared drain conducts as the drain.
    forward: bool,
    gm: f64,
    gds: f64,
    /// Constant part of the linearized current, flowing drain → source
    /// of the oriented channel.
    ieq: f64,
}

/// The one MOSFET linearization, for `Element::Nmos` (level 1) and
/// `Element::Nmos3` (level 3) at terminal voltages `vd`, `vg`, `vs`.
/// Symmetric pass-switch handling: the lower of d/s acts as the source.
fn linearize_mos(element: &Element, vd: f64, vg: f64, vs: f64) -> MosLin {
    let forward = vd >= vs;
    let (vds, vgs) = if forward {
        (vd - vs, vg - vs)
    } else {
        (vs - vd, vg - vd)
    };
    let (ids, gm, gds) = match element {
        Element::Nmos { params, .. } => level1(params, vgs, vds),
        Element::Nmos3 { params, .. } => params.linearize(vgs, vds),
        _ => unreachable!("MOS plan on a non-MOS device"),
    };
    // Linearized drain current: i = ids + gm·Δvgs + gds·Δvds.
    MosLin {
        forward,
        gm,
        gds,
        ieq: ids - gm * vgs - gds * vds,
    }
}

/// Updates capacitor states after a successful transient step.
pub(crate) fn update_cap_states(
    netlist: &Netlist,
    x: &[f64],
    states: &mut [CapState],
    dt: f64,
    trapezoidal: bool,
) {
    let mut cap_index = 0usize;
    for dev in &netlist.devices {
        if let Element::Capacitor { a, b, farads } = &dev.element {
            let v = voltage(x, *a) - voltage(x, *b);
            let st = &mut states[cap_index];
            let i = if trapezoidal {
                (2.0 * farads / dt) * (v - st.v) - st.i
            } else {
                (farads / dt) * (v - st.v)
            };
            st.v = v;
            st.i = i;
            cap_index += 1;
        }
    }
}

/// Initializes capacitor states from an operating point.
pub(crate) fn init_cap_states(netlist: &Netlist, x: &[f64]) -> Vec<CapState> {
    let mut out = Vec::new();
    for dev in &netlist.devices {
        if let Element::Capacitor { a, b, .. } = &dev.element {
            out.push(CapState {
                v: voltage(x, *a) - voltage(x, *b),
                i: 0.0,
            });
        }
    }
    out
}

/// Sentinel for "this stamp touches ground and has no matrix slot / rhs
/// row". Using a plain `usize` instead of `Option<usize>` keeps the plan
/// structs `Copy` and the hot-loop branches cheap.
const NO_SLOT: usize = usize::MAX;

/// One lane of a lane-minor array: entry `i` of lane `lane` lives at
/// `i * lanes + lane`. Scalar systems are the single-lane case.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub lanes: usize,
    pub lane: usize,
}

impl Lane {
    pub const SCALAR: Lane = Lane { lanes: 1, lane: 0 };

    #[inline]
    fn at(self, i: usize) -> usize {
        i * self.lanes + self.lane
    }
}

/// Adds `v` to entry `slot` of lane `at`, unless the slot is ground.
#[inline]
fn add(values: &mut [f64], at: Lane, slot: usize, v: f64) {
    if slot != NO_SLOT {
        values[at.at(slot)] += v;
    }
}

/// Resolved slots for a two-terminal conductance stamp between unknowns
/// `i` and `j` (the classic `+g/+g/-g/-g` quadruple).
#[derive(Debug, Clone, Copy)]
struct PairSlots {
    ii: usize,
    jj: usize,
    ij: usize,
    ji: usize,
}

impl PairSlots {
    fn resolve(
        entry: &mut impl FnMut(Option<usize>, Option<usize>) -> usize,
        i: Option<usize>,
        j: Option<usize>,
    ) -> PairSlots {
        PairSlots {
            ii: entry(i, i),
            jj: entry(j, j),
            ij: entry(i, j),
            ji: entry(j, i),
        }
    }

    /// When `i == j` the four writes hit the same slot and net to zero.
    #[inline]
    fn stamp(&self, values: &mut [f64], at: Lane, g: f64) {
        add(values, at, self.ii, g);
        add(values, at, self.jj, g);
        add(values, at, self.ij, -g);
        add(values, at, self.ji, -g);
    }
}

/// Per-device stamping plan: matrix slots and rhs rows resolved once at
/// build time so iterations never search the pattern.
#[derive(Debug, Clone, Copy)]
enum DevicePlan {
    Resistor {
        pair: PairSlots,
    },
    Capacitor {
        pair: PairSlots,
        a_row: usize,
        b_row: usize,
        cap_index: usize,
    },
    VSource {
        /// Slots (plus,row) / (row,plus) / (minus,row) / (row,minus).
        pr: usize,
        rp: usize,
        mr: usize,
        rm: usize,
        row: usize,
    },
    ISource {
        to_row: usize,
        from_row: usize,
    },
    Mos {
        /// The drain/source conductance quadruple; `ii/jj/ij/ji` double as
        /// the `(d,d)/(s,s)/(d,s)/(s,d)` gm slots.
        pair: PairSlots,
        dg: usize,
        sg: usize,
        /// Unknown indices of the terminals: the voltages the
        /// linearization reads and the rhs rows of the drain and source.
        d: usize,
        g: usize,
        s: usize,
    },
}

/// Which stamps one [`Plan::apply`] writes.
#[derive(Clone, Copy)]
enum Pass<'a> {
    /// The bias-independent stamps under `ctx` — resistors, capacitor
    /// companions, sources — then the gmin diagonal: the sparse and
    /// ensemble baseline.
    Linear(&'a StampContext<'a>),
    /// Only the MOSFETs, linearized around `x` with channel shunt `gmin`.
    Mos { x: &'a [f64], gmin: f64 },
    /// Both, interleaved in device order, then the gmin diagonal: the
    /// dense restamp. MOSFETs take their shunt from `ctx.gmin`.
    All {
        ctx: &'a StampContext<'a>,
        x: &'a [f64],
    },
}

/// Every device's footprint resolved to the slots of one value layout,
/// plus the global gmin diagonal.
pub(crate) struct Plan {
    devices: Vec<DevicePlan>,
    diag: Vec<usize>,
}

impl Plan {
    /// Lists each device's footprint — the `(row, col)` entries and rhs
    /// rows its stamps touch — resolving every non-ground entry through
    /// `slot`. Capacitor entries are always listed so one pattern serves
    /// both DC and transient companion stamping; MOSFETs list the union
    /// of both bias orientations.
    fn new(netlist: &Netlist, mut slot: impl FnMut(usize, usize) -> usize) -> Plan {
        let nv = netlist.node_count() - 1;
        let mut entry = |i: Option<usize>, j: Option<usize>| match (i, j) {
            (Some(i), Some(j)) => slot(i, j),
            _ => NO_SLOT,
        };
        let row = |i: Option<usize>| i.unwrap_or(NO_SLOT);
        let mut cap_index = 0usize;
        let mut devices = Vec::with_capacity(netlist.devices.len());
        for dev in &netlist.devices {
            devices.push(match &dev.element {
                Element::Resistor { a, b, .. } => DevicePlan::Resistor {
                    pair: PairSlots::resolve(&mut entry, vidx(*a), vidx(*b)),
                },
                Element::Capacitor { a, b, .. } => {
                    let plan = DevicePlan::Capacitor {
                        pair: PairSlots::resolve(&mut entry, vidx(*a), vidx(*b)),
                        a_row: row(vidx(*a)),
                        b_row: row(vidx(*b)),
                        cap_index,
                    };
                    cap_index += 1;
                    plan
                }
                Element::VSource {
                    plus,
                    minus,
                    branch,
                    ..
                } => {
                    let r = Some(nv + branch);
                    DevicePlan::VSource {
                        pr: entry(vidx(*plus), r),
                        rp: entry(r, vidx(*plus)),
                        mr: entry(vidx(*minus), r),
                        rm: entry(r, vidx(*minus)),
                        row: nv + branch,
                    }
                }
                Element::ISource { from, to, .. } => DevicePlan::ISource {
                    to_row: row(vidx(*to)),
                    from_row: row(vidx(*from)),
                },
                Element::Nmos { d, g, s, .. } | Element::Nmos3 { d, g, s, .. } => {
                    let (d, g, s) = (vidx(*d), vidx(*g), vidx(*s));
                    DevicePlan::Mos {
                        pair: PairSlots::resolve(&mut entry, d, s),
                        dg: entry(d, g),
                        sg: entry(s, g),
                        d: row(d),
                        g: row(g),
                        s: row(s),
                    }
                }
            });
        }
        let diag = (0..nv).map(|k| entry(Some(k), Some(k))).collect();
        Plan { devices, diag }
    }

    /// Slots are row-major flat indices into an `n×n` dense [`Matrix`].
    fn dense(netlist: &Netlist) -> Plan {
        let n = netlist.unknown_count();
        Plan::new(netlist, |i, j| i * n + j)
    }

    /// Slots are value indices of `mat`, the netlist's [`mna_pattern`].
    fn sparse(netlist: &Netlist, mat: &SparseMatrix) -> Plan {
        Plan::new(netlist, |i, j| {
            mat.slot(i, j)
                .expect("MNA pattern covers every device stamp")
        })
    }

    /// The one plan applier: writes the stamps `pass` selects for
    /// `devices` — the netlist this plan was built from, or a
    /// same-topology lane of it — into lane `at` of `values` / `rhs`, in
    /// device order.
    fn apply(
        &self,
        devices: &[Device],
        pass: Pass<'_>,
        at: Lane,
        values: &mut [f64],
        rhs: &mut [f64],
    ) {
        debug_assert_eq!(devices.len(), self.devices.len(), "plan drift");
        let (linear, mos) = match pass {
            Pass::Linear(ctx) => (Some(ctx), None),
            Pass::Mos { x, gmin } => (None, Some((x, gmin))),
            Pass::All { ctx, x } => (Some(ctx), Some((x, ctx.gmin))),
        };
        for (dev, plan) in devices.iter().zip(&self.devices) {
            if let DevicePlan::Mos {
                pair,
                dg,
                sg,
                d,
                g,
                s,
            } = *plan
            {
                let Some((x, gmin)) = mos else { continue };
                let volt = |i: usize| if i == NO_SLOT { 0.0 } else { x[at.at(i)] };
                let m = linearize_mos(&dev.element, volt(d), volt(g), volt(s));
                pair.stamp(values, at, m.gds + gmin);
                // gm: current into the oriented drain proportional to
                // (vg − v_source); the constant part flows drain → source.
                let (ndg, nds, nsg, nss, nd, ns) = if m.forward {
                    (dg, pair.ij, sg, pair.jj, d, s)
                } else {
                    (sg, pair.ji, dg, pair.ii, s, d)
                };
                add(values, at, ndg, m.gm);
                add(values, at, nds, -m.gm);
                add(values, at, nsg, -m.gm);
                add(values, at, nss, m.gm);
                add(rhs, at, ns, m.ieq);
                add(rhs, at, nd, -m.ieq);
                continue;
            }
            let Some(ctx) = linear else { continue };
            match (*plan, &dev.element) {
                (DevicePlan::Resistor { pair }, Element::Resistor { ohms, .. }) => {
                    pair.stamp(values, at, 1.0 / ohms);
                }
                (
                    DevicePlan::Capacitor {
                        pair,
                        a_row,
                        b_row,
                        cap_index,
                    },
                    Element::Capacitor { farads, .. },
                ) => {
                    if let CapMode::Step { dt, trapezoidal } = ctx.cap_mode {
                        let st = ctx.cap_states[cap_index];
                        let (g, ieq) = if trapezoidal {
                            let g = 2.0 * farads / dt;
                            (g, -(g * st.v + st.i))
                        } else {
                            let g = farads / dt;
                            (g, -g * st.v)
                        };
                        // Companion: i = g·v + ieq flowing a → b.
                        pair.stamp(values, at, g);
                        add(rhs, at, b_row, ieq);
                        add(rhs, at, a_row, -ieq);
                    }
                }
                (
                    DevicePlan::VSource {
                        pr,
                        rp,
                        mr,
                        rm,
                        row,
                    },
                    Element::VSource { wave, .. },
                ) => {
                    add(values, at, pr, 1.0);
                    add(values, at, rp, 1.0);
                    add(values, at, mr, -1.0);
                    add(values, at, rm, -1.0);
                    add(rhs, at, row, wave.at(ctx.t) * ctx.source_scale);
                }
                (DevicePlan::ISource { to_row, from_row }, Element::ISource { wave, .. }) => {
                    let i = wave.at(ctx.t) * ctx.source_scale;
                    add(rhs, at, to_row, i);
                    add(rhs, at, from_row, -i);
                }
                _ => unreachable!("device/plan mismatch"),
            }
        }
        if linear.is_some() {
            // Global gmin from every node to ground keeps matrices regular
            // even for floating subcircuits.
            for &k in &self.diag {
                add(values, at, k, 1e-12);
            }
        }
    }
}

/// Collects the MNA sparsity pattern of a netlist: every entry its
/// device footprints list.
pub(crate) fn mna_pattern(netlist: &Netlist) -> SparseMatrix {
    let mut entries = Vec::new();
    // Only the listed entries matter here; the plan's slots are unused.
    Plan::new(netlist, |i, j| {
        entries.push((i, j));
        0
    });
    SparseMatrix::from_entries(netlist.unknown_count(), entries)
}

/// A plan plus the bias-independent baseline it stamps once per Newton
/// solve, for one or more lanes (lane-minor).
struct Baseline {
    plan: Plan,
    values: Vec<f64>,
    rhs: Vec<f64>,
}

impl Baseline {
    /// Stamps every lane's linear devices, sources and gmin diagonal
    /// under `ctx`; `lanes[k]` is lane `k`.
    fn begin(&mut self, lanes: &[Netlist], ctx: &StampContext<'_>) {
        self.values.fill(0.0);
        self.rhs.fill(0.0);
        for (lane, nl) in lanes.iter().enumerate() {
            let at = Lane {
                lanes: lanes.len(),
                lane,
            };
            self.plan.apply(
                &nl.devices,
                Pass::Linear(ctx),
                at,
                &mut self.values,
                &mut self.rhs,
            );
        }
    }
}

/// The sparse MNA system for one netlist topology: fixed-pattern matrix
/// and its slot plan.
///
/// [`begin`](SparseSystem::begin) stamps the bias-independent baseline
/// once per Newton solve; [`iterate`](SparseSystem::iterate) copies it
/// and restamps only the MOSFETs around the new linearization point.
pub(crate) struct SparseSystem {
    mat: SparseMatrix,
    base: Baseline,
}

impl SparseSystem {
    pub fn new(netlist: &Netlist) -> SparseSystem {
        let mat = mna_pattern(netlist);
        let base = Baseline {
            plan: Plan::sparse(netlist, &mat),
            values: vec![0.0; mat.nnz()],
            rhs: vec![0.0; mat.n()],
        };
        SparseSystem { mat, base }
    }

    pub fn matrix(&self) -> &SparseMatrix {
        &self.mat
    }

    /// Stamps the bias-independent baseline for one Newton solve.
    pub fn begin(&mut self, netlist: &Netlist, ctx: &StampContext<'_>) {
        self.base.begin(std::slice::from_ref(netlist), ctx);
    }

    /// Restamps the full system around linearization point `x`: copies the
    /// baseline, then applies only the MOSFET stamps. Zero allocation; `b`
    /// must have length `unknown_count`.
    pub fn iterate(&mut self, netlist: &Netlist, x: &[f64], ctx: &StampContext<'_>, b: &mut [f64]) {
        let values = self.mat.values_mut();
        values.copy_from_slice(&self.base.values);
        b.copy_from_slice(&self.base.rhs);
        let pass = Pass::Mos { x, gmin: ctx.gmin };
        self.base
            .plan
            .apply(&netlist.devices, pass, Lane::SCALAR, values, b);
    }
}

/// The lane-batched counterpart of [`SparseSystem`]: one plan (resolved
/// from a reference netlist) applied to K same-topology lane netlists
/// stamping into a [`SparseMatrixEnsemble`].
///
/// Restricted to DC operating-point stamping (`CapMode::Open`): the
/// ensemble Monte Carlo path batches DC evaluations only, so capacitors
/// are open circuits and no per-lane companion state exists.
pub(crate) struct EnsembleSystem {
    mat: SparseMatrixEnsemble,
    /// Lane-minor baseline: `nnz * lanes` values, `unknowns * lanes` rhs.
    base: Baseline,
    /// The *previous* [`begin`](EnsembleSystem::begin)'s rhs — the
    /// source-continuation anchor. Between two solves of an
    /// input-assignment sweep only source values change, and source
    /// values enter the MNA system through the rhs alone (vsource rows
    /// stamp constant ±1 matrix entries), so interpolating the rhs
    /// interpolates the whole system between the two assignments.
    lin_b_prev: Vec<f64>,
}

impl EnsembleSystem {
    /// Builds the plan from `reference`'s topology with `lanes` value
    /// lanes. Every netlist later stamped must satisfy
    /// [`Netlist::same_topology`] against the reference.
    pub fn new(reference: &Netlist, lanes: usize) -> EnsembleSystem {
        let SparseSystem { mat, base } = SparseSystem::new(reference);
        let mut sys = EnsembleSystem {
            mat: SparseMatrixEnsemble::new(mat, 1),
            base,
            lin_b_prev: Vec::new(),
        };
        sys.set_lanes(lanes);
        sys
    }

    pub fn matrix(&self) -> &SparseMatrixEnsemble {
        &self.mat
    }

    /// Resizes to `lanes` value lanes, zeroing lane state. A no-op when
    /// the lane count is unchanged, so the previous solve's rhs survives
    /// for [`begin`](EnsembleSystem::begin) to stash as the
    /// source-continuation anchor.
    pub fn set_lanes(&mut self, lanes: usize) {
        let (nnz, n) = (self.mat.nnz(), self.mat.n());
        if lanes == self.mat.lanes() && self.lin_b_prev.len() == n * lanes {
            return;
        }
        self.mat.set_lanes(lanes);
        for (v, len) in [
            (&mut self.base.values, nnz * lanes),
            (&mut self.base.rhs, n * lanes),
            (&mut self.lin_b_prev, n * lanes),
        ] {
            v.clear();
            v.resize(len, 0.0);
        }
    }

    /// Stamps every lane's baseline under `ctx` (DC only; see the type
    /// docs), keeping the previous rhs as the continuation anchor.
    pub fn begin(&mut self, lanes: &[Netlist], ctx: &StampContext<'_>) {
        assert_eq!(lanes.len(), self.mat.lanes(), "lane netlist count mismatch");
        debug_assert!(
            matches!(ctx.cap_mode, CapMode::Open),
            "ensemble stamping is DC-only"
        );
        self.lin_b_prev.copy_from_slice(&self.base.rhs);
        self.base.begin(lanes, ctx);
    }

    /// Restamps every *active* lane around its lane of the lane-minor
    /// linearization point `x` (`unknowns * lanes` values): copies the
    /// baselines, then applies only the MOSFET stamps, exactly as
    /// [`SparseSystem::iterate`] does per lane so results stay pinned to
    /// the scalar path. `gmin` is per lane: the lockstep driver walks each
    /// lane down its own adaptive homotopy schedule, exactly as the
    /// scalar ladder would. `lambda` is the per-lane source-continuation
    /// coordinate: `1.0` stamps this solve's sources exactly (a straight
    /// copy, bit-identical to the scalar stamp), anything below blends
    /// the rhs toward the previous solve's, letting a lane walk
    /// continuously from its old operating point to the new sources.
    /// Inactive lanes keep their linear baseline, which the driver
    /// ignores.
    pub fn iterate(
        &mut self,
        lanes: &[Netlist],
        active: &[bool],
        x: &[f64],
        gmin: &[f64],
        lambda: &[f64],
        b: &mut [f64],
    ) {
        let l = self.mat.lanes();
        let values = self.mat.values_mut();
        values.copy_from_slice(&self.base.values);
        let lin_b = &self.base.rhs;
        if lambda.iter().all(|&lam| lam >= 1.0) {
            b.copy_from_slice(lin_b);
        } else {
            for (i, out) in b.iter_mut().enumerate() {
                let lam = lambda[i % l];
                // λ = 1 must reproduce lin_b *exactly* (not via a
                // round-tripped blend): converged lanes have to sit at
                // the same fixed point the scalar path computes.
                *out = if lam >= 1.0 {
                    lin_b[i]
                } else {
                    let prev = self.lin_b_prev[i];
                    prev + (lin_b[i] - prev) * lam
                };
            }
        }
        for (lane, nl) in lanes.iter().enumerate() {
            if active[lane] {
                let pass = Pass::Mos {
                    x,
                    gmin: gmin[lane],
                };
                let at = Lane { lanes: l, lane };
                self.base.plan.apply(&nl.devices, pass, at, values, b);
            }
        }
    }
}

/// Size (in unknowns) from which `SolverKind::Auto` picks the sparse
/// engine; below it the dense oracle is faster (see the
/// `sparse_solver` criterion bench for the measured crossover).
pub(crate) const SPARSE_THRESHOLD: usize = 24;

/// Per-analysis solver state, reused across Newton iterations, homotopy
/// rungs, and transient timesteps.
pub(crate) enum SolverWorkspace {
    Dense {
        plan: Plan,
        a: Matrix,
        b: Vec<f64>,
    },
    Sparse {
        sys: SparseSystem,
        lu: Box<SparseLu>,
        b: Vec<f64>,
    },
}

impl SolverWorkspace {
    /// Builds the workspace a netlist's analyses should use, honouring
    /// [`SolverKind`] and reusing the netlist's shared symbolic analysis
    /// when its pattern still matches.
    pub fn for_netlist(netlist: &Netlist) -> SolverWorkspace {
        let n = netlist.unknown_count();
        let use_sparse = match netlist.solver_kind() {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => n >= SPARSE_THRESHOLD,
        };
        if !use_sparse {
            fts_telemetry::counter("spice.solver.dense", 1);
            // a = unknowns.
            fts_telemetry::trace::emit("solver_selected", "dense", n as f64, 0.0);
            return SolverWorkspace::Dense {
                plan: Plan::dense(netlist),
                a: Matrix::zeros(n),
                b: vec![0.0; n],
            };
        }
        fts_telemetry::counter("spice.solver.sparse", 1);
        let sys = SparseSystem::new(netlist);
        // a = unknowns, b = pattern non-zeros.
        fts_telemetry::trace::emit(
            "solver_selected",
            "sparse",
            n as f64,
            sys.matrix().nnz() as f64,
        );
        let symbolic = match netlist.shared_symbolic() {
            Some(sym) if sym.matches(sys.matrix()) => {
                fts_telemetry::counter("spice.sparse.symbolic_reuse", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "reuse", 0.0, 0.0);
                Arc::clone(sym)
            }
            Some(_) => {
                // Defect-injected trials can rewire gates and change the
                // pattern — fall back to a fresh analysis.
                fts_telemetry::counter("spice.sparse.symbolic_miss", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "miss", 0.0, 0.0);
                Arc::new(Symbolic::analyze(sys.matrix()))
            }
            None => {
                fts_telemetry::counter("spice.sparse.symbolic_new", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "new", 0.0, 0.0);
                Arc::new(Symbolic::analyze(sys.matrix()))
            }
        };
        if fts_telemetry::enabled() {
            fts_telemetry::record("spice.sparse.pattern_nnz", sys.matrix().nnz() as f64);
        }
        let lu = Box::new(SparseLu::new(symbolic));
        SolverWorkspace::Sparse {
            sys,
            lu,
            b: vec![0.0; n],
        }
    }
}

/// A converged Newton solve plus the diagnostics the caller reports.
pub(crate) struct NewtonSolve {
    /// The converged unknown vector.
    pub x: Vec<f64>,
    /// Iterations consumed (at least 1).
    pub iterations: usize,
    /// Largest absolute update of the final iteration — the step-norm
    /// convergence residual.
    pub max_step: f64,
}

/// Largest move of one node voltage per Newton iteration, in volts. Each
/// node is clamped on its own; the other nodes and the branch currents
/// keep their full step. Chosen on the op corpus (152 jobs, 14 lattice
/// functions) at perfbench seed 3: batch-op / yield-mc Newton iterations
/// per pass were 2,161 / 6,684 at 1.0 V, 2,055 / 4,692 at 1.5 V and
/// 2,144 / 5,822 at 2.0 V, against 12,199 / 23,744 for a global 2 V
/// damping of every unknown. At 1.5 V every corpus job converges by
/// plain Newton.
const MAX_NODE_STEP: f64 = 1.5;

/// What one [`limited_update`] made of a Newton iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Update {
    /// No clamp was active and every step was within the step-norm
    /// tolerance; carries the largest absolute step.
    Converged(f64),
    /// Still moving, or a node step was clamped: iterate again.
    Continue,
    /// The linear solve produced a NaN or infinity; `x` is untouched.
    NonFinite,
}

/// One step-limited Newton update, shared by the scalar [`newton`] and
/// the lockstep ensemble loop: moves lane `at` of `x` toward the linear
/// solve `x_new` (both lane-minor over `unknowns` entries, the first
/// `nodes` of them node voltages). Each node-voltage step is clamped to
/// ±[`MAX_NODE_STEP`] on its own, and an iteration with any clamp active
/// is never converged. A non-finite `x_new` is rejected before `x` moves.
pub(crate) fn limited_update(
    x: &mut [f64],
    x_new: &[f64],
    unknowns: usize,
    nodes: usize,
    at: Lane,
) -> Update {
    if !(0..unknowns).all(|i| x_new[at.at(i)].is_finite()) {
        return Update::NonFinite;
    }
    let mut converged = true;
    let mut max_step = 0.0f64;
    for i in 0..unknowns {
        let k = at.at(i);
        let mut step = x_new[k] - x[k];
        if i < nodes && step.abs() > MAX_NODE_STEP {
            step = MAX_NODE_STEP.copysign(step);
            converged = false;
        }
        if step.abs() > 1e-9 + 1e-6 * x[k].abs() {
            converged = false;
        }
        max_step = max_step.max(step.abs());
        x[k] += step;
    }
    if converged {
        Update::Converged(max_step)
    } else {
        Update::Continue
    }
}

/// Newton–Raphson over a reusable [`SolverWorkspace`]; returns the
/// converged unknown vector together with iteration diagnostics.
///
/// The dense path restamps everything each iteration; the sparse path
/// stamps the linear baseline once, then each iteration restamps only the
/// MOSFETs and refactors numerically against the shared symbolic.
pub(crate) fn newton(
    netlist: &Netlist,
    ctx: &StampContext<'_>,
    x0: &[f64],
    max_iterations: usize,
    ws: &mut SolverWorkspace,
) -> Result<NewtonSolve, SpiceError> {
    let n = netlist.unknown_count();
    let nv = netlist.node_count() - 1;
    let mut x = x0.to_vec();
    if let SolverWorkspace::Sparse { sys, .. } = ws {
        sys.begin(netlist, ctx);
    }
    for iteration in 1..=max_iterations {
        if let Some(token) = ctx.cancel {
            token.check("newton")?;
        }
        let dense_x;
        let x_new: &[f64] = match ws {
            SolverWorkspace::Dense { plan, a, b } => {
                a.clear();
                b.fill(0.0);
                let pass = Pass::All { ctx, x: &x };
                plan.apply(&netlist.devices, pass, Lane::SCALAR, a.values_mut(), b);
                dense_x = a.solve(b)?;
                &dense_x
            }
            SolverWorkspace::Sparse { sys, lu, b } => {
                sys.iterate(netlist, &x, ctx, b);
                lu.factor(sys.matrix())?;
                // One numeric (re)factorization per Newton iteration;
                // a = iteration number within this solve.
                fts_telemetry::trace::emit("sparse_factor", "", iteration as f64, 0.0);
                lu.solve_in_place(b);
                b
            }
        };
        match limited_update(&mut x, x_new, n, nv, Lane::SCALAR) {
            Update::Converged(max_step) => {
                return Ok(NewtonSolve {
                    x,
                    iterations: iteration,
                    max_step,
                })
            }
            Update::Continue => {}
            Update::NonFinite => break,
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        residual: f64::NAN,
    })
}

/// Stamps the small-signal (AC) system at angular frequency `omega`,
/// linearized around the operating point `x_op`. The voltage source named
/// `ac_source` receives a unit AC stimulus; all other independent sources
/// are zeroed.
///
/// The real part is the dense Newton restamp at `x_op` with capacitors
/// open and the floor gmin; the imaginary part is the capacitors'
/// susceptance `ωC`. Every other device adds an exact zero to the
/// imaginary part (and capacitors to the real part), so splitting the two
/// leaves each entry's sums unchanged.
pub(crate) fn stamp_ac(
    netlist: &Netlist,
    x_op: &[f64],
    omega: f64,
    ac_source: &str,
    a: &mut CMatrix,
    b: &mut [Complex],
) {
    let n = netlist.unknown_count();
    let nv = netlist.node_count() - 1;
    let ctx = StampContext {
        t: 0.0,
        cap_mode: CapMode::Open,
        cap_states: &[],
        gmin: 1e-12,
        source_scale: 0.0,
        cancel: None,
    };
    let mut g = vec![0.0; n * n];
    let pass = Pass::All { ctx: &ctx, x: x_op };
    Plan::dense(netlist).apply(
        &netlist.devices,
        pass,
        Lane::SCALAR,
        &mut g,
        &mut vec![0.0; n],
    );
    for (k, &v) in g.iter().enumerate() {
        a.add(k / n, k % n, Complex::real(v));
    }
    for dev in &netlist.devices {
        match &dev.element {
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
            } => {
                let y = Complex::imag(omega * farads);
                for (r, c, y) in [(na, na, y), (nb, nb, y), (na, nb, -y), (nb, na, -y)] {
                    if let (Some(r), Some(c)) = (vidx(*r), vidx(*c)) {
                        a.add(r, c, y);
                    }
                }
            }
            Element::VSource { branch, .. } if dev.name == ac_source => {
                b[nv + branch] += Complex::ONE;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_solve_is_never_converged_and_leaves_x_alone() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // A node entry and a branch-current entry.
            for at in [0, 2] {
                let mut x = vec![0.5, -0.25, 1e-3];
                let mut x_new = x.clone();
                x_new[at] = bad;
                let update = limited_update(&mut x, &x_new, 3, 2, Lane::SCALAR);
                assert_eq!(update, Update::NonFinite, "{bad} at {at}");
                assert_eq!(x, [0.5, -0.25, 1e-3]);
            }
        }
    }

    #[test]
    fn clamped_step_is_not_converged() {
        let mut x = vec![0.0, 0.0];
        let update = limited_update(&mut x, &[-4.0, 0.0], 2, 2, Lane::SCALAR);
        assert_eq!(update, Update::Continue);
        assert_eq!(x, [-MAX_NODE_STEP, 0.0]);
    }

    #[test]
    fn small_unclamped_step_converges() {
        let mut x = vec![1.0, 2.0, 1e-3];
        let x_new = [1.0 + 1e-10, 2.0, 1e-3 - 1e-11];
        let update = limited_update(&mut x, &x_new, 3, 2, Lane::SCALAR);
        assert_eq!(update, Update::Converged(x_new[0] - 1.0));
        assert_eq!(x, x_new);
    }

    #[test]
    fn clamp_on_one_node_leaves_the_other_steps_unscaled() {
        // Node 0 wants 5 V, node 1 wants 0.3 V and the branch current
        // (not a node voltage, so never clamped) wants 10 A.
        let mut x = vec![0.0, 0.0, 0.0];
        let update = limited_update(&mut x, &[5.0, 0.3, 10.0], 3, 2, Lane::SCALAR);
        assert_eq!(update, Update::Continue);
        assert_eq!(x, [MAX_NODE_STEP, 0.3, 10.0]);
    }

    #[test]
    fn lane_stride_touches_only_its_own_lane() {
        // Two unknowns × three lanes, lane-minor; lanes 0 and 2 hold
        // values the update must neither read nor write.
        let at = Lane { lanes: 3, lane: 1 };
        let mut x = vec![7.0, 0.0, 8.0, 9.0, 0.0, 10.0];
        let x_new = [f64::NAN, 4.0, f64::NAN, f64::INFINITY, 0.2, f64::NAN];
        let update = limited_update(&mut x, &x_new, 2, 2, at);
        assert_eq!(update, Update::Continue);
        assert_eq!(x, [7.0, MAX_NODE_STEP, 8.0, 9.0, 0.2, 10.0]);
    }
}
