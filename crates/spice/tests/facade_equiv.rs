//! Pins the [`Simulator`] facade against recorded golden results.
//!
//! The legacy free functions (`analysis::op`, `analysis::transient`, …)
//! are gone; the facade is now the *only* entry point, so equivalence
//! testing against them is impossible. Instead these tests freeze the
//! numbers the facade produced at the moment of the migration: every
//! assertion below is a value recorded from a run of this workspace and
//! pasted in as a constant. Any future change that silently alters
//! solver results — reordering stamps, changing pivoting, reworking the
//! homotopy ladder — trips these tests. The ladders are linear; the
//! pass-gate and common-source goldens pin the MOSFET linearization
//! (level 1 and level 3, both orientations) on the dense and the sparse
//! path.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test -p fts-spice --test facade_equiv -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over the `GOLDEN_*` constants.

use fts_spice::analysis::{log_sweep, Integrator, SampleSink, TranConfig};
use fts_spice::{Mos3Params, MosParams, Netlist, NodeId, Simulator, SolverKind, Waveform};

/// A resistive ladder with an RC tail and a pulse drive — nonlinearity-free
/// so every solver path is exercised deterministically, with enough nodes
/// to cross the sparse threshold when `rungs` is large.
fn ladder(rungs: usize, r: f64, c: f64, vdrive: f64) -> Netlist {
    let mut nl = Netlist::new();
    let first = nl.node("n0");
    nl.vsource(
        "V1",
        first,
        Netlist::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: vdrive,
            delay: 0.0,
            rise: 1e-9,
            fall: 1e-9,
            width: 1.0,
            period: 0.0,
        },
    )
    .unwrap();
    let mut prev = first;
    for k in 0..rungs {
        let n = nl.node(&format!("n{}", k + 1));
        nl.resistor(&format!("R{k}"), prev, n, r).unwrap();
        nl.resistor(&format!("Rg{k}"), n, Netlist::GROUND, 2.0 * r)
            .unwrap();
        prev = n;
    }
    nl.capacitor("Cend", prev, Netlist::GROUND, c).unwrap();
    nl
}

/// DC variant of the ladder for operating-point and sweep goldens (the
/// pulse drive is zero at `t = 0`, which would pin nothing).
fn dc_ladder(rungs: usize, r: f64, vdc: f64) -> Netlist {
    let mut nl = ladder(rungs, r, 1e-12, 0.0);
    nl.set_vsource("V1", Waveform::Dc(vdc)).unwrap();
    nl
}

/// An input step: `v0` at `t = 0` (the operating point), `v1` after a
/// 2 ns delay and a 1 ns edge.
fn step(v0: f64, v1: f64) -> Waveform {
    Waveform::Pulse {
        v0,
        v1,
        delay: 2e-9,
        rise: 1e-9,
        fall: 1e-9,
        width: 1.0,
        period: 0.0,
    }
}

/// Two level-1 pass gates hanging off one driven input, gates held high.
/// `M1` is declared with its drain on the input, `M2` with its drain on
/// its output, so at the operating point (input high) `M1` conducts in
/// forward and `M2` in reverse orientation. When the input steps low the
/// loaded outputs discharge back through the switches and both
/// orientations flip.
fn pass_gates() -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("in");
    let gate = nl.node("g");
    let out1 = nl.node("out1");
    let out2 = nl.node("out2");
    nl.vsource("VIN", vin, Netlist::GROUND, step(1.0, 0.2))
        .unwrap();
    nl.vsource("VG", gate, Netlist::GROUND, Waveform::Dc(1.8))
        .unwrap();
    let params = MosParams {
        kp: 2.0e-4,
        vth: 0.4,
        lambda: 0.02,
        w_over_l: 4.0,
    };
    nl.nmos("M1", vin, gate, out1, params).unwrap();
    nl.nmos("M2", out2, gate, vin, params).unwrap();
    nl.resistor("RL1", out1, Netlist::GROUND, 20.0e3).unwrap();
    nl.resistor("RL2", out2, Netlist::GROUND, 30.0e3).unwrap();
    nl.capacitor("C1", out1, Netlist::GROUND, 2e-12).unwrap();
    nl.capacitor("C2", out2, Netlist::GROUND, 3e-12).unwrap();
    nl
}

/// A level-3 common-source stage with source degeneration, short-channel
/// effects and Meyer gate capacitances.
fn cs_stage() -> Netlist {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let out = nl.node("out");
    let src = nl.node("src");
    nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.8))
        .unwrap();
    nl.vsource("VIN", vin, Netlist::GROUND, step(0.8, 1.1))
        .unwrap();
    nl.resistor("RD", vdd, out, 10.0e3).unwrap();
    nl.resistor("RS", src, Netlist::GROUND, 1.0e3).unwrap();
    nl.capacitor("CL", out, Netlist::GROUND, 50e-15).unwrap();
    let params = Mos3Params {
        kp: 2.0e-4,
        vth: 0.4,
        lambda: 0.05,
        w_over_l: 4.0,
        theta: 0.5,
        esat_l: 1.5,
        cgs: 5e-15,
        cgd: 2e-15,
    };
    nl.nmos3("M1", out, vin, src, params).unwrap();
    nl
}

/// The probe nodes of [`pass_gates`] and [`cs_stage`].
const PASS_PROBES: [&str; 2] = ["out1", "out2"];
const CS_PROBES: [&str; 2] = ["out", "src"];

/// The fixed-step transient of the MOS goldens and the sample it pins.
fn mos_tran() -> TranConfig {
    TranConfig::fixed(0.5e-9, 20e-9)
}
const MOS_TRAN_SAMPLE: usize = 10;

/// One MOS golden row: op voltages at the two probes, Newton iterations
/// of the op, and the second probe at transient sample
/// [`MOS_TRAN_SAMPLE`].
type MosRow = ([f64; 2], u64, f64);

fn mos_row(nl: &Netlist, probes: [&str; 2], kind: SolverKind) -> MosRow {
    let mut nl = nl.clone();
    nl.set_solver(kind);
    let sim = Simulator::new(&nl);
    let op = sim.op().unwrap();
    let [a, b] = probes.map(|p| nl.find_node(p).unwrap());
    let tr = sim.transient(&mos_tran()).unwrap();
    (
        [op.voltage(a), op.voltage(b)],
        op.convergence().newton_iterations,
        tr.voltage_at(b, MOS_TRAN_SAMPLE),
    )
}

/// `|v(out)|` of the common-source stage for a unit AC drive on `VIN`,
/// at the first and last frequency of [`log_sweep`]`(1e3, 1e10, 8)`.
fn cs_ac_gain(kind: SolverKind) -> [f64; 2] {
    let mut nl = cs_stage();
    nl.set_solver(kind);
    let out = nl.find_node("out").unwrap();
    let ac = Simulator::new(&nl)
        .ac("VIN", &log_sweep(1.0e3, 1.0e10, 8))
        .unwrap();
    [ac.voltage_at(out, 0).abs(), ac.voltage_at(out, 7).abs()]
}

fn assert_mos_row(got: MosRow, want: MosRow, what: &str) {
    assert_close(got.0[0], want.0[0], &format!("{what} op probe 0"));
    assert_close(got.0[1], want.0[1], &format!("{what} op probe 1"));
    assert_eq!(got.1, want.1, "{what} op Newton iterations");
    assert_close(got.2, want.2, &format!("{what} transient sample"));
}

fn last_node(nl: &Netlist, rungs: usize) -> NodeId {
    nl.find_node(&format!("n{rungs}")).unwrap()
}

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-9 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got:.15e}, golden {want:.15e}"
    );
}

// ---------------------------------------------------------------------------
// Recorded goldens. Regenerate with `-- --ignored --nocapture` (see above).
// ---------------------------------------------------------------------------

/// `dc_ladder(4, 1.0e3, 2.0)` node voltages n1..n4.
const GOLDEN_OP: [f64; 4] = [
    1.005847952521186e0,
    5.146198823088131e-1,
    2.807017537654664e-1,
    1.871345023855545e-1,
];

/// `dc_ladder(3, 2.2e3, 0.0)` swept over `V1 = [-2.0, 0.0, 1.5, 3.0]`:
/// voltage at the last node for each sweep value.
const GOLDEN_SWEEP: [f64; 4] = [
    -3.720930214663061e-1,
    0.000000000000000e0,
    2.790697660997296e-1,
    5.581395321994592e-1,
];

/// `ladder(2, 1.0e4, 1.0e-10, 1.0)`, trapezoidal fixed step
/// `TranConfig::fixed(5e-8, 3e-6)`: (sample count, v(n2) at k = 20,
/// v(n2) at the final sample).
const GOLDEN_TRAN_TRAP: (usize, f64, f64) = (61, 2.424475138162983e-1, 3.502157002450164e-1);

/// Same circuit, backward Euler with `uic`: v(n2) at the final sample.
const GOLDEN_TRAN_BE_UIC: f64 = 3.489970786824247e-1;

/// Same circuit, `TranConfig::adaptive(5e-6)`: (sample count, v(n2) at
/// the final sample).
const GOLDEN_TRAN_ADAPTIVE: (usize, f64) = (95, 3.619863537355127e-1);

/// Same circuit, AC over `log_sweep(1e3, 1e9, 7)`: |v(n2)| at the first,
/// middle (k = 3), and last frequency.
const GOLDEN_AC: [f64; 3] = [
    3.636304263485826e-1,
    6.270823675367498e-2,
    6.366197600650131e-5,
];

/// `pass_gates()` on `[Dense, Sparse]`, as [`MosRow`]s (probes out1,
/// out2).
const GOLDEN_MOS_PASS: [MosRow; 2] = [
    (
        [8.805687670509297e-1, 9.141515422055912e-1],
        6,
        5.732135932322511e-1,
    ),
    (
        [8.805687670509297e-1, 9.141515422055912e-1],
        6,
        5.732135932322519e-1,
    ),
];

/// `cs_stage()` on `[Dense, Sparse]`, as [`MosRow`]s (probes out, src).
const GOLDEN_MOS_CS: [MosRow; 2] = [
    (
        [1.358565796867549e0, 4.414341891053588e-2],
        4,
        1.039581165414985e-1,
    ),
    (
        [1.358565796867549e0, 4.414341891053588e-2],
        4,
        1.039581165414985e-1,
    ),
];

/// [`cs_ac_gain`] on `[Dense, Sparse]`.
const GOLDEN_MOS_CS_AC: [[f64; 2]; 2] = [
    [1.781496124454369e0, 7.346582768900682e-2],
    [1.781496124454369e0, 7.346582768900682e-2],
];

const MOS_SOLVERS: [SolverKind; 2] = [SolverKind::Dense, SolverKind::Sparse];

#[test]
fn mos_pass_gates_pin_recorded_golden() {
    let nl = pass_gates();
    for (kind, want) in MOS_SOLVERS.iter().zip(GOLDEN_MOS_PASS) {
        assert_mos_row(
            mos_row(&nl, PASS_PROBES, *kind),
            want,
            &format!("pass {kind:?}"),
        );
    }
}

#[test]
fn mos_pass_gates_conduct_in_both_orientations() {
    // The golden is only worth its name if the op really puts M1 in
    // forward and M2 in reverse orientation, and the transient flips
    // both.
    let nl = pass_gates();
    let sim = Simulator::new(&nl);
    let op = sim.op().unwrap();
    let [vin, out1, out2] = ["in", "out1", "out2"].map(|n| nl.find_node(n).unwrap());
    assert!(op.voltage(vin) > op.voltage(out1) && op.voltage(out1) > 0.1);
    assert!(op.voltage(vin) > op.voltage(out2) && op.voltage(out2) > 0.1);
    let tr = sim.transient(&mos_tran()).unwrap();
    let k = MOS_TRAN_SAMPLE;
    assert!(tr.voltage_at(vin, k) < tr.voltage_at(out1, k));
    assert!(tr.voltage_at(vin, k) < tr.voltage_at(out2, k));
}

#[test]
fn mos_common_source_pins_recorded_golden() {
    let nl = cs_stage();
    for (kind, want) in MOS_SOLVERS.iter().zip(GOLDEN_MOS_CS) {
        assert_mos_row(
            mos_row(&nl, CS_PROBES, *kind),
            want,
            &format!("cs {kind:?}"),
        );
    }
    for (kind, want) in MOS_SOLVERS.iter().zip(GOLDEN_MOS_CS_AC) {
        let got = cs_ac_gain(*kind);
        assert_close(got[0], want[0], &format!("cs {kind:?} low-frequency gain"));
        assert_close(got[1], want[1], &format!("cs {kind:?} high-frequency gain"));
    }
}

#[test]
fn op_pins_recorded_golden() {
    let nl = dc_ladder(4, 1.0e3, 2.0);
    let op = Simulator::new(&nl).op().unwrap();
    for (k, want) in GOLDEN_OP.iter().enumerate() {
        let node = nl.find_node(&format!("n{}", k + 1)).unwrap();
        assert_close(op.voltage(node), *want, &format!("op v(n{})", k + 1));
    }
    // Determinism: a second run is bit-identical, not merely close.
    let again = Simulator::new(&nl).op().unwrap();
    assert_eq!(op.unknowns(), again.unknowns(), "op must be deterministic");
}

#[test]
fn op_dense_and_sparse_agree() {
    let mut nl = dc_ladder(4, 1.0e3, 2.0);
    nl.set_solver(SolverKind::Dense);
    let dense = Simulator::new(&nl).op().unwrap();
    nl.set_solver(SolverKind::Sparse);
    let sparse = Simulator::new(&nl).op().unwrap();
    for (a, b) in dense.unknowns().iter().zip(sparse.unknowns()) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "dense/sparse drift: {a} vs {b}"
        );
    }
}

#[test]
fn dc_sweep_pins_recorded_golden() {
    let nl = dc_ladder(3, 2.2e3, 0.0);
    let vals = [-2.0, 0.0, 1.5, 3.0];
    let out = last_node(&nl, 3);
    let mut sim = Simulator::new(&nl);
    let sweep = sim.dc_sweep("V1", &vals).unwrap();
    assert_eq!(sweep.len(), vals.len());
    for (k, (point, want)) in sweep.iter().zip(GOLDEN_SWEEP.iter()).enumerate() {
        assert_close(point.voltage(out), *want, &format!("sweep[{k}] v(out)"));
    }
}

#[test]
fn fixed_transient_pins_recorded_golden() {
    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let out = last_node(&nl, 2);
    let cfg = TranConfig::fixed(5e-8, 3e-6);
    let tr = Simulator::new(&nl).transient(&cfg).unwrap();
    assert_eq!(tr.time.len(), GOLDEN_TRAN_TRAP.0, "sample count");
    assert_close(tr.voltage_at(out, 20), GOLDEN_TRAN_TRAP.1, "v(out) at k=20");
    assert_close(
        tr.voltage_at(out, tr.time.len() - 1),
        GOLDEN_TRAN_TRAP.2,
        "v(out) at tstop",
    );

    let again = Simulator::new(&nl).transient(&cfg).unwrap();
    assert_eq!(tr, again, "transient must be deterministic");
}

#[test]
fn backward_euler_uic_pins_recorded_golden() {
    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let out = last_node(&nl, 2);
    let cfg = TranConfig::fixed(5e-8, 3e-6)
        .integrator(Integrator::BackwardEuler)
        .uic(true);
    let tr = Simulator::new(&nl).transient(&cfg).unwrap();
    assert_close(
        tr.voltage_at(out, tr.time.len() - 1),
        GOLDEN_TRAN_BE_UIC,
        "BE+uic v(out) at tstop",
    );
}

#[test]
fn adaptive_transient_pins_recorded_golden() {
    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let out = last_node(&nl, 2);
    let tr = Simulator::new(&nl)
        .transient(&TranConfig::adaptive(5e-6))
        .unwrap();
    assert_eq!(
        tr.time.len(),
        GOLDEN_TRAN_ADAPTIVE.0,
        "adaptive sample count"
    );
    assert_close(
        tr.voltage_at(out, tr.time.len() - 1),
        GOLDEN_TRAN_ADAPTIVE.1,
        "adaptive v(out) at tstop",
    );
}

/// `transient` and `transient_into` with a collecting sink are the same
/// computation — the collected stream must reproduce the returned
/// waveform exactly.
#[test]
fn transient_into_matches_collected_transient() {
    struct Collect {
        time: Vec<f64>,
        rows: Vec<Vec<f64>>,
    }
    impl SampleSink for Collect {
        fn accept(&mut self, t: f64, x: &[f64]) {
            self.time.push(t);
            self.rows.push(x.to_vec());
        }
    }

    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let cfg = TranConfig::fixed(5e-8, 3e-6);
    let tr = Simulator::new(&nl).transient(&cfg).unwrap();
    let mut sink = Collect {
        time: Vec::new(),
        rows: Vec::new(),
    };
    Simulator::new(&nl).transient_into(&cfg, &mut sink).unwrap();
    assert_eq!(tr.time, sink.time);
    for (k, row) in sink.rows.iter().enumerate() {
        for node in 1..nl.node_count() {
            assert_eq!(
                tr.voltage_at(nl.node_id(node), k),
                row[node - 1],
                "sample {k}, node {node}"
            );
        }
    }
}

#[test]
fn ac_pins_recorded_golden() {
    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let out = last_node(&nl, 2);
    let freqs = log_sweep(1.0e3, 1.0e9, 7);
    let ac = Simulator::new(&nl).ac("V1", &freqs).unwrap();
    assert_eq!(ac.freqs.len(), 7);
    for (k, want) in [(0usize, GOLDEN_AC[0]), (3, GOLDEN_AC[1]), (6, GOLDEN_AC[2])] {
        assert_close(
            ac.voltage_at(out, k).abs(),
            want,
            &format!("|v(out)| at freq[{k}]"),
        );
    }
}

/// Prints the golden table. Run with `-- --ignored --nocapture` and paste
/// the output over the `GOLDEN_*` constants after an intentional change.
#[test]
#[ignore = "generator for the GOLDEN_* constants"]
fn regenerate_goldens() {
    let nl = dc_ladder(4, 1.0e3, 2.0);
    let op = Simulator::new(&nl).op().unwrap();
    let vs: Vec<String> = (0..4)
        .map(|k| {
            let node = nl.find_node(&format!("n{}", k + 1)).unwrap();
            format!("{:.15e}", op.voltage(node))
        })
        .collect();
    println!("const GOLDEN_OP: [f64; 4] = [{}];", vs.join(", "));

    let nl = dc_ladder(3, 2.2e3, 0.0);
    let vals = [-2.0, 0.0, 1.5, 3.0];
    let out = last_node(&nl, 3);
    let mut sim = Simulator::new(&nl);
    let sweep = sim.dc_sweep("V1", &vals).unwrap();
    let vs: Vec<String> = sweep
        .iter()
        .map(|p| format!("{:.15e}", p.voltage(out)))
        .collect();
    println!("const GOLDEN_SWEEP: [f64; 4] = [{}];", vs.join(", "));

    let nl = ladder(2, 1.0e4, 1.0e-10, 1.0);
    let out = last_node(&nl, 2);
    let tr = Simulator::new(&nl)
        .transient(&TranConfig::fixed(5e-8, 3e-6))
        .unwrap();
    println!(
        "const GOLDEN_TRAN_TRAP: (usize, f64, f64) = ({}, {:.15e}, {:.15e});",
        tr.time.len(),
        tr.voltage_at(out, 20),
        tr.voltage_at(out, tr.time.len() - 1)
    );

    let cfg = TranConfig::fixed(5e-8, 3e-6)
        .integrator(Integrator::BackwardEuler)
        .uic(true);
    let tr = Simulator::new(&nl).transient(&cfg).unwrap();
    println!(
        "const GOLDEN_TRAN_BE_UIC: f64 = {:.15e};",
        tr.voltage_at(out, tr.time.len() - 1)
    );

    let tr = Simulator::new(&nl)
        .transient(&TranConfig::adaptive(5e-6))
        .unwrap();
    println!(
        "const GOLDEN_TRAN_ADAPTIVE: (usize, f64) = ({}, {:.15e});",
        tr.time.len(),
        tr.voltage_at(out, tr.time.len() - 1)
    );

    let freqs = log_sweep(1.0e3, 1.0e9, 7);
    let ac = Simulator::new(&nl).ac("V1", &freqs).unwrap();
    println!(
        "const GOLDEN_AC: [f64; 3] = [{:.15e}, {:.15e}, {:.15e}];",
        ac.voltage_at(out, 0).abs(),
        ac.voltage_at(out, 3).abs(),
        ac.voltage_at(out, 6).abs()
    );

    let row = |r: MosRow| {
        format!(
            "([{:.15e}, {:.15e}], {}, {:.15e})",
            r.0[0], r.0[1], r.1, r.2
        )
    };
    for (name, nl, probes) in [
        ("PASS", pass_gates(), PASS_PROBES),
        ("CS", cs_stage(), CS_PROBES),
    ] {
        let rows: Vec<String> = MOS_SOLVERS
            .iter()
            .map(|k| row(mos_row(&nl, probes, *k)))
            .collect();
        println!(
            "const GOLDEN_MOS_{name}: [MosRow; 2] = [{}];",
            rows.join(", ")
        );
    }
    let gains: Vec<String> = MOS_SOLVERS
        .iter()
        .map(|k| {
            let g = cs_ac_gain(*k);
            format!("[{:.15e}, {:.15e}]", g[0], g[1])
        })
        .collect();
    println!(
        "const GOLDEN_MOS_CS_AC: [[f64; 2]; 2] = [{}];",
        gains.join(", ")
    );
}
