//! Plain-Newton convergence corpus: every operating point of the op
//! benchmark corpus (14 named functions × every input assignment, 152
//! jobs) is built through the batch job builder and solved with Newton
//! alone — no gmin, source or pseudo-transient rung may be needed. The
//! output node is then checked against the function's truth table, so
//! the corpus ties the logic view to the circuit view.

use four_terminal_lattice::batch::{AnalysisSpec, JobSource, JobSpec, PipelineJobBuilder};
use four_terminal_lattice::engine::CacheMode;
use four_terminal_lattice::named_function;
use four_terminal_lattice::pipeline::Pipeline;
use four_terminal_lattice::server::service::build_job;
use four_terminal_lattice::spice::analysis::{OpOptions, OpStrategy};
use four_terminal_lattice::spice::Simulator;

/// The op corpus: the named functions `fts batch` and the op benchmark
/// serve.
const CORPUS: [&str; 14] = [
    "and2", "and3", "and4", "or2", "or3", "or4", "xor2", "xor3", "xor4", "xnor2", "xnor3", "maj3",
    "maj5", "th24",
];

/// Ceiling on the Newton iterations over the whole corpus (measured
/// 2,055), so a convergence regression that stays within each job's
/// budget still fails.
const MAX_TOTAL_NEWTON_ITERATIONS: u64 = 2_200;

#[test]
fn every_corpus_operating_point_converges_by_plain_newton() {
    let builder = PipelineJobBuilder::new();
    let vdd = Pipeline::standard().bench.vdd;
    let mut jobs = 0;
    let mut total_iterations = 0;
    for name in CORPUS {
        let tt = named_function(name).expect("corpus function");
        for input in 0..1u32 << tt.vars() {
            let spec = JobSpec {
                source: JobSource::Function {
                    name: name.to_owned(),
                    analysis: AnalysisSpec::Op { input },
                },
                deadline_ms: None,
                ladder: false,
                label: None,
                waveform: false,
                cache: CacheMode::Bypass,
            };
            let built = build_job(&builder, &spec, jobs).expect("job builds");
            let op = Simulator::new(&built.job.netlist)
                .op_options(OpOptions::newton_only())
                .op()
                .unwrap_or_else(|e| panic!("{name} input {input}: {e}"));
            let report = op.convergence();
            assert_eq!(report.strategy, OpStrategy::Newton, "{name} input {input}");
            total_iterations += report.newton_iterations;
            // The lattice is the bench's pull-down network: the output is
            // high exactly where the function is 0.
            let high = op.voltage(built.out) > vdd / 2.0;
            assert_eq!(
                high,
                !tt.eval(input),
                "{name} input {input}: out = {} V",
                op.voltage(built.out)
            );
            jobs += 1;
        }
    }
    assert_eq!(jobs, 152);
    assert!(
        total_iterations <= MAX_TOTAL_NEWTON_ITERATIONS,
        "{total_iterations} Newton iterations over the corpus"
    );
}
