//! `deobfuscate`: sequential OGIS synthesis (the paper's Fig. 8
//! application) over a seeded problem set, no server and no portfolio.

use crate::mix::{problems, round_order, Problem};
use crate::stats::{median, peak_rss_mb, print_classes, LoopStats};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use sciduction::Budget;
use sciduction_ogis::{
    synthesize, synthesize_journaled, synthesize_resume, verify_against_oracle, IoOracle,
    SynthProgram, SynthesisConfig, SynthesisOutcome, VerificationResult,
};
use sciduction_smt::BvValue;
use std::time::Instant;

/// Set-up repetitions; `setup_s` and `restart_s` report their medians.
const SETUP_REPS: usize = 3;
/// Seconds one round over the problem set takes on the reference box
/// (two cores); a run of `--seconds` makes a fixed number of rounds from
/// it, so the work done never depends on how fast the code is.
const ROUND_SECONDS: f64 = 2.3;

fn config(p: &Problem) -> SynthesisConfig {
    SynthesisConfig {
        max_iterations: 64,
        initial_examples: 2,
        seed: p.example_seed,
        budget: Budget::UNLIMITED,
    }
}

fn program(outcome: SynthesisOutcome) -> Result<SynthProgram, String> {
    match outcome {
        SynthesisOutcome::Synthesized { program, .. } => Ok(program),
        other => Err(format!("no program: {other:?}")),
    }
}

/// One set-up pass: a journaled warm-up synthesis per problem (whose
/// programs become the references), then a resume of every problem from
/// its journal, which is the deobfuscation stack's restart after a
/// crash. Returns the references and the restart time.
fn set_up(problems: &[Problem]) -> Result<(Vec<SynthProgram>, f64), String> {
    let mut journals = Vec::with_capacity(problems.len());
    let mut references = Vec::with_capacity(problems.len());
    for p in problems {
        let (lib, mut oracle) = p.instance();
        let (run, journal) = synthesize_journaled(&lib, &mut *oracle, &config(p), None);
        let (outcome, _) = run.ok_or("unkilled journaled run has an outcome")?;
        references.push(program(outcome).map_err(|e| format!("{}: {e}", p.label()))?);
        journals.push(journal);
    }
    let t = Instant::now();
    for ((p, journal), reference) in problems.iter().zip(&journals).zip(&references) {
        let (lib, mut oracle) = p.instance();
        let (outcome, _) = synthesize_resume(&lib, &mut *oracle, &config(p), journal)
            .map_err(|e| format!("{}: resume failed: {e:?}", p.label()))?;
        let resumed = program(outcome)?;
        if resumed.to_string() != reference.to_string() {
            return Err(format!("{}: resumed run diverged", p.label()));
        }
    }
    Ok((references, t.elapsed().as_secs_f64()))
}

/// An oracle wrapper that times every query (traced run only).
struct TimedOracle {
    inner: Box<dyn IoOracle>,
    intervals: Vec<(Instant, Instant)>,
}

impl IoOracle for TimedOracle {
    fn query(&mut self, inputs: &[BvValue]) -> Vec<BvValue> {
        let start = Instant::now();
        let out = self.inner.query(inputs);
        self.intervals.push((start, Instant::now()));
        out
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// Per-op results of one timed window.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    /// Problem index of each op, and whether its program matched the
    /// reference.
    results: Vec<(usize, bool)>,
    ops: Vec<SpanId>,
    smt_checks: u64,
    oracle_queries: u64,
    distinguishing_inputs: u64,
}

fn run_window(
    problems: &[Problem],
    references: &[String],
    seed: u64,
    rounds: std::ops::Range<u64>,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    for round in rounds {
        for i in round_order(problems.len(), seed, round) {
            let p = &problems[i];
            let (lib, oracle) = p.instance();
            let mut oracle = TimedOracle {
                inner: oracle,
                intervals: Vec::new(),
            };
            let cfg = config(p);
            let (outcome, stats) = match tracer.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let out = synthesize(&lib, &mut *oracle.inner, &cfg);
                    w.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    out
                }
                Some(tracer) => {
                    let start = Instant::now();
                    let out = synthesize(&lib, &mut oracle, &cfg);
                    let end = Instant::now();
                    let op = tracer.record("ogis.synthesize", None, start, end);
                    for &(s, e) in &oracle.intervals {
                        tracer.record("ogis.oracle", Some(op), s, e);
                    }
                    w.latencies_ms.push(tracer.duration_ms(op));
                    w.ops.push(op);
                    out
                }
            };
            w.smt_checks += stats.smt_checks;
            w.oracle_queries += stats.oracle_queries;
            w.distinguishing_inputs += stats.distinguishing_inputs;
            let same = program(outcome).is_ok_and(|prog| prog.to_string() == references[i]);
            w.results.push((i, same));
        }
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let problems = problems();
    let mut setups = Vec::new();
    let mut restarts = Vec::new();
    let mut references = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (refs, restart_s) = set_up(&problems)?;
        setups.push(t.elapsed().as_secs_f64());
        restarts.push(restart_s);
        references = refs;
    }
    let reference_text: Vec<String> = references.iter().map(|p| p.to_string()).collect();
    let rounds = ((seconds as f64 / ROUND_SECONDS).round() as u64).max(1);

    let mut out = Outcome::default();
    let windows: Vec<Window> = if traced {
        // Untraced and traced halves of the same length, so their
        // difference is the tracing overhead.
        let half = rounds.div_ceil(2);
        let mut tracer = Tracer::new();
        let untraced = run_window(&problems, &reference_text, seed, 0..half, None);
        let traced = run_window(
            &problems,
            &reference_text,
            seed,
            half..2 * half,
            Some(&mut tracer),
        );
        let n = traced.ops.len() as f64;
        let u = LoopStats::from_latencies(&untraced.latencies_ms, untraced.wall_s);
        let t = LoopStats::from_latencies(&traced.latencies_ms, traced.wall_s);
        out.metric("ogis.synthesize_ms", tracer.mean_own_self_ms(&traced.ops));
        out.metric(
            "ogis.oracle_ms",
            tracer.mean_self_ms("ogis.oracle", &traced.ops),
        );
        out.metric("ogis.oracle_queries", traced.oracle_queries as f64 / n);
        out.metric("ogis.smt_checks", traced.smt_checks as f64 / n);
        out.metric(
            "ogis.distinguishing_inputs",
            traced.distinguishing_inputs as f64 / n,
        );
        out.overhead(&u, &t);
        crate::write_trace(&tracer, "deobfuscate", seed);
        vec![untraced, traced]
    } else {
        let w = run_window(&problems, &reference_text, seed, 0..rounds, None);
        let s = LoopStats::from_latencies(&w.latencies_ms, w.wall_s);
        let classes: Vec<(String, f64)> = w
            .results
            .iter()
            .zip(&w.latencies_ms)
            .map(|(&(i, _), &ms)| (problems[i].label(), ms))
            .collect();
        print_classes("deobfuscate", &classes);
        out.metric("setup_s", median(&setups));
        out.metric("restart_s", median(&restarts));
        out.loop_metrics(&s);
        out.metric("peak_rss_mb", peak_rss_mb());
        vec![w]
    };

    // Correctness, outside the timed window: every reference program is
    // checked against its oracle, and every timed op must have produced
    // exactly its reference.
    let mut wrong = vec![false; problems.len()];
    for (i, (p, prog)) in problems.iter().zip(&references).enumerate() {
        let (_, mut oracle) = p.instance();
        let verdict = verify_against_oracle(prog, &mut *oracle, 16, 4096, seed ^ i as u64);
        if let VerificationResult::CounterexampleFound { input } = verdict {
            eprintln!("deobfuscate: {} is wrong on {input:?}", p.label());
            wrong[i] = true;
        }
    }
    for &(i, same) in windows.iter().flat_map(|w| &w.results) {
        out.attempted += 1;
        if !same {
            eprintln!(
                "deobfuscate: {} diverged from its reference",
                problems[i].label()
            );
        }
        if !same || wrong[i] {
            out.failed += 1;
        }
    }
    Ok(out)
}
