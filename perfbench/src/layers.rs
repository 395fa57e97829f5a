//! Direct library calls: the reference verdicts served answers are
//! compared to, and the layer-by-layer replay of one job that the traced
//! run times. Both mirror the constructions `scid-server` uses for the
//! same job specs.

use crate::trace::{SpanId, Tracer};
use sciduction::{Budget, Verdict};
use sciduction_proof::{check_certificate, check_drat};
use sciduction_sat::{solve_portfolio_with_faults, Cnf, PortfolioConfig, SolveResult};
use sciduction_server::jobs::mode_exclusion;
use sciduction_server::JobSpec;
use sciduction_smt::{CheckResult, SmtQueryCache, Solver as SmtSolver, TermId};
use std::sync::Arc;

/// Emits the named fig6/fig8 query's assertions into `s`.
pub fn fig_query(s: &mut SmtSolver, name: &str) -> Vec<TermId> {
    match name {
        "fig6_crc8_infeasible_path" | "fig6_crc8_feasible_path" => {
            use sciduction_cfg::{path_formula, unroll, Dag};
            let f = sciduction_ir::programs::crc8();
            let dag = Dag::build(unroll(&f, 8)).expect("crc8 unrolls");
            let paths = dag.enumerate_paths(1000);
            let path = if name == "fig6_crc8_infeasible_path" {
                paths.iter().min_by_key(|p| p.edges.len())
            } else {
                paths.iter().max_by_key(|p| p.edges.len())
            }
            .expect("crc8 has paths");
            path_formula(s, &dag, path).constraints
        }
        "fig8_p1_equiv_w8" => {
            let p = s.terms_mut();
            let x = p.var("x", 8);
            let one = p.bv(1, 8);
            let zero = p.bv(0, 8);
            let xm1 = p.bv_sub(x, one);
            let spec = p.bv_and(x, xm1);
            let negx = p.bv_sub(zero, x);
            let iso = p.bv_and(x, negx);
            let cand = p.bv_sub(x, iso);
            vec![p.neq(spec, cand)]
        }
        "fig8_p2_equiv_w8" => {
            let p = s.terms_mut();
            let x = p.var("x", 8);
            let k45 = p.bv(45, 8);
            let spec = p.bv_mul(x, k45);
            let s5 = p.bv(5, 8);
            let s3 = p.bv(3, 8);
            let s2 = p.bv(2, 8);
            let t5 = p.bv_shl(x, s5);
            let t3 = p.bv_shl(x, s3);
            let t2 = p.bv_shl(x, s2);
            let sum = p.bv_add(t5, t3);
            let sum = p.bv_add(sum, t2);
            let cand = p.bv_add(sum, x);
            vec![p.neq(spec, cand)]
        }
        other => panic!("no SMT query for workload {other:?}"),
    }
}

/// The CNF a SAT-backed job solves (`None` for SMT-backed jobs).
fn job_cnf(spec: &JobSpec) -> Option<Cnf> {
    match spec {
        JobSpec::Sat(j) => Some(Cnf {
            num_vars: j.num_vars,
            clauses: j.clauses.clone(),
        }),
        JobSpec::Fig(j) if j.name == "fig10_mode_exclusion" => Some(mode_exclusion(7, 6)),
        _ => None,
    }
}

fn portfolio(cnf: &Cnf, proof: bool) -> sciduction_sat::PortfolioOutcome {
    let config = PortfolioConfig {
        threads: 1,
        proof,
        budget: Budget::UNLIMITED,
        ..PortfolioConfig::default()
    };
    solve_portfolio_with_faults(cnf, &[], &config, None).expect("unfaulted portfolio answers")
}

/// The verdict a direct library call gives for `spec`: no server, no
/// shared cache, no proof logging.
pub fn reference_verdict(spec: &JobSpec) -> String {
    if let Some(cnf) = job_cnf(spec) {
        return portfolio(&cnf, false).verdict.to_string();
    }
    let JobSpec::Fig(j) = spec else {
        panic!("no reference for {}", spec.label());
    };
    let mut s = SmtSolver::new();
    for t in fig_query(&mut s, &j.name) {
        s.assert_term(t);
    }
    s.check_bounded(&Budget::UNLIMITED).to_string()
}

/// Counts the layer replay observed for one job.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub conflicts: u64,
    pub propagations: u64,
    pub proof_steps: u64,
    pub proof_bytes: u64,
}

/// Replays `spec` through the library layers the server runs for it,
/// recording one span per layer under `op`: `cfg.path_query` (fig6 query
/// construction), `smt.blast` (`assert_term` blasts eagerly),
/// `sat.search`, `proof.emit` and `proof.check`. Proofless SMT jobs go
/// through `cache`, as the server's shared query cache.
pub fn replay_layers(
    spec: &JobSpec,
    cache: &Arc<SmtQueryCache>,
    tracer: &mut Tracer,
    op: SpanId,
) -> LayerCounts {
    let op = Some(op);
    let proof = match spec {
        JobSpec::Sat(j) => j.proof,
        JobSpec::Fig(j) => j.proof,
        _ => false,
    };
    let mut counts = LayerCounts::default();
    if let Some(cnf) = job_cnf(spec) {
        let out = tracer.time("sat.search", op, || portfolio(&cnf, proof));
        let winner = out
            .winner
            .and_then(|w| out.solvers.get(w))
            .and_then(Option::as_ref)
            .expect("an answered race parks its winner");
        let stats = winner.stats();
        counts.conflicts = stats.conflicts;
        counts.propagations = stats.propagations;
        if proof && out.verdict == Verdict::Known(SolveResult::Unsat) {
            let (p, pc, bytes) = tracer.time("proof.emit", op, || {
                let p = winner.unsat_proof().expect("certifying unsat has a proof");
                let pc = winner.proof_cnf().expect("certifying unsat has a CNF");
                let bytes = p.to_drat().len() + pc.to_dimacs().len();
                (p, pc, bytes)
            });
            counts.proof_steps = p.len() as u64;
            counts.proof_bytes = bytes as u64;
            tracer
                .time("proof.check", op, || check_drat(&pc, &p))
                .expect("emitted DRAT proof checks");
        }
        return counts;
    }
    let JobSpec::Fig(j) = spec else {
        panic!("no layer replay for {}", spec.label());
    };
    let mut s = if proof {
        SmtSolver::certifying()
    } else {
        SmtSolver::new()
    };
    if !proof {
        s.attach_cache(Arc::clone(cache));
    }
    let terms = if j.name.starts_with("fig6") {
        tracer.time("cfg.path_query", op, || fig_query(&mut s, &j.name))
    } else {
        fig_query(&mut s, &j.name)
    };
    tracer.time("smt.blast", op, || {
        for t in terms {
            s.assert_term(t);
        }
    });
    let verdict = tracer.time("sat.search", op, || s.check_bounded(&Budget::UNLIMITED));
    let stats = s.sat_stats();
    counts.conflicts = stats.conflicts;
    counts.propagations = stats.propagations;
    if proof && verdict == Verdict::Known(CheckResult::Unsat) {
        let (cert, bytes) = tracer.time("proof.emit", op, || {
            let cert = s
                .unsat_certificate()
                .expect("certifying unsat has a certificate");
            let bytes = cert.to_text().len();
            (cert, bytes)
        });
        counts.proof_steps = cert.proof.len() as u64;
        counts.proof_bytes = bytes as u64;
        tracer
            .time("proof.check", op, || check_certificate(&cert))
            .expect("emitted certificate checks");
    }
    counts
}
