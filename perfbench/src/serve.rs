//! The serve workloads: an in-process `scid-server` with two workers, a
//! state dir and an unlimited tenant budget, driven in a closed loop over
//! loopback (each connection sends its next request when the previous
//! answer arrives).

use crate::gate::{check_response, CertChecker};
use crate::layers::{reference_verdict, replay_layers, LayerCounts};
use crate::mix::{sequence, serve_pool, PoolJob, ServeKind};
use crate::stats::{median, peak_rss_mb, print_classes, LoopStats};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use sciduction::json::{self, Value};
use sciduction::persist::DiskCacheTier;
use sciduction::Budget;
use sciduction_analysis::Report;
use sciduction_server::journal::{decode_records, replay};
use sciduction_server::protocol::{parse_request, render_done};
use sciduction_server::server::CACHE_GENERATION;
use sciduction_server::{
    run_sharded, Client, Engine, Isolation, JobSpec, Server, ServerConfig, ShardIsolation, Wal,
    WalRecord,
};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` and `restart_s` report their medians.
const SETUP_REPS: usize = 3;
/// Traced ops replayed layer by layer (evenly spaced over the traced half).
const ATTRIBUTED_OPS: usize = 300;
/// Failure messages printed per run (the count is always complete).
const PRINTED_FAILURES: usize = 5;

/// How one serve workload is sized.
struct Plan {
    /// Client connections, one tenant each.
    conns: usize,
    /// Requests served before the restart that `restart_s` times; a whole
    /// number of the pool's traffic blocks per connection.
    history: usize,
    /// Requests per second on the reference box (two cores): a run of
    /// `--seconds` sends a fixed count derived from it, so the transcript,
    /// the journal and the memory they take never depend on how fast the
    /// code is.
    ops_per_s: f64,
}

fn plan(kind: ServeKind) -> Plan {
    match kind {
        ServeKind::Cached => Plan {
            conns: 2,
            history: 6000,
            ops_per_s: 20_000.0,
        },
        ServeKind::Certified => Plan {
            conns: 2,
            history: 270,
            ops_per_s: 800.0,
        },
        ServeKind::Isolated => Plan {
            conns: 1,
            history: 600,
            ops_per_s: 500.0,
        },
    }
}

struct Dirs {
    state: PathBuf,
    proofs: PathBuf,
}

fn server_config(kind: ServeKind, dirs: &Dirs) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        tenant_budget: Budget::UNLIMITED,
        proofs_dir: Some(dirs.proofs.clone()),
        state_dir: Some(dirs.state.clone()),
        isolation: match kind {
            ServeKind::Isolated => Isolation::Process(ShardIsolation::default()),
            _ => Isolation::InProcess,
        },
        ..ServerConfig::default()
    }
}

/// The pool with its wire payloads and reference verdicts.
struct Pool {
    jobs: Vec<PoolJob>,
    wire: Vec<Value>,
    expected: Vec<String>,
}

/// What one traffic stream saw.
#[derive(Default)]
struct Stream {
    latencies_ms: Vec<f64>,
    /// `(start, end)` of every request, kept for the traced half.
    intervals: Vec<(Instant, Instant)>,
    failures: Vec<String>,
    certificates: Vec<Value>,
}

/// Sends each stream's sequence over its own connection and returns what
/// each saw plus the wall time from the common start to the last answer.
fn drive(
    addr: std::net::SocketAddr,
    pool: &Pool,
    seqs: &[Vec<usize>],
    keep_intervals: bool,
) -> Result<(Vec<Stream>, f64), String> {
    let start = Barrier::new(seqs.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let start = &start;
                scope.spawn(move || -> Result<Stream, String> {
                    let client = Client::connect(addr, Duration::from_secs(120));
                    start.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let tenant = format!("conn-{c}");
                    let mut s = Stream::default();
                    s.latencies_ms.reserve(seq.len());
                    for &k in seq {
                        let t = Instant::now();
                        let resp = client
                            .request(&tenant, pool.wire[k].clone())
                            .map_err(|e| format!("request: {e}"))?;
                        let end = Instant::now();
                        s.latencies_ms.push((end - t).as_secs_f64() * 1e3);
                        if keep_intervals {
                            s.intervals.push((t, end));
                        }
                        if let Err(e) = check_response(&resp, &pool.expected[k]) {
                            s.failures.push(format!("{}: {e}", pool.jobs[k].class));
                        }
                        if let Some(cert) = resp.get("certificate").filter(|c| **c != Value::Null) {
                            s.certificates.push(cert.clone());
                        }
                    }
                    Ok(s)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let streams = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>, _>>();
        let wall = t0.elapsed().as_secs_f64();
        streams.map(|s| (s, wall))
    })
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// One set-up pass: build the pool and its references, serve a seeded
/// history against a fresh state dir, stop, and restart. Returns the
/// restarted server, the restart time and the history's failures.
fn set_up(
    kind: ServeKind,
    seed: u64,
    work: &Path,
) -> Result<(Server, Pool, f64, Vec<String>), String> {
    let jobs = serve_pool(kind);
    let pool = Pool {
        wire: jobs.iter().map(|j| j.spec.to_json()).collect(),
        expected: jobs.iter().map(|j| reference_verdict(&j.spec)).collect(),
        jobs,
    };
    let dirs = Dirs {
        state: work.join("state"),
        proofs: work.join("proofs"),
    };
    fresh_dir(&dirs.state)?;
    fresh_dir(&dirs.proofs)?;
    let p = plan(kind);
    let mut server =
        Server::start(server_config(kind, &dirs)).map_err(|e| format!("start: {e}"))?;
    let seqs: Vec<Vec<usize>> = (0..p.conns)
        .map(|c| sequence(&pool.jobs, p.history / p.conns, seed ^ 0x415, c as u64))
        .collect();
    let (streams, _) = drive(server.addr(), &pool, &seqs, false)?;
    server.stop();
    drop(server);
    let t = Instant::now();
    let server = Server::start(server_config(kind, &dirs)).map_err(|e| format!("restart: {e}"))?;
    let restart_s = t.elapsed().as_secs_f64();
    let failures = streams.into_iter().flat_map(|s| s.failures).collect();
    Ok((server, pool, restart_s, failures))
}

/// Times the restart path's layers on a copy of the populated state dir:
/// WAL open, record decode, replay, the SRV002 re-execution audit, and
/// the cache tier's reload.
fn trace_restart(work: &Path, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let copy = work.join("restart-copy");
    fresh_dir(&copy)?;
    for file in ["jobs.wal", "cache.log"] {
        std::fs::copy(work.join("state").join(file), copy.join(file))
            .map_err(|e| format!("copy {file}: {e}"))?;
    }
    let wal_bytes = std::fs::metadata(copy.join("jobs.wal")).map_or(0, |m| m.len());
    let mut report = Report::new();
    let root = tracer.open("server.restart", None);
    let (_, recovery) = tracer
        .time("server.journal.open", Some(root), || {
            Wal::open(copy.join("jobs.wal"))
        })
        .map_err(|e| format!("wal open: {e}"))?;
    let open_ms = tracer.last_ms();
    let records = tracer.time("server.journal.decode", Some(root), || {
        decode_records(&recovery.records, "perfbench", &mut report)
    });
    let decode_ms = tracer.last_ms();
    let replayed = tracer.time("server.journal.replay", Some(root), || {
        replay(&records, Budget::UNLIMITED, "perfbench", &mut report)
    });
    let replay_ms = tracer.last_ms();
    tracer.time("server.audit.reexec", Some(root), || {
        sciduction_server::audit::audit_served_verdicts(&replayed.entries, "perfbench", &mut report)
    });
    let audit_ms = tracer.last_ms();
    tracer
        .time("core.persist.cache_tier_open", Some(root), || {
            DiskCacheTier::open(copy.join("cache.log"), CACHE_GENERATION)
        })
        .map_err(|e| format!("cache tier open: {e}"))?;
    let tier_ms = tracer.last_ms();
    tracer.close(root);
    if report.has_errors() {
        return Err(format!("restart audit of the state dir failed: {report:?}"));
    }
    out.metric("server.journal.open_ms", open_ms);
    out.metric("server.journal.decode_ms", decode_ms);
    out.metric("server.journal.replay_ms", replay_ms);
    out.metric("server.journal.records", records.len() as f64);
    out.metric("server.journal.bytes", wal_bytes as f64);
    out.metric("server.audit.reexec_ms", audit_ms);
    out.metric("core.persist.cache_tier_open_ms", tier_ms);
    Ok(())
}

/// The server's shared query-cache counters, read through a `stats` job.
fn cache_stats(addr: std::net::SocketAddr) -> Result<(f64, f64), String> {
    let mut client =
        Client::connect(addr, Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request(
            "perfbench-stats",
            json::obj(vec![("kind", Value::Str("stats".into()))]),
        )
        .map_err(|e| format!("stats: {e}"))?;
    let cache = resp
        .get("detail")
        .and_then(|d| d.get("smt_cache"))
        .ok_or("stats response lacks smt_cache")?;
    let count = |k: &str| cache.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    Ok((count("hits"), count("misses")))
}

/// Replays a sample of the traced requests layer by layer, each under the
/// span of the request it replays.
fn attribute_layers(
    kind: ServeKind,
    pool: &Pool,
    ops: &[(SpanId, usize)],
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let proofs = work.join("attribution-proofs");
    fresh_dir(&proofs)?;
    let shared = Engine::new(Some(proofs.clone()));
    // Warm the shared engine's cache as the served history warmed the
    // server's.
    for (i, job) in pool.jobs.iter().enumerate() {
        shared
            .execute(&format!("warm-{i}"), &job.spec)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let (wal, _) = Wal::open(work.join("attribution.wal")).map_err(|e| format!("wal: {e}"))?;
    let iso = ShardIsolation::default();
    let stride = ops.len().div_ceil(ATTRIBUTED_OPS).max(1);
    let sample: Vec<(SpanId, usize)> = ops.iter().copied().step_by(stride).collect();
    let mut overhead_ms = Vec::new();
    let mut shard_overhead_ms = Vec::new();
    let mut counts = LayerCounts::default();
    for (n, &(op, k)) in sample.iter().enumerate() {
        let id = n as u64 + 1;
        let tag = format!("attr-{id}");
        let frame = json::obj(vec![
            ("id", Value::Int(id as i64)),
            ("tenant", Value::Str("perfbench".into())),
            ("job", pool.wire[k].clone()),
        ])
        .to_string();
        let spec = tracer
            .time("server.protocol.parse", Some(op), || {
                parse_request(frame.as_bytes())
                    .map_err(|(_, e)| e)
                    .and_then(|req| JobSpec::from_json(&req.job))
            })
            .map_err(|e| format!("parse: {e}"))?;
        let parse_ms = tracer.last_ms();
        // A shard worker executes its job through a fresh engine, with a
        // cold cache; in-process workers share the server's warm one.
        let fresh;
        let engine = if kind == ServeKind::Isolated {
            fresh = Engine::new(Some(proofs.clone()));
            &fresh
        } else {
            &shared
        };
        let output = tracer
            .time("server.jobs.execute", Some(op), || {
                engine.execute(&tag, &spec)
            })
            .map_err(|e| format!("execute: {e}"))?;
        let mut job_ms = tracer.last_ms();
        if kind == ServeKind::Isolated {
            tracer
                .time("server.shard_exec.run", Some(op), || {
                    run_sharded(&tag, &spec, &iso, Some(&proofs))
                })
                .map_err(|e| format!("shard run: {e:?}"))?;
            shard_overhead_ms.push(tracer.last_ms() - job_ms);
            job_ms = tracer.last_ms();
        }
        tracer.time("server.journal.append", Some(op), || {
            wal.record(&WalRecord::Admit {
                seq: id,
                tenant: "perfbench".into(),
                id,
                spec: spec.clone(),
            });
            wal.record(&WalRecord::Settle {
                seq: id,
                verdict: output.verdict.clone(),
                receipt: output.receipt,
                settled: true,
            });
            wal.record(&WalRecord::Respond { seq: id });
        });
        let append_ms = tracer.last_ms();
        tracer.time("server.protocol.render", Some(op), || {
            render_done(
                id,
                &output.verdict,
                &output.receipt,
                output.certificate.as_ref(),
                &output.detail,
            )
        });
        let render_ms = tracer.last_ms();
        overhead_ms.push(tracer.duration_ms(op) - (parse_ms + job_ms + append_ms + render_ms));
        let c = replay_layers(&spec, engine.smt_cache(), tracer, op);
        counts.conflicts += c.conflicts;
        counts.propagations += c.propagations;
        counts.proof_steps += c.proof_steps;
        counts.proof_bytes += c.proof_bytes;
    }
    let ids: Vec<SpanId> = sample.iter().map(|&(op, _)| op).collect();
    let n = ids.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let layer_ms = |name: &str| tracer.mean_self_ms(name, &ids);
    out.metric(
        "server.protocol.parse_us",
        layer_ms("server.protocol.parse") * 1e3,
    );
    out.metric(
        "server.protocol.render_us",
        layer_ms("server.protocol.render") * 1e3,
    );
    out.metric("server.jobs.execute_ms", layer_ms("server.jobs.execute"));
    out.metric(
        "server.journal.append_us",
        layer_ms("server.journal.append") * 1e3,
    );
    out.metric("server.overhead_ms", mean(&overhead_ms));
    out.metric(
        "server.shard_exec.run_ms",
        layer_ms("server.shard_exec.run"),
    );
    out.metric("shard.overhead_ms", mean(&shard_overhead_ms));
    out.metric("cfg.path_query_ms", layer_ms("cfg.path_query"));
    out.metric("smt.blast_ms", layer_ms("smt.blast"));
    out.metric("sat.search_ms", layer_ms("sat.search"));
    out.metric("proof.emit_ms", layer_ms("proof.emit"));
    out.metric("proof.check_ms", layer_ms("proof.check"));
    out.metric("sat.conflicts", counts.conflicts as f64 / n);
    out.metric("sat.propagations", counts.propagations as f64 / n);
    out.metric("proof.steps", counts.proof_steps as f64 / n);
    out.metric("proof.bytes", counts.proof_bytes as f64 / n);
    Ok(())
}

fn record_failures(out: &mut Outcome, workload: &str, failures: &[String]) {
    for f in failures.iter().take(PRINTED_FAILURES) {
        eprintln!("{workload}: failed: {f}");
    }
    out.failed += failures.len() as u64;
}

pub fn run(
    kind: ServeKind,
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let p = plan(kind);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut restarts = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous pass's server before starting over.
        drop(live.take());
        let t = Instant::now();
        let (server, pool, restart_s, failures) = set_up(kind, seed, work)?;
        setups.push(t.elapsed().as_secs_f64());
        restarts.push(restart_s);
        record_failures(&mut out, workload, &failures);
        live = Some((server, pool));
    }
    let (mut server, pool) = live.expect("at least one set-up pass");
    let mut tracer = Tracer::new();
    if traced {
        trace_restart(work, &mut tracer, &mut out)?;
    }

    let total = ((seconds as f64 * p.ops_per_s).round() as usize).max(2 * p.conns);
    let per_conn = total / p.conns;
    let seqs: Vec<Vec<usize>> = (0..p.conns)
        .map(|c| sequence(&pool.jobs, per_conn, seed, 0x100 + c as u64))
        .collect();
    let mut streams = Vec::new();
    if traced {
        // Untraced and traced halves of the same traffic, so their
        // difference is the tracing overhead.
        let (first, second): (Vec<_>, Vec<_>) = seqs
            .iter()
            .map(|s| (s[..s.len() / 2].to_vec(), s[s.len() / 2..].to_vec()))
            .unzip();
        let (hits0, misses0) = cache_stats(server.addr())?;
        let (u_streams, u_wall) = drive(server.addr(), &pool, &first, false)?;
        let (t_streams, t_wall) = drive(server.addr(), &pool, &second, true)?;
        let (hits1, misses1) = cache_stats(server.addr())?;
        out.metric("smt.cache_hits", hits1 - hits0);
        out.metric("smt.cache_misses", misses1 - misses0);
        let lat = |ss: &[Stream]| -> Vec<f64> {
            ss.iter()
                .flat_map(|s| s.latencies_ms.iter().copied())
                .collect()
        };
        let u = LoopStats::from_latencies(&lat(&u_streams), u_wall);
        let t = LoopStats::from_latencies(&lat(&t_streams), t_wall);
        out.overhead(&u, &t);
        let mut ops = Vec::new();
        for (s, seq) in t_streams.iter().zip(&second) {
            for (&(start, end), &k) in s.intervals.iter().zip(seq) {
                ops.push((tracer.record("server.request", None, start, end), k));
            }
        }
        attribute_layers(kind, &pool, &ops, work, &mut tracer, &mut out)?;
        crate::write_trace(&tracer, workload, seed);
        streams.extend(u_streams);
        streams.extend(t_streams);
    } else {
        let (s, wall) = drive(server.addr(), &pool, &seqs, false)?;
        let lat: Vec<f64> = s
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        let classes: Vec<(String, f64)> = s
            .iter()
            .zip(&seqs)
            .flat_map(|(s, seq)| s.latencies_ms.iter().zip(seq))
            .map(|(&ms, &k)| (pool.jobs[k].class.to_string(), ms))
            .collect();
        print_classes(workload, &classes);
        out.metric("setup_s", median(&setups));
        out.metric("restart_s", median(&restarts));
        out.loop_metrics(&LoopStats::from_latencies(&lat, wall));
        out.metric("peak_rss_mb", peak_rss_mb());
        streams = s;
    }
    server.stop();
    drop(server);

    // Correctness, outside the timed window: verdicts were compared to
    // the library references per request; every served certificate is
    // re-checked from its files here.
    let mut checker = CertChecker::default();
    let mut failures = Vec::new();
    for s in &streams {
        out.attempted += s.latencies_ms.len() as u64;
        failures.extend(s.failures.iter().cloned());
        for cert in &s.certificates {
            if let Err(e) = checker.check(cert) {
                failures.push(format!("certificate: {e}"));
            }
        }
    }
    record_failures(&mut out, workload, &failures);
    Ok(out)
}
