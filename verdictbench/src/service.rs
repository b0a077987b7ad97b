//! The server and lease layers, probed in the traced `exhaustive-dpor`
//! run: a closed loop of two clients against `serve --workers 2`, then
//! the lease chain of `serve --distributed` with one lease worker. The
//! daemon runs in this process through `lazylocks_server::serve`; every
//! job goes over its HTTP routes.

use crate::jobs::{self, pass_order, Job, Observed};
use crate::layers::{self, Driven, Layer};
use crate::spans::Open;
use crate::stats::{median, SplitMix64};
use crate::{timed, Ctx, SharedTally, SETUP_REPEATS};
use lazylocks_server::job::scrubbed_result;
use lazylocks_server::{run_slice, serve, Client, ServerConfig, DISTRIBUTED_BODY_CAP};
use lazylocks_trace::{outcome_json, Json};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fixed client poll interval. The smallest job's time to verdict is
/// several milliseconds (see README.md), so this stays below a tenth of it.
pub const POLL: Duration = Duration::from_micros(250);

/// Schedules per lease slice: small enough that every lease-chain job
/// spans at least ten leases (28 308 and 13 824 schedules).
pub const SLICE: usize = 1_000;

/// Lease TTL and unclaimed-grace period. Both far exceed any slice, so the
/// coordinator never reassigns a lease or explores one in-process: the
/// workload measures the worker path only (checked after every run).
const LEASE_TTL_MS: u64 = 60_000;
const LEASE_GRACE_MS: u64 = 60_000;

struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
    dir: PathBuf,
}

fn free_addr() -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    Ok(addr.to_string())
}

fn worker_client(addr: &str) -> Client {
    Client::new(addr).with_body_cap(DISTRIBUTED_BODY_CAP)
}

impl Daemon {
    /// Starts a daemon with a journal and a corpus in a fresh directory and
    /// waits until `/healthz` answers (and, distributed, until a worker's
    /// first claim is answered). Returns the daemon and that set-up time.
    fn start(ctx: &Ctx, distributed: bool, tag: &str) -> Result<(Daemon, f64), String> {
        let dir = ctx.temp_dir(tag);
        let addr = free_addr()?;
        let config = ServerConfig {
            addr: addr.clone(),
            workers: if distributed { 1 } else { 2 },
            corpus_dir: Some(dir.join("corpus")),
            journal: Some(dir.join("journal.jsonl")),
            distributed,
            slice: SLICE,
            lease_ttl_ms: LEASE_TTL_MS,
            grace_ms: LEASE_GRACE_MS,
            ..ServerConfig::default()
        };
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("daemon".to_string())
            .spawn(move || serve(config))
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let client = Client::new(addr.clone());
        loop {
            match client.health() {
                Ok((200, _)) => break,
                _ if handle.is_finished() => {
                    let why = handle.join().map_err(|_| "daemon panicked".to_string())?;
                    return Err(format!("daemon exited during start-up: {why:?}"));
                }
                _ if started.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon did not answer /healthz within 30 s".to_string());
                }
                // Retry at once: a sleep here would make set-up time a
                // measure of the retry interval.
                _ => std::thread::yield_now(),
            }
        }
        if distributed {
            let first = worker_client(&addr).claim_lease("bench-worker")?;
            if first.is_some() {
                return Err("fresh coordinator offered a lease before any job".to_string());
            }
        }
        let setup = started.elapsed().as_secs_f64();
        Ok((Daemon { addr, handle, dir }, setup))
    }

    fn stop(self) -> Result<(), String> {
        Client::new(self.addr.clone()).shutdown()?;
        let result = self
            .handle
            .join()
            .map_err(|_| "daemon panicked".to_string())?;
        std::fs::remove_dir_all(&self.dir).ok();
        result
    }
}

/// `SETUP_REPEATS` daemon set-ups, each timed, in seconds.
fn measure_setup(ctx: &Ctx) -> Result<Vec<f64>, String> {
    (0..SETUP_REPEATS)
        .map(|i| {
            // Building the job mix, parsing included, is part of set-up.
            let (parsed, build) = timed(|| {
                jobs::fixed_jobs(&ctx.workload)
                    .iter()
                    .try_for_each(|job| lazylocks_model::Program::parse(&job.source).map(drop))
            });
            parsed.map_err(|e| e.to_string())?;
            let (daemon, secs) = Daemon::start(ctx, false, &format!("setup{i}"))?;
            daemon.stop()?;
            Ok(build.as_secs_f64() + secs)
        })
        .collect()
}

/// The fields a result must share with the in-process run of the same
/// job, encoded: verdict, strategy, scrubbed stats and reported bugs.
fn comparable(doc: &Json) -> String {
    ["verdict", "strategy", "stats", "bugs"]
        .iter()
        .map(|k| doc.get(k).map(Json::encode).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("|")
}

fn reference_doc(job: &Job, driven: &Driven) -> String {
    let (r, _) = driven;
    let doc = outcome_json(
        job.program.name(),
        &job.spec,
        &r.outcome,
        &r.bugs,
        job.minimize,
        &[],
    );
    comparable(&scrubbed_result(doc))
}

fn observed_from(doc: &Json) -> Result<Observed, String> {
    let stats = doc.get("stats").ok_or("result without stats")?;
    let n = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("stats without {k}"))
    };
    Ok(Observed {
        verdict: doc
            .get("verdict")
            .and_then(Json::as_str)
            .ok_or("result without verdict")?
            .to_string(),
        schedules: n("schedules")?,
        states: n("unique_states")?,
        hbrs: n("unique_hbrs")?,
        lazy_hbrs: n("unique_lazy_hbrs")?,
    })
}

/// Client-side timings of the server layer.
#[derive(Default)]
struct ServerProbe {
    submit_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    wasted_polls: u64,
    jobs: u64,
    /// `(job id, time to verdict in ms)` of every job.
    latency_ms: Vec<(usize, f64)>,
}

/// One job over HTTP: submit, then poll at the fixed interval until the
/// job is terminal. Gates the result and records its timings.
#[allow(clippy::too_many_arguments)]
fn submit_and_wait(
    ctx: &Ctx,
    client: &Client,
    job: &Job,
    reference: &str,
    tally: &SharedTally,
    probe: &Mutex<ServerProbe>,
    parent: Option<u64>,
    traced: bool,
) {
    let spans = &ctx.spans;
    let span =
        |name, p: Option<u64>| traced.then(|| spans.open(name, "server", p, Some(job.id as u64)));
    let close = |s: Option<Open>| {
        if let Some(s) = s {
            spans.close(s);
        }
    };
    let job_span = traced.then(|| spans.open("job", "bench", parent, Some(job.id as u64)));
    let job_parent = job_span.and_then(|s| s.id());
    let body = Json::obj([
        ("program", Json::Str(job.source.clone())),
        ("spec", Json::Str(job.spec.clone())),
        ("limit", Json::Int(job.limit as i128)),
        ("seed", Json::Int(i128::from(crate::inproc::JOB_SEED))),
        ("minimize", Json::Bool(job.minimize)),
    ]);
    let start = Instant::now();
    let s = span("submit", job_parent);
    let submitted = client.submit(&body);
    close(s);
    let submit_ms = start.elapsed().as_secs_f64() * 1e3;
    let (mut polls, mut queue_wait) = (0u64, None);
    let outcome: Result<Json, String> = submitted.and_then(|id| loop {
        let s = span("poll", job_parent);
        let polled = client.job(id);
        close(s);
        let (status, detail) = polled?;
        if status != 200 {
            break Err(format!("GET /jobs/{id} answered {status}"));
        }
        let state = detail
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if queue_wait.is_none() && state != "queued" {
            queue_wait = Some(start.elapsed().as_secs_f64() * 1e3);
        }
        match state.as_str() {
            "done" => break Ok(detail),
            "failed" | "cancelled" => {
                break Err(format!(
                    "job {state}: {}",
                    detail.get("error").and_then(Json::as_str).unwrap_or("")
                ))
            }
            _ => {
                polls += 1;
                std::thread::sleep(POLL);
            }
        }
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    close(job_span);

    let observed = outcome.and_then(|detail| {
        let result = detail.get("result").ok_or("done job without result")?;
        let got = comparable(result);
        if got != reference {
            return Err(format!(
                "scrubbed result differs from the in-process run:\n    server:     {got}\n    in-process: {reference}"
            ));
        }
        observed_from(result)
    });
    tally.lock().unwrap().record(job, observed, ms);
    let mut p = probe.lock().unwrap();
    p.submit_ms.push(submit_ms);
    p.queue_wait_ms.extend(queue_wait);
    p.wasted_polls += polls;
    p.jobs += 1;
    p.latency_ms.push((job.id, ms));
}

/// One pass: the seed-shuffled order is dealt to the two clients
/// alternately, so the seed decides both the order and the assignment.
/// Returns the pass's wall time.
#[allow(clippy::too_many_arguments)]
fn service_pass(
    ctx: &Ctx,
    clients: &[Client; 2],
    jobs: &[Job],
    docs: &[String],
    order: &[usize],
    tally: &SharedTally,
    probe: &Mutex<ServerProbe>,
    span: Option<Open>,
) -> f64 {
    let parent = span.and_then(|s| s.id());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, client) in clients.iter().enumerate() {
            scope.spawn(move || {
                for &i in order.iter().skip(c).step_by(2) {
                    submit_and_wait(
                        ctx,
                        client,
                        &jobs[i],
                        &docs[i],
                        tally,
                        probe,
                        parent,
                        span.is_some(),
                    );
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Passes of the service mix in the traced run.
const SERVICE_PASSES: usize = 25;

/// The server and lease layers, measured in the traced `exhaustive-dpor`
/// run: daemon set-up, then `SERVICE_PASSES` passes of the service mix by
/// two closed-loop clients against `serve --workers 2` (journal and corpus
/// in a scratch directory), then the lease chain. Every job is gated
/// like the workload's own.
pub fn service_probe(ctx: &Ctx, tally: &SharedTally, layer: &mut Layer) -> Result<(), String> {
    let setups = measure_setup(ctx)?;
    layer.insert("server.setup_ms", median(&setups) * 1e3);

    // Span job ids of the probe start here, clear of the workload's own.
    let first_id = 1000;
    let mut jobs = jobs::fixed_jobs("service-jobs");
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = first_id + i;
    }
    let references = layers::reference_drives(ctx, &jobs)?;
    let docs: Vec<String> = jobs
        .iter()
        .zip(&references)
        .map(|(job, r)| reference_doc(job, r))
        .collect();
    let (daemon, _) = Daemon::start(ctx, false, "serve")?;
    let probe = Mutex::new(ServerProbe::default());
    let clients = [
        Client::new(daemon.addr.clone()),
        Client::new(daemon.addr.clone()),
    ];

    let mut rng = SplitMix64::new(ctx.seed);
    let warm = SharedTally::default();
    service_pass(
        ctx,
        &clients,
        &jobs,
        &docs,
        &pass_order(jobs.len(), &mut rng),
        &warm,
        &probe,
        None,
    );
    tally.lock().unwrap().absorb_gate(&warm.lock().unwrap());
    let mut walls = Vec::new();
    let job_ms = SharedTally::default();
    for _ in 0..SERVICE_PASSES {
        let order = pass_order(jobs.len(), &mut rng);
        let span = ctx.spans.open("service-pass", "bench", None, None);
        walls.push(service_pass(
            ctx,
            &clients,
            &jobs,
            &docs,
            &order,
            &job_ms,
            &probe,
            Some(span),
        ));
        ctx.spans.close(span);
    }
    daemon.stop()?;
    let job_ms = job_ms.lock().unwrap();
    tally.lock().unwrap().absorb_gate(&job_ms);

    layer.insert("bench.service_passes", SERVICE_PASSES as f64);
    layer.insert("server.mix_s", median(&walls));
    layer.insert("server.job_ms_p50", median(&job_ms.job_ms));
    layer.insert(
        "server.job_ms_tail",
        crate::stats::quantile(&job_ms.job_ms, crate::stats::JOB_TAIL_Q),
    );
    let probe = probe.into_inner().unwrap();
    layer.insert("server.submit_ms", median(&probe.submit_ms));
    layer.insert("server.queue_wait_ms", median(&probe.queue_wait_ms));
    layer.insert(
        "server.polls_per_job",
        probe.wasted_polls as f64 / probe.jobs.max(1) as f64,
    );
    let overhead: Vec<f64> = probe
        .latency_ms
        .iter()
        .map(|&(id, ms)| ms - references[id - first_id].1.as_secs_f64() * 1e3)
        .collect();
    layer.insert("server.job_overhead_ms", median(&overhead));
    lease_probe(ctx, tally, first_id + jobs.len(), layer)
}

/// Worker-side timings of the lease layer.
#[derive(Default)]
struct LeaseProbe {
    claim_ms: Vec<f64>,
    result_ms: Vec<f64>,
    run_slice_ms: Vec<f64>,
    grant_bytes: Vec<f64>,
    result_bytes: Vec<f64>,
    slices: u64,
    errors: Vec<String>,
}

/// The lease worker: claim, run the slice, upload the result — the
/// protocol of `lazylocks worker`, minus heartbeats (the TTL outlasts any
/// slice here).
fn lease_worker(ctx: &Ctx, addr: &str, stop: &AtomicBool, probe: &Mutex<LeaseProbe>) {
    let client = worker_client(addr);
    let name = "bench-worker";
    while !stop.load(Ordering::SeqCst) {
        let claim_start = Instant::now();
        let grant = match client.claim_lease(name) {
            Ok(Some(grant)) => grant,
            Ok(None) => {
                std::thread::sleep(POLL);
                continue;
            }
            Err(e) => {
                if !stop.load(Ordering::SeqCst) {
                    probe.lock().unwrap().errors.push(format!("claim: {e}"));
                }
                std::thread::sleep(POLL);
                continue;
            }
        };
        let claim_ms = claim_start.elapsed().as_secs_f64() * 1e3;
        let field = |k: &str| grant.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (lease, epoch, job) = (field("lease"), field("epoch"), field("job"));
        let span = ctx.spans.open("run_slice", "lease", None, Some(job));
        let (result, slice_time) = timed(|| run_slice(&grant));
        if let Ok(r) = &result {
            let wall_us = r
                .get("stats")
                .and_then(|s| s.get("wall_time_us"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            ctx.spans
                .derived("explore", "explore", &span, Instant::now(), wall_us * 1000);
        }
        ctx.spans.close(span);
        let mut result = match result {
            Ok(r) => r,
            Err(e) => {
                probe.lock().unwrap().errors.push(format!("run_slice: {e}"));
                continue;
            }
        };
        if let Json::Obj(pairs) = &mut result {
            pairs.push(("epoch".to_string(), Json::Int(epoch as i128)));
            pairs.push(("worker".to_string(), Json::Str(name.to_string())));
        }
        let result_bytes = result.encode().len();
        let span = ctx.spans.open("result", "lease", None, Some(job));
        let (posted, result_time) = timed(|| client.lease_result(lease, &result));
        ctx.spans.close(span);
        let mut p = probe.lock().unwrap();
        match posted {
            Ok((200, _)) => {}
            Ok((status, body)) => p.errors.push(format!("result {status}: {}", body.encode())),
            Err(e) => p.errors.push(format!("result: {e}")),
        }
        p.claim_ms.push(claim_ms);
        p.run_slice_ms.push(slice_time.as_secs_f64() * 1e3);
        p.result_ms.push(result_time.as_secs_f64() * 1e3);
        p.grant_bytes.push(grant.encode().len() as f64);
        p.result_bytes.push(result_bytes as f64);
        p.slices += 1;
    }
}

/// Reads a counter from `GET /metrics?format=json`.
fn daemon_counter(addr: &str, name: &str) -> Result<u64, String> {
    let (status, doc) = Client::new(addr).metrics_json()?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    doc.get("metrics")
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|m| m.get("value").and_then(Json::as_u64))
        .ok_or_else(|| format!("/metrics has no {name}"))
}

/// How many times the traced run sends each lease-chain job through the
/// chain.
const LEASE_ROUNDS: usize = 3;

/// The lease layer, measured after the service probe: a
/// `serve --distributed` coordinator with one lease worker explores the
/// two lease-chain jobs, one at a time, `LEASE_ROUNDS` times each. The
/// results are gated against the in-process runs like every other job.
fn lease_probe(
    ctx: &Ctx,
    tally: &SharedTally,
    first_id: usize,
    layer: &mut Layer,
) -> Result<(), String> {
    let mut jobs = jobs::fixed_jobs("lease-chain");
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = first_id + i;
    }
    let references = layers::reference_drives(ctx, &jobs)?;
    let docs: Vec<String> = jobs
        .iter()
        .zip(&references)
        .map(|(job, r)| reference_doc(job, r))
        .collect();
    let (daemon, _) = Daemon::start(ctx, true, "coordinator")?;
    let stop = AtomicBool::new(false);
    let lease_probe = Mutex::new(LeaseProbe::default());
    let server_probe = Mutex::new(ServerProbe::default());
    let client = Client::new(daemon.addr.clone());
    let mut chain_ms = 0.0;
    let mut local_ms = 0.0;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| lease_worker(ctx, &daemon.addr, &stop, &lease_probe));
        for _ in 0..LEASE_ROUNDS {
            for (i, job) in jobs.iter().enumerate() {
                let (_, took) = timed(|| {
                    submit_and_wait(
                        ctx,
                        &client,
                        job,
                        &docs[i],
                        tally,
                        &server_probe,
                        None,
                        true,
                    )
                });
                chain_ms += took.as_secs_f64() * 1e3;
                local_ms += references[i].1.as_secs_f64() * 1e3;
            }
        }
        stop.store(true, Ordering::SeqCst);
        worker.join().expect("lease worker panicked");
    });
    let inline = daemon_counter(&daemon.addr, "lazylocks_lease_inline_slices_total")?;
    let reassigned = daemon_counter(&daemon.addr, "lazylocks_leases_reassigned_total")?;
    daemon.stop()?;
    let lp = lease_probe.into_inner().unwrap();
    {
        let mut t = tally.lock().unwrap();
        if inline > 0 || reassigned > 0 {
            t.fail(format!(
                "lease chain left the worker path: {inline} inline slice(s), {reassigned} reassignment(s)"
            ));
        }
        for e in &lp.errors {
            t.fail(format!("lease worker: {e}"));
        }
    }
    let jobs_run = (LEASE_ROUNDS * jobs.len()) as f64;
    layer.insert("lease.claim_ms", median(&lp.claim_ms));
    layer.insert("lease.result_ms", median(&lp.result_ms));
    layer.insert("lease.run_slice_ms", median(&lp.run_slice_ms));
    layer.insert("lease.slices_per_job", lp.slices as f64 / jobs_run);
    layer.insert("lease.grant_bytes", median(&lp.grant_bytes));
    layer.insert("lease.result_bytes", median(&lp.result_bytes));
    layer.insert("lease.chain_tax", chain_ms / local_ms.max(1e-9));
    layer.insert("lease.inline_slices", inline as f64);
    layer.insert("lease.reassigned", reassigned as f64);
    Ok(())
}
