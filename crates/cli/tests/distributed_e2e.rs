//! End-to-end tests for distributed exploration: a `lazylocks serve
//! --distributed` coordinator plus real `lazylocks worker` processes on
//! localhost. The suite exercises the robustness headline claims —
//! SIGKILL-mid-lease reassignment, zombie-result fencing, wire-fault
//! retries, token auth, journal single-ownership — and, above all, the
//! determinism contract: the coordinator-leased run produces the same
//! stats, verdict and bugs as the sequential engine at every fleet size
//! and under every crash interleaving.

use lazylocks_server::Client;
use lazylocks_trace::{FaultPlan, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The AB-BA deadlock, as wire-format `.llk` source.
const DEADLOCK: &str = "\
program abba
mutex a
mutex b
thread T1 {
  lock a
  lock b
  unlock b
  unlock a
}
thread T2 {
  lock b
  lock a
  unlock a
  unlock b
}
";

/// Bug-free with a wide state space — enough schedules that a job is
/// reliably mid-lease whenever the test pulls a trigger.
const WIDE: &str = "\
program wide
var x = 0
mutex a
thread T1 {
  lock a
  store x = 1
  unlock a
  lock a
  store x = 1
  unlock a
  lock a
  store x = 1
  unlock a
}
thread T2 {
  lock a
  store x = 2
  unlock a
  lock a
  store x = 2
  unlock a
  lock a
  store x = 2
  unlock a
}
thread T3 {
  lock a
  store x = 3
  unlock a
  lock a
  store x = 3
  unlock a
  lock a
  store x = 3
  unlock a
}
thread T4 {
  lock a
  store x = 4
  unlock a
  lock a
  store x = 4
  unlock a
  lock a
  store x = 4
  unlock a
}
";

/// A running daemon plus the kill-on-drop guard.
struct Daemon {
    child: Child,
    addr: String,
    /// Cleared once the test has shut the daemon down itself.
    armed: bool,
}

impl Daemon {
    /// Spawns `lazylocks serve <extra...>` on an ephemeral port and
    /// waits for the listening line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lazylocks"));
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("2")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn lazylocks serve");
        let stdout = child.stdout.take().expect("captured stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("daemon printed a line")
            .expect("readable stdout");
        let addr = first
            .rsplit(' ')
            .next()
            .expect("listening line ends with the address")
            .to_string();
        assert!(
            first.contains("listening on"),
            "unexpected first line: {first}"
        );
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Daemon {
            child,
            addr,
            armed: true,
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// `POST /shutdown`, then requires the process to exit cleanly.
    fn shutdown_and_join(mut self) {
        let (status, _) = self.client().shutdown().expect("shutdown call");
        assert_eq!(status, 200);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(exit) => {
                    assert!(exit.success(), "daemon exited with {exit}");
                    break;
                }
                None if Instant::now() > deadline => {
                    self.child.kill().ok();
                    panic!("daemon did not drain and exit within 60s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        self.armed = false;
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.armed {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// A `lazylocks worker` process, killed on drop. Workers never exit on
/// their own (absent `--max-slices`), so every test reaps its fleet.
struct Worker {
    child: Child,
}

impl Worker {
    fn spawn(addr: &str, extra: &[&str]) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
            .arg("worker")
            .arg("--addr")
            .arg(addr)
            .arg("--poll-ms")
            .arg("10")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn lazylocks worker");
        let stdout = child.stdout.take().expect("captured stdout");
        std::thread::spawn(
            move || {
                for _ in BufReader::new(stdout).lines().map_while(Result::ok) {}
            },
        );
        Worker { child }
    }

    /// SIGKILL: no drain, no result upload, no goodbye.
    fn kill_nine(&mut self) {
        self.child.kill().expect("kill -9 the worker");
        self.child.wait().expect("reap");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A TCP relay in front of the coordinator that can hold slice uploads.
///
/// Every connection is relayed byte for byte until [`hold`] is armed;
/// from then on a `POST /leases/<id>/result` is accepted but never
/// forwarded or answered. A worker talking through the valve therefore
/// still holds its lease — slice computed, result not delivered — for as
/// long as the test likes, however fast the slice ran.
///
/// [`hold`]: UploadValve::hold
struct UploadValve {
    addr: String,
    holding: Arc<AtomicBool>,
    held: Arc<Mutex<Vec<TcpStream>>>,
}

impl UploadValve {
    fn spawn(upstream: &str) -> UploadValve {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the valve");
        let addr = listener.local_addr().expect("valve address").to_string();
        let holding = Arc::new(AtomicBool::new(false));
        let held = Arc::new(Mutex::new(Vec::new()));
        let upstream = upstream.to_string();
        {
            let (holding, held) = (holding.clone(), held.clone());
            std::thread::spawn(move || {
                for conn in listener.incoming().map_while(Result::ok) {
                    let (upstream, holding, held) =
                        (upstream.clone(), holding.clone(), held.clone());
                    std::thread::spawn(move || relay(conn, &upstream, &holding, &held));
                }
            });
        }
        UploadValve {
            addr,
            holding,
            held,
        }
    }

    /// From now on, slice uploads are swallowed.
    fn hold(&self) {
        self.holding.store(true, Ordering::SeqCst);
    }

    /// Uploads swallowed so far.
    fn held(&self) -> usize {
        self.held.lock().unwrap().len()
    }
}

/// Relays one `Connection: close` exchange, or parks it if it is a held
/// slice upload.
fn relay(mut conn: TcpStream, upstream: &str, holding: &AtomicBool, held: &Mutex<Vec<TcpStream>>) {
    // Read at least the request line; whatever else arrived is forwarded.
    let mut head = Vec::new();
    let mut chunk = [0u8; 4096];
    while !head.windows(2).any(|w| w == b"\r\n") {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    let line = String::from_utf8_lossy(&head);
    let line = line.lines().next().unwrap_or("");
    if holding.load(Ordering::SeqCst)
        && line.starts_with("POST /leases/")
        && line.contains("/result ")
    {
        held.lock().unwrap().push(conn);
        return;
    }
    let Ok(mut up) = TcpStream::connect(upstream) else {
        return;
    };
    if up.write_all(&head).is_err() {
        return;
    }
    let (mut conn_in, mut up_out) = (conn.try_clone().unwrap(), up.try_clone().unwrap());
    std::thread::spawn(move || {
        std::io::copy(&mut conn_in, &mut up_out).ok();
        up_out.shutdown(Shutdown::Write).ok();
    });
    std::io::copy(&mut up, &mut conn).ok();
    conn.shutdown(Shutdown::Both).ok();
}

fn job_body(program: &str, spec: &str, limit: usize) -> Json {
    Json::obj([
        ("program", Json::Str(program.to_string())),
        ("spec", Json::Str(spec.to_string())),
        ("limit", Json::Int(limit as i128)),
        ("seed", Json::Int(7)),
        ("stop_on_bug", Json::Bool(false)),
        ("minimize", Json::Bool(false)),
    ])
}

/// Reads one counter from `GET /metrics?format=json` by family name.
fn counter(client: &Client, name: &str) -> u64 {
    let (status, doc) = client.metrics_json().expect("metrics");
    assert_eq!(status, 200);
    doc.get("metrics")
        .and_then(Json::as_arr)
        .and_then(|metrics| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Polls `predicate` until it holds or the deadline passes.
fn wait_until(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The determinism-relevant projection of a result document: verdict,
/// stats and bugs. (Whole-document comparison is only meaningful between
/// two *distributed* runs — sequential documents additionally embed
/// process-local metrics/profile sections that a split run cannot
/// reproduce.)
fn projection(detail: &Json) -> (String, String, String) {
    let result = detail.get("result").expect("result document");
    (
        result
            .get("verdict")
            .and_then(Json::as_str)
            .expect("verdict")
            .to_string(),
        result.get("stats").expect("stats").encode(),
        result
            .get("bugs")
            .map(Json::encode)
            .unwrap_or_else(|| "[]".to_string()),
    )
}

/// Plays a worker in-process: claims leases, runs slices via the same
/// [`lazylocks_server::run_slice`] the real worker binary uses, and
/// uploads epoch-stamped results until the job reaches a terminal state.
fn drive_job(client: &Client, job: u64, worker: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "drive_job({job}) made no terminal progress"
        );
        if let Some(grant) = client.claim_lease(worker).expect("claim") {
            let lease = grant.get("lease").and_then(Json::as_u64).expect("lease id");
            let epoch = grant.get("epoch").and_then(Json::as_u64).expect("epoch");
            let mut result = lazylocks_server::run_slice(&grant).expect("run slice");
            stamp(&mut result, epoch, worker);
            let (status, _) = client.lease_result(lease, &result).expect("upload");
            assert!(status == 200 || status == 409, "unexpected status {status}");
            continue;
        }
        let (status, detail) = client.job(job).expect("job detail");
        assert_eq!(status, 200);
        match detail.get("state").and_then(Json::as_str) {
            Some("done") | Some("cancelled") | Some("failed") => return detail,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Adds the fencing fields a worker stamps onto a slice result.
fn stamp(result: &mut Json, epoch: u64, worker: &str) {
    if let Json::Obj(pairs) = result {
        pairs.push(("epoch".to_string(), Json::Int(epoch as i128)));
        pairs.push(("worker".to_string(), Json::Str(worker.to_string())));
    }
}

/// With no workers at all, the coordinator's grace takeover explores
/// every lease in-process — a job always terminates — and the sliced
/// run is stat-identical to the sequential engine, for both sleep modes.
#[test]
fn zero_workers_degrade_to_inline_slices_that_match_sequential() {
    let sequential = Daemon::spawn(&[]);
    let distributed = Daemon::spawn(&["--distributed", "--slice", "7", "--grace-ms", "25"]);
    for spec in ["dpor(sleep=true)", "dpor(sleep=false)"] {
        let body = job_body(DEADLOCK, spec, 10_000);
        let reference = {
            let client = sequential.client();
            let id = client.submit(&body).expect("sequential submit");
            client.wait(id, Duration::from_millis(10)).expect("wait")
        };
        let distributed_detail = {
            let client = distributed.client();
            let id = client.submit(&body).expect("distributed submit");
            client.wait(id, Duration::from_millis(10)).expect("wait")
        };
        assert_eq!(
            projection(&reference),
            projection(&distributed_detail),
            "spec {spec}: sliced inline exploration diverged from sequential"
        );
    }
    // The degraded path really ran inline: takeovers were metered.
    assert!(counter(&distributed.client(), "lazylocks_lease_inline_slices_total") > 0);
    distributed.shutdown_and_join();
    sequential.shutdown_and_join();
}

/// Fleets of 1, 2 and 4 workers all produce byte-identical result
/// documents, each matching the sequential engine's stats and bugs.
#[test]
fn every_fleet_size_produces_the_identical_document() {
    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000);
    let reference = {
        let sequential = Daemon::spawn(&[]);
        let client = sequential.client();
        let id = client.submit(&body).expect("sequential submit");
        let detail = client.wait(id, Duration::from_millis(10)).expect("wait");
        sequential.shutdown_and_join();
        projection(&detail)
    };

    let mut documents = Vec::new();
    for fleet in [1usize, 2, 4] {
        // A long grace keeps the coordinator from exploring inline: the
        // workers demonstrably did the work.
        let daemon = Daemon::spawn(&["--distributed", "--slice", "9", "--grace-ms", "60000"]);
        let workers: Vec<Worker> = (0..fleet)
            .map(|_| Worker::spawn(&daemon.addr, &[]))
            .collect();
        let client = daemon.client();
        let id = client.submit(&body).expect("submit");
        let detail = client.wait(id, Duration::from_millis(10)).expect("wait");
        assert_eq!(
            projection(&detail),
            reference,
            "fleet of {fleet} diverged from the sequential engine"
        );
        documents.push(detail.get("result").expect("result").encode());
        drop(workers);
        daemon.shutdown_and_join();
    }
    assert_eq!(documents[0], documents[1], "1-worker vs 2-worker document");
    assert_eq!(documents[0], documents[2], "1-worker vs 4-worker document");
}

/// The headline crash claim: SIGKILL a worker mid-lease; the coordinator
/// fences the dead holder's epoch and reassigns, a replacement finishes
/// the job, and the final document is byte-identical to an uninterrupted
/// distributed run of the same body.
#[test]
fn sigkill_mid_lease_reassigns_and_preserves_the_result() {
    // A short TTL so the dead holder is fenced quickly; a long grace so
    // recovery provably flows through worker reassignment, not the
    // coordinator's inline fallback.
    let daemon = Daemon::spawn(&[
        "--distributed",
        "--slice",
        "400",
        "--lease-ttl-ms",
        "300",
        "--grace-ms",
        "60000",
    ]);
    let client = daemon.client();
    let body = job_body(WIDE, "dpor(sleep=true)", 2_000);

    // The victim talks to the coordinator through a valve, so the test
    // decides when it is mid-lease instead of racing its slice.
    let valve = UploadValve::spawn(&daemon.addr);
    let mut victim_of = Worker::spawn(&valve.addr, &[]);

    // The uninterrupted reference, on the same coordinator.
    let reference_id = client.submit(&body).expect("reference submit");
    let reference = client
        .wait(reference_id, Duration::from_millis(10))
        .expect("reference wait");

    // Submit the victim and let the worker claim and compute its first
    // slice; its upload is held, so the lease is still outstanding when
    // the holder dies.
    valve.hold();
    let victim = client.submit(&body).expect("victim submit");
    wait_until("the victim's first slice upload", || valve.held() > 0);
    victim_of.kill_nine();

    // The coordinator notices the silent holder at TTL expiry and fences
    // its epoch.
    wait_until("lease reassignment after the kill", || {
        counter(&client, "lazylocks_leases_reassigned_total") > 0
    });

    // A replacement worker picks the fenced lease up and finishes.
    let _rescuer = Worker::spawn(&daemon.addr, &[]);
    let detail = client
        .wait(victim, Duration::from_millis(10))
        .expect("victim wait");
    assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        counter(&client, "lazylocks_lease_inline_slices_total"),
        0,
        "recovery must flow through a worker, not the inline fallback"
    );
    assert_eq!(
        detail.get("result").expect("result").encode(),
        reference.get("result").expect("result").encode(),
        "the crash-interrupted run must be byte-identical to the uninterrupted one"
    );
    daemon.shutdown_and_join();
}

/// Zombie fencing over the real wire: a worker that went silent past its
/// TTL is fenced; its late upload is rejected 409 by epoch, while the
/// current holder's duplicate upload is acknowledged idempotently.
#[test]
fn zombie_results_are_rejected_and_duplicates_acknowledged() {
    let daemon = Daemon::spawn(&[
        "--distributed",
        "--slice",
        "5",
        "--lease-ttl-ms",
        "150",
        "--grace-ms",
        "60000",
    ]);
    let client = daemon.client();
    let job = client
        .submit(&job_body(DEADLOCK, "dpor(sleep=true)", 10_000))
        .expect("submit");

    // The zombie claims the first lease, computes its slice… and stalls
    // (no renewals) until the coordinator fences it.
    let grant = {
        let mut grant = None;
        wait_until("the first lease offer", || {
            grant = client.claim_lease("zombie").expect("claim");
            grant.is_some()
        });
        grant.unwrap()
    };
    let lease = grant.get("lease").and_then(Json::as_u64).expect("lease id");
    let stale_epoch = grant.get("epoch").and_then(Json::as_u64).expect("epoch");
    let mut late_result = lazylocks_server::run_slice(&grant).expect("zombie slice");
    stamp(&mut late_result, stale_epoch, "zombie");
    wait_until("the zombie to be fenced", || {
        counter(&client, "lazylocks_leases_reassigned_total") > 0
    });

    // A live worker re-claims the same lease under a bumped epoch.
    let regrant = client
        .claim_lease("rescuer")
        .expect("re-claim")
        .expect("the fenced lease is claimable again");
    assert_eq!(
        regrant.get("lease").and_then(Json::as_u64),
        Some(lease),
        "the same subtree is re-offered"
    );
    let epoch = regrant.get("epoch").and_then(Json::as_u64).expect("epoch");
    assert!(epoch > stale_epoch, "reassignment must bump the epoch");

    // The zombie's late upload is fenced out…
    let (status, body) = client.lease_result(lease, &late_result).expect("upload");
    assert_eq!(
        status,
        409,
        "stale-epoch result accepted: {}",
        body.encode()
    );
    let zombies = counter(&client, "lazylocks_lease_zombie_results_total");
    assert!(zombies > 0, "the rejection must be metered");

    // …the rescuer's upload lands, and a resend of the same document is
    // acknowledged as a duplicate without being re-applied.
    let mut result = lazylocks_server::run_slice(&regrant).expect("rescuer slice");
    stamp(&mut result, epoch, "rescuer");
    let (status, ack) = client.lease_result(lease, &result).expect("upload");
    assert_eq!(status, 200);
    assert_eq!(ack.get("accepted").and_then(Json::as_bool), Some(true));
    let (status, ack) = client.lease_result(lease, &result).expect("re-upload");
    assert_eq!(status, 200);
    assert_eq!(ack.get("duplicate").and_then(Json::as_bool), Some(true));

    // Play an honest worker for the rest and land the job.
    let detail = drive_job(&client, job, "rescuer");
    assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        detail
            .get("result")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str),
        Some("bug-found")
    );
    daemon.shutdown_and_join();
}

/// Injected wire faults — a torn request write and a truncated response —
/// are absorbed by the client's classified retries: the lease protocol
/// recovers with no double-applied effect and the job's document still
/// matches a fault-free run.
#[test]
fn wire_faults_on_the_lease_path_are_retried_and_recovered() {
    let daemon = Daemon::spawn(&["--distributed", "--slice", "6", "--grace-ms", "60000"]);
    let plain = daemon.client();
    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000);

    // Fault-free reference, driven by the in-process worker.
    let reference_id = plain.submit(&body).expect("reference submit");
    let reference = drive_job(&plain, reference_id, "steady");

    let faults = FaultPlan::armed();
    let faulty = daemon
        .client()
        .with_retries(4, Duration::from_millis(5))
        .with_faults(faults.clone());
    let job = plain.submit(&body).expect("submit");

    // Torn request write on the claim: the connection drops after a
    // 10-byte prefix; the claim is idempotent, so the client resends.
    let grant = {
        let mut grant = None;
        wait_until("a claim despite the torn write", || {
            faults.truncate_next_write(10);
            grant = faulty
                .claim_lease("flaky")
                .expect("claim survives the tear");
            faults.take_torn_write(); // disarm if the claim won before tearing
            grant.is_some()
        });
        grant.unwrap()
    };
    let lease = grant.get("lease").and_then(Json::as_u64).expect("lease id");
    let epoch = grant.get("epoch").and_then(Json::as_u64).expect("epoch");

    // Truncated response on the result upload: the server applies the
    // result but the 200 is lost mid-read; the resend is acknowledged as
    // a duplicate — applied once, answered twice.
    let mut result = lazylocks_server::run_slice(&grant).expect("slice");
    stamp(&mut result, epoch, "flaky");
    faults.truncate_next_read(3);
    let (status, ack) = faulty
        .lease_result(lease, &result)
        .expect("upload survives the short read");
    assert_eq!(status, 200);
    assert_eq!(ack.get("accepted").and_then(Json::as_bool), Some(true));
    assert!(faults.injected() >= 2, "both faults must actually fire");

    // Finish clean and compare against the fault-free document.
    let detail = drive_job(&plain, job, "steady");
    assert_eq!(
        detail.get("result").expect("result").encode(),
        reference.get("result").expect("result").encode(),
        "wire faults must not change the result document"
    );
    daemon.shutdown_and_join();
}

/// `serve --token` requires the shared secret on every mutating route;
/// reads stay open, the wrong secret is a 401, and a tokened client (and
/// worker) completes the full job lifecycle.
#[test]
fn token_auth_gates_mutating_routes_end_to_end() {
    let daemon = Daemon::spawn(&["--token", "s3cret", "--distributed", "--grace-ms", "25"]);
    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000);

    let anonymous = daemon.client();
    let err = anonymous.submit(&body).expect_err("tokenless submit");
    assert!(err.contains("401"), "{err}");
    let (status, _) = anonymous.health().expect("tokenless read");
    assert_eq!(status, 200, "reads stay open");

    let wrong = daemon.client().with_token(Some("nope".to_string()));
    let err = wrong.submit(&body).expect_err("wrong-token submit");
    assert!(err.contains("401"), "{err}");

    let authed = daemon.client().with_token(Some("s3cret".to_string()));
    let id = authed.submit(&body).expect("authed submit");
    let _worker = Worker::spawn(&daemon.addr, &["--token", "s3cret"]);
    let detail = authed.wait(id, Duration::from_millis(10)).expect("wait");
    assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));

    // Shutdown is mutating too: the anonymous client cannot stop the
    // daemon, the authed one can.
    let (status, _) = anonymous.shutdown().expect("tokenless shutdown");
    assert_eq!(status, 401);
    let mut daemon = daemon;
    daemon.armed = false;
    let (status, _) = authed.shutdown().expect("authed shutdown");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match daemon.child.try_wait().expect("try_wait") {
            Some(exit) => {
                assert!(exit.success(), "daemon exited with {exit}");
                break;
            }
            None if Instant::now() > deadline => {
                daemon.child.kill().ok();
                panic!("daemon did not exit after authed shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// A second `serve --journal` on the same journal fails loudly instead
/// of silently corrupting the shared file.
#[test]
fn a_second_serve_on_the_same_journal_fails_loudly() {
    let dir = std::env::temp_dir().join(format!("lazylocks-dist-e2e-lock-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let journal = dir.join("journal.jsonl");

    let owner = Daemon::spawn(&["--journal", journal.to_str().unwrap()]);

    let mut second = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--journal")
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the contender");
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match second.try_wait().expect("try_wait") {
            Some(exit) => break exit,
            None if Instant::now() > deadline => {
                second.kill().ok();
                second.wait().ok();
                panic!("the second serve neither exited nor failed within 30s");
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(!exit.success(), "the second serve must refuse to start");
    let mut stderr = String::new();
    std::io::Read::read_to_string(second.stderr.as_mut().expect("stderr"), &mut stderr)
        .expect("readable stderr");
    assert!(
        stderr.contains("journal"),
        "the refusal must name the journal: {stderr}"
    );

    owner.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}
