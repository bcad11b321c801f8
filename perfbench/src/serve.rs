//! The `serve` workload: a `streamd` server bound in-process on
//! loopback, 10,000 live `fmradio(4,16)` instances, and one connection
//! driven open loop — a sender thread that writes each request when it
//! is due, whether or not earlier ones were answered, and a receiver
//! thread that times each response from its due time.
//!
//! Phases: a fixed offered rate (latency), then a binary search over a
//! fixed rate ladder for the highest rate whose tail latency stays under
//! the limit (capacity).  Sampled instances, re-opened ones included,
//! are replayed through the reference interpreter afterwards.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use streamit::exec::SessionConfig;
use streamit::{CompiledProgram, Compiler};
use streamit_streamd::server::handle_line;
use streamit_streamd::{Daemon, DaemonConfig, InstanceBudget, Server, ServerConfig};

use crate::stats::{median, percentile, tail_percentile};
use crate::trace;
use crate::util::{self, Rng, Tolerance};
use crate::{Ctx, Outcome};

const APP: &str = "fmradio";
const INSTANCES: usize = 10_000;
/// Items offered per `XFER`, and the most outputs it may drain.
const BATCH: usize = 32;
const MAX_OUT: usize = 128;
/// Per-instance staging rings, in items.
const BUFFER: u64 = 64;
/// One request in this many is a `CLOSE` + `OPEN` churn pair.
const CHURN_EVERY: u64 = 64;
/// Instances whose every exchange is kept for the reference replay:
/// slots that are multiples of this.
const SAMPLE_EVERY: usize = 157;
/// Offered rate of the latency phase, requests/s.
const FIXED_RATE: f64 = 1000.0;
/// Tail latency a ladder step may not exceed, ms.
const LATENCY_LIMIT_MS: f64 = 20.0;
/// The capacity ladder: `LADDER_BASE * LADDER_STEP^i`, i < `LADDER_LEN`.
const LADDER_BASE: f64 = 250.0;
const LADDER_STEP: f64 = 1.03;
const LADDER_LEN: usize = 160;
/// A probe's backlog grows when the mean number of requests in flight
/// over its last quarter exceeds the first quarter's by more than this
/// share of the probe's requests.
const BACKLOG_GROWTH_LIMIT: f64 = 0.01;
/// Length of one capacity probe, s.
const PROBE_S: f64 = 0.5;

fn ladder(i: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i as i32)
}

fn program() -> Result<CompiledProgram, String> {
    Compiler::default()
        .compile_stream(streamit::apps::fmradio::fmradio(4, 16))
        .map_err(|e| e.to_string())
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        max_instances: INSTANCES,
        budget: InstanceBudget {
            in_capacity: BUFFER,
            out_capacity: BUFFER,
            ..InstanceBudget::default()
        },
        stall_ms: None,
    }
}

/// A running server with every instance open, and the client's side of
/// its one connection.
struct Serving {
    shutdown: Arc<AtomicBool>,
    server: std::thread::JoinHandle<()>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    /// Instance id per slot.
    ids: Vec<u64>,
    rss_per_instance_kib: f64,
}

impl Serving {
    fn stop(self) {
        let Serving {
            shutdown,
            server,
            mut conn,
            reader,
            ..
        } = self;
        let _ = conn.write_all(b"QUIT\n");
        drop(reader);
        drop(conn);
        shutdown.store(true, Ordering::SeqCst);
        if server.join().is_err() {
            eprintln!("serve: server thread panicked");
        }
    }
}

fn read_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(line),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// `OK <id> ...` → id.
fn parse_open(line: &str) -> Result<u64, String> {
    line.strip_prefix("OK ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("OPEN answered `{}`", line.trim_end()))
}

/// Compile, register, bind, serve, and open every instance over the
/// wire; then check that one more `OPEN` is refused with `E0801`.
fn start(out: &mut Outcome) -> Result<Serving, String> {
    let mut daemon = Daemon::new(daemon_config());
    daemon
        .add_program(APP, &program()?)
        .map_err(|d| d.to_string())?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // The server's defaults: loopback on an ephemeral port, no metrics
    // endpoint, 100 ms read polls.
    let server = Server::bind(
        Arc::new(daemon),
        ServerConfig::default(),
        Arc::clone(&shutdown),
    )
    .map_err(|d| d.to_string())?;
    let addr = server.local_addr();
    let handle = std::thread::Builder::new()
        .name("streamd-server".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    let connected = TcpStream::connect(&addr).and_then(|c| {
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(Duration::from_secs(10)))?;
        let r = c.try_clone()?;
        Ok((c, BufReader::new(r)))
    });
    let (mut conn, mut reader) = match connected {
        Ok(c) => c,
        Err(e) => {
            shutdown.store(true, Ordering::SeqCst);
            let _ = handle.join();
            return Err(format!("connect {addr}: {e}"));
        }
    };
    let rss0 = util::rss_kib();
    let mut ids = Vec::with_capacity(INSTANCES);
    let mut opened = Ok(());
    // Pipelined in batches: the set-up measures opening, not round trips.
    for chunk in (0..INSTANCES).collect::<Vec<_>>().chunks(256) {
        let req = format!("OPEN {APP}\n").repeat(chunk.len());
        if let Err(e) = conn.write_all(req.as_bytes()) {
            opened = Err(format!("write: {e}"));
            break;
        }
        for _ in chunk {
            match read_line(&mut reader).and_then(|l| parse_open(&l)) {
                Ok(id) => ids.push(id),
                Err(e) => opened = Err(e),
            }
        }
    }
    out.attempted += INSTANCES as u64;
    let rss_per_instance_kib = (util::rss_kib().saturating_sub(rss0)) as f64 / INSTANCES as f64;
    let refused = conn
        .write_all(format!("OPEN {APP}\n").as_bytes())
        .map_err(|e| e.to_string())
        .and_then(|_| read_line(&mut reader));
    let serving = Serving {
        shutdown,
        server: handle,
        conn,
        reader,
        ids,
        rss_per_instance_kib,
    };
    match (opened, refused) {
        (Ok(()), Ok(line)) if line.starts_with("ERR E0801") => {
            out.expected_refusals += 1;
            Ok(serving)
        }
        (Ok(()), Ok(line)) => {
            serving.stop();
            Err(format!(
                "OPEN past the {INSTANCES}-instance limit answered `{}`, not E0801",
                line.trim_end()
            ))
        }
        (Err(e), _) | (_, Err(e)) => {
            serving.stop();
            Err(e)
        }
    }
}

/// One `XFER` of a sampled instance: the offered batch, how many of its
/// items were accepted, and the outputs returned.
type Exchange = (Vec<f64>, usize, Vec<f64>);

/// The seeded traffic: which slot each request targets, whether it
/// churns, and every instance's input stream.
struct World {
    seed: u64,
    /// Generation (re-open count) per slot.
    gen: Vec<u64>,
    /// Input stream per slot's current instance.
    streams: Vec<Rng>,
    /// Every exchange of each sampled instance, by instance id.
    sampled: BTreeMap<u64, Vec<Exchange>>,
    picks: Rng,
}

impl World {
    fn new(seed: u64) -> World {
        World {
            seed,
            gen: vec![0; INSTANCES],
            streams: (0..INSTANCES)
                .map(|s| Rng::lane(seed, 1 + s as u64))
                .collect(),
            sampled: BTreeMap::new(),
            picks: Rng::lane(seed, 0),
        }
    }

    /// The next `n` requests.
    fn schedule(&mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let slot = self.picks.below(INSTANCES as u64) as usize;
                if self.picks.below(CHURN_EVERY) == 0 {
                    self.gen[slot] += 1;
                    let lane = 1 + slot as u64 + (self.gen[slot] << 32);
                    self.streams[slot] = Rng::lane(self.seed, lane);
                    Req::Churn { slot }
                } else {
                    let items = util::float_input(&mut self.streams[slot], BATCH);
                    let mut text = format!(" {MAX_OUT}");
                    for v in &items {
                        let _ = write!(text, " {v}");
                    }
                    text.push('\n');
                    Req::Xfer { slot, items, text }
                }
            })
            .collect()
    }
}

enum Req {
    Xfer {
        slot: usize,
        items: Vec<f64>,
        /// The line after `XFER <id>`.
        text: String,
    },
    Churn {
        slot: usize,
    },
}

/// What the receiver learned about one request.
struct Answer {
    seq: usize,
    /// The instance the request went to.
    id: u64,
    latency_s: f64,
    late_s: f64,
    accepted: usize,
    offered: usize,
    outputs: Option<Vec<f64>>,
}

/// One open-loop phase's results.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    accepted: u64,
    offered: u64,
    backlog_growth: f64,
    errors: Vec<String>,
    requests: u64,
    /// CPU time of the server's threads during the phase.
    server_cpu_s: f64,
    /// The sender stopped early with too many requests unanswered.
    aborted: bool,
}

impl Phase {
    fn tail_ms(&self) -> (f64, f64) {
        let p = tail_percentile(self.latencies_ms.len());
        (p, percentile(&self.latencies_ms, p))
    }

    fn passes(&self) -> bool {
        self.errors.is_empty()
            && !self.aborted
            && !self.latencies_ms.is_empty()
            && self.tail_ms().1 <= LATENCY_LIMIT_MS
            && self.backlog_growth <= BACKLOG_GROWTH_LIMIT * self.requests as f64
    }
}

/// Sent by the sender before each request is written.
struct Sent {
    seq: usize,
    /// The instance an `XFER` went to (0 for a churn pair).
    id: u64,
    due: Instant,
    sent: Instant,
    churn: bool,
}

/// Drive `reqs` at `rate` requests/s over the serving connection: two
/// threads (within the thread cap), one connection.
/// With `max_in_flight`, the sender stops early once more requests
/// than that are unanswered: the phase has then failed, since the
/// newest of them cannot be answered within the latency limit.
fn drive(
    sv: &mut Serving,
    world: &mut World,
    reqs: Vec<Req>,
    rate: f64,
    max_in_flight: Option<u64>,
) -> Phase {
    let n = reqs.len();
    let ids: Vec<AtomicU64> = sv.ids.iter().map(|&id| AtomicU64::new(id)).collect();
    let received = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut writer = match sv.conn.try_clone() {
        Ok(w) => w,
        Err(e) => {
            return Phase {
                errors: vec![format!("clone connection: {e}")],
                ..Phase::default()
            }
        }
    };
    let reader = &mut sv.reader;
    let start = Instant::now() + Duration::from_millis(2);
    let period = 1.0 / rate;
    let (cpu0, sender0) = (util::process_cpu_s(), util::thread_cpu_s());
    let (answers, backlog, send_err, receiver_cpu, aborted) = std::thread::scope(|scope| {
        let ids = &ids;
        let received = &received;
        let reqs = &reqs;
        let receiver = scope.spawn(move || {
            let cpu0 = util::thread_cpu_s();
            let mut answers = Vec::with_capacity(n);
            let mut errors = Vec::new();
            for s in rx {
                let mut check = |r: Result<String, String>| -> Option<String> {
                    match r {
                        Ok(l) if l.starts_with("OK") => Some(l),
                        Ok(l) => {
                            errors.push(format!("request {}: `{}`", s.seq, l.trim_end()));
                            None
                        }
                        Err(e) => {
                            errors.push(format!("request {}: {e}", s.seq));
                            None
                        }
                    }
                };
                if s.churn {
                    let _closed = check(read_line(reader));
                    if let Some(l) = check(read_line(reader)) {
                        if let (Req::Churn { slot }, Ok(id)) = (&reqs[s.seq], parse_open(&l)) {
                            ids[*slot].store(id, Ordering::SeqCst);
                        }
                    }
                } else if let Some(line) = check(read_line(reader)) {
                    let now = Instant::now();
                    let Req::Xfer { slot, items, .. } = &reqs[s.seq] else {
                        unreachable!("non-churn request is an XFER");
                    };
                    let mut toks = line.split_whitespace().skip(1);
                    let accepted: usize = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                    let outputs = (slot % SAMPLE_EVERY == 0).then(|| {
                        toks.skip(2)
                            .filter_map(|t| t.parse::<f64>().ok())
                            .collect::<Vec<f64>>()
                    });
                    let latency_s = now.duration_since(s.due).as_secs_f64();
                    if trace::enabled() {
                        let end = trace::now_ns();
                        let start = end.saturating_sub(now.duration_since(s.due).as_nanos() as u64);
                        trace::record("net.request", s.seq as u64, start, end);
                    }
                    answers.push(Answer {
                        seq: s.seq,
                        id: s.id,
                        latency_s,
                        late_s: s.sent.duration_since(s.due).as_secs_f64(),
                        accepted,
                        offered: items.len(),
                        outputs,
                    });
                }
                received.fetch_add(1, Ordering::SeqCst);
            }
            (answers, errors, util::thread_cpu_s() - cpu0)
        });
        // The sender: this thread.
        let mut backlog = Vec::with_capacity(n);
        let mut send_err = None;
        let mut aborted = false;
        let mut line = String::with_capacity(1024);
        for (seq, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(seq as f64 * period);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                // Sleep most of a long wait; yield (not spin) through the
                // rest, so the server and receiver keep their cores.
                let wait = due - now;
                if wait > Duration::from_micros(200) {
                    std::thread::sleep(wait - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
            }
            line.clear();
            let (churn, sent_id) = match req {
                Req::Xfer { slot, text, .. } => {
                    // A slot re-opened by an earlier churn pair gets
                    // its id from the receiver; wait for it.
                    let mut id = ids[*slot].load(Ordering::SeqCst);
                    let wait_from = Instant::now();
                    while id == 0 && wait_from.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                        id = ids[*slot].load(Ordering::SeqCst);
                    }
                    let _ = write!(line, "XFER {id}");
                    line.push_str(text);
                    (false, id)
                }
                Req::Churn { slot } => {
                    let mut id = ids[*slot].swap(0, Ordering::SeqCst);
                    let wait_from = Instant::now();
                    while id == 0 && wait_from.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                        id = ids[*slot].swap(0, Ordering::SeqCst);
                    }
                    let _ = write!(line, "CLOSE {id}\nOPEN {APP}\n");
                    (true, 0)
                }
            };
            let sent = Instant::now();
            if tx
                .send(Sent {
                    seq,
                    id: sent_id,
                    due,
                    sent,
                    churn,
                })
                .is_err()
            {
                send_err = Some("receiver stopped".to_string());
                break;
            }
            if let Err(e) = writer.write_all(line.as_bytes()) {
                send_err = Some(format!("write: {e}"));
                break;
            }
            let in_flight = (seq as u64 + 1).saturating_sub(received.load(Ordering::SeqCst));
            backlog.push(in_flight as f64);
            if max_in_flight.is_some_and(|m| in_flight > m) {
                aborted = true;
                break;
            }
        }
        drop(tx);
        let (answers, errors, receiver_cpu) = receiver
            .join()
            .unwrap_or_else(|_| (Vec::new(), vec!["receiver panicked".into()], 0.0));
        (
            answers,
            backlog,
            send_err.into_iter().chain(errors).collect::<Vec<_>>(),
            receiver_cpu,
            aborted,
        )
    });
    // Everything the process ran meanwhile, less the load generator's
    // two threads, is the server's.
    let server_cpu_s =
        util::process_cpu_s() - cpu0 - (util::thread_cpu_s() - sender0) - receiver_cpu;
    for (slot, id) in ids.iter().enumerate() {
        sv.ids[slot] = id.load(Ordering::SeqCst);
    }
    let mut phase = Phase {
        errors: send_err,
        requests: backlog.len() as u64,
        server_cpu_s,
        aborted,
        ..Phase::default()
    };
    let q = backlog.len() / 4;
    if q > 0 {
        let first: f64 = backlog[..q].iter().sum::<f64>() / q as f64;
        let last: f64 = backlog[backlog.len() - q..].iter().sum::<f64>() / q as f64;
        phase.backlog_growth = last - first;
    }
    for a in answers {
        phase.latencies_ms.push(a.latency_s * 1e3);
        phase.late_ms.push(a.late_s * 1e3);
        phase.accepted += a.accepted as u64;
        phase.offered += a.offered as u64;
        if let (Req::Xfer { items, .. }, Some(outs)) = (&reqs[a.seq], a.outputs) {
            world
                .sampled
                .entry(a.id)
                .or_default()
                .push((items.clone(), a.accepted, outs));
        }
    }
    phase
}

fn record_phase(p: &Phase, out: &mut Outcome) {
    out.attempted += p.requests;
    out.failed += p.errors.len() as u64;
    for e in p.errors.iter().take(20) {
        eprintln!("FAIL: serve {e}");
        out.details.push(format!("FAIL serve {e}"));
    }
}

/// Replay every sampled instance's accepted input through the
/// reference interpreter; its outputs must match bit for bit.
fn check_sampled(world: &World, initial_ids: &[u64], out: &mut Outcome) {
    let program = match program() {
        Ok(p) => p,
        Err(e) => {
            out.check(Err(e));
            return;
        }
    };
    let mut reopened = 0;
    for (id, exchanges) in &world.sampled {
        let input: Vec<f64> = exchanges
            .iter()
            .flat_map(|(b, acc, _)| b[..*acc].iter().copied())
            .collect();
        let got: Vec<f64> = exchanges
            .iter()
            .flat_map(|(_, _, o)| o.iter().copied())
            .collect();
        if !initial_ids.contains(id) {
            reopened += 1;
        }
        if got.is_empty() {
            continue;
        }
        out.check(
            program
                .run(&input, got.len())
                .map_err(|e| e.to_string())
                .and_then(|want| {
                    util::compare(&format!("instance {id}"), Tolerance::Bit, &got, &want)
                }),
        );
    }
    out.detail(format!(
        "reference replay: {} sampled instances ({reopened} re-opened)",
        world.sampled.len()
    ));
}

/// Load-generation threads: one sender, one receiver, on one
/// connection.
const LOAD_THREADS: usize = 2;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if LOAD_THREADS > util::thread_cap() {
        out.check(Err(format!(
            "serve needs {LOAD_THREADS} load threads; this host allows {}",
            util::thread_cap()
        )));
        return out;
    }
    out.detail(format!(
        "load: {LOAD_THREADS} threads, 1 connection (cap {})",
        util::thread_cap()
    ));
    // One set-up per run: it already repeats within about 1%, and a
    // second one can leave the first one's pages resident in another
    // allocator arena, doubling the peak RSS it would report.
    let t0 = Instant::now();
    let mut sv = match start(&mut out) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    out.set("setup_s", t0.elapsed().as_secs_f64());
    out.set("streamd.rss_kib_per_instance", sv.rss_per_instance_kib);
    let mut world = World::new(ctx.seed);
    let initial_ids = sv.ids.clone();

    // Fixed-rate latency phase: the whole run, or a quarter of a
    // traced one (the untraced baseline for the tracing overhead).
    let fixed_s = if ctx.trace {
        ctx.seconds / 4.0
    } else {
        ctx.seconds
    };
    let reqs = world.schedule((FIXED_RATE * fixed_s) as usize);
    let fixed = drive(&mut sv, &mut world, reqs, FIXED_RATE, None);
    record_phase(&fixed, &mut out);
    let (tp, tail) = fixed.tail_ms();
    let p50 = median(&fixed.latencies_ms);
    let per_cpu_s = fixed.requests as f64 / fixed.server_cpu_s;
    out.set("p50_ms", p50);
    out.set("tail_ms", tail);
    out.set("throughput", per_cpu_s);
    out.set(
        "streamd.accept_ratio",
        fixed.accepted as f64 / fixed.offered.max(1) as f64,
    );
    out.set("serve.generator_late_ms", percentile(&fixed.late_ms, 99.0));
    out.set("serve.backlog_growth", fixed.backlog_growth);
    out.detail(format!(
        "fixed {FIXED_RATE} req/s: {} requests, p50 {p50:.4} ms, p{tp} {tail:.4} ms, \
         {per_cpu_s:.0} requests per server CPU-second, generator p50 late {:.4} ms, \
         p99 late {:.4} ms, backlog growth {:.2}",
        fixed.requests,
        median(&fixed.late_ms),
        percentile(&fixed.late_ms, 99.0),
        fixed.backlog_growth
    ));

    if ctx.trace {
        trace::set_enabled(true);
        let reqs = world.schedule((FIXED_RATE * fixed_s) as usize);
        let traced = drive(&mut sv, &mut world, reqs, FIXED_RATE, None);
        trace::set_enabled(false);
        record_phase(&traced, &mut out);
        let traced_p50 = median(&traced.latencies_ms);
        out.set("trace.overhead", traced_p50 / p50 - 1.0);
        let capacity = capacity(&mut sv, &mut world, &mut out);
        out.set("serve.capacity_rps", capacity);
        sv.stop();
        check_sampled(&world, &initial_ids, &mut out);
        replay(ctx, traced_p50 * 1e3, &mut out);
        return out;
    }
    sv.stop();
    check_sampled(&world, &initial_ids, &mut out);
    out
}

/// The highest ladder rate that passes ([`Phase::passes`]), by binary
/// search (`lo` passes, `hi` fails).
fn capacity(sv: &mut Serving, world: &mut World, out: &mut Outcome) -> f64 {
    let (mut lo, mut hi) = (-1i64, LADDER_LEN as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = ladder(mid as usize);
        // A step fails only when a second probe confirms the first: one
        // scheduling stall of the host must not end the search.
        let mut passed = false;
        for _ in 0..2 {
            let reqs = world.schedule(((rate * PROBE_S) as usize).max(200));
            let limit = (rate * LATENCY_LIMIT_MS / 1e3).ceil() as u64 + 1;
            let probe = drive(sv, world, reqs, rate, Some(limit));
            record_phase(&probe, out);
            let (p, t) = probe.tail_ms();
            passed = probe.passes();
            out.detail(format!(
                "probe {rate:.0} req/s: p{p} {t:.4} ms, backlog growth {:.2}{} -> {}",
                probe.backlog_growth,
                if probe.aborted { ", stopped early" } else { "" },
                if passed { "pass" } else { "fail" }
            ));
            if passed {
                break;
            }
        }
        if passed {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let capacity = if lo >= 0 {
        ladder(lo as usize)
    } else {
        LADDER_BASE / LADDER_STEP
    };
    out.detail(format!(
        "capacity {capacity:.1} req/s (limit {LATENCY_LIMIT_MS} ms)"
    ));
    capacity
}

/// The per-layer breakdown: the same kind of seeded requests replayed
/// in-process through `handle_line`, `Daemon::feed` and bare
/// `Session`s.  Each layer replays the same requests on its own 10,000
/// fresh instances, so every call finds the same instance state at
/// every layer; the differences of the medians are the layers' costs.
/// (Three instance sets live at once: about 300 MiB.)
fn replay(ctx: &Ctx, client_p50_us: f64, out: &mut Outcome) {
    trace::set_enabled(true);
    let medians = replay_layers(ctx, out);
    trace::set_enabled(false);
    let Some((w, f, s)) = medians else {
        return;
    };
    out.set("streamd.wire_us", w - f);
    out.set("streamd.daemon_us", f - s);
    out.set("exec.session_us", s);
    out.set("net.transport_us", client_p50_us - w);
    out.detail(format!(
        "replay p50: handle_line {w:.2} us, feed {f:.2} us, session {s:.2} us, client {client_p50_us:.2} us"
    ));
}

/// A fresh daemon with every instance open, timing each `open`.
fn open_all(
    program: &CompiledProgram,
    open_us: &mut Vec<f64>,
) -> Result<(Daemon, Vec<u64>), String> {
    let mut daemon = Daemon::new(daemon_config());
    daemon
        .add_program(APP, program)
        .map_err(|d| d.to_string())?;
    let mut ids = Vec::with_capacity(INSTANCES);
    for i in 0..INSTANCES {
        let (r, dt) = trace::timed("streamd.open", i as u64, || daemon.open(APP, None));
        open_us.push(dt * 1e6);
        ids.push(r.map_err(|d| d.to_string())?.id);
    }
    Ok((daemon, ids))
}

/// Median µs of `handle_line`, `feed` and a bare session step.
fn replay_layers(ctx: &Ctx, out: &mut Outcome) -> Option<(f64, f64, f64)> {
    let fail = |out: &mut Outcome, e: String| {
        out.check(Err(e));
        None
    };
    let program = match program() {
        Ok(p) => p,
        Err(e) => return fail(out, e),
    };
    let mut world = World::new(ctx.seed ^ 0x5EED);
    let reqs: Vec<(usize, Vec<f64>, String)> = world
        .schedule(4000)
        .into_iter()
        .filter_map(|r| match r {
            Req::Xfer {
                slot, items, text, ..
            } => Some((slot, items, text)),
            Req::Churn { .. } => None,
        })
        .collect();

    let mut open_us = Vec::new();
    let (wire_daemon, wire_ids) = match open_all(&program, &mut open_us) {
        Ok(d) => d,
        Err(e) => return fail(out, e),
    };
    out.set("streamd.open_us", median(&open_us));
    let (feed_daemon, feed_ids) = match open_all(&program, &mut Vec::new()) {
        Ok(d) => d,
        Err(e) => return fail(out, e),
    };
    let cg = match program.compile_exec() {
        Ok(cg) => Arc::new(cg),
        Err(e) => return fail(out, e.to_string()),
    };
    let sessions: Result<Vec<_>, _> = (0..INSTANCES)
        .map(|_| cg.open_session(&SessionConfig::with_buffers(BUFFER)))
        .collect();
    let mut sessions = match sessions {
        Ok(s) => s,
        Err(e) => return fail(out, e.to_string()),
    };
    // The three layers take turns request by request, so a slow moment
    // of the host lands on all of them alike.
    let (mut wire, mut feed, mut sess) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (slot, items, text)) in reqs.iter().enumerate() {
        let line = format!("XFER {}{}", wire_ids[*slot], text.trim_end());
        let (resp, dt) = trace::timed("streamd.handle_line", i as u64, || {
            handle_line(&wire_daemon, &line)
        });
        out.check(if resp.starts_with("OK") {
            Ok(())
        } else {
            Err(resp)
        });
        wire.push(dt * 1e6);

        let (r, dt) = trace::timed("streamd.feed", i as u64, || {
            feed_daemon.feed(feed_ids[*slot], items, MAX_OUT)
        });
        out.check(r.map(drop).map_err(|d| d.to_string()));
        feed.push(dt * 1e6);

        let s = &mut sessions[*slot];
        let (r, dt) = trace::timed("exec.session", i as u64, || {
            s.push_input(items);
            let ran = s.step(u64::MAX);
            ran.map(|_| s.pull_output(MAX_OUT))
        });
        out.check(r.map(drop).map_err(|e| e.to_string()));
        sess.push(dt * 1e6);
    }
    Some((median(&wire), median(&feed), median(&sess)))
}
