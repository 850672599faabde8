//! Daemons and load generation through the public `relim_service`
//! API: in-process `Server`s, one `Client` call per request (one fresh
//! TCP connection each, as `Client` does), every reply checked.

use crate::expected::Checker;
use relim_json::Json;
use relim_service::client::{Client, ClientError, JobReply};
use relim_service::ops::OpRequest;
use relim_service::protocol;
use relim_service::server::{Server, ServerConfig, ServerHandle};
use relim_service::trace::{Span, TraceContext};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-call I/O timeout: a stuck request fails well inside the run's
/// time limit instead of hanging it.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the burst sender sleeps when no reply has progressed.
const POLL: Duration = Duration::from_micros(200);

/// A set of in-process daemons (one, or a fleet of peers).
pub struct Daemons {
    handles: Vec<ServerHandle>,
    pub clients: Vec<Client>,
    pub addrs: Vec<String>,
}

impl Daemons {
    /// One daemon on an ephemeral port, `ServerConfig::default()` (store
    /// in memory), optionally recording spans.
    pub fn single(trace: bool) -> Result<Daemons, String> {
        let config = ServerConfig { trace, ..ServerConfig::default() };
        let handle = Server::spawn("127.0.0.1:0", config).map_err(|e| format!("spawn: {e}"))?;
        let addr = handle.local_addr().to_string();
        Ok(Daemons {
            handles: vec![handle],
            clients: vec![Client::new(addr.clone()).with_timeout(CALL_TIMEOUT)],
            addrs: vec![addr],
        })
    }

    /// `n` daemons configured as peers of each other. Members must know
    /// each other's addresses before binding, so the addresses are
    /// reserved by binding them all at once and releasing them.
    pub fn fleet(n: usize, trace: bool) -> Result<Daemons, String> {
        let addrs: Vec<String> = {
            let listeners = (0..n)
                .map(|_| TcpListener::bind("127.0.0.1:0"))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("reserve address: {e}"))?;
            listeners
                .iter()
                .map(|l| l.local_addr().map(|a| a.to_string()))
                .collect::<Result<_, _>>()
        }
        .map_err(|e| format!("reserve address: {e}"))?;
        let mut handles = Vec::new();
        for addr in &addrs {
            let peers = addrs.iter().filter(|a| *a != addr).cloned().collect();
            let config = ServerConfig { trace, peers, ..ServerConfig::default() };
            handles.push(Server::spawn(addr, config).map_err(|e| format!("spawn {addr}: {e}"))?);
        }
        let clients =
            addrs.iter().map(|a| Client::new(a.clone()).with_timeout(CALL_TIMEOUT)).collect();
        Ok(Daemons { handles, clients, addrs })
    }

    /// Waits until every daemon answers a ping.
    pub fn ready(&self) -> Result<(), String> {
        for c in &self.clients {
            c.ping().map_err(|e| format!("{}: {e}", c.addr()))?;
        }
        Ok(())
    }

    /// The `status` counters of every daemon.
    pub fn status(&self) -> Result<Vec<Json>, String> {
        self.clients.iter().map(|c| c.status().map_err(|e| e.to_string())).collect()
    }

    /// Graceful shutdown of every daemon; waits until each has exited.
    pub fn stop(self) {
        for h in &self.handles {
            h.shutdown();
        }
        for h in self.handles {
            h.join();
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Served bytes (or digest) differ from the in-process reference.
    Mismatch,
    /// The daemon answered `ok: false`.
    Refused,
    /// The TCP connect failed (ephemeral-port exhaustion shows here).
    Connect,
    /// Any other I/O or protocol failure, timeouts included.
    Io,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-observed latency: from the send (closed loop) or from the
    /// due time (burst) to the reply.
    pub latency_ns: u64,
    /// Send to reply, whatever the schedule said.
    pub service_ns: u64,
    pub outcome: Outcome,
    pub cached: bool,
    /// The request's trace id (0 when untraced).
    pub trace_id: u64,
    /// When the request was due (burst) or sent (closed loop).
    pub start: Instant,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Ok
    }
}

fn classify(e: &ClientError) -> Outcome {
    if e.0.starts_with("server refused") {
        Outcome::Refused
    } else if e.0.starts_with("cannot connect") {
        Outcome::Connect
    } else {
        Outcome::Io
    }
}

/// Distinct trace ids for every traced request of a run.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

fn trace_context(traced: bool) -> TraceContext {
    let trace_id = if traced { NEXT_TRACE.fetch_add(1, Ordering::Relaxed) } else { 0 };
    TraceContext { trace_id, parent: None }
}

/// Classifies a reply to key `key`, reporting failures.
fn outcome(
    op: &OpRequest,
    reply: Result<JobReply, ClientError>,
    checker: &Checker,
    key: usize,
) -> (Outcome, bool) {
    let (outcome, cached) = match &reply {
        Ok(r) if checker.check(key, r) => (Outcome::Ok, r.cached),
        Ok(r) => (Outcome::Mismatch, r.cached),
        Err(e) => (classify(e), false),
    };
    if outcome != Outcome::Ok {
        report_failure(op, outcome, reply.err());
    }
    (outcome, cached)
}

/// Sends one request, checks the reply against key `key` of `checker`,
/// and times it.
pub fn request(
    client: &Client,
    op: &OpRequest,
    traced: bool,
    checker: &Checker,
    key: usize,
) -> Sample {
    let ctx = trace_context(traced);
    let send = Instant::now();
    let reply = client.submit_traced(op, None, traced.then_some(&ctx));
    let done = Instant::now();
    let (outcome, cached) = outcome(op, reply, checker, key);
    let latency_ns = (done - send).as_nanos() as u64;
    Sample {
        latency_ns,
        service_ns: latency_ns,
        outcome,
        cached,
        trace_id: ctx.trace_id,
        start: send,
    }
}

/// One request of a burst: what it asked, and its connection while the
/// reply is outstanding.
struct InFlight<'a> {
    index: usize,
    op: &'a OpRequest,
    key: usize,
    trace_id: u64,
    sent: Instant,
    /// `None` when the connect or the request write failed (counted as a
    /// connect failure).
    stream: Option<TcpStream>,
    reply: Vec<u8>,
}

impl InFlight<'_> {
    /// Reads what has arrived; the reply once its line is complete.
    fn poll(&mut self, addr: &str) -> Option<Result<JobReply, ClientError>> {
        let Some(stream) = &mut self.stream else {
            return Some(Err(ClientError(format!("cannot connect to {addr}"))));
        };
        let mut buf = [0u8; 8192];
        let closed = loop {
            match stream.read(&mut buf) {
                Ok(0) => break true,
                Ok(n) => self.reply.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                Err(e) => return Some(Err(ClientError(format!("read from {addr} failed: {e}")))),
            }
        };
        match self.reply.iter().position(|&b| b == b'\n') {
            Some(end) => Some(parse_job_reply(&String::from_utf8_lossy(&self.reply[..end]), addr)),
            None if closed => Some(Err(ClientError(format!("{addr} closed the connection")))),
            None => None,
        }
    }
}

/// A job response line, read as `Client::submit` reads it.
fn parse_job_reply(line: &str, addr: &str) -> Result<JobReply, ClientError> {
    let doc = Json::parse(line)
        .map_err(|e| ClientError(format!("unparsable response from {addr}: {e}")))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("unspecified error");
        return Err(ClientError(format!("server refused the job: {error}")));
    }
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError(format!("response missing `{key}`")))
    };
    Ok(JobReply {
        cached: doc
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError("response missing `cached`".into()))?,
        digest: field("digest")?,
        result: field("result")?,
    })
}

/// Sends every request of a burst at once, each on its own connection
/// to `client`'s daemon, in order, then collects the replies from this
/// one thread by polling the connections. Each latency is timed from
/// `due`; a reply outstanding after `CALL_TIMEOUT` fails. The samples
/// come back in the order of `jobs`.
pub fn burst(
    client: &Client,
    jobs: &[(&OpRequest, usize)],
    traced: bool,
    checker: &Checker,
    due: Instant,
) -> Vec<Sample> {
    let addr = client.addr();
    let mut pending: Vec<InFlight> = jobs
        .iter()
        .enumerate()
        .map(|(index, &(op, key))| {
            let ctx = trace_context(traced);
            let line = protocol::render_job_request_traced(op, None, None, traced.then_some(&ctx));
            let sent = Instant::now();
            let stream = TcpStream::connect(addr).ok().filter(|mut s| {
                s.write_all(format!("{line}\n").as_bytes()).is_ok()
                    && s.set_nonblocking(true).is_ok()
            });
            InFlight { index, op, key, trace_id: ctx.trace_id, sent, stream, reply: Vec::new() }
        })
        .collect();
    let mut samples = vec![None; jobs.len()];
    while !pending.is_empty() {
        let timed_out = due.elapsed() > CALL_TIMEOUT;
        let before = pending.len();
        let mut i = 0;
        while i < pending.len() {
            let reply = pending[i].poll(addr).or_else(|| {
                timed_out.then(|| Err(ClientError(format!("read from {addr} timed out"))))
            });
            let Some(reply) = reply else {
                i += 1;
                continue;
            };
            let job = pending.swap_remove(i);
            let (outcome, cached) = outcome(job.op, reply, checker, job.key);
            let now = Instant::now();
            samples[job.index] = Some(Sample {
                latency_ns: (now - due).as_nanos() as u64,
                service_ns: (now - job.sent).as_nanos() as u64,
                outcome,
                cached,
                trace_id: job.trace_id,
                start: due,
            });
        }
        if pending.len() == before {
            std::thread::sleep(POLL);
        }
    }
    samples.into_iter().flatten().collect()
}

/// Prints the first few failures of a run to stderr; the rest are only
/// counted.
fn report_failure(op: &OpRequest, outcome: Outcome, error: Option<ClientError>) {
    static PRINTED: AtomicU64 = AtomicU64::new(0);
    if PRINTED.fetch_add(1, Ordering::Relaxed) < 5 {
        let why = error.map_or_else(|| "wrong bytes".to_owned(), |e| e.0);
        eprintln!("e2ebench: {} request failed ({outcome:?}): {why}", op.name());
    }
}

/// Samples reserved per sample buffer. Pages are touched only as samples
/// are written, so the resident size grows with the request count
/// instead of jumping when a growing buffer doubles (which made
/// `peak_rss_mb` step with throughput).
const SAMPLES_RESERVED: usize = 1 << 22;

/// Runs `threads` closed-loop clients. Client `t` starts from state
/// `init(t)` and calls `step` until it returns `None`; the samples of
/// all clients are returned.
pub fn closed_loop<S, I, F>(threads: usize, init: I, step: F) -> Vec<Sample>
where
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S) -> Option<Sample> + Sync,
{
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (init, step) = (&init, &step);
                s.spawn(move || {
                    let mut state = init(t);
                    let mut samples = Vec::with_capacity(SAMPLES_RESERVED);
                    samples.extend(std::iter::from_fn(|| step(&mut state)));
                    samples
                })
            })
            .collect();
        let mut all = Vec::with_capacity(SAMPLES_RESERVED);
        for w in workers {
            all.extend(w.join().expect("load thread panicked"));
        }
        all
    })
}

/// Pre-warms `keys` (indices into `ops`), each through the daemon
/// `client_of(key)`, with `threads` closed-loop clients; returns the
/// failed count.
pub fn prewarm(
    threads: usize,
    ops: &[OpRequest],
    keys: &[usize],
    checker: &Checker,
    client_of: impl Fn(usize) -> Client + Sync,
) -> usize {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let samples = closed_loop(
        threads,
        |_| (),
        |()| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let &key = keys.get(i)?;
            Some(request(&client_of(key), &ops[key], false, checker, key))
        },
    );
    samples.iter().filter(|s| !s.ok()).count()
}

/// Collects the spans of a traced run from every daemon in batches,
/// and counts spans recorded but lost to the daemon's window before
/// they were collected.
#[derive(Default)]
pub struct SpanCollector {
    recorded: Vec<u64>,
    /// `(daemon index, span)`.
    pub spans: Vec<(usize, Span)>,
    pub dropped: u64,
    pub batches: u64,
}

impl SpanCollector {
    pub fn collect(&mut self, daemons: &[Client]) -> Result<(), String> {
        self.recorded.resize(daemons.len(), 0);
        for (d, client) in daemons.iter().enumerate() {
            let dump = client.trace_dump(None).map_err(|e| e.to_string())?;
            let new = dump.recorded.saturating_sub(self.recorded[d]);
            self.recorded[d] = dump.recorded;
            // The window holds the most recent spans in record order;
            // the new ones are its last `new` entries.
            let retrieved = (new as usize).min(dump.spans.len());
            self.dropped += new - retrieved as u64;
            let start = dump.spans.len() - retrieved;
            self.spans.extend(dump.spans.into_iter().skip(start).map(|s| (d, s)));
        }
        self.batches += 1;
        Ok(())
    }

    /// Starts over on a new set of daemons (their span counts restart).
    pub fn new_daemons(&mut self) {
        self.recorded.clear();
    }
}
