//! Multi-threaded online query service over a shared [`SearchEngine`].
//!
//! Architecture (std-only, no async runtime):
//!
//! ```text
//!   TcpListener ── accept thread ──► bounded queue ──► N worker threads
//!                      │  queue full: answer 503 immediately               │
//!                      ▼                                                   ▼
//!              Connection dropped                 ┌──► parse → route → respond
//!                                                 │            │ keep-alive
//!                                                 └── wait for next request
//!                                              (close: client, idle, cap,
//!                                               yield, shutdown, error)
//! ```
//!
//! Backpressure is explicit: the accept thread never blocks on a full
//! queue — it writes `503 Service Unavailable` on the spot and closes the
//! connection, so overload degrades loudly instead of queueing unboundedly.
//!
//! A worker keeps its connection for the next request (HTTP/1.1
//! keep-alive) while the client allows it, the request parsed, fewer than
//! [`MAX_REQUESTS_PER_CONN`] requests were served on it, the server is not
//! shutting down, and no accepted connection is waiting in the queue — a
//! worker never idles on one client while others wait. Between requests it
//! waits for the next one in [`IDLE_POLL`] slices, re-checking shutdown and
//! the queue after each, and gives up after `read_timeout` of idleness.
//! Each connection's end is counted by reason (`serve.conn.close.*`).
//!
//! Shutdown is graceful: the flag is raised, the accept thread is woken by
//! a self-connection, workers finish the request in hand, drop idle kept
//! connections within one poll slice, drain the queue and exit, and
//! [`Server::shutdown`] joins every thread.
//!
//! Every handled request leaves a [`TraceRecord`] in a bounded
//! [`TraceRing`] (route, status, latency, queue wait, cache/candidate
//! deltas, truncated params), readable live via `/debug/traces` and
//! `/debug/slow`; `/metrics?format=prom` serves the same registry as the
//! JSON run report in Prometheus text exposition.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use snaps_core::PedigreeEntity;
use snaps_model::{EntityId, Gender};
use snaps_obs::{Counter, Gauge, Obs, TraceRecord, TraceRing, DEFAULT_TRACE_CAPACITY};
use snaps_pedigree::{extract, DEFAULT_GENERATIONS};
use snaps_query::{QueryRecord, SearchEngine, SearchKind};
use snaps_strsim::normalize::normalize_name;

use crate::http::{parse_request, ParseError, Request, Response};
use crate::json;
use crate::snapshot::SnapshotStamp;

/// Upper bound on the `m` (top matches) query parameter.
pub(crate) const MAX_TOP_M: usize = 100;
/// Upper bound on the `g` (generations) pedigree parameter.
pub(crate) const MAX_GENERATIONS: usize = 8;
/// Longest query-parameter digest stored in a trace record, bytes.
pub(crate) const MAX_PARAM_DIGEST: usize = 64;
/// Default `threshold_us` of `/debug/slow` when the parameter is absent.
pub(crate) const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Normalised route labels used for per-route status-class counters and
/// trace records. `unparsed` marks connections whose request never parsed.
/// Indexed by the `ROUTE_*` ids below: the labels (and the counter names
/// derived from them) are interned once at server startup, and the hot
/// path carries the id, never a label string.
const ROUTE_LABELS: &[&str] = &[
    "search",
    "pedigree",
    "healthz",
    "metrics",
    "debug_traces",
    "debug_slow",
    "other",
    "unparsed",
];

const ROUTE_SEARCH: usize = 0;
const ROUTE_PEDIGREE: usize = 1;
const ROUTE_HEALTHZ: usize = 2;
const ROUTE_METRICS: usize = 3;
const ROUTE_DEBUG_TRACES: usize = 4;
const ROUTE_DEBUG_SLOW: usize = 5;
const ROUTE_OTHER: usize = 6;
const ROUTE_UNPARSED: usize = 7;

/// Initial capacity of each worker's reusable response buffers; typical
/// `/search` and `/pedigree` bodies fit after a few warm-up regrowths,
/// after which the buffers' capacity is stable (asserted by the serve
/// integration tests and watched by `serve.resp_buf.regrow`).
const RESP_BUF_INITIAL_CAPACITY: usize = 4 * 1024;

/// Requests served on one connection before the server closes it.
pub(crate) const MAX_REQUESTS_PER_CONN: u32 = 1000;

/// Slice in which a worker waits for the next request on a kept
/// connection before it re-checks shutdown and the accept queue.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(25);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling parsed requests.
    pub workers: usize,
    /// Maximum connections waiting for a worker before new ones get `503`.
    pub queue_capacity: usize,
    /// Per-connection read timeout; a client that connects but never sends
    /// a full request holds a worker for at most this long, and so does a
    /// kept connection on which no next request arrives.
    pub read_timeout: Duration,
    /// Capacity of the request trace ring served by `/debug/traces`.
    pub trace_capacity: usize,
    /// Identity of the snapshot the engine was restored from, reported by
    /// `/healthz`; `None` for engines built in-process.
    pub snapshot: Option<SnapshotStamp>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            snapshot: None,
        }
    }
}

fn depth_i64(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

fn us_u64(micros: u128) -> u64 {
    u64::try_from(micros).unwrap_or(u64::MAX)
}

fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Bounded FIFO of accepted connections between the accept thread and the
/// worker pool. Each entry carries its enqueue instant so workers can
/// attribute queue-wait time to the request they serve.
struct ConnQueue {
    inner: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    capacity: usize,
    depth: Gauge,
}

impl ConnQueue {
    fn new(capacity: usize, depth: Gauge) -> Self {
        Self { inner: Mutex::new(VecDeque::new()), ready: Condvar::new(), capacity, depth }
    }

    /// Enqueue unless full; a full queue returns the stream to the caller
    /// (the accept thread), which answers 503.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        // Queue state is a VecDeque of owned streams: a panic mid-push can't
        // leave it half-updated, so a poisoned lock is safe to re-enter.
        let depth = {
            let mut q = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if q.len() >= self.capacity {
                return Err(stream);
            }
            q.push_back((stream, Instant::now()));
            q.len()
        };
        self.depth.set(depth_i64(depth));
        self.ready.notify_one();
        Ok(())
    }

    /// Whether no accepted connection is waiting for a worker.
    fn is_empty(&self) -> bool {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_empty()
    }

    /// Blocking pop; returns `None` once `shutdown` is set **and** the
    /// queue is drained, so accepted work still completes.
    fn pop(&self, shutdown: &AtomicBool) -> Option<(TcpStream, Instant)> {
        let popped = {
            let mut q = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(entry) = q.pop_front() {
                    break Some((entry, q.len()));
                }
                if shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = self.ready.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let (entry, depth) = popped?;
        self.depth.set(depth_i64(depth));
        Some(entry)
    }
}

/// Per-route status-class counters (`serve.route.<label>.{2xx,4xx,5xx}`),
/// interned at startup and indexed by route id.
struct RouteClasses {
    c2xx: Counter,
    c4xx: Counter,
    c5xx: Counter,
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// The client asked to close (`Connection: close`, HTTP/1.0) or closed
    /// its end between requests.
    Client,
    /// No request arrived within `read_timeout`.
    Idle,
    /// [`MAX_REQUESTS_PER_CONN`] requests were served on it.
    Cap,
    /// Accepted connections were waiting for a worker.
    Yield,
    /// The server is shutting down.
    Shutdown,
    /// A malformed or truncated request, or an I/O error.
    Error,
}

/// Connection outcome counters: `serve.conn.reused` counts parsed requests
/// on a connection that had already served one, and each close reason has
/// its own `serve.conn.close.<reason>`. With `serve.conn.accepted` (kept by
/// the accept thread), accepted minus shed equals the sum of the close
/// reasons once the server has shut down.
struct ConnCounters {
    reused: Counter,
    client: Counter,
    idle: Counter,
    cap: Counter,
    yielded: Counter,
    shutdown: Counter,
    error: Counter,
}

impl ConnCounters {
    fn new(obs: &Obs) -> Self {
        Self {
            reused: obs.counter("serve.conn.reused"),
            client: obs.counter("serve.conn.close.client"),
            idle: obs.counter("serve.conn.close.idle"),
            cap: obs.counter("serve.conn.close.cap"),
            yielded: obs.counter("serve.conn.close.yield"),
            shutdown: obs.counter("serve.conn.close.shutdown"),
            error: obs.counter("serve.conn.close.error"),
        }
    }

    fn closed(&self, why: Close) {
        match why {
            Close::Client => &self.client,
            Close::Idle => &self.idle,
            Close::Cap => &self.cap,
            Close::Yield => &self.yielded,
            Close::Shutdown => &self.shutdown,
            Close::Error => &self.error,
        }
        .add(1);
    }
}

/// A worker's reusable buffers: handlers render response bodies into
/// `body`, and the whole reply (head and body) is assembled in `wire` and
/// sent with one write. Once warmed up, a worker serves requests without
/// allocating response memory; capacity growth is counted so the bench
/// ratchet catches allocation regressions.
struct Buffers {
    body: String,
    wire: Vec<u8>,
}

/// Per-request side facts a handler reports for its trace record.
#[derive(Debug, Default, Clone, Copy)]
struct ReqStats {
    cache_hits: u64,
    cache_misses: u64,
    candidates: u64,
    results: u64,
}

/// Shared per-server state handed to every worker.
struct Ctx {
    engine: Arc<SearchEngine>,
    obs: Obs,
    started: Instant,
    requests: Counter,
    http_200: Counter,
    http_400: Counter,
    http_404: Counter,
    inflight: Gauge,
    generation: Gauge,
    routes: Vec<RouteClasses>,
    sim_hits: Counter,
    sim_misses: Counter,
    candidates_scored: Counter,
    resp_regrow: Counter,
    conn: ConnCounters,
    traces: TraceRing,
    snapshot: Option<SnapshotStamp>,
    queue: Arc<ConnQueue>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
}

/// A running query service; dropping without [`Server::shutdown`] detaches
/// the threads, so call it for a clean exit (tests do; the binary installs
/// no signal handling and runs until killed).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start the
    /// accept thread plus worker pool. The engine is shared read-mostly;
    /// only its internal sharded caches mutate under load.
    ///
    /// # Errors
    /// Propagates the bind error.
    ///
    /// # Panics
    /// Panics on a zero worker count or queue capacity.
    pub fn start(
        addr: impl ToSocketAddrs,
        engine: Arc<SearchEngine>,
        obs: &Obs,
        config: &ServerConfig,
    ) -> io::Result<Self> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(config.queue_capacity, obs.gauge("serve.queue_depth")));
        let generation = obs.gauge("serve.snapshot_generation");
        // First generation of served data; hot-swap (ROADMAP item 2) bumps
        // this on every snapshot-pointer swap.
        generation.set(1);
        // Counter names are a closed set: intern them once here, so the
        // request path only ever indexes by route id.
        let routes = ROUTE_LABELS
            .iter()
            .map(|label| RouteClasses {
                c2xx: obs.counter(&format!("serve.route.{label}.2xx")),
                c4xx: obs.counter(&format!("serve.route.{label}.4xx")),
                c5xx: obs.counter(&format!("serve.route.{label}.5xx")),
            })
            .collect();
        let ctx = Arc::new(Ctx {
            engine,
            obs: obs.clone(),
            started: Instant::now(),
            requests: obs.counter("serve.requests"),
            http_200: obs.counter("serve.http_200"),
            http_400: obs.counter("serve.http_400"),
            http_404: obs.counter("serve.http_404"),
            inflight: obs.gauge("serve.inflight"),
            generation,
            routes,
            sim_hits: obs.counter("index.sim_cache.hits"),
            sim_misses: obs.counter("index.sim_cache.misses"),
            candidates_scored: obs.counter("query.candidates_scored"),
            resp_regrow: obs.counter("serve.resp_buf.regrow"),
            conn: ConnCounters::new(obs),
            traces: TraceRing::new(config.trace_capacity),
            snapshot: config.snapshot,
            queue: Arc::clone(&queue),
            shutdown: Arc::clone(&shutdown),
            read_timeout: config.read_timeout,
        });

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let ctx = Arc::clone(&ctx);
            workers.push(thread::Builder::new().name(format!("snaps-serve-worker-{i}")).spawn(
                move || {
                    let mut bufs = Buffers {
                        body: String::with_capacity(RESP_BUF_INITIAL_CAPACITY),
                        wire: Vec::with_capacity(RESP_BUF_INITIAL_CAPACITY),
                    };
                    while let Some((stream, queued_at)) = ctx.queue.pop(&ctx.shutdown) {
                        handle_connection(stream, queued_at, &ctx, &mut bufs);
                    }
                },
            )?);
        }

        let accept_thread = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let accepted = obs.counter("serve.conn.accepted");
            let http_503 = obs.counter("serve.http_503");
            let shed_503 = obs.counter("serve.route.shed.503");
            thread::Builder::new().name("snaps-serve-accept".into()).spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    accepted.add(1);
                    // Replies go out in one write each; without this, a
                    // kept connection stalls on Nagle's algorithm.
                    let _ = stream.set_nodelay(true);
                    if let Err(mut stream) = queue.try_push(stream) {
                        // Explicit backpressure: reject on the accept
                        // thread, never block behind a full queue.
                        http_503.add(1);
                        shed_503.add(1);
                        let resp =
                            Response::json(503, "{\"error\": \"server overloaded, retry later\"}");
                        let _ = resp.write_to(&mut stream);
                    }
                }
            })?
        };

        Ok(Self { addr, shutdown, queue, accept_thread: Some(accept_thread), workers })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain queued connections, join
    /// every thread. Idempotent per server (consumes it).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // The accept thread is parked in `accept()`; a throwaway
        // self-connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Route id used to index [`ROUTE_LABELS`] and the interned per-route
/// counters (normalises `/pedigree/<id>` to one id and unknown paths to
/// [`ROUTE_OTHER`]).
fn route_id(path: &str) -> usize {
    match path {
        "/search" => ROUTE_SEARCH,
        "/healthz" => ROUTE_HEALTHZ,
        "/metrics" => ROUTE_METRICS,
        "/debug/traces" => ROUTE_DEBUG_TRACES,
        "/debug/slow" => ROUTE_DEBUG_SLOW,
        p if p.starts_with("/pedigree/") => ROUTE_PEDIGREE,
        _ => ROUTE_OTHER,
    }
}

/// Truncated `k=v&k=v` digest of the request's query parameters for trace
/// records; cut at a char boundary at [`MAX_PARAM_DIGEST`] bytes.
fn param_digest(req: &Request) -> String {
    let mut out = String::with_capacity(MAX_PARAM_DIGEST);
    for (k, v) in &req.params {
        if !out.is_empty() {
            out.push('&');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
        if out.len() >= MAX_PARAM_DIGEST {
            break;
        }
    }
    if out.len() > MAX_PARAM_DIGEST {
        let mut end = MAX_PARAM_DIGEST;
        while end > 0 && !out.is_char_boundary(end) {
            end -= 1;
        }
        out.truncate(end);
    }
    out
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Serve requests on one connection until it closes, and count why it did.
fn handle_connection(stream: TcpStream, queued_at: Instant, ctx: &Ctx, bufs: &mut Buffers) {
    let queue_wait_us = us_u64(queued_at.elapsed().as_micros());
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    // One reader for the connection's lifetime, so bytes of a pipelined
    // next request that arrive with this one are kept, not dropped.
    let mut conn = BufReader::new(stream);
    let why = serve_connection(&mut conn, queue_wait_us, ctx, bufs);
    // Counted before the socket closes: a client that sees the close
    // also sees the count.
    ctx.conn.closed(why);
}

fn serve_connection(
    conn: &mut BufReader<TcpStream>,
    queue_wait_us: u64,
    ctx: &Ctx,
    bufs: &mut Buffers,
) -> Close {
    // A connection that opens but never sends (port scan, cancelled
    // client) gets no response.
    match conn.fill_buf() {
        Ok([]) => return Close::Client,
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Close::Idle,
        Err(_) => return Close::Error,
    }
    let mut served = 0;
    loop {
        // Requests on a reused connection were never queued.
        let wait_us = if served == 0 { queue_wait_us } else { 0 };
        if let Err(why) = serve_request(conn, ctx, wait_us, served, bufs) {
            return why;
        }
        served += 1;
        if let Err(why) = await_next_request(conn, ctx) {
            return why;
        }
    }
}

/// Wait for the first byte of the next request on a kept connection, in
/// [`IDLE_POLL`] slices; between slices, give the connection up when the
/// server shuts down or accepted connections are waiting. Restores
/// `read_timeout` for the parse once the byte is there.
fn await_next_request(conn: &mut BufReader<TcpStream>, ctx: &Ctx) -> Result<(), Close> {
    if !conn.buffer().is_empty() {
        return Ok(()); // pipelined: the next request is already here
    }
    let _ = conn.get_ref().set_read_timeout(Some(IDLE_POLL.min(ctx.read_timeout)));
    let idle_since = Instant::now();
    let outcome = loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            break Err(Close::Shutdown);
        }
        if !ctx.queue.is_empty() {
            break Err(Close::Yield);
        }
        match conn.fill_buf() {
            Ok([]) => break Err(Close::Client),
            Ok(_) => break Ok(()),
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {
                if idle_since.elapsed() >= ctx.read_timeout {
                    break Err(Close::Idle);
                }
            }
            Err(_) => break Err(Close::Error),
        }
    };
    if outcome.is_ok() {
        let _ = conn.get_ref().set_read_timeout(Some(ctx.read_timeout));
    }
    outcome
}

/// Whether the connection may carry another request after this one, and
/// if not, why not.
fn keep_open(req: &Request, served_before: u32, ctx: &Ctx) -> Result<(), Close> {
    if !req.keep_alive {
        Err(Close::Client)
    } else if served_before + 1 >= MAX_REQUESTS_PER_CONN {
        Err(Close::Cap)
    } else if ctx.shutdown.load(Ordering::Acquire) {
        Err(Close::Shutdown)
    } else if !ctx.queue.is_empty() {
        Err(Close::Yield)
    } else {
        Ok(())
    }
}

/// Parse, route and answer one request. `Ok` means the reply announced
/// `Connection: keep-alive` and the connection stays open.
fn serve_request(
    conn: &mut BufReader<TcpStream>,
    ctx: &Ctx,
    queue_wait_us: u64,
    served_before: u32,
    bufs: &mut Buffers,
) -> Result<(), Close> {
    let capacity_before = (bufs.body.capacity(), bufs.wire.capacity());
    ctx.inflight.add(1);
    let handled_at = Instant::now();
    bufs.body.clear();
    let (response, route_idx, stats, params, keep) = match parse_request(conn) {
        Ok(req) => {
            ctx.requests.add(1);
            if served_before > 0 {
                ctx.conn.reused.add(1);
            }
            let idx = route_id(&req.path);
            let params = param_digest(&req);
            let (response, stats) = route(&req, ctx, &mut bufs.body);
            let keep = keep_open(&req, served_before, ctx);
            (response, idx, stats, params, keep)
        }
        // The request stopped mid-way (EOF or read timeout): nobody is
        // left to read an answer.
        Err(ParseError::UnexpectedEof) => {
            ctx.inflight.add(-1);
            return Err(Close::Error);
        }
        Err(e) => {
            let response = bad_request(&mut bufs.body, &e.to_string());
            (response, ROUTE_UNPARSED, ReqStats::default(), String::new(), Err(Close::Error))
        }
    };
    match response.status {
        200 => ctx.http_200.add(1),
        400 => ctx.http_400.add(1),
        404 => ctx.http_404.add(1),
        _ => {}
    }
    // Interned counters, indexed by route id — no per-request name lookup.
    if let Some(classes) = ctx.routes.get(route_idx) {
        match response.status {
            200..=299 => classes.c2xx.add(1),
            400..=499 => classes.c4xx.add(1),
            500..=599 => classes.c5xx.add(1),
            _ => {}
        }
    }
    ctx.traces.push(TraceRecord {
        seq: 0,
        route: ROUTE_LABELS.get(route_idx).copied().unwrap_or("unparsed"),
        status: response.status,
        latency_us: us_u64(handled_at.elapsed().as_micros()).max(1),
        queue_wait_us,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        candidates: stats.candidates,
        results: stats.results,
        params,
    });
    ctx.inflight.add(-1);
    bufs.wire.clear();
    response.render(&mut bufs.wire, keep.is_ok());
    let written = conn.get_mut().write_all(&bufs.wire);
    if bufs.body.capacity() > capacity_before.0 || bufs.wire.capacity() > capacity_before.1 {
        ctx.resp_regrow.add(1);
    }
    written.map_err(|_| Close::Error)?;
    keep
}

/// Render a `{"error": …}` body into `out` (cleared first, in case a
/// handler wrote a partial body before failing) and borrow it as a 400.
fn bad_request<'a>(out: &'a mut String, msg: &str) -> Response<'a> {
    out.clear();
    out.push_str("{\"error\": ");
    json::string(out, msg);
    out.push('}');
    Response::json(400, out)
}

fn not_found<'a>(out: &'a mut String, msg: &str) -> Response<'a> {
    out.clear();
    out.push_str("{\"error\": ");
    json::string(out, msg);
    out.push('}');
    Response::json(404, out)
}

fn route<'a>(req: &Request, ctx: &Ctx, out: &'a mut String) -> (Response<'a>, ReqStats) {
    if req.method != "GET" {
        let resp = Response::json(405, "{\"error\": \"only GET is supported\"}");
        return (resp, ReqStats::default());
    }
    match req.path.as_str() {
        "/healthz" => (healthz(ctx, out), ReqStats::default()),
        "/metrics" => (metrics(req, ctx, out), ReqStats::default()),
        "/search" => search(req, ctx, out),
        "/debug/traces" => debug_traces(req, ctx, out),
        "/debug/slow" => debug_slow(req, ctx, out),
        p => {
            if let Some(rest) = p.strip_prefix("/pedigree/") {
                pedigree(rest, req, ctx, out)
            } else {
                (not_found(out, "no such endpoint"), ReqStats::default())
            }
        }
    }
}

fn healthz<'a>(ctx: &Ctx, out: &'a mut String) -> Response<'a> {
    out.push_str("{\"status\": \"ok\", \"entities\": ");
    let _ = write!(
        out,
        "{}, \"uptime_ms\": {}, \"snapshot_generation\": {}",
        ctx.engine.graph().len(),
        ctx.started.elapsed().as_millis(),
        ctx.generation.get()
    );
    out.push_str(", \"snapshot\": ");
    match &ctx.snapshot {
        Some(stamp) => {
            let _ = write!(
                out,
                "{{\"version\": {}, \"checksum_crc32\": \"{:08x}\", \"bytes\": {}}}",
                stamp.version, stamp.checksum, stamp.bytes
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
    Response::json(200, out)
}

fn metrics<'a>(req: &Request, ctx: &Ctx, out: &'a mut String) -> Response<'a> {
    match req.param("format") {
        None | Some("json") => metrics_json(ctx, out),
        Some("prom") => metrics_prom(ctx, out),
        Some(other) => bad_request(out, &format!("unknown format '{other}' (use json|prom)")),
    }
}

fn metrics_json<'a>(ctx: &Ctx, out: &'a mut String) -> Response<'a> {
    match ctx.obs.report() {
        Some(report) => {
            report.render_json(out);
            Response::json(200, out)
        }
        None => Response::json(200, "{\"enabled\": false}"),
    }
}

/// Prometheus text exposition of the same registry `/metrics` serves as
/// JSON (see `snaps_obs::RunReport::to_prometheus` for the naming rules).
fn metrics_prom<'a>(ctx: &Ctx, out: &'a mut String) -> Response<'a> {
    match ctx.obs.report() {
        Some(report) => {
            report.render_prometheus(out);
            Response::prometheus(out)
        }
        None => Response::prometheus("# instrumentation disabled\n"),
    }
}

fn write_trace_json(body: &mut String, t: &TraceRecord) {
    body.push('{');
    json::key(body, "seq");
    let _ = write!(body, "{}", t.seq);
    body.push_str(", ");
    json::key(body, "route");
    json::string(body, t.route);
    body.push_str(", ");
    json::key(body, "status");
    let _ = write!(body, "{}", t.status);
    body.push_str(", ");
    json::key(body, "latency_us");
    let _ = write!(body, "{}", t.latency_us);
    body.push_str(", ");
    json::key(body, "queue_wait_us");
    let _ = write!(body, "{}", t.queue_wait_us);
    body.push_str(", ");
    json::key(body, "cache_hits");
    let _ = write!(body, "{}", t.cache_hits);
    body.push_str(", ");
    json::key(body, "cache_misses");
    let _ = write!(body, "{}", t.cache_misses);
    body.push_str(", ");
    json::key(body, "candidates");
    let _ = write!(body, "{}", t.candidates);
    body.push_str(", ");
    json::key(body, "results");
    let _ = write!(body, "{}", t.results);
    body.push_str(", ");
    json::key(body, "params");
    json::string(body, &t.params);
    body.push('}');
}

fn trace_list_response<'a>(
    out: &'a mut String,
    traces: &[TraceRecord],
    extra_key: &str,
    extra_value: u64,
) -> Response<'a> {
    out.push('{');
    json::key(out, extra_key);
    let _ = write!(out, "{}", extra_value);
    out.push_str(", ");
    json::key(out, "count");
    let _ = write!(out, "{}", traces.len());
    out.push_str(", ");
    json::key(out, "traces");
    out.push('[');
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_trace_json(out, t);
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `GET /debug/traces?n=` — the most recent `n` traced requests (default
/// 32, capped at the ring capacity), newest first.
fn debug_traces<'a>(req: &Request, ctx: &Ctx, out: &'a mut String) -> (Response<'a>, ReqStats) {
    let n = match req.param("n") {
        None => 32,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return (bad_request(out, "n must be a positive integer"), ReqStats::default()),
        },
    };
    let traces = ctx.traces.recent(n.min(ctx.traces.capacity()));
    let stats = ReqStats { results: count_u64(traces.len()), ..ReqStats::default() };
    (trace_list_response(out, &traces, "pushed", ctx.traces.pushed()), stats)
}

/// `GET /debug/slow?threshold_us=` — retained traces at or above the
/// latency threshold (default [`DEFAULT_SLOW_THRESHOLD_US`]), slowest
/// first.
fn debug_slow<'a>(req: &Request, ctx: &Ctx, out: &'a mut String) -> (Response<'a>, ReqStats) {
    let threshold_us = match req.param("threshold_us") {
        None => DEFAULT_SLOW_THRESHOLD_US,
        Some(v) => match v.parse::<u64>() {
            Ok(t) => t,
            Err(_) => {
                let resp = bad_request(out, "threshold_us must be a non-negative integer");
                return (resp, ReqStats::default());
            }
        },
    };
    let traces = ctx.traces.slow(threshold_us);
    let stats = ReqStats { results: count_u64(traces.len()), ..ReqStats::default() };
    (trace_list_response(out, &traces, "threshold_us", threshold_us), stats)
}

/// Build a validated [`QueryRecord`] from `/search` parameters, mapping
/// every invalid input to an error message instead of a panic.
fn parse_search(req: &Request) -> Result<(QueryRecord, usize), String> {
    let first = normalize_name(req.param("first").unwrap_or(""));
    let last = normalize_name(req.param("last").unwrap_or(""));
    if first.is_empty() {
        return Err("parameter 'first' is mandatory".into());
    }
    if last.is_empty() {
        return Err("parameter 'last' is mandatory".into());
    }
    let kind = match req.param("kind").unwrap_or("birth") {
        "birth" => SearchKind::Birth,
        "death" => SearchKind::Death,
        other => return Err(format!("unknown kind '{other}' (use birth|death)")),
    };
    let mut q = QueryRecord::try_new(&first, &last, kind).map_err(str::to_owned)?;

    if let Some(g) = req.param("gender") {
        q = q.with_gender(match g {
            "f" => Gender::Female,
            "m" => Gender::Male,
            other => return Err(format!("unknown gender '{other}' (use f|m)")),
        });
    }
    match (req.param("year_from"), req.param("year_to")) {
        (None, None) => {}
        (Some(from), Some(to)) => {
            let from: i32 = from.parse().map_err(|_| "year_from is not an integer")?;
            let to: i32 = to.parse().map_err(|_| "year_to is not an integer")?;
            q = q
                .try_with_years(from, to)
                .map_err(|_| format!("inverted year range {from}..{to}"))?;
        }
        _ => return Err("year_from and year_to must be given together".into()),
    }
    if let Some(loc) = req.param("location") {
        q = q.try_with_location(loc).map_err(|_| "location normalises to empty".to_owned())?;
    }
    let top_m = match req.param("m") {
        None => 10,
        Some(m) => match m.parse::<usize>() {
            Ok(m) if (1..=MAX_TOP_M).contains(&m) => m,
            _ => return Err(format!("m must be an integer in 1..={MAX_TOP_M}")),
        },
    };
    Ok((q, top_m))
}

fn search<'a>(req: &Request, ctx: &Ctx, out: &'a mut String) -> (Response<'a>, ReqStats) {
    let (q, top_m) = match parse_search(req) {
        Ok(p) => p,
        Err(msg) => return (bad_request(out, &msg), ReqStats::default()),
    };
    // Counter deltas attribute engine-side work to this request; under
    // concurrency a delta may include a sibling request's work — traces
    // are diagnostics, not accounting.
    let (hits0, misses0, cand0) =
        (ctx.sim_hits.get(), ctx.sim_misses.get(), ctx.candidates_scored.get());
    let results = ctx.engine.query(&q, top_m);
    let stats = ReqStats {
        cache_hits: ctx.sim_hits.get().saturating_sub(hits0),
        cache_misses: ctx.sim_misses.get().saturating_sub(misses0),
        candidates: ctx.candidates_scored.get().saturating_sub(cand0),
        results: count_u64(results.len()),
    };

    out.push_str("{\"count\": ");
    let _ = write!(out, "{}", results.len());
    out.push_str(", \"results\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        json::key(out, "entity");
        let _ = write!(out, "{}", r.entity.0);
        out.push_str(", ");
        json::key(out, "name");
        match ctx.engine.graph().get(r.entity).map(PedigreeEntity::name_parts) {
            Some((first, surname)) => json::pair(out, first, surname),
            None => json::string(out, ""),
        }
        out.push_str(", ");
        json::key(out, "score_percent");
        json::f64(out, r.score_percent);
        out.push_str(", ");
        json::key(out, "first_name_sim");
        json::f64(out, r.first_name_sim);
        out.push_str(", ");
        json::key(out, "surname_sim");
        json::f64(out, r.surname_sim);
        out.push_str(", ");
        json::key(out, "year_score");
        json::opt_f64(out, r.year_score);
        out.push_str(", ");
        json::key(out, "gender_score");
        json::opt_f64(out, r.gender_score);
        out.push_str(", ");
        json::key(out, "location_score");
        json::opt_f64(out, r.location_score);
        out.push('}');
    }
    out.push_str("]}");
    (Response::json(200, out), stats)
}

fn pedigree<'a>(
    rest: &str,
    req: &Request,
    ctx: &Ctx,
    out: &'a mut String,
) -> (Response<'a>, ReqStats) {
    let Ok(id) = rest.parse::<u32>() else {
        return (bad_request(out, "pedigree id must be an unsigned integer"), ReqStats::default());
    };
    let entity = EntityId(id);
    if entity.index() >= ctx.engine.graph().len() {
        return (not_found(out, "no such entity"), ReqStats::default());
    }
    let generations = match req.param("g") {
        None => DEFAULT_GENERATIONS,
        Some(g) => match g.parse::<usize>() {
            Ok(g) if (1..=MAX_GENERATIONS).contains(&g) => g,
            _ => {
                let resp =
                    bad_request(out, &format!("g must be an integer in 1..={MAX_GENERATIONS}"));
                return (resp, ReqStats::default());
            }
        },
    };
    let ped = extract(ctx.engine.graph(), entity, generations);
    let stats = ReqStats { results: count_u64(ped.members.len()), ..ReqStats::default() };

    out.push_str("{\"root\": ");
    let _ = write!(out, "{}", ped.root.0);
    out.push_str(", \"members\": [");
    let mut first_member = true;
    for m in &ped.members {
        let Some(e) = ctx.engine.graph().get(m.entity) else { continue };
        if !first_member {
            out.push_str(", ");
        }
        first_member = false;
        out.push('{');
        json::key(out, "entity");
        let _ = write!(out, "{}", m.entity.0);
        out.push_str(", ");
        json::key(out, "name");
        let (first, surname) = e.name_parts();
        json::pair(out, first, surname);
        out.push_str(", ");
        json::key(out, "gender");
        json::string(out, e.gender.code());
        out.push_str(", ");
        json::key(out, "birth_year");
        json::opt_i32(out, e.birth_year);
        out.push_str(", ");
        json::key(out, "death_year");
        json::opt_i32(out, e.death_year);
        out.push_str(", ");
        json::key(out, "generation");
        let _ = write!(out, "{}", m.generation);
        out.push_str(", ");
        json::key(out, "hops");
        let _ = write!(out, "{}", m.hops);
        out.push('}');
    }
    out.push_str("], \"edges\": [");
    for (i, (a, b, rel)) in ped.edges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}, ", a.0, b.0);
        json::string(out, rel.code());
        out.push(']');
    }
    out.push_str("]}");
    (Response::json(200, out), stats)
}
