//! End-to-end tests of the HTTP service on an ephemeral port: every
//! endpoint, malformed-input handling, queue-full backpressure, keep-alive,
//! connection outcome counters, and clean shutdown.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "drives the server over real sockets, from several client threads, against deadlines"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_obs::{Obs, ObsConfig};
use snaps_query::SearchEngine;
use snaps_serve::{Server, ServerConfig};

fn test_engine(obs: &Obs) -> Arc<SearchEngine> {
    let data = generate(&DatasetProfile::ios().scaled(0.02), 42);
    let res = resolve(&data.dataset, &SnapsConfig::default());
    Arc::new(SearchEngine::build_obs(PedigreeGraph::build(&data.dataset, &res), obs))
}

fn start_server(obs: &Obs, config: &ServerConfig) -> (Server, Arc<SearchEngine>) {
    let engine = test_engine(obs);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&engine), obs, config).expect("bind ephemeral");
    (server, engine)
}

/// Send one GET on a fresh connection and return `(status, body)`. The
/// request says `Connection: close`, so the reply can be read to EOF.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").expect("send");
    read_response(&mut s)
}

fn read_response(s: &mut TcpStream) -> (u16, String) {
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn all_endpoints_respond() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();

    // /healthz reports the engine size.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "healthz body: {body}");
    assert!(body.contains(&format!("\"entities\": {}", engine.graph().len())));

    // /search with a name taken from the dataset itself.
    let e = &engine.graph().entities[0];
    let (first, last) = (e.first_names[0].clone(), e.surnames[0].clone());
    let (status, body) = get(addr, &format!("/search?first={first}&last={last}&m=5"));
    assert_eq!(status, 200, "search body: {body}");
    assert!(body.starts_with("{\"count\": "), "search body: {body}");
    assert!(body.contains("\"score_percent\""));

    // /search exercising every optional parameter.
    let (status, body) = get(
        addr,
        &format!(
            "/search?first={first}&last={last}&kind=death&gender=f&year_from=1800&year_to=1920&location=portree&m=3"
        ),
    );
    assert_eq!(status, 200, "full search body: {body}");

    // /pedigree for entity 0.
    let (status, body) = get(addr, "/pedigree/0?g=2");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"root\": 0"), "pedigree body: {body}");
    assert!(body.contains("\"members\""));
    assert!(body.contains("\"edges\""));

    // /metrics shows query count and latency quantiles (shared obs).
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"query.count\""), "metrics body lacks query.count");
    assert!(body.contains("\"query.latency\""));
    assert!(body.contains("\"p95_ns\""));
    assert!(body.contains("\"serve.requests\""));

    server.shutdown();
}

#[test]
fn invalid_inputs_get_400_or_404() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();

    // Malformed HTTP gets 400.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "THIS IS NOT HTTP\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut s);
    assert_eq!(status, 400);

    // Invalid query parameters get 400 with an explanatory body.
    for target in [
        "/search",                                            // missing mandatory names
        "/search?first=a&last=b&kind=wedding",                // bad kind
        "/search?first=a&last=b&gender=x",                    // bad gender
        "/search?first=a&last=b&year_from=1900",              // half a year range
        "/search?first=a&last=b&year_from=1900&year_to=1890", // inverted
        "/search?first=a&last=b&m=0",                         // m out of range
        "/search?first=a&last=b&m=%zz",                       // bad escape
        "/pedigree/not-a-number",
        "/pedigree/0?g=99",
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, 400, "{target} should be 400, body: {body}");
        assert!(body.contains("\"error\""), "{target} body lacks error: {body}");
    }

    // Unknown paths and out-of-range entities get 404.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let huge = engine.graph().len();
    let (status, _) = get(addr, &format!("/pedigree/{huge}"));
    assert_eq!(status, 404);

    // Non-GET gets 405.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "POST /search HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut s);
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn full_queue_answers_503_then_recovers() {
    let obs = Obs::new(&ObsConfig::full());
    // One worker, one queue slot, short read timeout so the held
    // connections release quickly after the assertion.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let (server, _engine) = start_server(&obs, &config);
    let addr = server.addr();

    // Occupy the single worker and the single queue slot with connections
    // that never send a request.
    let hold_worker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    let hold_queue = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    // The next connection finds the queue full: explicit 503, immediately,
    // from the accept thread.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (status, body) = read_response(&mut s);
    assert_eq!(status, 503, "expected backpressure rejection, body: {body}");
    assert!(body.contains("overloaded"));

    // Release the held connections; the worker times them out and the
    // server returns to normal service.
    drop(hold_worker);
    drop(hold_queue);
    std::thread::sleep(Duration::from_millis(200));
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "server must recover after backpressure");

    let report = obs.report().expect("enabled");
    assert!(report.counter("serve.http_503").unwrap_or(0) >= 1, "503 counter recorded");

    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_final() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").0, 200);

    // shutdown() joins the accept thread and all workers; returning at all
    // proves no thread is wedged.
    server.shutdown();

    // The port no longer accepts (or accepts nothing that answers).
    match TcpStream::connect(addr) {
        Err(_) => {} // listener closed — expected
        Ok(mut s) => {
            // Rare race: kernel backlog; the connection must go nowhere.
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let n = s.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "no worker should answer after shutdown");
        }
    }
}

/// Current value of the reusable-response-buffer regrowth counter, read
/// off the live Prometheus exposition.
fn scrape_regrow(addr: SocketAddr) -> u64 {
    let (status, body) = get(addr, "/metrics?format=prom");
    assert_eq!(status, 200, "prometheus exposition failed");
    body.lines()
        .find_map(|l| l.strip_prefix("snaps_serve_resp_buf_regrow_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The per-worker response buffer reaches its working-set size during
/// warm-up and then never regrows: 100 mixed requests after warm-up leave
/// the regrowth counter untouched while every response stays
/// byte-identical. A single worker makes the counter race-free — each
/// request's increment lands before the next request is picked up.
#[test]
fn response_buffer_capacity_stabilizes_under_mixed_load() {
    let obs = Obs::new(&ObsConfig::full());
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (server, engine) = start_server(&obs, &config);
    let addr = server.addr();

    let e = &engine.graph().entities[0];
    let search = format!("/search?first={}&last={}&m=10", e.first_names[0], e.surnames[0]);
    let pedigree = "/pedigree/0?g=4";
    let golden_search = get(addr, &search);
    let golden_pedigree = get(addr, pedigree);
    assert_eq!(golden_search.0, 200, "search golden: {}", golden_search.1);
    assert_eq!(golden_pedigree.0, 200, "pedigree golden: {}", golden_pedigree.1);

    // Warm-up: every response shape the loop below will produce, including
    // the Prometheus exposition (the largest body), so the buffer reaches
    // its maximum working-set size before the baseline scrape.
    for _ in 0..5 {
        let _ = get(addr, &search);
        let _ = get(addr, pedigree);
        let _ = scrape_regrow(addr);
    }
    let regrow_after_warmup = scrape_regrow(addr);
    assert!(regrow_after_warmup >= 1, "warm-up growth is counted");

    // Steady state: 100 mixed requests, byte-identical to the goldens,
    // with zero further buffer growth.
    for i in 0..50 {
        assert_eq!(get(addr, &search), golden_search, "search diverged at iteration {i}");
        assert_eq!(get(addr, pedigree), golden_pedigree, "pedigree diverged at iteration {i}");
    }
    let regrow_final = scrape_regrow(addr);
    assert_eq!(regrow_final, regrow_after_warmup, "response buffer regrew under steady mixed load");

    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_engine() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();

    let e = &engine.graph().entities[0];
    let target = format!("/search?first={}&last={}&m=5", e.first_names[0], e.surnames[0]);
    let expected = get(addr, &target);
    assert_eq!(expected.0, 200);

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let target = target.clone();
            std::thread::spawn(move || get(addr, &target))
        })
        .collect();
    for h in handles {
        let got = h.join().expect("client thread");
        assert_eq!(got, expected, "all clients see identical results");
    }

    server.shutdown();
}

/// One reply read off a kept connection, framed by `Content-Length`.
#[derive(Debug, PartialEq, Eq)]
struct Reply {
    status: u16,
    /// The `Connection` header's value.
    connection: String,
    /// Status line and headers other than `Connection`, then the body.
    rest: String,
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    BufReader::new(s)
}

fn send(conn: &mut BufReader<TcpStream>, raw: &str) {
    conn.get_mut().write_all(raw.as_bytes()).expect("send");
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> Reply {
    let (mut status, mut connection, mut rest, mut length) = (0, String::new(), String::new(), 0);
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("header line");
        assert!(line.ends_with("\r\n"), "truncated reply line {line:?}");
        if line == "\r\n" {
            break;
        }
        if let Some(code) = line.strip_prefix("HTTP/1.1 ") {
            status = code.split(' ').next().and_then(|c| c.parse().ok()).expect("status");
        }
        match line.split_once(": ") {
            Some(("Connection", v)) => connection = v.trim_end().to_string(),
            Some(("Content-Length", v)) => length = v.trim_end().parse().expect("length"),
            _ => {}
        }
        if !line.starts_with("Connection: ") {
            rest.push_str(&line);
        }
    }
    let mut body = vec![0; length];
    conn.read_exact(&mut body).expect("body");
    rest.push_str(std::str::from_utf8(&body).expect("UTF-8 body"));
    Reply { status, connection, rest }
}

/// The server has closed the connection: reading returns EOF.
fn assert_closed(conn: &mut BufReader<TcpStream>) {
    let mut tail = Vec::new();
    conn.read_to_end(&mut tail).expect("server closes");
    assert!(tail.is_empty(), "bytes after the last reply: {tail:?}");
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.report().expect("enabled").counter(name).unwrap_or(0)
}

fn mixed_targets(engine: &SearchEngine) -> Vec<String> {
    let e = &engine.graph().entities[0];
    (0..50)
        .map(|i| match i % 3 {
            0 => {
                format!("/search?first={}&last={}&m={}", e.first_names[0], e.surnames[0], 1 + i % 7)
            }
            1 => format!("/pedigree/{}?g={}", i % engine.graph().len(), 1 + i % 4),
            _ => format!("/search?first={}&last={}&kind=death", e.first_names[0], e.surnames[0]),
        })
        .collect()
}

/// Fifty mixed requests over one connection get the same replies as on
/// fresh connections, each counted once, all but the first as reused.
#[test]
fn keep_alive_replies_match_fresh_connections() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();
    let targets = mixed_targets(&engine);
    let fresh: Vec<Reply> = targets
        .iter()
        .map(|t| {
            let mut conn = connect(addr);
            send(&mut conn, &format!("GET {t} HTTP/1.1\r\nConnection: close\r\n\r\n"));
            let reply = read_reply(&mut conn);
            assert_eq!(reply.connection, "close");
            assert_closed(&mut conn);
            reply
        })
        .collect();

    let (requests, reused) = (counter(&obs, "serve.requests"), counter(&obs, "serve.conn.reused"));
    let mut conn = connect(addr);
    for (t, expected) in targets.iter().zip(&fresh) {
        send(&mut conn, &format!("GET {t} HTTP/1.1\r\nHost: test\r\n\r\n"));
        let reply = read_reply(&mut conn);
        assert_eq!(reply.connection, "keep-alive", "{t}");
        assert_eq!(reply.status, 200, "{t}: {}", reply.rest);
        assert_eq!(reply.rest, expected.rest, "{t}");
    }
    assert_eq!(counter(&obs, "serve.requests") - requests, 50);
    assert_eq!(counter(&obs, "serve.conn.reused") - reused, 49);
    server.shutdown();
}

/// Two requests written at once get two replies, in order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let mut conn = connect(server.addr());
    send(
        &mut conn,
        "GET /pedigree/0?g=2 HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let first = read_reply(&mut conn);
    let second = read_reply(&mut conn);
    assert!(first.rest.contains("{\"root\": 0"), "{first:?}");
    assert_eq!(first.connection, "keep-alive");
    assert!(second.rest.contains("\"status\": \"ok\""), "{second:?}");
    assert_eq!(second.connection, "close");
    assert_closed(&mut conn);
    server.shutdown();
}

/// `Connection: close` and HTTP/1.0 without keep-alive end the connection
/// after the reply; HTTP/1.0 asking for keep-alive keeps it.
#[test]
fn close_and_http10_requests_are_closed() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    for (request, keeps) in [
        ("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", false),
        ("GET /healthz HTTP/1.0\r\n\r\n", false),
        ("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
    ] {
        let mut conn = connect(server.addr());
        send(&mut conn, request);
        let reply = read_reply(&mut conn);
        assert_eq!(reply.status, 200);
        if keeps {
            assert_eq!(reply.connection, "keep-alive", "{request:?}");
            send(&mut conn, "GET /healthz HTTP/1.0\r\n\r\n");
            assert_eq!(read_reply(&mut conn).connection, "close");
        } else {
            assert_eq!(reply.connection, "close", "{request:?}");
        }
        assert_closed(&mut conn);
    }
    server.shutdown();
}

/// A malformed request on a kept connection gets `400`, then a close.
#[test]
fn malformed_second_request_gets_400_then_close() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let mut conn = connect(server.addr());
    send(&mut conn, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(read_reply(&mut conn).connection, "keep-alive");
    send(&mut conn, "THIS IS NOT HTTP\r\n\r\n");
    let reply = read_reply(&mut conn);
    assert_eq!((reply.status, reply.connection.as_str()), (400, "close"), "{reply:?}");
    assert_closed(&mut conn);
    server.shutdown();
}

/// With one worker, a client idling on a kept connection does not block a
/// second client: the worker gives the idle connection up.
#[test]
fn idle_kept_connection_yields_to_waiting_client() {
    let obs = Obs::new(&ObsConfig::full());
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (server, _engine) = start_server(&obs, &config);
    let mut idle = connect(server.addr());
    send(&mut idle, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(read_reply(&mut idle).connection, "keep-alive");

    let started = Instant::now();
    let (status, _) = get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    let waited = started.elapsed();
    assert!(waited < Duration::from_millis(500), "second client waited {waited:?}");
    assert_closed(&mut idle);
    assert_eq!(counter(&obs, "serve.conn.close.yield"), 1);
    server.shutdown();
}

/// The server closes a connection after its request cap.
#[test]
fn connection_closes_after_request_cap() {
    const REQUEST_CAP: usize = 1000; // `MAX_REQUESTS_PER_CONN` in the server
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let mut conn = connect(server.addr());
    for i in 1..=REQUEST_CAP {
        send(&mut conn, "GET /nope HTTP/1.1\r\n\r\n");
        let reply = read_reply(&mut conn);
        assert_eq!(reply.status, 404);
        let expected = if i == REQUEST_CAP { "close" } else { "keep-alive" };
        assert_eq!(reply.connection, expected, "request {i}");
    }
    assert_closed(&mut conn);
    assert_eq!(counter(&obs, "serve.conn.close.cap"), 1);
    server.shutdown();
}

/// Shutdown does not wait out `read_timeout` on an idle kept connection.
#[test]
fn shutdown_is_prompt_with_idle_kept_connection() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let mut idle = connect(server.addr());
    send(&mut idle, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(read_reply(&mut idle).connection, "keep-alive");
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < ServerConfig::default().read_timeout / 5, "shutdown took {took:?}");
    assert_closed(&mut idle);
    assert_eq!(counter(&obs, "serve.conn.close.shutdown"), 1);
}

/// After shutdown, every accepted connection that was not shed ended for
/// exactly one counted reason, and every parsed request was either a
/// connection's first or a reused one.
#[test]
fn connection_counters_add_up() {
    let obs = Obs::new(&ObsConfig::full());
    let (server, _engine) = start_server(&obs, &ServerConfig::default());
    let addr = server.addr();
    for _ in 0..3 {
        assert_eq!(get(addr, "/healthz").0, 200); // 3 first requests
    }
    let mut kept = connect(addr);
    for _ in 0..5 {
        send(&mut kept, "GET /healthz HTTP/1.1\r\n\r\n"); // 1 first + 4 reused
        assert_eq!(read_reply(&mut kept).status, 200);
    }
    drop(kept);
    let mut bad = connect(addr);
    send(&mut bad, "NOT HTTP\r\n\r\n");
    assert_eq!(read_reply(&mut bad).status, 400);
    drop(TcpStream::connect(addr).expect("connect"));
    let mut idle = connect(addr);
    send(&mut idle, "GET /healthz HTTP/1.1\r\n\r\n"); // 1 first
    assert_eq!(read_reply(&mut idle).status, 200);
    server.shutdown();

    let report = obs.report().expect("enabled");
    let count = |name: &str| report.counter(name).unwrap_or(0);
    let closes: u64 = ["client", "idle", "cap", "yield", "shutdown", "error"]
        .iter()
        .map(|why| count(&format!("serve.conn.close.{why}")))
        .sum();
    assert!(count("serve.conn.accepted") >= 6, "the test opened at least six connections");
    assert_eq!(count("serve.conn.accepted") - count("serve.route.shed.503"), closes);
    assert_eq!(count("serve.conn.reused"), 4);
    assert_eq!(count("serve.requests"), 5 + count("serve.conn.reused"));
    assert_eq!(count("serve.conn.close.error"), 1);
}
