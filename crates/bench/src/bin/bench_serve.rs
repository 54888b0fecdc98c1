//! Load generator for the `snaps-serve` online service.
//!
//! Exercises the full serving path end to end: build an engine offline,
//! persist it to a snapshot, restore it, serve it on an ephemeral port,
//! then drive it with concurrent HTTP clients. Reports sustained QPS and
//! p50/p95/p99 request latency, and asserts that every concurrent response
//! is byte-identical to the single-threaded baseline — the memoising
//! caches must never change observable results under contention.
//!
//! ```text
//! cargo run --release --bin bench_serve -- --scale 0.05 --report results/BENCH_serve.json
//! ```
//!
//! Environment knobs (for CI smoke runs):
//! - `SNAPS_SERVE_CLIENTS`  — concurrent client threads (default 4, min 4)
//! - `SNAPS_SERVE_REQUESTS` — requests per client (default 200)

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the load generator drives real sockets from client threads and times them"
)]

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snaps_bench::{format_table, write_report, ExperimentArgs};
use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_eval::timing::generate_query_batch;
use snaps_obs::{Obs, ObsConfig};
use snaps_query::{QueryRecord, SearchEngine, SearchKind};
use snaps_serve::{snapshot, Server, ServerConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Minimal percent-encoding for normalised name values (lowercase
/// alphanumerics, `-`, `'`, single spaces).
fn encode(v: &str) -> String {
    v.replace('%', "%25").replace(' ', "%20").replace('\'', "%27")
}

fn target_for(q: &QueryRecord) -> String {
    let mut t = format!(
        "/search?first={}&last={}&kind={}&m=10",
        encode(&q.first_name),
        encode(&q.surname),
        match q.kind {
            SearchKind::Birth => "birth",
            SearchKind::Death => "death",
        }
    );
    if let Some(g) = q.gender {
        t.push_str(&format!("&gender={}", g.code()));
    }
    if let Some((from, to)) = q.year_range {
        t.push_str(&format!("&year_from={from}&year_to={to}"));
    }
    if let Some(loc) = &q.location {
        t.push_str(&format!("&location={}", encode(loc)));
    }
    t
}

/// One GET over a fresh connection; returns `(status, body)`. The request
/// says `Connection: close`, so this bench keeps measuring one request per
/// connection (the `perfbench` workloads measure kept connections).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to snaps-serve");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    write!(s, "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let args = ExperimentArgs::parse();
    let clients = env_usize("SNAPS_SERVE_CLIENTS", 4).max(4);
    let requests_per_client = env_usize("SNAPS_SERVE_REQUESTS", 200).max(1);

    let obs = Obs::new(&ObsConfig::full());

    // Offline phase: build, persist, restore — the bench always goes
    // through the snapshot so persistence stays on the measured path.
    eprintln!("[bench_serve] building engine (ios scaled {}, seed {})…", args.scale, args.seed);
    let data = generate(&DatasetProfile::ios().scaled(args.scale), args.seed);
    let res = resolve(&data.dataset, &SnapsConfig::default());
    let engine = SearchEngine::build(PedigreeGraph::build(&data.dataset, &res));
    let snap_path =
        std::env::temp_dir().join(format!("bench_serve_{}_{}.snap", std::process::id(), args.seed));
    snapshot::save(&engine, &snap_path).expect("write snapshot");
    let snap_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let engine = Arc::new(snapshot::load(&snap_path, &obs).expect("load snapshot"));
    eprintln!(
        "[bench_serve] snapshot {} bytes, {} entities restored",
        snap_bytes,
        engine.graph().len()
    );

    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), &obs, &ServerConfig::default())
        .expect("start server");
    let addr = server.addr();

    let queries = generate_query_batch(engine.graph(), 50, args.seed.wrapping_add(7));
    let targets: Vec<String> = queries.iter().map(target_for).collect();

    // Single-threaded baseline: one sequential pass over the batch.
    let baseline: Vec<String> = targets
        .iter()
        .map(|t| {
            let (status, body) = get(addr, t);
            assert_eq!(status, 200, "baseline request failed: {t} → {body}");
            body
        })
        .collect();
    let baseline = Arc::new(baseline);
    let targets = Arc::new(targets);

    // Load phase: concurrent clients replay the batch round-robin, each
    // response checked against the single-threaded baseline.
    eprintln!("[bench_serve] {clients} clients × {requests_per_client} requests…");
    let latency_hist = obs.histogram("bench.serve.latency");
    let load_started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let targets = Arc::clone(&targets);
            let baseline = Arc::clone(&baseline);
            let hist = latency_hist.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(requests_per_client);
                let mut resp_bytes = 0u64;
                for r in 0..requests_per_client {
                    let i = (c + r * 31) % targets.len();
                    let started = Instant::now();
                    let (status, body) = get(addr, &targets[i]);
                    let elapsed = started.elapsed();
                    latencies.push(elapsed);
                    hist.record(elapsed);
                    resp_bytes += body.len() as u64;
                    assert_eq!(status, 200, "request failed under load: {}", targets[i]);
                    assert_eq!(
                        body, baseline[i],
                        "concurrent response diverged from single-threaded baseline for {}",
                        targets[i]
                    );
                }
                (latencies, resp_bytes)
            })
        })
        .collect();

    let mut latencies: Vec<Duration> = Vec::with_capacity(clients * requests_per_client);
    let mut total_resp_bytes = 0u64;
    for h in handles {
        let (lat, bytes) = h.join().expect("client thread panicked");
        latencies.extend(lat);
        total_resp_bytes += bytes;
    }
    let wall = load_started.elapsed();

    // Scrape the live telemetry endpoints while the server is still up:
    // the Prometheus exposition becomes a CI artifact, and the debug
    // endpoints get an end-to-end smoke check under real load.
    let (prom_status, prom_body) = get(addr, "/metrics?format=prom");
    assert_eq!(prom_status, 200, "prometheus exposition failed");
    assert!(prom_body.contains("# TYPE"), "exposition lacks TYPE lines");
    // Allocation proxy: how often any worker's reusable response buffer
    // had to regrow. After warm-up this should be static; the ratchet
    // catches per-request allocation creeping back into the serve path.
    let resp_buf_regrow: u64 = prom_body
        .lines()
        .find_map(|l| l.strip_prefix("snaps_serve_resp_buf_regrow_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let (traces_status, traces_body) = get(addr, "/debug/traces?n=10");
    assert_eq!(traces_status, 200, "debug traces failed: {traces_body}");
    let (slow_status, _) = get(addr, "/debug/slow?threshold_us=1");
    assert_eq!(slow_status, 200, "debug slow failed");
    if let Some(report_path) = &args.report {
        let prom_path = std::path::Path::new(report_path).with_extension("prom");
        std::fs::write(&prom_path, &prom_body).expect("write prometheus exposition");
        eprintln!("[bench_serve] wrote prometheus exposition to {}", prom_path.display());
    }

    server.shutdown();
    let _ = std::fs::remove_file(&snap_path);

    latencies.sort_unstable();
    let total = latencies.len();
    let qps = total as f64 / wall.as_secs_f64();
    let (p50, p95, p99) =
        (percentile(&latencies, 50.0), percentile(&latencies, 95.0), percentile(&latencies, 99.0));

    let fmt_ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    println!(
        "{}",
        format_table(
            &["metric", "value"],
            &[
                vec!["clients".into(), clients.to_string()],
                vec!["requests".into(), total.to_string()],
                vec!["wall s".into(), format!("{:.3}", wall.as_secs_f64())],
                vec!["qps".into(), format!("{qps:.1}")],
                vec!["p50 ms".into(), fmt_ms(p50)],
                vec!["p95 ms".into(), fmt_ms(p95)],
                vec!["p99 ms".into(), fmt_ms(p99)],
                vec!["snapshot bytes".into(), snap_bytes.to_string()],
                vec![
                    "resp bytes/req".into(),
                    (total_resp_bytes / (total.max(1) as u64)).to_string(),
                ],
                vec!["resp buf regrows".into(), resp_buf_regrow.to_string()],
            ],
        )
    );
    println!("all {total} concurrent responses identical to the single-threaded baseline");

    if let Some(report) = obs.report() {
        let report = report
            .with_meta("clients", clients)
            .with_meta("requests", total)
            .with_meta("qps", format!("{qps:.1}"))
            .with_meta("snapshot_bytes", snap_bytes)
            .with_meta("resp_bytes_per_req", total_resp_bytes / (total.max(1) as u64))
            .with_meta("resp_buf_regrow", resp_buf_regrow);
        write_report(report, &args, "bench_serve");
    }
}
