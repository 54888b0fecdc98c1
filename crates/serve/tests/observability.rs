//! Integration tests for the live-telemetry surface: `/debug/traces`,
//! `/debug/slow`, the Prometheus exposition, and the snapshot identity in
//! `/healthz` — all exercised over real sockets with mixed traffic.

#![expect(clippy::disallowed_types, reason = "drives the server over real sockets")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_obs::{Obs, ObsConfig};
use snaps_query::SearchEngine;
use snaps_serve::{snapshot, Server, ServerConfig};

fn test_engine(obs: &Obs) -> Arc<SearchEngine> {
    let data = generate(&DatasetProfile::ios().scaled(0.02), 42);
    let res = resolve(&data.dataset, &SnapsConfig::default());
    Arc::new(SearchEngine::build_obs(PedigreeGraph::build(&data.dataset, &res), obs))
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").expect("send");
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

/// Every value of `"key": <u64>` in a crude scan of `body`, in order.
fn json_u64s(body: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\": ");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let digits: String =
                body[at + needle.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("numeric field")
        })
        .collect()
}

#[test]
fn debug_traces_order_and_latency_under_mixed_traffic() {
    let obs = Obs::new(&ObsConfig::full());
    let engine = test_engine(&obs);
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), &obs, &ServerConfig::default())
        .expect("bind ephemeral");
    let addr = server.addr();

    // Mixed traffic: 2xx searches and pedigrees, a 400, a 404.
    let e = &engine.graph().entities[0];
    let search = format!("/search?first={}&last={}&m=3", e.first_names[0], e.surnames[0]);
    for _ in 0..4 {
        assert_eq!(get(addr, &search).0, 200);
        assert_eq!(get(addr, "/pedigree/0?g=2").0, 200);
    }
    assert_eq!(get(addr, "/search?first=&last=x").0, 400);
    assert_eq!(get(addr, "/nope").0, 404);

    let (status, body) = get(addr, "/debug/traces?n=50");
    assert_eq!(status, 200, "traces body: {body}");
    let seqs = json_u64s(&body, "seq");
    assert!(seqs.len() >= 10, "expected ≥10 traces, got {}: {body}", seqs.len());
    assert!(seqs.windows(2).all(|w| w[0] > w[1]), "traces must be newest-first: {seqs:?}");
    let latencies = json_u64s(&body, "latency_us");
    assert!(latencies.iter().all(|&l| l >= 1), "latency fields must be non-zero: {latencies:?}");
    for expected in ["\"route\": \"search\"", "\"route\": \"pedigree\"", "\"route\": \"other\""] {
        assert!(body.contains(expected), "traces lack {expected}: {body}");
    }
    for expected in ["\"status\": 400", "\"status\": 404", "\"status\": 200"] {
        assert!(body.contains(expected), "traces lack {expected}");
    }
    assert!(body.contains("\"params\": \"first="), "search params digested: {body}");

    // `/debug/slow` at threshold 0 returns every retained trace, slowest
    // first; an unreachable threshold returns none.
    let (status, slow_all) = get(addr, "/debug/slow?threshold_us=1");
    assert_eq!(status, 200);
    let slow_lat = json_u64s(&slow_all, "latency_us");
    assert!(!slow_lat.is_empty());
    assert!(slow_lat.windows(2).all(|w| w[0] >= w[1]), "slowest first: {slow_lat:?}");
    let (status, slow_none) = get(addr, "/debug/slow?threshold_us=18446744073709551615");
    assert_eq!(status, 200);
    assert!(json_u64s(&slow_none, "latency_us").is_empty());

    // Parameter validation.
    assert_eq!(get(addr, "/debug/traces?n=0").0, 400);
    assert_eq!(get(addr, "/debug/slow?threshold_us=-3").0, 400);

    server.shutdown();
}

#[test]
fn prometheus_exposition_is_valid_and_buckets_are_cumulative() {
    let obs = Obs::new(&ObsConfig::full());
    let engine = test_engine(&obs);
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), &obs, &ServerConfig::default())
        .expect("bind ephemeral");
    let addr = server.addr();

    let e = &engine.graph().entities[0];
    let search = format!("/search?first={}&last={}&m=3", e.first_names[0], e.surnames[0]);
    for _ in 0..5 {
        assert_eq!(get(addr, &search).0, 200);
    }

    let (status, body) = get(addr, "/metrics?format=prom");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE snaps_serve_requests_total counter"), "body: {body}");
    assert!(body.contains("# TYPE snaps_serve_queue_depth gauge"));
    assert!(body.contains("# TYPE snaps_query_latency_ns histogram"));
    assert!(body.contains("snaps_serve_route_search_2xx_total 5"));

    // Histogram buckets: cumulative counts, closed by an +Inf bucket whose
    // value equals _count.
    let bucket_prefix = "snaps_query_latency_ns_bucket{le=\"";
    let mut counts: Vec<u64> = Vec::new();
    let mut inf_count = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(bucket_prefix) {
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            let count: u64 = count.parse().expect("bucket count");
            if le == "+Inf" {
                inf_count = Some(count);
            } else {
                counts.push(count);
            }
        }
    }
    assert!(!counts.is_empty(), "no latency buckets in: {body}");
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative: {counts:?}");
    let inf = inf_count.expect("+Inf bucket present");
    assert!(counts.last().is_none_or(|&last| last <= inf));
    let count_line = body
        .lines()
        .find_map(|l| l.strip_prefix("snaps_query_latency_ns_count "))
        .expect("_count line");
    assert_eq!(count_line.parse::<u64>().expect("count"), inf, "+Inf equals _count");

    // JSON stays the default; unknown formats are rejected.
    let (status, json_body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(json_body.starts_with('{'));
    assert_eq!(get(addr, "/metrics?format=xml").0, 400);

    server.shutdown();
}

#[test]
fn healthz_reports_snapshot_identity_and_generation() {
    let obs = Obs::new(&ObsConfig::full());
    let engine = test_engine(&obs);

    // Without a snapshot stamp the field is explicitly null.
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), &obs, &ServerConfig::default())
        .expect("bind ephemeral");
    let (status, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"snapshot_generation\": 1"), "body: {body}");
    assert!(body.contains("\"snapshot\": null"), "body: {body}");
    server.shutdown();

    // Served from a snapshot, /healthz carries its version + checksum.
    let path = std::env::temp_dir().join(format!("snaps_obs_healthz_{}.snap", std::process::id()));
    snapshot::save(&engine, &path).expect("save snapshot");
    let obs2 = Obs::new(&ObsConfig::full());
    let (restored, stamp) = snapshot::load_stamped(&path, &obs2).expect("load snapshot");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig { snapshot: Some(stamp), ..ServerConfig::default() };
    let server =
        Server::start("127.0.0.1:0", Arc::new(restored), &obs2, &config).expect("bind ephemeral");
    let (status, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"version\": {}", stamp.version)), "body: {body}");
    assert!(body.contains(&format!("\"checksum_crc32\": \"{:08x}\"", stamp.checksum)));
    assert!(body.contains(&format!("\"bytes\": {}", stamp.bytes)));
    server.shutdown();
}
