//! Protocol-robustness tests for the HTTP server: every abusive or
//! malformed input must get a well-formed error response (or a quiet
//! close), and — the part that matters — the server must keep serving
//! afterwards. Each test ends by proving `/healthz` still answers.

use powerbalance::SimConfig;
use powerbalance_harness::CampaignSpec;
use powerbalance_server::client::Client;
use powerbalance_server::http::Limits;
use powerbalance_server::service::ServiceConfig;
use powerbalance_server::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A server with timings tuned for tests: sub-second read deadline (so
/// the slow-loris test doesn't take 10 s) and a small body limit.
fn start_test_server() -> ServerHandle {
    start_server_with_body_limit(8 * 1024)
}

fn start_server_with_body_limit(max_body_bytes: usize) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            queue_depth: 4,
            workers: 1,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        },
        limits: Limits { max_head_bytes: 4 * 1024, max_body_bytes },
        read_timeout: Duration::from_millis(600),
        write_timeout: Duration::from_secs(5),
        max_connections: 16,
    })
    .expect("server binds on an ephemeral port")
}

fn client(server: &ServerHandle) -> Client {
    Client::new(server.addr(), Duration::from_secs(5))
}

/// The liveness check every test ends with.
fn assert_still_serving(server: &ServerHandle) {
    let response = client(server).request("GET", "/healthz", None).expect("healthz answers");
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "ok\n");
}

#[test]
fn malformed_json_submission_gets_400() {
    let server = start_test_server();
    let mut c = client(&server);
    for body in ["this is not json", "{\"name\":", "[]", "{\"name\":\"x\"}", "{}"] {
        let response =
            c.request("POST", "/v1/campaigns", Some(body)).expect("a response comes back");
        assert_eq!(response.status, 400, "body {body:?} must be rejected");
        assert!(response.text().contains("error"), "error responses carry a JSON error body");
    }
    assert_eq!(
        server.service().metrics().campaigns_invalid.load(std::sync::atomic::Ordering::Relaxed),
        5
    );
    assert_still_serving(&server);
}

#[test]
fn bogus_fidelity_query_gets_400() {
    let server = start_test_server();
    let mut c = client(&server);
    // The query is vetted before the body is even parsed, so a
    // placeholder body suffices: the typo alone must sink the request.
    for query in ["?fidelity=sloppy", "?fidelity=", "?fidelity=FAST"] {
        let response = c
            .request("POST", &format!("/v1/campaigns{query}"), Some("{}"))
            .expect("a response comes back");
        assert_eq!(response.status, 400, "query {query:?} must be rejected");
        assert!(
            response.text().contains("unknown fidelity"),
            "the error names the bad parameter: {}",
            response.text()
        );
    }
    let m = server.service().metrics();
    assert_eq!(m.campaigns_invalid.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert_eq!(
        m.campaigns_submitted.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "nothing reaches the queue on a bad query"
    );
    assert_still_serving(&server);
}

#[test]
fn a_misspelled_config_key_gets_400_naming_it() {
    let server = start_test_server();
    let mut c = client(&server);
    let spec = CampaignSpec::new("typo").config("base", SimConfig::default()).benchmark("gzip");
    let good = serde::json::to_string(&spec);
    let bad = good.replacen("\"config\":{", "\"config\":{\"fidelty\":\"Fast\",", 1);
    assert_ne!(bad, good, "the spec has a config object");
    let response = c.request("POST", "/v1/campaigns", Some(&bad)).expect("a response comes back");
    assert_eq!(response.status, 400, "a misspelled key must not run as a default");
    assert!(response.text().contains("fidelty"), "the error names the key: {}", response.text());
    assert_still_serving(&server);
}

#[test]
fn a_zero_cycle_budget_gets_400_naming_it() {
    let server = start_test_server();
    let mut c = client(&server);
    let spec = CampaignSpec::new("idle").config("base", SimConfig::default()).benchmark("gzip");
    let body = serde::json::to_string(&spec.cycles(0));
    assert!(body.contains("\"cycles\":0"), "{body}");
    let response = c.request("POST", "/v1/campaigns", Some(&body)).expect("a response comes back");
    assert_eq!(response.status, 400, "a zero budget must not be admitted");
    assert!(response.text().contains("zero cycle budget"), "{}", response.text());
    assert_still_serving(&server);
}

#[test]
fn oversized_body_gets_413() {
    let server = start_test_server();
    // Over the 8 KiB test limit, but small enough that the write lands in
    // the socket buffers even though the server never reads the body.
    let huge = "x".repeat(16 * 1024);
    let response = client(&server)
        .request("POST", "/v1/campaigns", Some(&huge))
        .expect("a response comes back");
    assert_eq!(response.status, 413);
    assert_still_serving(&server);
}

/// A body nested far deeper than any campaign spec, well inside a 1 MiB
/// body limit: parsed without a depth bound it overflows the connection
/// thread's stack and aborts the whole server.
#[test]
fn deeply_nested_json_gets_400() {
    let server = start_server_with_body_limit(1024 * 1024);
    let body = "[".repeat(100_000);
    let response = client(&server)
        .request("POST", "/v1/campaigns", Some(&body))
        .expect("a response comes back");
    assert_eq!(response.status, 400);
    assert!(response.text().contains("nesting deeper than"), "{}", response.text());
    assert_still_serving(&server);
}

#[test]
fn unknown_routes_get_404() {
    let server = start_test_server();
    let mut c = client(&server);
    for path in ["/", "/v2/campaigns", "/v1/campaign", "/v1/campaigns/not-a-number", "/favicon.ico"]
    {
        let response = c.request("GET", path, None).expect("a response comes back");
        assert_eq!(response.status, 404, "path {path:?}");
    }
    // Unknown id on a known route shape is also 404.
    let response = c.request("GET", "/v1/campaigns/424242", None).expect("responds");
    assert_eq!(response.status, 404);
    assert_still_serving(&server);
}

/// Nothing answers the worker-node paths: a client still expecting a
/// coordinator there gets a prompt 404 rather than waiting on a lease.
#[test]
fn worker_node_routes_get_404() {
    let server = start_test_server();
    let mut c = client(&server);
    for path in ["/v1/nodes", "/v1/leases/1/result"] {
        let response = c.request("POST", path, Some("{}")).expect("a response comes back");
        assert_eq!(response.status, 404, "POST {path}");
    }
    assert_still_serving(&server);
}

#[test]
fn wrong_methods_get_405() {
    let server = start_test_server();
    let mut c = client(&server);
    for (method, path) in [
        ("DELETE", "/healthz"),
        ("POST", "/metrics"),
        ("GET", "/v1/shutdown"),
        ("PUT", "/v1/campaigns"),
        ("POST", "/v1/campaigns/7"),
        ("DELETE", "/v1/campaigns/7/result"),
    ] {
        let response = c.request(method, path, None).expect("a response comes back");
        assert_eq!(response.status, 405, "{method} {path}");
    }
    assert_still_serving(&server);
}

#[test]
fn truncated_request_leaves_the_server_serving() {
    let server = start_test_server();
    // Truncated mid-header, then the client vanishes.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connects");
        raw.write_all(b"POST /v1/campaigns HTTP/1.1\r\nContent-Le").expect("partial write");
    } // dropped: reset/EOF mid-header on the server side
      // Truncated mid-body: head promises 100 bytes, delivers 10, vanishes.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connects");
        raw.write_all(b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
            .expect("partial write");
    }
    assert_still_serving(&server);
}

#[test]
fn slow_loris_hits_the_read_deadline() {
    let server = start_test_server();
    let mut raw = TcpStream::connect(server.addr()).expect("connects");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    // Drip a valid-looking request one byte at a time, slower than the
    // 600 ms deadline allows for the whole request.
    let head = b"GET /healthz HTTP/1.1\r\n";
    let start = std::time::Instant::now();
    for byte in head {
        if raw.write_all(std::slice::from_ref(byte)).is_err() {
            break; // server already gave up on us — that's the point
        }
        std::thread::sleep(Duration::from_millis(50));
        if start.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    // The server must have cut the connection with a 408 (bytes had
    // arrived, so the timeout is "partial") or a plain close.
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.is_empty() || text.starts_with("HTTP/1.1 408"),
        "expected 408 or close, got: {text}"
    );
    assert_still_serving(&server);
}

#[test]
fn keep_alive_reuses_one_connection() {
    let server = start_test_server();
    let mut c = client(&server);
    for _ in 0..5 {
        let response = c.request("GET", "/healthz", None).expect("responds");
        assert_eq!(response.status, 200);
    }
    assert_eq!(
        server.service().metrics().connections_total.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "five keep-alive requests must share one connection"
    );
}

#[test]
fn expect_100_continue_is_honoured() {
    let server = start_test_server();
    let mut raw = TcpStream::connect(server.addr()).expect("connects");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    raw.write_all(
        b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
    )
    .expect("head written");
    let mut buf = [0u8; 25];
    raw.read_exact(&mut buf).expect("interim response");
    assert_eq!(&buf, b"HTTP/1.1 100 Continue\r\n\r\n");
    raw.write_all(b"{}").expect("body written");
    let mut rest = Vec::new();
    // The body `{}` is not a valid campaign, so a 400 follows; what
    // matters here is the 100-continue handshake happened first.
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    let mut byte = [0u8; 1];
    while !rest.ends_with(b"\r\n\r\n") {
        match raw.read(&mut byte) {
            Ok(1) => rest.push(byte[0]),
            _ => break,
        }
    }
    assert!(String::from_utf8_lossy(&rest).starts_with("HTTP/1.1 400"));
    assert_still_serving(&server);
}
