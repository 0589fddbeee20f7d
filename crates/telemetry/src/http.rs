//! A deliberately tiny blocking HTTP/1.0-style responder over
//! `std::net::TcpListener` — no async runtime, no HTTP library. It serves
//! the metrics registry and flight recorder read-only on a background
//! thread, plus a matching one-shot [`http_get`] client used by the CLI
//! and CI smoke test.

use crate::Telemetry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls of the nonblocking
/// listener. Bounds shutdown latency without needing a self-connect.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Per-connection budget, once for reading the whole request head and
/// once per response write: a stalled or trickling client cannot wedge the
/// single-threaded responder for long.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// A running metrics endpoint. Dropping (or calling
/// [`MetricsServer::shutdown`]) stops the background thread.
///
/// Routes:
///
/// | Path            | Response                                        |
/// |-----------------|-------------------------------------------------|
/// | `/metrics`      | Prometheus text exposition + rolling rate series |
/// | `/metrics.json` | The registry rendered as JSON                   |
/// | `/events`       | Flight-recorder dump (JSON array, oldest first) |
/// | `/profile`      | Per-stage timing rollups with trace exemplars   |
/// | `/traces`       | Sampled spans: `?id=` one trace, `?recent=N` last N |
/// | `/healthz`      | `ok`                                            |
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

/// How often the background sampler snapshots counters for the rolling
/// rate windows. Frequent enough that a one-shot scrape sees fresh 1s
/// rates; [`RateWindows::tick`]'s own rate limit bounds the history size.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(200);

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`MetricsServer::local_addr`]) and serves `telemetry` until
    /// shutdown. Also starts a sampler thread feeding the bundle's
    /// [`RateWindows`](crate::RateWindows) every 200ms so rate series are
    /// populated even for a client's very first scrape.
    pub fn serve(addr: &str, telemetry: Arc<Telemetry>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let accept_telemetry = Arc::clone(&telemetry);
        let handle = thread::Builder::new()
            .name("p4guard-metrics".to_string())
            .spawn(move || accept_loop(listener, accept_telemetry, thread_stop))?;
        let sampler_stop = Arc::clone(&stop);
        let sampler = thread::Builder::new()
            .name("p4guard-metrics-sampler".to_string())
            .spawn(move || {
                while !sampler_stop.load(Ordering::Acquire) {
                    telemetry.rates.tick();
                    telemetry.slo.tick(&telemetry.registry);
                    thread::sleep(SAMPLE_INTERVAL);
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
            sampler: Some(sampler),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and sampler and joins both threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, telemetry: Arc<Telemetry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: requests are tiny and responses are
                // generated from in-memory state, so one connection at a
                // time keeps the responder simple and bounded.
                let _ = handle_connection(stream, &telemetry);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let path = match read_request_path(&mut stream) {
        Ok(Some(path)) => path,
        Ok(None) => {
            return write_response(
                &mut stream,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                "only GET is supported\n",
            )
        }
        Err(e) => return Err(e),
    };
    let (status, reason, content_type, body) = route(telemetry, &path);
    write_response(&mut stream, status, reason, content_type, &body)
}

/// Sets `stream`'s read timeout to what is left until `deadline`, so a
/// loop of reads shares one overall deadline — a peer that trickles a byte
/// per read cannot reset it the way a fixed per-read timeout would let it.
fn arm_read_deadline(stream: &TcpStream, deadline: Instant) -> io::Result<()> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "peer did not finish within the deadline",
            )
        })?;
    stream.set_read_timeout(Some(remaining))
}

/// Reads the request head and returns the path of a GET request (`None`
/// for other methods). Reads until the blank line that ends the header
/// block so the client does not see a reset before our response, for at
/// most [`IO_TIMEOUT`] in total.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 256];
    loop {
        arm_read_deadline(stream, deadline)?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Scan the new bytes only, plus the three before them the
        // terminator may straddle.
        let scan_from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if buf[scan_from..].windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

fn route(telemetry: &Telemetry, path: &str) -> (u16, &'static str, &'static str, String) {
    // Split off the query string; only /traces takes parameters.
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/metrics" => {
            telemetry.rates.tick();
            telemetry.slo.tick(&telemetry.registry);
            let mut body = telemetry.registry.render_prometheus();
            body.push_str(&telemetry.rates.render_prometheus());
            (200, "OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/metrics.json" => (
            200,
            "OK",
            "application/json",
            telemetry.registry.render_json(),
        ),
        "/events" => (200, "OK", "application/json", telemetry.recorder.to_json()),
        "/profile" => (200, "OK", "application/json", telemetry.profile.to_json()),
        "/traces" => {
            let id = query_param(query, "id").and_then(|v| v.parse::<u64>().ok());
            let recent = query_param(query, "recent")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(8);
            (
                200,
                "OK",
                "application/json",
                telemetry.traces.to_json(id, recent),
            )
        }
        "/healthz" => (200, "OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            format!("no route for {path}\n"),
        ),
    }
}

/// The value of `key` in a raw `a=1&b=2` query string, if present.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal one-shot HTTP GET against `addr` (e.g. `127.0.0.1:9100`),
/// returning `(status, body)`. Companion client for [`MetricsServer`],
/// used by `p4guard-cli stats --metrics` and the CI smoke test so neither
/// needs `curl`.
///
/// `timeout` is an overall deadline covering connect and the entire
/// response read — a server that trickles one byte per read cannot hold
/// the client past it (per-read socket timeouts alone would reset on
/// every byte).
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let deadline = Instant::now() + timeout;
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        arm_read_deadline(&stream, deadline)?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let raw = String::from_utf8_lossy(&bytes).into_owned();
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing status code"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn server() -> (MetricsServer, Arc<Telemetry>) {
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        telemetry
            .registry
            .counter("p4guard_frames_received_total", "frames", &[("shard", "0")])
            .add(5);
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry)).expect("bind ephemeral");
        (server, telemetry)
    }

    #[test]
    fn serves_metrics_events_and_health() {
        let (server, telemetry) = server();
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(2);

        let (status, body) = http_get(&addr, "/metrics", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("p4guard_frames_received_total{shard=\"0\"} 5"),
            "{body}"
        );

        telemetry.recorder.record(crate::recorder::Event::Overload {
            shard: 0,
            dropped: 1,
        });
        let (status, body) = http_get(&addr, "/events", timeout).unwrap();
        assert_eq!(status, 200);
        let v = serde_json::parse_value_str(&body).unwrap();
        assert_eq!(v.as_seq().unwrap().len(), 1);

        let (status, body) = http_get(&addr, "/metrics.json", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(serde_json::parse_value_str(&body).is_ok());

        let (status, _) = http_get(&addr, "/healthz", timeout).unwrap();
        assert_eq!(status, 200);

        let (status, _) = http_get(&addr, "/nope", timeout).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn serves_profile_and_traces() {
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
            tracing: true,
            ..TelemetryConfig::default()
        }));
        telemetry
            .profile
            .record_stage("0/lookup/acl", 500, 5, Some(42));
        telemetry.traces.record(crate::trace::SpanRecord {
            trace_id: 42,
            span_id: 1,
            parent_id: None,
            name: "frame".to_string(),
            start_ns: 0,
            duration_ns: 100,
            meta: vec![],
        });
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry)).expect("bind ephemeral");
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(2);

        let (status, body) = http_get(&addr, "/profile", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("0/lookup/acl"), "{body}");

        let (status, body) = http_get(&addr, "/traces?id=42", timeout).unwrap();
        assert_eq!(status, 200);
        let v = serde_json::parse_value_str(&body).unwrap();
        assert_eq!(v.as_seq().unwrap().len(), 1, "{body}");

        let (status, body) = http_get(&addr, "/traces?recent=1", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"frame\""), "{body}");

        // Unknown trace id: empty array, not an error.
        let (status, body) = http_get(&addr, "/traces?id=7", timeout).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.trim(), "[]");
    }

    #[test]
    fn http_get_enforces_an_overall_deadline() {
        // A pathological server that sends a valid header then trickles
        // body bytes forever: per-read timeouts never fire, so only the
        // overall deadline can save the client.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let trickler = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut discard = [0u8; 512];
            let _ = stream.read(&mut discard);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n");
            for _ in 0..100 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(50));
            }
        });
        let started = Instant::now();
        let err = http_get(&addr, "/metrics", Duration::from_millis(300))
            .expect_err("trickling server must not complete");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "deadline overshot: {:?}",
            started.elapsed()
        );
        drop(trickler); // detach: it exits once its writes fail
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        // One client sends its request a byte at a time, each byte well
        // inside the per-read timeout; a second must still be answered
        // promptly, because the request read has one overall deadline.
        let (server, _telemetry) = server();
        let addr = server.local_addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"G").unwrap();
        let trickler = thread::spawn(move || {
            for _ in 0..40 {
                thread::sleep(Duration::from_millis(100));
                if slow.write_all(b"E").is_err() {
                    break; // the server gave up on us
                }
            }
        });
        let started = Instant::now();
        let (status, body) =
            http_get(&addr.to_string(), "/healthz", Duration::from_secs(3)).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "healthz waited {:?} behind a trickling client",
            started.elapsed()
        );
        trickler.join().unwrap();
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let (mut server, _telemetry) = server();
        let addr = server.local_addr();
        server.shutdown();
        // Port is free again: a rebind succeeds.
        TcpListener::bind(addr).expect("port released after shutdown");
    }
}
