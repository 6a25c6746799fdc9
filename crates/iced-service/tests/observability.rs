//! Observability suite: enriched `healthz`, structured worker-panic
//! errors that carry the request id and panic payload into both the
//! envelope and the JSONL event log, and the `stats`/Prometheus
//! expositions over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use iced_service::{ChaosInjector, Server, ServiceConfig};

/// A line-oriented test client with no retry discipline — chaos-injected
/// failures must be observed raw, not absorbed.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("send");
        let mut out = String::new();
        let n = self.reader.read_line(&mut out).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        out.trim_end().to_string()
    }
}

fn start(cfg: ServiceConfig) -> (Server, SocketAddr) {
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn healthz_reports_enriched_fields_in_deterministic_order() {
    let (server, addr) = start(ServiceConfig {
        threads: 3,
        queue_cap: 17,
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);
    let health = c.round_trip(r#"{"id":1,"verb":"healthz"}"#);
    assert!(health.contains("\"ok\":true"), "{health}");

    // Every enriched field is present with its configured value…
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"role\":\"shard\""), "{health}");
    assert!(health.contains("\"state\":\"running\""), "{health}");
    assert!(
        health.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{health}"
    );
    assert!(health.contains("\"uptime_s\":"), "{health}");
    assert!(health.contains("\"uptime_ms\":"), "{health}");
    assert!(health.contains("\"threads\":3"), "{health}");
    assert!(health.contains("\"queue_cap\":17"), "{health}");
    assert!(health.contains("\"queue_depth\":"), "{health}");
    assert!(health.contains("\"in_flight\":"), "{health}");
    assert!(health.contains("\"chaos_armed\":false"), "{health}");

    // …and the field order is deterministic, so two probes diff cleanly.
    let fields = [
        "\"status\":",
        "\"role\":",
        "\"state\":",
        "\"version\":",
        "\"uptime_s\":",
        "\"uptime_ms\":",
        "\"threads\":",
        "\"queue_cap\":",
        "\"queue_depth\":",
        "\"in_flight\":",
        "\"chaos_armed\":",
    ];
    let positions: Vec<usize> = fields
        .iter()
        .map(|f| health.find(f).unwrap_or_else(|| panic!("missing {f}")))
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "healthz field order changed: {health}"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn worker_panic_surfaces_structured_error_and_logs_the_payload() {
    // Pick a chaos seed whose very first panic roll fires while the first
    // few write-drop rolls stay quiet, so the error envelope reaches the
    // client intact. Decision streams are deterministic per seed, so this
    // search is stable across runs.
    let seed = (1u64..10_000)
        .find(|&s| {
            let inj = ChaosInjector::new(s);
            inj.worker_panic() && (0..4).all(|_| !inj.drop_write())
        })
        .expect("a suitable chaos seed below 10000");

    let log = std::env::temp_dir().join(format!("iced-svc-obs-panic-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (server, addr) = start(ServiceConfig {
        threads: 1,
        queue_cap: 8,
        chaos: Some(seed),
        log_path: Some(log.clone()),
        ..ServiceConfig::default()
    });

    let mut c = Raw::connect(addr);
    let resp = c.round_trip(r#"{"id":7,"verb":"compile","kernel":"fir"}"#);

    // The lossy "see server log" of old is gone: the envelope itself
    // carries the captured panic payload and the request id.
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"req\":\"c1-1\""), "{resp}");
    assert!(resp.contains("\"code\":\"internal\""), "{resp}");
    assert!(
        resp.contains("request processing panicked: chaos: injected worker panic"),
        "panic payload must reach the client: {resp}"
    );
    assert!(resp.contains("\"entity\":\"c1-1\""), "{resp}");

    server.shutdown();
    server.wait(); // flushes and closes the event log

    let events = std::fs::read_to_string(&log).expect("event log written");
    let panic_line = events
        .lines()
        .find(|l| l.contains("\"event\":\"worker_panic\""))
        .unwrap_or_else(|| panic!("no worker_panic event in log:\n{events}"));
    assert!(panic_line.contains("\"level\":\"error\""), "{panic_line}");
    assert!(panic_line.contains("\"req\":\"c1-1\""), "{panic_line}");
    assert!(panic_line.contains("\"verb\":\"compile\""), "{panic_line}");
    assert!(
        panic_line.contains("\"payload\":\"chaos: injected worker panic\""),
        "{panic_line}"
    );
    // The injection site itself is also on record, same request id.
    let chaos_line = events
        .lines()
        .find(|l| l.contains("\"event\":\"chaos_panic\""))
        .unwrap_or_else(|| panic!("no chaos_panic event in log:\n{events}"));
    assert!(chaos_line.contains("\"req\":\"c1-1\""), "{chaos_line}");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn stats_and_prometheus_expositions_work_over_the_wire() {
    let (server, addr) = start(ServiceConfig {
        threads: 2,
        queue_cap: 8,
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);

    // Generate a little latency history first: a cold compile, a warm
    // replay, and a parse error.
    let cold = c.round_trip(r#"{"id":1,"verb":"compile","kernel":"fir"}"#);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let warm = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"fir"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    let bad = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"no-such-kernel"}"#);
    assert!(bad.contains("\"unknown_kernel\""), "{bad}");

    // The default stats rendering: lifetime + window summaries per verb.
    let stats = c.round_trip(r#"{"id":4,"verb":"stats"}"#);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    assert!(stats.contains("\"window_seconds\":60"), "{stats}");
    assert!(stats.contains("\"epoch_seconds\":10"), "{stats}");
    assert!(stats.contains("\"lifetime\":"), "{stats}");
    assert!(stats.contains("\"window\":"), "{stats}");
    assert!(stats.contains("\"p99_us\":"), "{stats}");

    // The Prometheus form embeds the text exposition as a JSON string.
    let prom = c.round_trip(r#"{"id":5,"verb":"stats","format":"prometheus"}"#);
    assert!(prom.contains("\"ok\":true"), "{prom}");
    assert!(prom.contains("\"format\":\"prometheus\""), "{prom}");
    for family in [
        "iced_svc_requests_total",
        "iced_svc_request_latency_us",
        "iced_svc_in_flight",
        "iced_svc_cache_hits_total",
        "iced_svc_uptime_seconds",
    ] {
        assert!(prom.contains(family), "missing {family}: {prom}");
    }
    assert!(prom.contains("# TYPE"), "{prom}");

    server.shutdown();
    server.wait();
}

#[test]
fn memo_counters_show_one_mapper_run_per_option_set() {
    let (server, addr) = start(ServiceConfig {
        threads: 1,
        queue_cap: 8,
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);
    // Four strategies plus simulate of one kernel: two base mappings
    // (baseline options, DVFS-aware options), three memo hits.
    for (i, strategy) in ["baseline", "baseline+pg", "per-tile", "iced"]
        .iter()
        .enumerate()
    {
        let r = c.round_trip(&format!(
            r#"{{"id":{i},"verb":"compile","kernel":"fir","strategy":"{strategy}"}}"#
        ));
        assert!(r.contains("\"cached\":false"), "{r}");
    }
    let sim = c.round_trip(r#"{"id":5,"verb":"simulate","kernel":"fir","iterations":100}"#);
    assert!(sim.contains("\"cached\":false"), "{sim}");
    // Three policies of one pipeline: one Partition::table1.
    for (i, policy) in ["iced", "drips", "static"].iter().enumerate() {
        let r = c.round_trip(&format!(
            r#"{{"id":{},"verb":"stream","pipeline":"lu","policy":"{policy}","inputs":4}}"#,
            10 + i
        ));
        assert!(r.contains("\"cached\":false"), "{r}");
    }

    let metrics = c.round_trip(r#"{"id":20,"verb":"metrics"}"#);
    for field in [
        "\"mapping_memo_hits\":3",
        "\"mapping_memo_misses\":2",
        "\"partition_memo_hits\":2",
        "\"partition_memo_misses\":1",
    ] {
        assert!(metrics.contains(field), "missing {field}: {metrics}");
    }
    let stats = c.round_trip(r#"{"id":21,"verb":"stats"}"#);
    assert!(
        stats.contains(
            "\"memo\":{\"mapping_hits\":3,\"mapping_misses\":2,\
             \"partition_hits\":2,\"partition_misses\":1}"
        ),
        "{stats}"
    );
    let prom = c.round_trip(r#"{"id":22,"verb":"stats","format":"prometheus"}"#);
    for family in [
        "iced_svc_mapping_memo_hits_total 3",
        "iced_svc_mapping_memo_misses_total 2",
        "iced_svc_partition_memo_hits_total 2",
        "iced_svc_partition_memo_misses_total 1",
    ] {
        assert!(prom.contains(family), "missing {family}: {prom}");
    }

    server.shutdown();
    server.wait();
}
