//! End-to-end tests against a live daemon on an ephemeral port: concurrent
//! clients, warm-vs-cold byte identity, backpressure, graceful shutdown,
//! and malformed-input robustness.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iced_service::{Server, ServiceConfig};

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        line.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn start(threads: usize, queue_cap: usize) -> (Server, SocketAddr) {
    let cfg = ServiceConfig {
        threads,
        queue_cap,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

/// Removes the per-request `"req":"cN-M"` token so envelopes from
/// different requests can be compared byte-for-byte.
fn strip_req(envelope: &str) -> String {
    match (envelope.find(",\"req\":\""), envelope.find("\",\"ok\"")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &envelope[..a], &envelope[b + 1..]),
        _ => envelope.to_string(),
    }
}

/// The `result` payload of a success envelope (everything the cache
/// stores). Panics if the response is not a success envelope.
fn result_payload(response: &str) -> &str {
    let idx = response
        .find("\"result\":")
        .unwrap_or_else(|| panic!("no result field in {response}"));
    &response[idx + "\"result\":".len()..response.len() - 1]
}

#[test]
fn eight_concurrent_clients_all_get_correct_answers() {
    let (server, addr) = start(4, 64);
    let kernels = [
        "fir",
        "latnrm",
        "fft",
        "dtw",
        "conv",
        "relu",
        "histogram",
        "mvt",
    ];
    let handles: Vec<_> = kernels
        .iter()
        .enumerate()
        .map(|(i, &kernel)| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                // Interleave a control verb to exercise the inline path.
                let health = c.round_trip(&format!("{{\"id\":{i},\"verb\":\"healthz\"}}"));
                assert!(health.contains("\"ok\":true"), "{health}");
                let id = 100 + i;
                let resp = c.round_trip(&format!(
                    "{{\"id\":{id},\"verb\":\"compile\",\"kernel\":\"{kernel}\"}}"
                ));
                assert!(resp.contains("\"ok\":true"), "{kernel}: {resp}");
                assert!(
                    resp.starts_with(&format!("{{\"id\":{id},")),
                    "id must echo: {resp}"
                );
                assert!(resp.contains("\"ii\":"), "{resp}");
                assert!(resp.contains("\"bitstream_words\":"), "{resp}");
                resp
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
    server.wait();
}

#[test]
fn warm_cache_replays_cold_bytes_verbatim() {
    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    let req = r#"{"id":1,"verb":"compile","kernel":"fft","unroll":2}"#;

    let t_cold = Instant::now();
    let cold = c.round_trip(req);
    let cold_latency = t_cold.elapsed();
    assert!(cold.contains("\"cached\":false"), "{cold}");

    let t_warm = Instant::now();
    let warm = c.round_trip(req);
    let warm_latency = t_warm.elapsed();
    assert!(warm.contains("\"cached\":true"), "{warm}");

    // The payload must be byte-identical; only the cached marker and the
    // per-request id differ.
    assert_eq!(result_payload(&cold), result_payload(&warm));
    assert_eq!(
        strip_req(&cold).replace("\"cached\":false", "\"cached\":true"),
        strip_req(&warm),
        "envelopes differ beyond the cached flag and req token"
    );
    // A warm hit skips the mapper entirely; even allowing wild scheduler
    // noise it must undercut the cold compile.
    assert!(
        warm_latency < cold_latency,
        "warm {warm_latency:?} not faster than cold {cold_latency:?}"
    );

    // Same kernel requested through a second connection also hits.
    let mut c2 = Client::connect(addr);
    let again = c2.round_trip(req);
    assert!(again.contains("\"cached\":true"), "{again}");
    assert_eq!(result_payload(&cold), result_payload(&again));

    // An equivalent request with different serving knobs (deadline) is
    // the same content address — still a hit.
    let knob =
        c.round_trip(r#"{"id":9,"verb":"compile","kernel":"fft","unroll":2,"deadline_ms":60000}"#);
    assert!(knob.contains("\"cached\":true"), "{knob}");

    server.shutdown();
    server.wait();
}

#[test]
fn saturated_queue_answers_queue_full_not_silence() {
    // One worker, queue bound 1: pipelining several slow jobs must
    // overflow deterministically.
    let (server, addr) = start(1, 1);
    let mut c = Client::connect(addr);
    for i in 0..4 {
        // Distinct seeds defeat the cache; 200k iterations keeps the
        // worker busy long after the pipelined lines land.
        c.send(&format!(
            "{{\"id\":{i},\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":200000,\"seed\":{i}}}"
        ));
    }
    let responses: Vec<String> = (0..4).map(|_| c.recv()).collect();
    let full = responses
        .iter()
        .filter(|r| r.contains("\"code\":\"queue_full\""))
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.contains("\"ok\":true"))
        .count();
    assert!(full >= 1, "expected at least one queue_full: {responses:?}");
    assert!(ok >= 1, "expected at least one success: {responses:?}");
    assert_eq!(full + ok, 4, "every request gets exactly one answer");
    // Backpressure responses carry the retry contract fields.
    let reject = responses.iter().find(|r| r.contains("queue_full")).unwrap();
    assert!(reject.contains("\"ok\":false"), "{reject}");
    assert!(reject.contains("\"message\":"), "{reject}");

    // The server is still healthy afterwards.
    let health = c.round_trip(r#"{"id":50,"verb":"healthz"}"#);
    assert!(health.contains("\"ok\":true"), "{health}");
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_in_flight_work_before_closing() {
    let (server, addr) = start(1, 4);
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);

    // A's job occupies the single worker for a while.
    a.send(r#"{"id":1,"verb":"simulate","kernel":"fir","iterations":300000}"#);
    // Give the worker a moment to pick it up.
    std::thread::sleep(Duration::from_millis(100));

    // B asks for shutdown and is answered immediately.
    let bye = b.round_trip(r#"{"id":2,"verb":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(bye.contains("\"state\":\"draining\""), "{bye}");

    // New work is refused while draining…
    let refused = b.round_trip(r#"{"id":3,"verb":"compile","kernel":"fir"}"#);
    assert!(refused.contains("\"shutting_down\""), "{refused}");

    // …but A's accepted request still completes before sockets close.
    let slow = a.recv();
    assert!(slow.contains("\"ok\":true"), "in-flight dropped: {slow}");
    assert!(slow.contains("\"cycles\":"), "{slow}");

    server.wait();

    // After the drain the daemon is really gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener should be closed after wait()"
    );
}

#[test]
fn malformed_input_never_kills_the_server() {
    let (server, addr) = start(2, 8);
    let mut c = Client::connect(addr);
    let garbage: &[&str] = &[
        "{",
        "}",
        "garbage",
        "\"just a string\"",
        "[1,2,3]",
        "{\"verb\":42}",
        "{\"verb\":\"compile\"}",
        "{\"verb\":\"compile\",\"kernel\":\"fir\",\"dfg\":\"dfg x\"}",
        "{\"verb\":\"compile\",\"kernel\":\"no-such-kernel\"}",
        "{\"verb\":\"compile\",\"dfg\":\"node without header\"}",
        "{\"id\":-5,\"verb\":\"healthz\"}",
        "{\"id\":1,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":1e300}",
        "{\"verb\":\"stream\",\"pipeline\":\"warp-drive\"}",
        "{\"id\":1,\"verb\":\"compile\",\"kernel\":\"fir\",\"unroll\":7}",
        "\\u0000\\u0001",
    ];
    for (i, g) in garbage.iter().enumerate() {
        let resp = c.round_trip(g);
        assert!(
            resp.contains("\"ok\":false"),
            "garbage #{i} {g:?} got {resp}"
        );
        assert!(resp.contains("\"code\":"), "garbage #{i}: {resp}");
    }

    // Truncated JSON mid-string, deep nesting, and an over-long line.
    let deep = "[".repeat(200) + &"]".repeat(200);
    let resp = c.round_trip(&deep);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    let huge = format!(
        "{{\"verb\":\"compile\",\"pad\":\"{}\"}}",
        "x".repeat(2 << 20)
    );
    let resp = c.round_trip(&huge);
    assert!(resp.contains("too_large"), "{resp}");

    // A raw binary blast (invalid UTF-8) on a fresh connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");

    // After all that abuse the daemon still does real work.
    let resp = c.round_trip(r#"{"id":77,"verb":"compile","kernel":"fir"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let metrics = c.round_trip(r#"{"id":78,"verb":"metrics"}"#);
    assert!(metrics.contains("\"errors\":"), "{metrics}");
    server.shutdown();
    server.wait();
}

#[test]
fn stream_and_simulate_verbs_return_reports() {
    let (server, addr) = start(2, 8);
    let mut c = Client::connect(addr);
    let sim =
        c.round_trip(r#"{"id":1,"verb":"simulate","kernel":"fir","iterations":1000,"seed":3}"#);
    assert!(sim.contains("\"ok\":true"), "{sim}");
    assert!(sim.contains("\"cycles\":"), "{sim}");
    assert!(sim.contains("\"fu_activity\":"), "{sim}");

    let stream = c.round_trip(
        r#"{"id":2,"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
    );
    assert!(stream.contains("\"ok\":true"), "{stream}");
    assert!(stream.contains("\"throughput\":"), "{stream}");
    assert!(stream.contains("\"perf_per_watt\":"), "{stream}");

    // Stream results are cached too.
    let warm = c.round_trip(
        r#"{"id":3,"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(result_payload(&stream), result_payload(&warm));

    // A tiny mapping deadline surfaces as a typed error, not a hang.
    let dead = c.round_trip(
        r#"{"id":4,"verb":"compile","kernel":"fft","unroll":2,"strategy":"baseline","deadline_ms":0}"#,
    );
    assert!(dead.contains("\"deadline_exceeded\""), "{dead}");
    server.shutdown();
    server.wait();
}

#[test]
fn exact_strategy_is_certified_cache_keyed_and_byte_stable() {
    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    // Warm the heuristic entry first: the exact request for the same
    // kernel must not hit it — the backend is part of the cache key.
    let heur = c.round_trip(r#"{"id":1,"verb":"compile","kernel":"relu"}"#);
    assert!(heur.contains("\"cached\":false"), "{heur}");
    let cold = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"relu","strategy":"exact"}"#);
    assert!(
        cold.contains("\"cached\":false"),
        "exact warm-hit a heuristic entry: {cold}"
    );
    assert!(cold.contains("\"strategy\":\"exact\""), "{cold}");
    // relu's exact search completes, so its answer is settled and cached.
    assert!(cold.contains("\"proof\":\"optimal\""), "{cold}");
    assert!(cold.contains("\"lower_bound\":"), "{cold}");
    assert!(cold.contains("\"nodes_explored\":"), "{cold}");

    // Warm exact responses replay the cold bytes verbatim.
    let warm = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"relu","strategy":"exact"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(result_payload(&cold), result_payload(&warm));

    // "heuristic" aliases the default heuristic: same cache entry and
    // the same rendered bytes as the implicit/explicit "iced" request.
    let alias = c.round_trip(r#"{"id":4,"verb":"compile","kernel":"relu","strategy":"heuristic"}"#);
    assert!(alias.contains("\"cached\":true"), "{alias}");
    assert_eq!(result_payload(&heur), result_payload(&alias));

    // "auto" resolves by node count and shares the resolved backend's
    // cache entry — whichever side of the threshold relu falls on.
    let nodes = iced::kernels::Kernel::Relu
        .dfg(iced::kernels::UnrollFactor::X1)
        .node_count();
    let auto = c.round_trip(r#"{"id":5,"verb":"compile","kernel":"relu","strategy":"auto"}"#);
    assert!(auto.contains("\"cached\":true"), "{auto}");
    let expected = if iced::exact::auto_prefers_exact(nodes) {
        &cold
    } else {
        &heur
    };
    assert_eq!(result_payload(expected), result_payload(&auto));

    // The extended knob keeps its typed rejection for unknown names.
    let bad = c.round_trip(r#"{"id":6,"verb":"compile","kernel":"relu","strategy":"optimal"}"#);
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(
        bad.contains("exact"),
        "error must list the new names: {bad}"
    );

    server.shutdown();
    server.wait();
}

/// One counter out of a `metrics` response.
fn metric(c: &mut Client, field: &str) -> u64 {
    let resp = c.round_trip(r#"{"id":0,"verb":"metrics"}"#);
    let v = iced_service::json::parse(&resp).expect("metrics is JSON");
    v.get("result")
        .and_then(|r| r.get(field))
        .and_then(|f| f.as_u64())
        .unwrap_or_else(|| panic!("no {field} in {resp}"))
}

/// The four compile strategies plus a `simulate` of one kernel: the
/// request set whose base mappings the daemon shares.
fn strategy_specs(kernel: &str, unroll: u32) -> Vec<String> {
    let src = format!("\"kernel\":\"{kernel}\",\"unroll\":{unroll}");
    let mut specs: Vec<String> = ["baseline", "baseline+pg", "per-tile", "iced"]
        .iter()
        .map(|s| format!("\"verb\":\"compile\",{src},\"strategy\":\"{s}\""))
        .collect();
    specs.push(format!(
        "\"verb\":\"simulate\",{src},\"iterations\":200,\"seed\":7"
    ));
    specs
}

/// Every rotation of the strategy set goes to its own daemon. A
/// rotation's first request reaches a fresh daemon, so across the five
/// rotations every request gets a fresh-daemon answer; each later answer
/// must match it byte for byte, whichever request warmed the memo. Batch
/// slots must match too, and each daemon maps exactly twice.
#[test]
fn memoized_base_mappings_answer_exactly_like_fresh_daemons() {
    let kernels = [("fir", 1), ("fir", 2), ("fft", 1), ("fft", 2)];
    let handles: Vec<_> = kernels
        .into_iter()
        .map(|(kernel, unroll)| {
            std::thread::spawn(move || {
                let specs = strategy_specs(kernel, unroll);
                let n = specs.len();
                // answers[r][k]: rotation r's answer to spec (r + k) % n.
                let answers: Vec<Vec<String>> = (0..n)
                    .map(|r| {
                        let (server, addr) = start(1, 16);
                        let mut c = Client::connect(addr);
                        let got = (0..n)
                            .map(|k| {
                                let spec = &specs[(r + k) % n];
                                let resp = c.round_trip(&format!("{{\"id\":{k},{spec}}}"));
                                assert!(resp.contains("\"cached\":false"), "{resp}");
                                result_payload(&resp).to_string()
                            })
                            .collect();
                        assert_eq!(metric(&mut c, "mapping_memo_misses"), 2, "{kernel}");
                        assert_eq!(metric(&mut c, "mapping_memo_hits"), 3, "{kernel}");
                        server.shutdown();
                        server.wait();
                        got
                    })
                    .collect();
                let fresh: Vec<&String> = (0..n).map(|i| &answers[i][0]).collect();
                for (r, rotation) in answers.iter().enumerate() {
                    for (k, got) in rotation.iter().enumerate() {
                        let i = (r + k) % n;
                        assert_eq!(got, fresh[i], "{kernel} x{unroll}: {}", specs[i]);
                    }
                }

                let (server, addr) = start(1, 16);
                let mut c = Client::connect(addr);
                let items: Vec<String> = specs.iter().map(|s| format!("{{{s}}}")).collect();
                let resp = c.round_trip(&format!(
                    "{{\"id\":1,\"verb\":\"batch\",\"items\":[{}]}}",
                    items.join(",")
                ));
                assert!(resp.contains(&format!("\"unique\":{n}")), "{resp}");
                // Every slot's payload, in slot order.
                let mut at = 0;
                for want in &fresh {
                    let needle = format!("\"result\":{want}}}");
                    let found = resp[at..]
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{kernel} batch lacks {want}: {resp}"));
                    at += found + needle.len();
                }
                assert_eq!(metric(&mut c, "mapping_memo_misses"), 2, "{kernel}");
                assert_eq!(metric(&mut c, "mapping_memo_hits"), 3, "{kernel}");
                server.shutdown();
                server.wait();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("kernel thread");
    }
}

/// A deadline failure is never memoized: the same compile without a
/// deadline still runs the mapper and answers like a fresh daemon.
#[test]
fn a_deadline_failure_is_not_memoized() {
    let fresh = {
        let (server, addr) = start(1, 8);
        let resp = Client::connect(addr)
            .round_trip(r#"{"id":1,"verb":"compile","kernel":"fir","strategy":"baseline"}"#);
        server.shutdown();
        server.wait();
        resp
    };
    let (server, addr) = start(1, 8);
    let mut c = Client::connect(addr);
    let dead = c.round_trip(
        r#"{"id":1,"verb":"compile","kernel":"fir","strategy":"baseline","deadline_ms":0}"#,
    );
    assert!(dead.contains("\"deadline_exceeded\""), "{dead}");
    let mapped = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"fir","strategy":"baseline"}"#);
    assert!(mapped.contains("\"cached\":false"), "{mapped}");
    assert_eq!(result_payload(&mapped), result_payload(&fresh));
    assert_eq!(metric(&mut c, "mapping_memo_misses"), 2);
    assert_eq!(metric(&mut c, "mapping_memo_hits"), 0);
    server.shutdown();
    server.wait();
}

/// An exact answer whose deadline cut the search short is served, marked
/// `deadline_cut`, but neither cache level keeps it, so no later request
/// can replay it. fft's full exact search runs for minutes, so an `ok`
/// answer within a deadline of at most a minute is always a truncated one.
#[test]
fn a_deadline_truncated_exact_answer_is_never_cached() {
    let (server, addr) = start(1, 8);
    let mut c = Client::connect(addr);
    let mut deadline_ms = 25;
    let line = |ms: u64| {
        format!(
            r#"{{"id":1,"verb":"compile","kernel":"fft","strategy":"exact","deadline_ms":{ms}}}"#
        )
    };
    let truncated = loop {
        let resp = c.round_trip(&line(deadline_ms));
        if resp.contains("\"ok\":true") {
            break resp;
        }
        assert!(resp.contains("\"deadline_exceeded\""), "{resp}");
        assert!(deadline_ms < 60_000, "no answer within a minute: {resp}");
        deadline_ms *= 2;
    };
    assert!(
        truncated.contains("\"proof\":\"deadline_cut\""),
        "{truncated}"
    );
    assert_eq!(metric(&mut c, "cache_entries"), 0, "{truncated}");
    let again = c.round_trip(&line(deadline_ms));
    assert!(again.contains("\"cached\":false"), "{again}");
    assert_eq!(metric(&mut c, "mapping_memo_hits"), 0);
    server.shutdown();
    server.wait();
}
