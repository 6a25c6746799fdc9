//! Cluster-layer end-to-end tests: a router fronting in-process shards
//! must be byte-indistinguishable from a single daemon, keep strict
//! per-connection ordering under heavy pipelining, and survive a
//! deterministic shard kill with replicated warm hits intact.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use iced::arch::{CgraConfig, IslandId};
use iced::fault::FaultPlan;
use iced_hash::{rendezvous_rank, shard_id};
use iced_service::proto::parse_request;
use iced_service::{request_key, Router, RouterConfig, Server, ServiceConfig};

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
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

/// Boots `n` in-process shards on ephemeral ports.
fn start_shards(n: usize) -> (Vec<Server>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let srv = Server::start(ServiceConfig::default()).expect("bind shard");
        addrs.push(srv.local_addr().to_string());
        servers.push(srv);
    }
    (servers, addrs)
}

fn start_router(shards: Vec<String>, replicate_hot: usize) -> Router {
    Router::start(RouterConfig {
        shards,
        replicate_hot,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

/// The response with its `"req":"cC-S"` token blanked: connection
/// counters differ between a router and a bare daemon, everything else
/// must not.
fn strip_req(line: &str) -> String {
    let start = line.find("\"req\":\"").expect("response carries a req id") + 7;
    let end = start + line[start..].find('"').expect("req id is terminated");
    format!("{}{}", &line[..start], &line[end..])
}

/// Every request verb, cold then warm, answered byte-identically by a
/// 2-shard cluster and a standalone daemon.
#[test]
fn router_matches_single_daemon_byte_for_byte() {
    let single = Server::start(ServiceConfig::default()).expect("bind single");
    let (shards, addrs) = start_shards(2);
    let router = start_router(addrs, 0);

    let requests = [
        r#"{"id":1,"verb":"compile","kernel":"fir"}"#,
        r#"{"id":2,"verb":"compile","kernel":"fft","unroll":2,"strategy":"baseline"}"#,
        r#"{"id":3,"verb":"simulate","kernel":"fir","iterations":1000,"seed":3}"#,
        r#"{"id":4,"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
    ];
    let mut a = Client::connect(single.local_addr());
    let mut b = Client::connect(router.local_addr());
    for req in requests {
        // Cold, then warm: the replay must be byte-identical too, with
        // the warm `"cached":true` marker preserved through the router.
        for pass in 0..2 {
            let lone = a.round_trip(req);
            let routed = b.round_trip(req);
            assert_eq!(
                strip_req(&lone),
                strip_req(&routed),
                "pass {pass} diverged for {req}"
            );
            if pass == 1 {
                assert!(routed.contains("\"cached\":true"), "warm replay: {routed}");
            }
        }
    }

    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
    single.shutdown();
    single.wait();
}

/// Batches split across shards reassemble byte-identically — slot order,
/// per-slot errors, and the count/unique header all match a single
/// daemon's answer.
#[test]
fn split_batches_reassemble_byte_identically() {
    let single = Server::start(ServiceConfig::default()).expect("bind single");
    let (shards, addrs) = start_shards(3);
    let router = start_router(addrs, 0);

    let batch = concat!(
        r#"{"id":7,"verb":"batch","items":["#,
        r#"{"verb":"compile","kernel":"fir"},"#,
        r#"{"verb":"compile","kernel":"dtw","strategy":"iced"},"#,
        r#"{"verb":"compile","kernel":"nosuchkernel"},"#,
        r#"{"verb":"simulate","kernel":"fir","iterations":1000,"seed":3},"#,
        r#"{"verb":"compile","kernel":"fir"},"#,
        r#"{"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
        r#"]}"#
    );
    let mut a = Client::connect(single.local_addr());
    let mut b = Client::connect(router.local_addr());
    // Cold pass, then a warm pass where every slot replays from cache.
    for pass in 0..2 {
        let lone = a.round_trip(batch);
        let routed = b.round_trip(batch);
        assert_eq!(
            strip_req(&lone),
            strip_req(&routed),
            "batch pass {pass} diverged"
        );
        assert!(routed.contains("\"count\":6"), "all slots answered");
    }
    // The empty batch short-circuits locally; it must still match.
    let empty = r#"{"id":8,"verb":"batch","items":[]}"#;
    assert_eq!(
        strip_req(&a.round_trip(empty)),
        strip_req(&b.round_trip(empty))
    );

    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
    single.shutdown();
    single.wait();
}

/// 200 pipelined connections through the router: every connection gets
/// its responses strictly in send order.
#[test]
fn pipelined_connections_keep_strict_order_through_router() {
    const CONNS: usize = 200;
    const PER_CONN: usize = 8;
    let (shards, addrs) = start_shards(2);
    let router = start_router(addrs, 0);
    let addr = router.local_addr();

    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    // Open-loop: write every request on every connection before reading
    // anything back, interleaving kernels so shards both see traffic.
    for (c, client) in clients.iter_mut().enumerate() {
        for s in 0..PER_CONN {
            let id = (c * PER_CONN + s + 1) as u64;
            let kernel = if (c + s) % 2 == 0 { "fir" } else { "dtw" };
            client.send(&format!(
                r#"{{"id":{id},"verb":"compile","kernel":"{kernel}"}}"#
            ));
        }
    }
    for (c, client) in clients.iter_mut().enumerate() {
        for s in 0..PER_CONN {
            let id = (c * PER_CONN + s + 1) as u64;
            let resp = client.recv();
            assert!(
                resp.starts_with(&format!("{{\"id\":{id},")),
                "conn {c} slot {s}: out-of-order response {resp}"
            );
            assert!(resp.contains("\"ok\":true"), "conn {c} slot {s}: {resp}");
        }
    }

    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
}

/// A hot entry replicated to its successor shard still answers warm
/// (`"cached":true`, identical bytes) after its home shard is killed
/// mid-run. The kill point comes from an iced-fault schedule, so the
/// whole scenario is deterministic.
#[test]
fn replicated_hot_entry_survives_home_shard_death() {
    const REPLICATE_AFTER: usize = 2;
    let (shards, addrs) = start_shards(3);
    let mut shards: Vec<Option<Server>> = shards.into_iter().map(Some).collect();
    let router = start_router(addrs.clone(), REPLICATE_AFTER);

    // Locate the hot key's home shard with the same rendezvous ranking
    // the router uses.
    let req_line = r#"{"id":1,"verb":"compile","kernel":"fft","unroll":2}"#;
    let req = parse_request(req_line).expect("valid request");
    let cfg = CgraConfig::iced_prototype().canonical_hash();
    let key = request_key(cfg, &req).expect("compile has a cache key");
    let ids: Vec<u64> = addrs.iter().map(|a| shard_id(a)).collect();
    let rank = rendezvous_rank(key.0, key.1, &ids);
    let home = rank[0];

    // An iced-fault kill schedule drives when the home shard dies: after
    // `after_inputs` requests have been answered.
    let plan = FaultPlan::empty().with_island_failure(IslandId(home as u16), REPLICATE_AFTER + 1);
    let kill_after = plan.midrun[0].after_inputs;

    let mut c = Client::connect(router.local_addr());
    let cold = c.round_trip(req_line);
    assert!(cold.contains("\"ok\":true"), "cold: {cold}");
    for _ in 1..kill_after {
        let warm = c.round_trip(req_line);
        assert_eq!(
            strip_req(&cold),
            strip_req(&warm).replace("\"cached\":true", "\"cached\":false")
        );
    }
    // By now the router has counted >= REPLICATE_AFTER hits and queued a
    // cache_put on the successor's link; any later request routed there
    // is FIFO-ordered behind it, so no sleep is needed.
    let stats = c.round_trip(r#"{"id":90,"verb":"metrics"}"#);
    assert!(
        stats.contains("\"replicated\":1"),
        "replication did not trigger: {stats}"
    );

    // Kill the home shard mid-run.
    let victim = shards[home].take().expect("home shard alive");
    victim.shutdown();
    victim.wait();

    // The key's range re-points at the successor, which answers from the
    // replicated entry: still warm, byte-identical result.
    let after = c.round_trip(req_line);
    assert!(
        after.contains("\"cached\":true"),
        "lost the warm hit: {after}"
    );
    assert_eq!(
        strip_req(&cold).replace("\"cached\":false", "\"cached\":true"),
        strip_req(&after)
    );

    // The router's stats now show the dead shard as down.
    let stats = c.round_trip(r#"{"id":91,"verb":"metrics"}"#);
    assert!(
        stats.contains("\"role\":\"router\""),
        "router stats: {stats}"
    );
    assert!(
        stats.contains("\"up\":false"),
        "dead shard not marked: {stats}"
    );

    router.shutdown();
    router.wait();
    for s in shards.into_iter().flatten() {
        s.wait();
    }
}

/// A deadline-truncated exact answer is not cached by its shard, so the
/// router must not replicate it into the successor's cache either, however
/// often it is answered. fft's full exact search runs for minutes, so an
/// `ok` answer within a deadline of at most a minute is a truncated one.
#[test]
fn a_deadline_truncated_answer_is_never_replicated() {
    let (shards, addrs) = start_shards(2);
    let router = start_router(addrs, 1);
    let mut c = Client::connect(router.local_addr());
    let mut deadline_ms = 25;
    let mut answered = 0;
    while answered < 3 {
        let resp = c.round_trip(&format!(
            r#"{{"id":1,"verb":"compile","kernel":"fft","strategy":"exact","deadline_ms":{deadline_ms}}}"#
        ));
        if resp.contains("\"ok\":true") {
            assert!(resp.contains("\"cached\":false"), "{resp}");
            answered += 1;
        } else {
            assert!(resp.contains("\"deadline_exceeded\""), "{resp}");
            assert!(deadline_ms < 60_000, "no answer within a minute: {resp}");
            deadline_ms *= 2;
        }
    }
    let stats = c.round_trip(r#"{"id":90,"verb":"metrics"}"#);
    assert!(stats.contains("\"replicated\":0"), "{stats}");

    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
}

/// The router's own control plane: healthz and stats report the router
/// role, shard inventory, and Prometheus families.
#[test]
fn router_control_plane_reports_role_and_shards() {
    let (shards, addrs) = start_shards(2);
    let router = start_router(addrs, 3);
    let mut c = Client::connect(router.local_addr());

    let health = c.round_trip(r#"{"id":1,"verb":"healthz"}"#);
    assert!(health.contains("\"role\":\"router\""), "healthz: {health}");
    assert!(health.contains("\"shards\":2"), "healthz: {health}");

    // Shard healthz (direct) reports the shard role.
    let shard_addr: SocketAddr = shards[0].local_addr();
    let mut d = Client::connect(shard_addr);
    let shard_health = d.round_trip(r#"{"id":2,"verb":"healthz"}"#);
    assert!(
        shard_health.contains("\"role\":\"shard\""),
        "shard healthz: {shard_health}"
    );

    // One forwarded request, then the counters must show it.
    let resp = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"fir"}"#);
    assert!(resp.contains("\"ok\":true"), "forward failed: {resp}");
    let stats = c.round_trip(r#"{"id":4,"verb":"metrics"}"#);
    assert!(stats.contains("\"forwarded\":1"), "stats: {stats}");

    let prom = c.round_trip(r#"{"id":5,"verb":"stats","format":"prometheus"}"#);
    assert!(prom.contains("iced_router_shard_up"), "prom: {prom}");
    assert!(prom.contains("iced_router_forwarded_total"), "prom: {prom}");

    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
}
