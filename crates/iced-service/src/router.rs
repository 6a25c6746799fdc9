//! The cluster layer: one router, N shards, one wire protocol.
//!
//! [`Router`] accepts the same newline-delimited JSON protocol as
//! [`crate::server::Server`] and consistent-hashes every cacheable
//! request's [`CacheKey`] to one of N backend `iced-serviced` shards via
//! rendezvous (highest-random-weight) hashing from `iced_hash`. Design
//! points, in the order they matter:
//!
//! * **One pipelined upstream connection per shard.** Shards answer each
//!   connection strictly in request order (the PR-7 ticket discipline),
//!   so the router needs no per-request correlation state upstream: a
//!   FIFO of in-flight [`Forward`] records per link is exact.
//! * **Client ordering is preserved** with the same ticket + reorder
//!   window the shard reactor uses: responses from different shards park
//!   under their ticket and release strictly in request order.
//! * **Byte identity.** A forwarded response is passed through verbatim
//!   except for the shard's `"req":"cX-Y"` token, which is replaced by
//!   the router's own token — the `cached` flag, result bytes, and error
//!   objects are exactly what a single daemon would have sent.
//! * **Batches split per shard.** Each slot's key is derived (same
//!   memoized derivation the shards use), slots group by owning shard
//!   into sub-batches whose raw item bytes are forwarded untouched, and
//!   the ordered response array is reassembled slot-by-slot. Invalid
//!   slots are answered locally with the shard-identical rendering.
//!   Identical keys route to the same shard, so envelope `unique` is the
//!   sum of per-shard uniques.
//! * **Hot-entry replication.** A key observed hot (≥K hits inside a
//!   sliding window) has its rendered result, once the owner answers it
//!   from its cache, replicated to the key's rendezvous successor via the
//!   internal `cache_put` verb, so the ~160× warm-hit advantage survives
//!   the owner's death.
//! * **Failover.** A connect/read/write failure marks the shard down;
//!   its in-flight forwards replay to the surviving rendezvous owner
//!   (safe: results are content-addressed, requests idempotent), and
//!   rendezvous hashing guarantees only the dead shard's keys move.
//!   Down shards are re-probed at most every [`RECONNECT_MS`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iced::arch::CgraConfig;
use iced_hash::{rendezvous_rank, rendezvous_score, shard_id};

use crate::cache::CacheKey;
use crate::json::Obj;
use crate::poll::{drain_wakes, poll, wake_pair, PollFd, Waker, POLLIN, POLLOUT};
use crate::proto::{
    parse_request, render_batch_item_err, render_batch_result, render_err, render_ok, BatchSlot,
    Payload, Request, RequestId, SvcError, Verb, ERROR_CODES, MAX_LINE_BYTES,
};
use crate::server::{elem_key, request_key};

const POLL_TIMEOUT_MS: i32 = 500;
const READ_CHUNK: usize = 64 * 1024;
const READ_ROUNDS: usize = 4;
const WRITE_COMPACT_BYTES: usize = 64 * 1024;
const FLUSH_BUDGET_MS: u64 = 5000;

/// Minimum spacing between reconnect probes to a down shard.
const RECONNECT_MS: u64 = 2000;

/// Blocking connect budget per shard probe; the loop stalls at most this
/// long when a shard has just died.
const CONNECT_TIMEOUT_MS: u64 = 100;

/// Default per-link inflight ceiling: the shards enforce their own
/// per-connection pipeline cap (`ICED_SVC_PIPELINE`, default 32), and a
/// router link is one connection — exceeding the shard's cap would turn
/// excess forwards into `too_many_requests` errors. Forwards beyond this
/// ceiling queue on the link and drain as responses come back.
const LINK_PIPELINE: usize = 32;

/// Sliding window for hot-hit counting.
const HOT_WINDOW: Duration = Duration::from_secs(60);

/// Hard bound on tracked keys; the table resets when exceeded (losing
/// counts is harmless — a genuinely hot key re-earns them immediately).
const HOT_TABLE_CAP: usize = 65_536;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`ICED_SVC_ADDR`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Backend shard addresses (`ICED_SVC_SHARDS`, comma-separated).
    pub shards: Vec<String>,
    /// Replicate a key's result to its successor shard after this many
    /// window hits (`ICED_SVC_REPLICATE_HOT`; 0 disables replication).
    pub replicate_hot: usize,
    /// Per-connection pipeline cap (`ICED_SVC_PIPELINE`).
    pub pipeline: usize,
    /// Connection cap (`ICED_SVC_MAX_CONNS`).
    pub max_conns: usize,
    /// Per-shard-link inflight ceiling; must not exceed the shards' own
    /// `ICED_SVC_PIPELINE` or excess forwards bounce as
    /// `too_many_requests`. Matches the shard default when left alone.
    pub shard_pipeline: usize,
    /// CGRA configuration whose canonical hash keys the cache — must
    /// match the shards' or routed keys never hit.
    pub cgra: CgraConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            replicate_hot: 3,
            pipeline: 32,
            max_conns: 4096,
            shard_pipeline: LINK_PIPELINE,
            cgra: CgraConfig::iced_prototype(),
        }
    }
}

fn env_usize(key: &str, default: usize, lo: usize, hi: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(default, |v| v.clamp(lo, hi))
}

impl RouterConfig {
    /// Reads `ICED_SVC_*` from the environment, with sane defaults.
    pub fn from_env() -> Self {
        RouterConfig {
            addr: std::env::var("ICED_SVC_ADDR").unwrap_or_else(|_| "127.0.0.1:9191".into()),
            shards: std::env::var("ICED_SVC_SHARDS")
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            replicate_hot: env_usize("ICED_SVC_REPLICATE_HOT", 3, 0, 1_000_000),
            pipeline: env_usize("ICED_SVC_PIPELINE", 32, 1, 4096),
            max_conns: env_usize("ICED_SVC_MAX_CONNS", 4096, 1, 1_000_000),
            shard_pipeline: LINK_PIPELINE,
            cgra: CgraConfig::iced_prototype(),
        }
    }
}

/// Why a forwarded line is in flight, in FIFO order per shard link.
enum Forward {
    /// A whole client request; the response passes through (req token
    /// rewritten). `line` is kept for failover replay.
    Single {
        slot: usize,
        token: u64,
        ticket: u64,
        rid: RequestId,
        id: u64,
        verb: Verb,
        key: CacheKey,
        line: String,
    },
    /// One per-shard piece of a split batch.
    BatchPart {
        /// Key into the assembly table.
        assembly: u64,
        /// Index into the assembly's `parts`.
        part: usize,
    },
    /// Router-originated traffic (`cache_put` replication, forwarded
    /// shutdown); the response is consumed and dropped.
    Internal,
}

/// One sub-batch forwarded to a single shard.
struct AsmPart {
    /// The raw sub-batch request line (kept for failover replay).
    line: String,
    /// Original slot indexes this part's response array maps onto.
    slot_idxs: Vec<usize>,
    /// First slot's key — the routing key for failover replay.
    first_key: CacheKey,
    done: bool,
}

/// A split batch being reassembled.
struct Assembly {
    slot: usize,
    token: u64,
    ticket: u64,
    rid: RequestId,
    id: u64,
    /// Rendered per-slot items; invalid slots are prefilled locally.
    items: Vec<Option<String>>,
    unique_sum: usize,
    parts: Vec<AsmPart>,
    parts_outstanding: usize,
}

/// One pipelined upstream connection to a backend shard.
struct ShardLink {
    addr: String,
    id: u64,
    stream: Option<TcpStream>,
    up: bool,
    last_probe: Option<Instant>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<Forward>,
    /// Forwards accepted while the link was at [`LINK_PIPELINE`]; drained
    /// onto the wire in order as responses free slots.
    queued: VecDeque<(String, Forward)>,
    forwarded: u64,
}

impl ShardLink {
    fn new(addr: String) -> ShardLink {
        let id = shard_id(&addr);
        ShardLink {
            addr,
            id,
            stream: None,
            up: false,
            last_probe: None,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: VecDeque::new(),
            queued: VecDeque::new(),
            forwarded: 0,
        }
    }

    fn write_pending(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Appends one line (newline added) to the link's write buffer.
    fn push_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }
}

/// A finished response awaiting release in ticket order.
struct PendingLine {
    line: String,
}

/// One downstream client connection (same slab/ticket discipline as the
/// shard reactor, minus the worker-pool hand-off).
struct ClientConn {
    stream: TcpStream,
    token: u64,
    slot: usize,
    seq: u64,
    read_buf: Vec<u8>,
    discarding: bool,
    write_buf: Vec<u8>,
    wpos: usize,
    next_ticket: u64,
    next_release: u64,
    pending: BTreeMap<u64, PendingLine>,
    outstanding: usize,
    read_closed: bool,
    dead: bool,
}

impl ClientConn {
    fn new(stream: TcpStream, token: u64, slot: usize) -> ClientConn {
        ClientConn {
            stream,
            token,
            slot,
            seq: 0,
            read_buf: Vec::new(),
            discarding: false,
            write_buf: Vec::new(),
            wpos: 0,
            next_ticket: 0,
            next_release: 0,
            pending: BTreeMap::new(),
            outstanding: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn write_pending(&self) -> bool {
        self.wpos < self.write_buf.len()
    }

    fn admit(&mut self) -> (RequestId, u64) {
        self.seq += 1;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding += 1;
        (
            RequestId {
                conn: self.token,
                seq: self.seq,
            },
            ticket,
        )
    }

    fn complete(&mut self, ticket: u64, line: String) {
        self.pending.insert(ticket, PendingLine { line });
    }

    fn release_ready(&mut self) {
        while let Some(entry) = self.pending.remove(&self.next_release) {
            self.next_release += 1;
            self.outstanding -= 1;
            self.write_buf.extend_from_slice(entry.line.as_bytes());
            self.write_buf.push(b'\n');
        }
    }

    fn flush(&mut self) {
        while self.wpos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.write_buf.len() {
            self.write_buf.clear();
            self.wpos = 0;
        } else if self.wpos > WRITE_COMPACT_BYTES {
            self.write_buf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// Hot-hit tracking for one key.
struct HotEntry {
    hits: usize,
    window_start: Instant,
    /// Shard id holding the replica, if any.
    replicated_to: Option<u64>,
}

/// State shared between the router loop and the [`Router`] handle.
struct RouterShared {
    shutting: AtomicBool,
    waker: Waker,
}

/// A running cluster router.
pub struct Router {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the listen address and starts the routing loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a wake-pair setup failure, or an
    /// empty shard list (`InvalidInput`).
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard address (ICED_SVC_SHARDS)",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = wake_pair()?;
        let shared = Arc::new(RouterShared {
            shutting: AtomicBool::new(false),
            waker,
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("iced-router".into())
            .spawn(move || router_loop(&loop_shared, cfg, listener, wake_rx))?;
        Ok(Router {
            shared,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins shutdown: stop accepting, forward `shutdown` to every live
    /// shard, drain in-flight responses, exit.
    pub fn shutdown(&self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Blocks until the routing loop has drained and exited.
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Everything the routing loop owns. Single-threaded: no locks anywhere
/// past the shutdown flag.
struct Loop {
    cfg_hash: u64,
    replicate_hot: usize,
    pipeline_cap: usize,
    link_pipeline: usize,
    max_conns: usize,
    links: Vec<ShardLink>,
    shard_ids: Vec<u64>,
    conns: Vec<Option<ClientConn>>,
    free: Vec<usize>,
    next_token: u64,
    assemblies: HashMap<u64, Assembly>,
    next_assembly: u64,
    hot: HashMap<CacheKey, HotEntry>,
    started: Instant,
    // Counters for healthz/stats/prometheus.
    forwarded_total: u64,
    replicated_total: u64,
    failover_total: u64,
    conns_total: u64,
    conns_open: u64,
    conns_rejected: u64,
    errors: u64,
    shutdown_sent: bool,
    /// Set by a wire `shutdown`; promoted to the shared flag at the loop
    /// top so wire- and API-initiated shutdowns share one path.
    shutdown_requested: bool,
    /// Responses finished while their connection was checked out of the
    /// slab (the read path) park here; drained every iteration.
    completions: Vec<(usize, u64, u64, String)>,
}

fn router_loop(
    shared: &Arc<RouterShared>,
    cfg: RouterConfig,
    listener: TcpListener,
    mut wake_rx: TcpStream,
) {
    let links: Vec<ShardLink> = cfg
        .shards
        .iter()
        .map(|a| ShardLink::new(a.clone()))
        .collect();
    let shard_ids: Vec<u64> = links.iter().map(|l| l.id).collect();
    let mut st = Loop {
        cfg_hash: cfg.cgra.canonical_hash(),
        replicate_hot: cfg.replicate_hot,
        pipeline_cap: cfg.pipeline.max(1),
        link_pipeline: cfg.shard_pipeline.max(1),
        max_conns: cfg.max_conns.max(1),
        links,
        shard_ids,
        conns: Vec::new(),
        free: Vec::new(),
        next_token: 0,
        assemblies: HashMap::new(),
        next_assembly: 0,
        hot: HashMap::new(),
        started: Instant::now(),
        forwarded_total: 0,
        replicated_total: 0,
        failover_total: 0,
        conns_total: 0,
        conns_open: 0,
        conns_rejected: 0,
        errors: 0,
        shutdown_sent: false,
        shutdown_requested: false,
        completions: Vec::new(),
    };
    let mut listener = Some(listener);
    let mut fds: Vec<PollFd> = Vec::new();
    // What each pollfd past the fixed prefix refers to.
    enum FdRef {
        Conn(usize),
        Link(usize),
    }
    let mut fd_refs: Vec<FdRef> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if st.shutdown_requested {
            shared.shutting.store(true, Ordering::SeqCst);
        }
        let shutting = shared.shutting.load(Ordering::SeqCst);
        if shutting {
            listener = None;
            if !st.shutdown_sent {
                st.shutdown_sent = true;
                forward_shutdown_to_shards(&mut st);
            }
        }

        fds.clear();
        fd_refs.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for (i, c) in st.conns.iter().enumerate() {
            let Some(c) = c else { continue };
            let mut interest = 0i16;
            if !c.read_closed && !c.dead {
                interest |= POLLIN;
            }
            if c.write_pending() && !c.dead {
                interest |= POLLOUT;
            }
            if interest != 0 {
                fds.push(PollFd::new(c.stream.as_raw_fd(), interest));
                fd_refs.push(FdRef::Conn(i));
            }
        }
        for (i, l) in st.links.iter().enumerate() {
            let Some(s) = &l.stream else { continue };
            let mut interest = POLLIN;
            if l.write_pending() {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(s.as_raw_fd(), interest));
            fd_refs.push(FdRef::Link(i));
        }
        let _ = poll(&mut fds, POLL_TIMEOUT_MS);
        if fds[0].readable() {
            drain_wakes(&mut wake_rx);
        }

        if let Some(l) = listener.as_ref() {
            if fds[1].readable() {
                accept_all(&mut st, l);
            }
        }

        for (k, pfd) in fds.iter().enumerate().skip(base) {
            match fd_refs[k - base] {
                FdRef::Conn(slot) => {
                    if pfd.readable() && st.conns[slot].is_some() {
                        read_client(&mut st, shutting, slot, &mut scratch);
                    }
                }
                FdRef::Link(idx) => {
                    if pfd.writable() {
                        flush_link(&mut st, shutting, idx);
                    }
                    if pfd.readable() {
                        read_link(&mut st, shutting, idx, &mut scratch);
                    }
                }
            }
        }

        // One flush per link per iteration: forwards accumulated across
        // every client line read above go out in a single write, so a
        // deep pipeline costs one syscall per chunk, not one per request.
        for i in 0..st.links.len() {
            if st.links[i].write_pending() {
                flush_link(&mut st, shutting, i);
            }
        }

        drain_completions(&mut st);
        for c in st.conns.iter_mut().flatten() {
            if !c.dead {
                c.release_ready();
                c.flush();
            }
        }

        for i in 0..st.conns.len() {
            let finished = match &st.conns[i] {
                Some(c) => c.dead || (c.read_closed && c.outstanding == 0 && !c.write_pending()),
                None => false,
            };
            if finished {
                if let Some(c) = st.conns[i].take() {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    st.conns_open = st.conns_open.saturating_sub(1);
                }
                st.free.push(i);
            }
        }

        if shutting {
            let deadline = *drain_deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(FLUSH_BUDGET_MS));
            let upstream_done = st
                .links
                .iter()
                .all(|l| (l.inflight.is_empty() && l.queued.is_empty()) || !l.up);
            let flushed = st
                .conns
                .iter()
                .flatten()
                .all(|c| c.pending.is_empty() && !c.write_pending());
            if (upstream_done && flushed) || Instant::now() >= deadline {
                break;
            }
        }
    }

    for l in &st.links {
        if let Some(s) = &l.stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
    for c in st.conns.iter().flatten() {
        let _ = c.stream.shutdown(Shutdown::Both);
    }
}

fn accept_all(st: &mut Loop, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                if st.conns_open as usize >= st.max_conns {
                    st.conns_rejected += 1;
                    refuse_connection(st.max_conns, stream);
                    continue;
                }
                st.conns_total += 1;
                st.conns_open += 1;
                st.next_token += 1;
                let slot = st.free.pop().unwrap_or(st.conns.len());
                let conn = ClientConn::new(stream, st.next_token, slot);
                if slot == st.conns.len() {
                    st.conns.push(Some(conn));
                } else {
                    st.conns[slot] = Some(conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn refuse_connection(max_conns: usize, mut stream: TcpStream) {
    let err = SvcError::new(
        "too_many_connections",
        format!("connection limit ({max_conns}) reached; retry later"),
    );
    let mut line = render_err(0, None, None, &err);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn too_large() -> SvcError {
    SvcError::new("too_large", "request line exceeds 1 MiB")
}

fn read_client(st: &mut Loop, shutting: bool, slot: usize, scratch: &mut [u8]) {
    // The connection is taken out of the slab while its lines are
    // handled, because handling may touch other loop state (links,
    // assemblies). Completions for this conn go through its own entry.
    let Some(mut c) = st.conns[slot].take() else {
        return;
    };
    for _ in 0..READ_ROUNDS {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.read_closed = true;
                break;
            }
            Ok(n) => {
                consume_client_bytes(st, shutting, &mut c, &scratch[..n]);
                if c.dead {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    if c.read_closed && !c.dead {
        if c.discarding {
            c.discarding = false;
            c.read_buf.clear();
            reject_unframed(st, &mut c, too_large());
        } else if !c.read_buf.is_empty() {
            let bytes = std::mem::take(&mut c.read_buf);
            let text = String::from_utf8_lossy(&bytes).into_owned();
            handle_client_line(st, shutting, &mut c, text.trim());
        }
    }
    st.conns[slot] = Some(c);
}

fn consume_client_bytes(st: &mut Loop, shutting: bool, c: &mut ClientConn, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        match bytes.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let (head, rest) = bytes.split_at(pos);
                bytes = &rest[1..];
                if c.discarding {
                    c.discarding = false;
                    c.read_buf.clear();
                    reject_unframed(st, c, too_large());
                    continue;
                }
                if c.read_buf.len() + head.len() > MAX_LINE_BYTES {
                    c.read_buf.clear();
                    reject_unframed(st, c, too_large());
                    continue;
                }
                if c.read_buf.is_empty() {
                    // Whole line inside this read: hand the borrowed
                    // bytes straight down, no copy into the stash.
                    let text = String::from_utf8_lossy(head);
                    handle_client_line(st, shutting, c, text.trim());
                } else {
                    c.read_buf.extend_from_slice(head);
                    let buf = std::mem::take(&mut c.read_buf);
                    let text = String::from_utf8_lossy(&buf);
                    handle_client_line(st, shutting, c, text.trim());
                }
                if c.dead {
                    return;
                }
            }
            None => {
                if c.discarding {
                    return;
                }
                if c.read_buf.len() + bytes.len() > MAX_LINE_BYTES {
                    c.read_buf.clear();
                    c.discarding = true;
                    return;
                }
                c.read_buf.extend_from_slice(bytes);
                return;
            }
        }
    }
}

fn reject_unframed(st: &mut Loop, c: &mut ClientConn, err: SvcError) {
    let (rid, ticket) = c.admit();
    st.errors += 1;
    c.complete(ticket, render_err(0, Some(rid), None, &err));
}

fn handle_client_line(st: &mut Loop, shutting: bool, c: &mut ClientConn, text: &str) {
    if text.is_empty() {
        return;
    }
    let (rid, ticket) = c.admit();
    if c.outstanding > st.pipeline_cap {
        st.errors += 1;
        let err = SvcError::new(
            "too_many_requests",
            format!(
                "connection has {} unanswered requests (pipeline cap {}); read responses before sending more",
                c.outstanding - 1,
                st.pipeline_cap
            ),
        );
        c.complete(ticket, render_err(0, Some(rid), None, &err));
        return;
    }
    let req = match parse_request(text) {
        Ok(r) => r,
        Err(e) => {
            st.errors += 1;
            c.complete(ticket, render_err(e.id, Some(rid), e.verb, &e.error));
            return;
        }
    };
    match req.verb {
        Verb::Healthz => {
            let result = render_router_healthz(st, shutting);
            c.complete(
                ticket,
                render_ok(req.id, Some(rid), Verb::Healthz, false, &result),
            );
        }
        Verb::Metrics => {
            let result = render_router_stats(st);
            c.complete(
                ticket,
                render_ok(req.id, Some(rid), Verb::Metrics, false, &result),
            );
        }
        Verb::Stats => {
            let result = if matches!(req.payload, Payload::Stats { prometheus: true }) {
                Obj::new()
                    .str("format", "prometheus")
                    .str("body", &render_router_prometheus(st))
                    .finish()
            } else {
                render_router_stats(st)
            };
            c.complete(
                ticket,
                render_ok(req.id, Some(rid), Verb::Stats, false, &result),
            );
        }
        Verb::Shutdown => {
            // The cluster drains as one unit: the router forwards the
            // shutdown to every live shard (at the loop top, when the
            // requested flag is promoted) and answers the client now.
            let in_flight: usize = st
                .links
                .iter()
                .map(|l| l.inflight.len() + l.queued.len())
                .sum();
            let result = Obj::new()
                .str("state", "draining")
                .u64("queued", 0)
                .u64("in_flight", in_flight as u64)
                .finish();
            c.complete(
                ticket,
                render_ok(req.id, Some(rid), Verb::Shutdown, false, &result),
            );
            st.shutdown_requested = true;
        }
        Verb::Batch => {
            if shutting || st.shutdown_requested {
                reject_shutting(st, c, &req, rid, ticket);
                return;
            }
            let Payload::Batch(spec) = req.payload else {
                unreachable!("batch request with non-batch payload");
            };
            route_batch(st, c, text, req.id, spec.items, rid, ticket);
        }
        Verb::Compile | Verb::Simulate | Verb::Stream | Verb::CachePut => {
            if shutting || st.shutdown_requested {
                reject_shutting(st, c, &req, rid, ticket);
                return;
            }
            let key = match &req.payload {
                Payload::CachePut { key, .. } => {
                    CacheKey::from_hex(key).expect("parse_request validated the hex key")
                }
                _ => request_key(st.cfg_hash, &req).expect("work verbs always derive a key"),
            };
            route_single(st, c, text, &req, key, rid, ticket);
        }
    }
}

fn reject_shutting(st: &mut Loop, c: &mut ClientConn, req: &Request, rid: RequestId, ticket: u64) {
    st.errors += 1;
    let err = SvcError::new(
        "shutting_down",
        "server is draining and accepts no new work",
    );
    c.complete(ticket, render_err(req.id, Some(rid), Some(req.verb), &err));
}

/// Picks the live shard owning `key`: the best-ranked rendezvous shard
/// that is up (probing down shards at most every [`RECONNECT_MS`]).
fn pick_shard(st: &mut Loop, key: CacheKey) -> Option<usize> {
    // Fast path: a single max-scan finds the owner (ties break toward the
    // smaller shard id, exactly as `rendezvous_rank` sorts) without the
    // rank vector's allocation and sort. Only when the owner is down does
    // the full ranking matter.
    let mut best = 0usize;
    let mut best_score = rendezvous_score(key.0, key.1, st.shard_ids[0]);
    for (i, &sid) in st.shard_ids.iter().enumerate().skip(1) {
        let score = rendezvous_score(key.0, key.1, sid);
        if score > best_score || (score == best_score && sid < st.shard_ids[best]) {
            best = i;
            best_score = score;
        }
    }
    if st.links[best].up || try_connect(&mut st.links[best]) {
        return Some(best);
    }
    rendezvous_rank(key.0, key.1, &st.shard_ids)
        .into_iter()
        .find(|&idx| idx != best && (st.links[idx].up || try_connect(&mut st.links[idx])))
}

/// Attempts a (throttled) reconnect to a down shard. Returns whether the
/// link is usable.
fn try_connect(link: &mut ShardLink) -> bool {
    if link.up {
        return true;
    }
    if let Some(t) = link.last_probe {
        if t.elapsed() < Duration::from_millis(RECONNECT_MS) {
            return false;
        }
    }
    link.last_probe = Some(Instant::now());
    let Some(addr) = link.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return false;
    };
    match TcpStream::connect_timeout(&addr, Duration::from_millis(CONNECT_TIMEOUT_MS)) {
        Ok(s) => {
            let _ = s.set_nonblocking(true);
            let _ = s.set_nodelay(true);
            link.stream = Some(s);
            link.up = true;
            link.rbuf.clear();
            link.wbuf.clear();
            link.wpos = 0;
            true
        }
        Err(_) => false,
    }
}

/// Forwards one already-rendered line to shard `idx` and records what is
/// in flight. Opportunistically flushes so single-request latency does
/// not pay an extra poll round trip.
fn forward_to(st: &mut Loop, idx: usize, line: &str, fwd: Forward) {
    let link = &mut st.links[idx];
    link.forwarded += 1;
    st.forwarded_total += 1;
    if link.inflight.len() >= st.link_pipeline {
        // At the shard's pipeline ceiling: hold the forward back rather
        // than have the shard reject it with `too_many_requests`.
        link.queued.push_back((line.to_string(), fwd));
        return;
    }
    link.push_line(line);
    link.inflight.push_back(fwd);
    // No flush here: the loop flushes every link with pending bytes once
    // per iteration, batching pipelined forwards into one write.
}

/// Moves queued forwards onto the wire while the link has free pipeline
/// slots. Called after responses drain inflight entries; the loop's
/// per-iteration flush pushes the bytes out.
fn pump_link_queue(st: &mut Loop, idx: usize) {
    let cap = st.link_pipeline;
    let link = &mut st.links[idx];
    if !link.up {
        return;
    }
    while link.inflight.len() < cap {
        let Some((line, fwd)) = link.queued.pop_front() else {
            break;
        };
        link.push_line(&line);
        link.inflight.push_back(fwd);
    }
}

fn route_single(
    st: &mut Loop,
    c: &mut ClientConn,
    text: &str,
    req: &Request,
    key: CacheKey,
    rid: RequestId,
    ticket: u64,
) {
    let Some(idx) = pick_shard(st, key) else {
        answer_no_shards(st, c, req.id, Some(req.verb), rid, ticket);
        return;
    };
    forward_to(
        st,
        idx,
        text,
        Forward::Single {
            slot: c.slot,
            token: c.token,
            ticket,
            rid,
            id: req.id,
            verb: req.verb,
            key,
            line: text.to_string(),
        },
    );
}

fn answer_no_shards(
    st: &mut Loop,
    c: &mut ClientConn,
    id: u64,
    verb: Option<Verb>,
    rid: RequestId,
    ticket: u64,
) {
    st.errors += 1;
    let err = SvcError::new(
        "no_shards",
        "no backend shard is reachable; check ICED_SVC_SHARDS and shard health",
    );
    c.complete(ticket, render_err(id, Some(rid), verb, &err));
}

fn route_batch(
    st: &mut Loop,
    c: &mut ClientConn,
    text: &str,
    id: u64,
    slots: Vec<BatchSlot>,
    rid: RequestId,
    ticket: u64,
) {
    if slots.is_empty() {
        let result = render_batch_result(0, 0, &[]);
        c.complete(
            ticket,
            render_ok(id, Some(rid), Verb::Batch, false, &result),
        );
        return;
    }
    let raw = split_items_raw(text);
    if raw.len() != slots.len() {
        // Cannot happen for JSON that just parsed; answer structurally
        // rather than panic on a hostile line.
        st.errors += 1;
        let err = SvcError::new("internal", "batch item framing mismatch");
        c.complete(ticket, render_err(id, Some(rid), Some(Verb::Batch), &err));
        return;
    }
    let mut items: Vec<Option<String>> = vec![None; slots.len()];
    // Group valid slots by owning shard, preserving slot order within
    // each group (the shard answers its sub-batch in that order).
    let mut groups: HashMap<usize, (Vec<usize>, Vec<String>, CacheKey)> = HashMap::new();
    let mut group_order: Vec<usize> = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            BatchSlot::Invalid { verb, error } => {
                items[i] = Some(render_batch_item_err(*verb, error));
            }
            BatchSlot::Elem(elem) => {
                let key = elem_key(st.cfg_hash, elem);
                let Some(idx) = pick_shard(st, key) else {
                    answer_no_shards(st, c, id, Some(Verb::Batch), rid, ticket);
                    return;
                };
                let entry = groups.entry(idx).or_insert_with(|| {
                    group_order.push(idx);
                    (Vec::new(), Vec::new(), key)
                });
                entry.0.push(i);
                entry.1.push(raw[i].clone());
            }
        }
    }
    if groups.is_empty() {
        // Every slot was invalid: answer locally, exactly as a shard
        // would (count = slots, nothing unique).
        let rendered: Vec<String> = items.into_iter().map(Option::unwrap).collect();
        let result = render_batch_result(rendered.len(), 0, &rendered);
        c.complete(
            ticket,
            render_ok(id, Some(rid), Verb::Batch, false, &result),
        );
        return;
    }
    let asm_id = st.next_assembly;
    st.next_assembly += 1;
    let mut asm = Assembly {
        slot: c.slot,
        token: c.token,
        ticket,
        rid,
        id,
        items,
        unique_sum: 0,
        parts: Vec::new(),
        parts_outstanding: group_order.len(),
    };
    // Build every part before forwarding any: forwarding can trigger a
    // synchronous failover replay, which looks the assembly up by id.
    let mut sends: Vec<(usize, usize, String)> = Vec::new();
    for idx in &group_order {
        let (slot_idxs, raws, first_key) = groups.remove(idx).expect("group exists");
        let line = format!(
            "{{\"id\":{id},\"verb\":\"batch\",\"items\":[{}]}}",
            raws.join(",")
        );
        let part = asm.parts.len();
        asm.parts.push(AsmPart {
            line: line.clone(),
            slot_idxs,
            first_key,
            done: false,
        });
        sends.push((*idx, part, line));
    }
    st.assemblies.insert(asm_id, asm);
    for (idx, part, line) in sends {
        // The replay path may already have answered (and removed) the
        // assembly; later parts are then pointless.
        if !st.assemblies.contains_key(&asm_id) {
            break;
        }
        forward_to(
            st,
            idx,
            &line,
            Forward::BatchPart {
                assembly: asm_id,
                part,
            },
        );
    }
}

/// Forwards `shutdown` once to every live shard so the cluster drains as
/// one unit.
fn forward_shutdown_to_shards(st: &mut Loop) {
    for idx in 0..st.links.len() {
        if st.links[idx].up || try_connect(&mut st.links[idx]) {
            forward_to(st, idx, "{\"verb\":\"shutdown\"}", Forward::Internal);
        }
    }
}

fn flush_link(st: &mut Loop, shutting: bool, idx: usize) {
    let link = &mut st.links[idx];
    let Some(stream) = link.stream.as_mut() else {
        return;
    };
    let mut died = false;
    while link.wpos < link.wbuf.len() {
        match stream.write(&link.wbuf[link.wpos..]) {
            Ok(0) => {
                died = true;
                break;
            }
            Ok(n) => link.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                died = true;
                break;
            }
        }
    }
    if died {
        shard_died(st, shutting, idx);
        return;
    }
    let link = &mut st.links[idx];
    if link.wpos == link.wbuf.len() {
        link.wbuf.clear();
        link.wpos = 0;
    } else if link.wpos > WRITE_COMPACT_BYTES {
        link.wbuf.drain(..link.wpos);
        link.wpos = 0;
    }
}

fn read_link(st: &mut Loop, shutting: bool, idx: usize, scratch: &mut [u8]) {
    let mut died = false;
    for _ in 0..READ_ROUNDS {
        let link = &mut st.links[idx];
        let Some(stream) = link.stream.as_mut() else {
            return;
        };
        match stream.read(scratch) {
            Ok(0) => {
                died = true;
                break;
            }
            Ok(n) => {
                link.rbuf.extend_from_slice(&scratch[..n]);
                drain_link_lines(st, shutting, idx);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                died = true;
                break;
            }
        }
    }
    if died {
        shard_died(st, shutting, idx);
    }
}

/// Splits complete lines out of a link's read buffer and matches each to
/// the front of the in-flight FIFO.
fn drain_link_lines(st: &mut Loop, shutting: bool, idx: usize) {
    // The buffer is taken out of the link so each line can be handled as
    // a borrowed slice — no per-line Vec + String round trip. Handlers
    // never touch this link's read buffer (a response only completes
    // client state or forwards to *other* links), so the take is safe.
    let mut rbuf = std::mem::take(&mut st.links[idx].rbuf);
    let mut consumed = 0usize;
    while let Some(pos) = rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let end = consumed + pos;
        let line_cow = String::from_utf8_lossy(&rbuf[consumed..end]);
        consumed = end + 1;
        let line = line_cow.trim();
        if line.is_empty() {
            continue;
        }
        let Some(fwd) = st.links[idx].inflight.pop_front() else {
            // An unsolicited line is a protocol violation; treat the
            // link as poisoned. `shard_died` already cleared the link's
            // (empty) buffer; the taken bytes are dropped with it.
            shard_died(st, shutting, idx);
            return;
        };
        handle_shard_response(st, shutting, idx, fwd, line);
    }
    rbuf.drain(..consumed);
    st.links[idx].rbuf = rbuf;
    pump_link_queue(st, idx);
}

fn handle_shard_response(st: &mut Loop, shutting: bool, idx: usize, fwd: Forward, line: &str) {
    match fwd {
        Forward::Internal => {}
        Forward::Single {
            slot,
            token,
            ticket,
            rid,
            verb,
            key,
            ..
        } => {
            let rewritten = rewrite_req_token(line, rid);
            if verb.cacheable() && line.contains("\"ok\":true") {
                note_hot_hit(st, shutting, idx, key, line);
            }
            complete_client(st, slot, token, ticket, rewritten);
        }
        Forward::BatchPart { assembly, part } => {
            let Some(asm) = st.assemblies.get_mut(&assembly) else {
                // Assembly already answered (a sibling part hit a
                // shard-level error); drop the straggler.
                return;
            };
            if !line.contains("\"ok\":true") {
                // Shard-level failure (queue_full/shutting_down/internal):
                // the whole batch answers with it, preserving the
                // client's whole-batch retry contract.
                let asm = st.assemblies.remove(&assembly).expect("checked above");
                let err = extract_error(line);
                st.errors += 1;
                complete_client(
                    st,
                    asm.slot,
                    asm.token,
                    asm.ticket,
                    render_err(asm.id, Some(asm.rid), Some(Verb::Batch), &err),
                );
                return;
            }
            let part_items = crate::client::split_results(line);
            let part_unique = field_u64_after(line, "\"unique\":").unwrap_or(0) as usize;
            if part_items.len() != asm.parts[part].slot_idxs.len() {
                let asm = st.assemblies.remove(&assembly).expect("checked above");
                st.errors += 1;
                let err = SvcError::new("internal", "shard answered a mis-sized batch part");
                complete_client(
                    st,
                    asm.slot,
                    asm.token,
                    asm.ticket,
                    render_err(asm.id, Some(asm.rid), Some(Verb::Batch), &err),
                );
                return;
            }
            for (k, item) in part_items.into_iter().enumerate() {
                let slot_idx = asm.parts[part].slot_idxs[k];
                asm.items[slot_idx] = Some(item);
            }
            asm.unique_sum += part_unique;
            asm.parts[part].done = true;
            asm.parts_outstanding -= 1;
            if asm.parts_outstanding == 0 {
                let asm = st.assemblies.remove(&assembly).expect("checked above");
                let rendered: Vec<String> = asm
                    .items
                    .into_iter()
                    .map(|i| i.expect("every slot answered"))
                    .collect();
                let result = render_batch_result(rendered.len(), asm.unique_sum, &rendered);
                complete_client(
                    st,
                    asm.slot,
                    asm.token,
                    asm.ticket,
                    render_ok(asm.id, Some(asm.rid), Verb::Batch, false, &result),
                );
            }
        }
    }
}

/// Routes a finished response line to its client connection. Parked in
/// a side buffer because the target connection may be checked out of
/// the slab (a synchronous failover replay triggered from its own read
/// path); [`drain_completions`] delivers generation-checked.
fn complete_client(st: &mut Loop, slot: usize, token: u64, ticket: u64, line: String) {
    st.completions.push((slot, token, ticket, line));
}

fn drain_completions(st: &mut Loop) {
    for (slot, token, ticket, line) in std::mem::take(&mut st.completions) {
        if let Some(c) = st.conns.get_mut(slot).and_then(Option::as_mut) {
            if c.token == token {
                c.complete(ticket, line);
            }
        }
    }
}

/// Counts a warm-able hit and replicates the rendered result to the
/// key's successor shard once the threshold is crossed.
fn note_hot_hit(st: &mut Loop, shutting: bool, owner_idx: usize, key: CacheKey, line: &str) {
    if st.replicate_hot == 0 || shutting {
        return;
    }
    if st.hot.len() >= HOT_TABLE_CAP {
        st.hot.clear();
    }
    let now = Instant::now();
    let entry = st.hot.entry(key).or_insert(HotEntry {
        hits: 0,
        window_start: now,
        replicated_to: None,
    });
    if now.duration_since(entry.window_start) > HOT_WINDOW {
        entry.hits = 0;
        entry.window_start = now;
    }
    entry.hits += 1;
    if entry.hits < st.replicate_hot || entry.replicated_to.is_some() {
        return;
    }
    // Replicate only what the owner itself cached: a shard does not cache
    // an answer a request without a deadline would not get (a
    // deadline-truncated exact certificate), so neither may its successor.
    let header = line.find("\"result\"").map_or(line, |i| &line[..i]);
    if !header.contains("\"cached\":true") {
        return;
    }
    let Some(result) = extract_result_object(line) else {
        return;
    };
    // Successor: the best-ranked live shard other than the one that just
    // answered.
    let owner_id = st.shard_ids[owner_idx];
    let rank = rendezvous_rank(key.0, key.1, &st.shard_ids);
    let succ = rank.into_iter().find(|&i| {
        st.shard_ids[i] != owner_id && (st.links[i].up || try_connect(&mut st.links[i]))
    });
    let Some(succ) = succ else {
        return;
    };
    let put = Obj::new()
        .u64("id", 0)
        .str("verb", "cache_put")
        .str("key", &key.hex())
        .str("value", &result)
        .finish();
    st.hot
        .get_mut(&key)
        .expect("entry just inserted")
        .replicated_to = Some(st.shard_ids[succ]);
    st.replicated_total += 1;
    forward_to(st, succ, &put, Forward::Internal);
}

/// Handles a shard death: marks the link down, replays its in-flight
/// client work onto survivors, and drops its internal traffic.
fn shard_died(st: &mut Loop, shutting: bool, idx: usize) {
    let link = &mut st.links[idx];
    if let Some(s) = link.stream.take() {
        let _ = s.shutdown(Shutdown::Both);
    }
    let was_up = link.up;
    link.up = false;
    link.rbuf.clear();
    link.wbuf.clear();
    link.wpos = 0;
    link.last_probe = Some(Instant::now());
    let mut orphans: Vec<Forward> = link.inflight.drain(..).collect();
    orphans.extend(link.queued.drain(..).map(|(_, f)| f));
    let dead_id = link.id;
    if !was_up {
        return;
    }
    // Replicas held by the dead shard are gone; allow re-replication.
    for entry in st.hot.values_mut() {
        if entry.replicated_to == Some(dead_id) {
            entry.replicated_to = None;
        }
    }
    if shutting {
        // Shards closing their sockets during a cluster drain is the
        // expected end of life, not a failover.
        return;
    }
    if !orphans.is_empty() {
        st.failover_total += 1;
    }
    for fwd in orphans {
        match fwd {
            Forward::Internal => {}
            Forward::Single {
                slot,
                token,
                ticket,
                rid,
                id,
                verb,
                key,
                line,
            } => {
                // Replay on the surviving owner: requests are idempotent
                // and content-addressed, so a duplicate execution is
                // merely a cache-warming no-op.
                match pick_shard(st, key) {
                    Some(new_idx) => forward_to(
                        st,
                        new_idx,
                        &line.clone(),
                        Forward::Single {
                            slot,
                            token,
                            ticket,
                            rid,
                            id,
                            verb,
                            key,
                            line,
                        },
                    ),
                    None => {
                        st.errors += 1;
                        let err = SvcError::new(
                            "no_shards",
                            "no backend shard is reachable; check ICED_SVC_SHARDS and shard health",
                        );
                        complete_client(
                            st,
                            slot,
                            token,
                            ticket,
                            render_err(id, Some(rid), Some(verb), &err),
                        );
                    }
                }
            }
            Forward::BatchPart { assembly, part } => {
                let Some(asm) = st.assemblies.get(&assembly) else {
                    continue;
                };
                let replay_key = asm.parts[part].first_key;
                let line = asm.parts[part].line.clone();
                match pick_shard(st, replay_key) {
                    Some(new_idx) => {
                        forward_to(st, new_idx, &line, Forward::BatchPart { assembly, part })
                    }
                    None => {
                        let asm = st.assemblies.remove(&assembly).expect("checked above");
                        st.errors += 1;
                        let err = SvcError::new(
                            "no_shards",
                            "no backend shard is reachable; check ICED_SVC_SHARDS and shard health",
                        );
                        complete_client(
                            st,
                            asm.slot,
                            asm.token,
                            asm.ticket,
                            render_err(asm.id, Some(asm.rid), Some(Verb::Batch), &err),
                        );
                    }
                }
            }
        }
    }
}

/// Replaces the shard's `"req":"cX-Y"` token with the router's own.
/// Everything else — including the `cached` flag and result bytes — is
/// passed through verbatim, which is what makes router responses
/// byte-identical to single-daemon responses after `req` normalization.
fn rewrite_req_token(line: &str, rid: RequestId) -> String {
    let Some(start) = line.find("\"req\":\"") else {
        return line.to_string();
    };
    let vstart = start + "\"req\":\"".len();
    let Some(vlen) = line[vstart..].find('"') else {
        return line.to_string();
    };
    let mut out = String::with_capacity(line.len() + 8);
    out.push_str(&line[..vstart]);
    out.push_str(&rid.token());
    out.push_str(&line[vstart + vlen..]);
    out
}

/// Extracts the rendered result object from a success envelope: the
/// bytes between `"result":` and the envelope's closing brace (`result`
/// is always the last envelope field).
fn extract_result_object(line: &str) -> Option<String> {
    let start = line.find(",\"result\":")? + ",\"result\":".len();
    if line.ends_with('}') && start < line.len() {
        Some(line[start..line.len() - 1].to_string())
    } else {
        None
    }
}

/// Recovers a shard's structured error from its error envelope: a known
/// code, the decoded message and the entity pass through unchanged. A
/// line that is not such an envelope degrades to `internal`.
fn extract_error(line: &str) -> SvcError {
    let parsed = crate::json::parse(line).ok();
    let err = parsed.as_ref().and_then(|v| v.get("error"));
    let field = |k: &str| err.and_then(|e| e.get(k)).and_then(|v| v.as_str());
    let code = field("code")
        .and_then(|c| ERROR_CODES.iter().find(|&&known| known == c))
        .copied()
        .unwrap_or("internal");
    SvcError {
        code,
        message: field("message").unwrap_or("shard error").to_string(),
        entity: field("entity").map(str::to_string),
    }
}

/// Reads the integer after `marker` (e.g. `"unique":`), stopping at the
/// first non-digit.
fn field_u64_after(line: &str, marker: &str) -> Option<u64> {
    let start = line.find(marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Splits the raw text of a batch request's top-level `items` array into
/// one string per element (objects, arrays, and scalars alike), so valid
/// slots forward byte-identically and the element count always matches
/// what `parse_request` saw. String-aware: an `"items":[` appearing
/// inside a string (say, an inline DFG) is never mistaken for the array.
fn split_items_raw(line: &str) -> Vec<String> {
    let Some(body_start) = find_items_array(line) else {
        return Vec::new();
    };
    let body = &line[body_start..];
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut elem_start: Option<usize> = None;
    for (i, ch) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        if in_str {
            match ch {
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                if elem_start.is_none() {
                    elem_start = Some(i);
                }
            }
            '{' | '[' => {
                if elem_start.is_none() {
                    elem_start = Some(i);
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            ']' => {
                if depth == 0 {
                    if let Some(s) = elem_start.take() {
                        items.push(body[s..i].trim_end().to_string());
                    }
                    break;
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                if let Some(s) = elem_start.take() {
                    items.push(body[s..i].trim_end().to_string());
                }
            }
            c if !c.is_whitespace() && elem_start.is_none() => {
                elem_start = Some(i);
            }
            _ => {}
        }
    }
    items
}

/// Finds the byte offset just past `[` of the request's top-level
/// `"items"` key, tracking strings and nesting so payload content cannot
/// spoof it.
fn find_items_array(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut str_start = 0usize;
    let mut last_string: Option<(usize, usize)> = None;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if in_str {
            if escaped {
                escaped = false;
            } else if c == b'\\' {
                escaped = true;
            } else if c == b'"' {
                in_str = false;
                last_string = Some((str_start, i));
            }
        } else {
            match c {
                b'"' => {
                    in_str = true;
                    str_start = i + 1;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b':' if depth == 1 => {
                    if let Some((s, e)) = last_string {
                        if &line[s..e] == "items" {
                            let mut j = i + 1;
                            while j < b.len() && b[j].is_ascii_whitespace() {
                                j += 1;
                            }
                            if j < b.len() && b[j] == b'[' {
                                return Some(j + 1);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

fn render_router_healthz(st: &Loop, shutting: bool) -> String {
    let shards_up = st.links.iter().filter(|l| l.up).count();
    Obj::new()
        .str("status", "ok")
        .str("role", "router")
        .str("state", if shutting { "draining" } else { "running" })
        .str("version", env!("CARGO_PKG_VERSION"))
        .u64("uptime_s", st.started.elapsed().as_secs())
        .u64("uptime_ms", st.started.elapsed().as_millis() as u64)
        .u64("shards", st.links.len() as u64)
        .u64("shards_up", shards_up as u64)
        .u64("conns_open", st.conns_open)
        .u64("max_conns", st.max_conns as u64)
        .u64("pipeline_cap", st.pipeline_cap as u64)
        .finish()
}

fn render_router_stats(st: &Loop) -> String {
    let mut shards = String::from("[");
    for (i, l) in st.links.iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        shards.push_str(
            &Obj::new()
                .str("addr", &l.addr)
                .bool("up", l.up)
                .u64("forwarded", l.forwarded)
                .u64("in_flight", (l.inflight.len() + l.queued.len()) as u64)
                .finish(),
        );
    }
    shards.push(']');
    Obj::new()
        .str("role", "router")
        .u64("uptime_s", st.started.elapsed().as_secs())
        .u64("forwarded", st.forwarded_total)
        .u64("replicated", st.replicated_total)
        .u64("failovers", st.failover_total)
        .u64("errors", st.errors)
        .u64("hot_tracked", st.hot.len() as u64)
        .raw(
            "connections",
            &Obj::new()
                .u64("open", st.conns_open)
                .u64("total", st.conns_total)
                .u64("rejected", st.conns_rejected)
                .u64("max_conns", st.max_conns as u64)
                .u64("pipeline_cap", st.pipeline_cap as u64)
                .finish(),
        )
        .raw("shards", &shards)
        .finish()
}

fn render_router_prometheus(st: &Loop) -> String {
    let mut out = String::with_capacity(1024);
    let gauge = |name: &str, help: &str, value: u64, out: &mut String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    out.push_str("# HELP iced_router_shard_up Per-shard liveness (1 = up).\n");
    out.push_str("# TYPE iced_router_shard_up gauge\n");
    for l in &st.links {
        out.push_str(&format!(
            "iced_router_shard_up{{shard=\"{}\"}} {}\n",
            l.addr,
            u64::from(l.up)
        ));
    }
    out.push_str("# HELP iced_router_forwarded_total Requests forwarded per shard.\n");
    out.push_str("# TYPE iced_router_forwarded_total counter\n");
    for l in &st.links {
        out.push_str(&format!(
            "iced_router_forwarded_total{{shard=\"{}\"}} {}\n",
            l.addr, l.forwarded
        ));
    }
    gauge(
        "iced_router_replicated_total",
        "Hot entries replicated to successor shards.",
        st.replicated_total,
        &mut out,
    );
    gauge(
        "iced_router_failover_total",
        "Shard deaths that triggered in-flight replay.",
        st.failover_total,
        &mut out,
    );
    gauge(
        "iced_router_errors_total",
        "Router-answered structured errors.",
        st.errors,
        &mut out,
    );
    gauge(
        "iced_router_conns_open",
        "Open client connections.",
        st.conns_open,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_token_rewriting_touches_only_the_envelope_token() {
        let rid = RequestId { conn: 9, seq: 4 };
        let line = r#"{"id":5,"req":"c3-7","ok":true,"verb":"compile","cached":true,"result":{"note":"req stays \"c3-7\" in payload"}}"#;
        let out = rewrite_req_token(line, rid);
        assert_eq!(
            out,
            r#"{"id":5,"req":"c9-4","ok":true,"verb":"compile","cached":true,"result":{"note":"req stays \"c3-7\" in payload"}}"#
        );
        // No req field: passthrough.
        let plain = r#"{"id":5,"ok":true}"#;
        assert_eq!(rewrite_req_token(plain, rid), plain);
    }

    #[test]
    fn raw_item_splitting_matches_parsed_slot_counts() {
        let line = r#"{"id":9,"verb":"batch","items":[{"verb":"compile","kernel":"fir"},7,"x",{"verb":"simulate","kernel":"fir","iterations":10},[1,2],{"verb":"compile","dfg":"dfg t\nnode n0 add a\nhas ] and , and \" inside"}]}"#;
        let items = split_items_raw(line);
        assert_eq!(items.len(), 6, "{items:?}");
        assert_eq!(items[0], r#"{"verb":"compile","kernel":"fir"}"#);
        assert_eq!(items[1], "7");
        assert_eq!(items[2], "\"x\"");
        assert_eq!(items[4], "[1,2]");
        assert!(items[5].contains("has ] and , and"));
    }

    #[test]
    fn items_key_inside_a_string_is_not_the_array() {
        let line = r#"{"id":1,"verb":"batch","note":"\"items\":[fake]","items":[{"a":1}]}"#;
        let items = split_items_raw(line);
        assert_eq!(items, vec![r#"{"a":1}"#.to_string()]);
        assert!(split_items_raw(r#"{"verb":"healthz"}"#).is_empty());
        assert!(split_items_raw(r#"{"verb":"batch","items":[]}"#).is_empty());
    }

    #[test]
    fn result_object_extraction_takes_the_tail_field() {
        let line = r#"{"id":5,"req":"c1-1","ok":true,"verb":"compile","cached":false,"result":{"ii":2,"nested":{"a":[1,2]}}}"#;
        assert_eq!(
            extract_result_object(line).as_deref(),
            Some(r#"{"ii":2,"nested":{"a":[1,2]}}"#)
        );
        assert_eq!(extract_result_object(r#"{"ok":false}"#), None);
    }

    #[test]
    fn shard_error_recovery_preserves_the_retry_contract() {
        let e = extract_error(
            r#"{"id":1,"ok":false,"verb":"batch","error":{"code":"queue_full","message":"request queue at capacity (64); retry later","entity":"batch"}}"#,
        );
        assert_eq!(e.code, "queue_full");
        assert!(e.message.contains("capacity"));
        let e =
            extract_error(r#"{"id":1,"ok":false,"error":{"code":"shutting_down","message":"x"}}"#);
        assert_eq!(e.code, "shutting_down");
        let e = extract_error("garbage");
        assert_eq!(e.code, "internal");
        // A non-transient code passes through, so the client does not
        // retry it as `internal`; escaped quotes in the message decode.
        let e = extract_error(
            r#"{"id":1,"ok":false,"verb":"batch","error":{"code":"map_error","message":"no \"fir\" mapping","entity":"fir"}}"#,
        );
        assert_eq!(e.code, "map_error");
        assert_eq!(e.message, r#"no "fir" mapping"#);
        assert_eq!(e.entity.as_deref(), Some("fir"));
        let e = extract_error(
            r#"{"id":1,"ok":false,"error":{"code":"deadline_exceeded","message":"late"}}"#,
        );
        assert_eq!(e.code, "deadline_exceeded");
        // An unknown code is not invented; it degrades to `internal`.
        let e = extract_error(r#"{"id":1,"ok":false,"error":{"code":"novel","message":"m"}}"#);
        assert_eq!(e.code, "internal");
        assert_eq!(e.message, "m");
    }

    #[test]
    fn unique_field_parsing_reads_the_envelope_header() {
        let line = r#"{"id":9,"ok":true,"verb":"batch","cached":false,"result":{"count":6,"unique":2,"deduped":4,"results":[]}}"#;
        assert_eq!(field_u64_after(line, "\"unique\":"), Some(2));
        assert_eq!(field_u64_after(line, "\"count\":"), Some(6));
        assert_eq!(field_u64_after(line, "\"missing\":"), None);
    }

    #[test]
    fn router_refuses_an_empty_shard_list() {
        match Router::start(RouterConfig {
            shards: Vec::new(),
            ..RouterConfig::default()
        }) {
            Ok(_) => panic!("router started with no shards"),
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
        }
    }
}
