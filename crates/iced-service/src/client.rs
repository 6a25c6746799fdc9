//! Resilient line-protocol client for the daemon.
//!
//! One shared implementation of the retry discipline every caller of the
//! service needs — the load generator, the chaos suite, CI smoke scripts —
//! instead of each growing its own ad-hoc connect loop:
//!
//! * **per-request timeout** via the socket read deadline;
//! * **bounded retries with jittered exponential backoff** on transport
//!   failures (connect refused, torn response, dropped connection) and on
//!   the two *transient* structured errors: `queue_full` (backpressure —
//!   the retry is the contract) and `internal` (a worker panicked; the
//!   request is safe to replay because results are content-addressed);
//! * **no retries** on every other structured error (`bad_request`,
//!   `map_error`, `shutting_down`, …) — those are the caller's answer,
//!   not the network's weather.
//!
//! A torn response (bytes without a terminating newline, as the chaos
//! layer's write-drop site produces) is treated as a transport failure:
//! the connection is discarded and the request replayed on a fresh one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iced_hash::StableHasher;

/// Structured-error codes that are safe and sensible to retry.
const RETRYABLE_CODES: [&str; 2] = ["\"code\":\"queue_full\"", "\"code\":\"internal\""];

/// First backoff step; doubles per attempt up to [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_millis(20);
const MAX_BACKOFF: Duration = Duration::from_millis(640);

/// All retries for one request failed.
#[derive(Debug)]
pub struct ClientError {
    /// How many attempts were made.
    pub attempts: u32,
    /// The last response or transport error observed.
    pub last: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request failed after {} attempts: {}",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for ClientError {}

/// One slot of a batch response, split back out of the envelope's
/// `results` array. `raw` is the slot's exact rendered bytes — for a
/// successful slot, its `result` object is byte-identical to what the
/// standalone verb would have returned.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Did this slot succeed? A `false` here is a *per-slot* structured
    /// error (bad spec, map failure); the batch as a whole still landed.
    pub ok: bool,
    /// Was this slot served from the result cache?
    pub cached: bool,
    /// The slot's full JSON text.
    pub raw: String,
}

impl BatchItem {
    fn from_raw(raw: String) -> BatchItem {
        let ok = raw.starts_with("{\"ok\":true");
        // Only inspect the slot header: a result payload could legally
        // contain the same substring.
        let header = raw.find("\"result\"").map_or(raw.as_str(), |i| &raw[..i]);
        BatchItem {
            ok,
            cached: header.contains("\"cached\":true"),
            raw,
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A reconnecting client for the newline-delimited JSON protocol.
pub struct Client {
    addr: String,
    timeout: Duration,
    attempts: u32,
    salt: u64,
    conn: Option<Conn>,
}

impl Client {
    /// Creates a client for `addr` (lazy: connects on first use) with the
    /// default per-request timeout (300 s, compiles can be slow) and 8
    /// attempts per request.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            timeout: Duration::from_secs(300),
            attempts: 8,
            salt: 0,
            conn: None,
        }
    }

    /// Overrides the per-request timeout and attempt budget.
    #[must_use]
    pub fn with_limits(mut self, timeout: Duration, attempts: u32) -> Client {
        self.timeout = timeout;
        self.attempts = attempts.max(1);
        self
    }

    /// Decorrelates this client's backoff jitter from its siblings'
    /// (give each load-generator thread a distinct salt).
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Client {
        self.salt = salt;
        self
    }

    /// Connects eagerly, retrying while an external daemon finishes
    /// booting, for up to `budget`.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once the budget is spent.
    pub fn connect_retry(addr: &str, budget: Duration) -> std::io::Result<Client> {
        let mut client = Client::new(addr);
        let t0 = Instant::now();
        loop {
            match client.connect_once() {
                Ok(conn) => {
                    client.conn = Some(conn);
                    return Ok(client);
                }
                Err(_) if t0.elapsed() < budget => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn connect_once(&self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        // Responses are single short lines; Nagle would add a delayed-ACK
        // round trip to every warm hit.
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(self.connect_once()?);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Sends one request line without waiting for the response (open-loop
    /// pipelining). On failure the connection is discarded.
    ///
    /// # Errors
    ///
    /// Propagates the connect or write failure.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let r = self.conn().and_then(|c| {
            // One write per request: a split write would re-introduce the
            // Nagle + delayed-ACK stall the server disables nodelay for.
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            c.writer.write_all(&buf)
        });
        if r.is_err() {
            self.conn = None;
        }
        r
    }

    /// Receives one response line. A closed or torn stream (no trailing
    /// newline) discards the connection and errors.
    ///
    /// # Errors
    ///
    /// Propagates read failures; a truncated line is `UnexpectedEof`.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let r = self.conn().and_then(|c| {
            let mut line = String::new();
            let n = c.reader.read_line(&mut line)?;
            if n == 0 || !line.ends_with('\n') {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            Ok(line.trim_end().to_string())
        });
        if r.is_err() {
            self.conn = None;
        }
        r
    }

    fn try_once(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// One request, retried until a non-transient response arrives or the
    /// attempt budget is spent. The returned response may still be a
    /// structured error — a *permanent* one, which is the server's answer.
    ///
    /// # Errors
    ///
    /// [`ClientError`] after `attempts` transport failures or transient
    /// error responses.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        let mut last = String::new();
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(attempt, self.salt));
            }
            match self.try_once(line) {
                Ok(resp) if !is_transient(&resp) => return Ok(resp),
                Ok(resp) => last = resp,
                Err(e) => last = format!("transport: {e}"),
            }
        }
        Err(ClientError {
            attempts: self.attempts,
            last,
        })
    }

    /// Sends many compile specs as one `batch` request and splits the
    /// ordered response array back into per-slot items. Each `spec` is a
    /// JSON object of compile fields (`kernel`, `strategy`, …) *without*
    /// a `verb`; the helper splices it in.
    ///
    /// Retries follow the whole-batch contract: only an envelope-level
    /// `queue_full`/`internal` (or a transport failure) replays the
    /// batch; per-slot errors arrive inside a successful envelope and
    /// are never retried.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the attempt budget is spent or the final
    /// envelope is a structured error.
    pub fn compile_batch(
        &mut self,
        id: u64,
        specs: &[&str],
    ) -> Result<Vec<BatchItem>, ClientError> {
        self.batch_with_verb("compile", id, specs)
    }

    /// [`compile_batch`](Self::compile_batch) for simulate specs
    /// (`kernel`, `iterations`, `seed`, …).
    ///
    /// # Errors
    ///
    /// As [`compile_batch`](Self::compile_batch).
    pub fn simulate_batch(
        &mut self,
        id: u64,
        specs: &[&str],
    ) -> Result<Vec<BatchItem>, ClientError> {
        self.batch_with_verb("simulate", id, specs)
    }

    fn batch_with_verb(
        &mut self,
        verb: &str,
        id: u64,
        specs: &[&str],
    ) -> Result<Vec<BatchItem>, ClientError> {
        let items: Vec<String> = specs.iter().map(|s| splice_verb(verb, s)).collect();
        let line = format!(
            "{{\"id\":{id},\"verb\":\"batch\",\"items\":[{}]}}",
            items.join(",")
        );
        let resp = self.request(&line)?;
        if !resp.contains("\"ok\":true") {
            return Err(ClientError {
                attempts: 1,
                last: resp,
            });
        }
        Ok(split_results(&resp)
            .into_iter()
            .map(BatchItem::from_raw)
            .collect())
    }
}

/// Splices `"verb":…` into a spec object's first position. The spec is
/// passed through otherwise untouched, so callers keep full control of
/// the fields (and malformed specs become the server's structured
/// per-slot answer, not a client-side panic).
fn splice_verb(verb: &str, spec: &str) -> String {
    let spec = spec.trim();
    let inner = spec
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .map_or(spec, str::trim);
    if inner.is_empty() {
        format!("{{\"verb\":\"{verb}\"}}")
    } else {
        format!("{{\"verb\":\"{verb}\",{inner}}}")
    }
}

/// Splits the envelope's `"results":[…]` array into its top-level
/// elements as raw text, so a successful slot's bytes stay exactly as
/// the server rendered them (no client-side re-serialization).
pub(crate) fn split_results(resp: &str) -> Vec<String> {
    let Some(start) = resp.find("\"results\":[") else {
        return Vec::new();
    };
    let body = &resp[start + "\"results\":[".len()..];
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut item_start = None;
    for (i, ch) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            _ if in_str => {}
            '{' | '[' => {
                if depth == 0 && item_start.is_none() {
                    item_start = Some(i);
                }
                depth += 1;
            }
            '}' | ']' => {
                if depth == 0 {
                    // The array's own closing bracket.
                    break;
                }
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = item_start.take() {
                        items.push(body[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    items
}

/// Is this response worth replaying? Only backpressure and worker-panic
/// errors qualify; success and permanent errors are final.
fn is_transient(resp: &str) -> bool {
    !resp.contains("\"ok\":true") && RETRYABLE_CODES.iter().any(|c| resp.contains(c))
}

/// Exponential backoff with deterministic jitter: `base·2^(attempt-1)`
/// capped at [`MAX_BACKOFF`], plus up to 50% drawn from a seeded hash so
/// simultaneous retriers fan out instead of stampeding in lockstep.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let exp = BASE_BACKOFF
        .saturating_mul(1 << (attempt - 1).min(10))
        .min(MAX_BACKOFF);
    let mut h = StableHasher::with_seed(0x1ced_c1e0);
    h.write_u64(salt);
    h.write_u64(u64::from(attempt));
    let jitter_ms = h.finish() % (exp.as_millis() as u64 / 2).max(1);
    exp + Duration::from_millis(jitter_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        assert!(is_transient(
            r#"{"id":1,"ok":false,"error":{"code":"queue_full","message":"x"}}"#
        ));
        assert!(is_transient(
            r#"{"id":1,"ok":false,"error":{"code":"internal","message":"x"}}"#
        ));
        // Permanent errors and successes are final.
        assert!(!is_transient(
            r#"{"id":1,"ok":false,"error":{"code":"bad_request","message":"x"}}"#
        ));
        assert!(!is_transient(
            r#"{"id":1,"ok":false,"error":{"code":"shutting_down","message":"x"}}"#
        ));
        assert!(!is_transient(
            r#"{"id":1,"ok":true,"verb":"compile","cached":false,"result":{}}"#
        ));
        // A success whose payload merely mentions the word is not an error.
        assert!(!is_transient(
            r#"{"id":1,"ok":true,"result":{"note":"queue_full"}}"#
        ));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        for salt in 0..8 {
            let mut prev = Duration::ZERO;
            for attempt in 1..=6 {
                let d = backoff_delay(attempt, salt);
                let exp = BASE_BACKOFF
                    .saturating_mul(1 << (attempt - 1))
                    .min(MAX_BACKOFF);
                assert!(d >= exp, "attempt {attempt}: {d:?} < {exp:?}");
                assert!(d < exp + exp / 2 + Duration::from_millis(1), "{d:?}");
                assert!(d >= prev / 4, "collapse at attempt {attempt}");
                prev = d;
            }
        }
        // Jitter is deterministic per (salt, attempt) …
        assert_eq!(backoff_delay(3, 9), backoff_delay(3, 9));
        // … and decorrelated across salts (at least one pair differs).
        assert!((0..16).any(|s| backoff_delay(3, s) != backoff_delay(3, s + 16)));
    }

    #[test]
    fn verb_splicing_handles_empty_and_populated_specs() {
        assert_eq!(splice_verb("compile", "{}"), "{\"verb\":\"compile\"}");
        assert_eq!(splice_verb("compile", "  {  }  "), "{\"verb\":\"compile\"}");
        assert_eq!(
            splice_verb("simulate", r#"{"kernel":"fir","iterations":100}"#),
            r#"{"verb":"simulate","kernel":"fir","iterations":100}"#
        );
        // A spec that is not an object passes through for the server to
        // reject with a structured per-slot error.
        assert_eq!(splice_verb("compile", "42"), "{\"verb\":\"compile\",42}");
    }

    #[test]
    fn result_splitting_preserves_slot_bytes_exactly() {
        let resp = concat!(
            r#"{"id":7,"req":"c1-1","ok":true,"verb":"batch","cached":false,"result":"#,
            r#"{"count":3,"unique":2,"deduped":1,"results":["#,
            r#"{"ok":true,"verb":"compile","cached":false,"result":{"kernel":"fir","note":"has ] and } in string"}},"#,
            r#"{"ok":false,"verb":"compile","error":{"code":"map_error","message":"no: [{"}},"#,
            r#"{"ok":true,"verb":"simulate","cached":true,"result":{"cycles":12,"nested":[1,[2,3]]}}"#,
            r#"]}}"#
        );
        let items = split_results(resp);
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0],
            r#"{"ok":true,"verb":"compile","cached":false,"result":{"kernel":"fir","note":"has ] and } in string"}}"#
        );
        assert_eq!(
            items[1],
            r#"{"ok":false,"verb":"compile","error":{"code":"map_error","message":"no: [{"}}"#
        );
        let third = BatchItem::from_raw(items[2].clone());
        assert!(third.ok);
        assert!(third.cached);
        let second = BatchItem::from_raw(items[1].clone());
        assert!(!second.ok);
        assert!(!second.cached);
        // An error response or empty array yields no slots.
        assert!(split_results(r#"{"ok":false,"error":{"code":"x"}}"#).is_empty());
        assert!(split_results(r#"{"ok":true,"result":{"results":[]}}"#).is_empty());
    }

    #[test]
    fn exhausted_retries_surface_the_last_observation() {
        // Nothing listens on a reserved port of the discard block.
        let mut c = Client::new("127.0.0.1:1").with_limits(Duration::from_millis(50), 2);
        let err = c.request("{\"id\":1,\"verb\":\"healthz\"}").unwrap_err();
        assert_eq!(err.attempts, 2);
        assert!(err.last.starts_with("transport:"), "{}", err.last);
        assert!(err.to_string().contains("after 2 attempts"));
    }
}
