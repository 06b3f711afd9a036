//! The connection front the daemon and the balancer share.
//!
//! A [`Front`] owns a listener and a pool of worker threads, and runs
//! everything about a connection that does not depend on what the
//! connection asks for:
//!
//! * **admission** — the acceptor queues connections on a bounded
//!   `sync_channel` of `max_pending` slots and keeps the queue-depth
//!   gauge. A connection the full queue refuses is *shed*: a capped,
//!   short-lived thread reads its first line and answers HTTP peers with
//!   `503` + `Retry-After: 1`, everyone else with a structured busy line;
//! * **workers** — each serves one connection at a time off the queue; a
//!   worker that panics is respawned by its [`RespawnGuard`];
//! * **the line loop** — bounded line reads (an oversized line is answered
//!   with a parse error and the connection closed), the idle deadline,
//!   the per-connection request cap, and the first-line switch to HTTP;
//! * **shutdown** — sever idle connections, give connections with a
//!   request in flight the drain window, sever the rest, join every
//!   thread.
//!
//! What a connection asks for is the [`Handler`]'s business: one call per
//! protocol request line, one per HTTP request, and a notice of each
//! oversized line (the daemon logs it; both count it as a parse error).
//!
//! # One write per message
//!
//! Every connection is `TCP_NODELAY`, so each `write` leaves as its own
//! segment, and a peer reading lines wakes on the first segment of a
//! split message only to block again for the rest. Each answer — a
//! response line with its `\n`, the oversized-line verdict, a shed line,
//! an HTTP response — is framed in one `String` and sent with one
//! `write_all`. No `BufWriter`: it would split a message longer than its
//! capacity, and the framed message costs nothing to build in the
//! `String` the handler already returned.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soctam_core::protocol;
use soctam_core::schedule::lock_unpoisoned;

/// What a [`Front`] serves: the answer to each protocol line and each HTTP
/// request.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Answers one protocol request line (trimmed; never blank or a `#`
    /// comment) from `conn`. `None` severs the connection unanswered.
    fn line(&self, conn: &Conn<'_>, line: &str) -> Option<String>;

    /// Answers a `GET`/`HEAD` of `path`: the status line and the body.
    fn http(&self, path: &str) -> (&'static str, String);

    /// Notes a request line from `conn` that blew the byte cap. The front
    /// answers it with a parse error and closes the connection.
    fn oversized(&self, conn: &Conn<'_>);
}

/// The connection a [`Handler`] call serves.
pub(crate) struct Conn<'a> {
    /// The peer's address, or `unknown`.
    pub(crate) peer: &'a str,
    busy: &'a AtomicBool,
}

impl Conn<'_> {
    /// Marks a request in flight: until the front has flushed the answer,
    /// shutdown gives this connection the drain window instead of
    /// severing it.
    pub(crate) fn begin_request(&self) {
        self.busy.store(true, Ordering::SeqCst);
    }
}

/// A front's connection limits, derived from its owner's configuration
/// (already clamped there).
#[derive(Debug)]
pub(crate) struct Limits {
    /// Who is answering, as named in the shed line (`server`, `balancer`).
    pub(crate) name: &'static str,
    pub(crate) threads: usize,
    pub(crate) max_pending: usize,
    pub(crate) max_line_bytes: usize,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) max_requests: Option<u64>,
    pub(crate) drain: Duration,
}

/// Counters and gauges every front keeps; each owner renders them under
/// its own metric names.
#[derive(Debug, Default)]
pub(crate) struct FrontStats {
    pub(crate) connections: AtomicU64,
    pub(crate) http_requests: AtomicU64,
    /// Connections reaped by the idle (read/write) deadline.
    pub(crate) timeouts: AtomicU64,
    /// Request lines that blew the byte cap (connection closed).
    pub(crate) oversized_lines: AtomicU64,
    /// Keep-alive connections closed by the per-connection request cap.
    pub(crate) request_cap_closes: AtomicU64,
    /// Connections shed by admission control (queue full).
    pub(crate) sheds: AtomicU64,
    /// Worker threads that died to a panic and were respawned.
    pub(crate) worker_panics: AtomicU64,
    /// Accepted connections sitting in the bounded queue, not yet picked
    /// up by a worker. Incremented before the enqueue attempt and backed
    /// out on a failed one, so the gauge never under-counts.
    pub(crate) queue_depth: AtomicU64,
    /// Live pool workers (a gauge: respawns keep it at `threads`).
    pub(crate) worker_threads: AtomicU64,
}

/// One registered connection: the severing handle plus the busy flag
/// raised while a request is in flight (read but not yet answered), so
/// shutdown can tell "blocked waiting for a peer" (sever now) from
/// "solving/flushing" (drain first).
struct ActiveConn {
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

/// Everything the acceptor, the workers, and the shed threads share.
struct Inner<H> {
    handler: Arc<H>,
    limits: Limits,
    stats: Arc<FrontStats>,
    shutdown: AtomicBool,
    /// Handles on every connection currently being served, so shutdown
    /// can sever them instead of waiting for idle peers to hang up.
    active: Mutex<HashMap<u64, ActiveConn>>,
    next_conn_id: AtomicU64,
    /// Short-lived threads currently writing shed responses, capped so a
    /// connection flood cannot mint unbounded threads.
    shed_threads: AtomicU64,
    /// Join handles of every worker spawned, respawns included; drained
    /// by [`Front::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<H> Inner<H> {
    /// Severs connections: all of them, or only those with no request in
    /// flight. Blocked worker reads observe EOF, so a stopping front never
    /// waits on an idle peer.
    fn sever(&self, idle_only: bool) {
        let active = lock_unpoisoned(&self.active);
        for conn in active.values() {
            if !idle_only || !conn.busy.load(Ordering::SeqCst) {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Whether any registered connection has a request in flight.
    fn any_busy(&self) -> bool {
        lock_unpoisoned(&self.active)
            .values()
            .any(|c| c.busy.load(Ordering::SeqCst))
    }
}

/// A running front: an acceptor plus a pool of connection workers over
/// one [`Handler`]. Dropping it (or [`Front::shutdown`]) stops accepting,
/// drains in-flight requests, and joins every thread.
pub(crate) struct Front<H: Handler> {
    inner: Arc<Inner<H>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl<H: Handler> Front<H> {
    /// Starts the acceptor and the workers on `listener`.
    pub(crate) fn start(
        listener: TcpListener,
        limits: Limits,
        stats: Arc<FrontStats>,
        handler: Arc<H>,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            handler,
            limits,
            stats,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            shed_threads: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });

        // The *bounded* connection queue: admission control. `try_send`
        // either queues (at most `max_pending` waiting) or fails
        // immediately, and a failed enqueue becomes a shed, not a stall.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(inner.limits.max_pending);
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..inner.limits.threads.max(1) {
            spawn_worker(&inner, &rx);
        }

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break; // tx drops here; workers drain and exit
                    }
                    let Ok(stream) = stream else { continue };
                    let stats = &inner.stats;
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    // Raise the gauge *before* the enqueue attempt
                    // (backing out on failure): a worker's decrement can
                    // then never race it below the true depth.
                    stats.queue_depth.fetch_add(1, Ordering::SeqCst);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(stream)) => {
                            stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            shed(&inner, stream);
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            })
        };

        Ok(Self {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The address the front is listening on (useful with port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the front stops accepting.
    pub(crate) fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops accepting, severs idle connections, gives connections with a
    /// request in flight up to the drain window, severs the rest, and
    /// joins every thread. Later calls do nothing.
    pub(crate) fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` so the acceptor observes the flag. The dummy
        // connection, if it wins the race into the queue, reads EOF and
        // costs a worker nothing.
        let _ = TcpStream::connect(self.addr);
        self.join();
        // Idle connections' workers are blocked waiting on a peer, with
        // nothing to flush: sever them now.
        self.inner.sever(true);
        let deadline = Instant::now() + self.inner.limits.drain;
        while self.inner.any_busy() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.inner.sever(false);
        // A worker can panic and respawn while we join, so drain until the
        // list stays empty.
        loop {
            let workers: Vec<_> = lock_unpoisoned(&self.inner.workers).drain(..).collect();
            if workers.is_empty() {
                break;
            }
            for worker in workers {
                let _ = worker.join();
            }
        }
        // Every worker has exited and the queue's sender is gone: any
        // residual depth is connections that died queued — e.g. the last
        // worker left through a panic (no respawn at shutdown), never
        // reaching its disconnected-`recv` drain. Zero it so a
        // post-shutdown scrape reads a clean gauge.
        self.inner.stats.queue_depth.store(0, Ordering::SeqCst);
    }
}

impl<H: Handler> Drop for Front<H> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one pool worker: a loop taking connections off the bounded
/// queue, guarded so a panic in a connection handler costs one request,
/// not one worker.
fn spawn_worker<H: Handler>(inner: &Arc<Inner<H>>, rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    inner.stats.worker_threads.fetch_add(1, Ordering::SeqCst);
    let guard = RespawnGuard {
        inner: Arc::clone(inner),
        rx: Arc::clone(rx),
    };
    let worker = std::thread::spawn(move || {
        let RespawnGuard { inner, rx } = &guard;
        loop {
            // Take the next connection under the lock, serve it outside:
            // peers queue behind `recv`, not behind a long-running
            // request on another worker.
            let stream = lock_unpoisoned(rx).recv();
            match stream {
                Ok(stream) => {
                    inner.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    serve_connection(inner, stream);
                }
                Err(_) => {
                    // Acceptor gone: shutdown. The channel is empty (a
                    // disconnected `recv` drains before erroring) and its
                    // sender is dropped, so whatever the gauge still
                    // counts are queued connections discarded unserved —
                    // zero it, or the final scrape reports phantom depth
                    // forever.
                    inner.stats.queue_depth.store(0, Ordering::SeqCst);
                    break;
                }
            }
        }
    });
    lock_unpoisoned(&inner.workers).push(worker);
}

/// Keeps the worker pool at strength: if a worker thread unwinds out of
/// its loop (a handler panicked — e.g. an injected `io:panic` fault), the
/// guard's drop respawns a replacement and counts the recovery. A normal
/// shutdown exit respawns nothing.
struct RespawnGuard<H: Handler> {
    inner: Arc<Inner<H>>,
    rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
}

impl<H: Handler> Drop for RespawnGuard<H> {
    fn drop(&mut self) {
        let stats = &self.inner.stats;
        stats.worker_threads.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() && !self.inner.shutdown.load(Ordering::SeqCst) {
            stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            spawn_worker(&self.inner, &self.rx);
        }
    }
}

/// Most shed responses in flight at once. Beyond this, shed connections
/// are dropped without a reply: the courtesy write must never become its
/// own resource exhaustion under a connection flood.
const MAX_SHED_THREADS: u64 = 32;

/// How long a shed-response thread will wait on the peer. Sheds happen
/// when the front is drowning; a slow peer gets cut off, not waited for.
const SHED_GRACE: Duration = Duration::from_secs(2);

/// Sheds one connection the bounded queue refused: counts it and answers
/// on a short-lived thread (the acceptor must never block on peer I/O).
fn shed<H: Handler>(inner: &Arc<Inner<H>>, stream: TcpStream) {
    inner.stats.sheds.fetch_add(1, Ordering::Relaxed);
    if inner.shed_threads.fetch_add(1, Ordering::SeqCst) >= MAX_SHED_THREADS {
        inner.shed_threads.fetch_sub(1, Ordering::SeqCst);
        return; // flood: drop without the courtesy reply
    }
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        write_shed_response(&inner.limits, stream);
        inner.shed_threads.fetch_sub(1, Ordering::SeqCst);
    });
}

/// Reads just the first request line (briefly — see [`SHED_GRACE`]) to
/// tell HTTP from protocol peers, answers with `503` + `Retry-After` or a
/// structured busy line accordingly, and closes.
fn write_shed_response(limits: &Limits, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SHED_GRACE));
    let _ = stream.set_write_timeout(Some(SHED_GRACE));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    let first_line = match read_bounded_line(&mut reader, &mut buf, limits.max_line_bytes) {
        LineRead::Line => String::from_utf8_lossy(&buf).trim().to_owned(),
        _ => return, // peer hung up or stalled: nothing owed
    };
    let response = if first_line.starts_with("GET ") || first_line.starts_with("HEAD ") {
        http_response(
            "503 Service Unavailable",
            "Retry-After: 1\r\n",
            "busy: workers and the pending queue are full; retry with backoff\n",
            first_line.starts_with("HEAD "),
        )
    } else {
        format!(
            "{{\"ok\": false, \"busy\": true, \"transient\": true, \"error\": \
             \"{} at capacity ({} connections pending); retry with backoff\"}}\n",
            limits.name, limits.max_pending
        )
    };
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.flush();
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (or the final, newline-less line before EOF) is in
    /// the buffer.
    Line,
    /// The byte cap was hit before a newline arrived.
    Oversized,
    /// The read deadline elapsed (`WouldBlock`/`TimedOut`).
    TimedOut,
    /// The peer hung up, or the transport failed otherwise.
    Closed,
}

/// Reads one `\n`-terminated line into `buf` (cleared first), never
/// buffering more than `max + 1` bytes of it — the bounded read that keeps
/// a newline-free byte stream from growing memory without limit.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>, max: usize) -> LineRead {
    buf.clear();
    let mut bounded = reader.by_ref().take(max as u64 + 1);
    match bounded.read_until(b'\n', buf) {
        Ok(0) => LineRead::Closed,
        Ok(_) if buf.last() == Some(&b'\n') || buf.len() <= max => LineRead::Line,
        Ok(_) => LineRead::Oversized,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            LineRead::TimedOut
        }
        Err(_) => LineRead::Closed,
    }
}

/// Serves one accepted connection to completion: an HTTP `GET`/`HEAD`
/// first line gets one response and a close; anything else is a stream of
/// protocol request lines, each answered with one line.
fn serve_connection<H: Handler>(inner: &Inner<H>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(inner.limits.idle_timeout);
    let _ = stream.set_write_timeout(inner.limits.idle_timeout);
    // Register a clone of the stream so shutdown can `Shutdown::Both` it.
    let (Ok(handle), Ok(read_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let busy = Arc::new(AtomicBool::new(false));
    lock_unpoisoned(&inner.active).insert(
        id,
        ActiveConn {
            stream: handle,
            busy: Arc::clone(&busy),
        },
    );
    // Deregister on drop, not on fall-through: a panicking handler (e.g.
    // an injected `io:panic` fault) must not leak its entry in the
    // active-connection table — shutdown would wait a full drain window
    // on a connection no worker is serving.
    struct Deregister<'a, H>(&'a Inner<H>, u64);
    impl<H> Drop for Deregister<'_, H> {
        fn drop(&mut self) {
            lock_unpoisoned(&self.0.active).remove(&self.1);
        }
    }
    let _deregister = Deregister(inner, id);

    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_owned(), |a| a.to_string());
    let conn = Conn {
        peer: &peer,
        busy: &busy,
    };
    let limits = &inner.limits;
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut first = true;
    let mut served: u64 = 0;
    let mut buf = Vec::new();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return; // draining: no new request is read
        }
        match read_bounded_line(&mut reader, &mut buf, limits.max_line_bytes) {
            LineRead::Closed => return,
            LineRead::TimedOut => {
                inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return; // idle (or unwriteable) peer reaped
            }
            LineRead::Oversized => {
                busy.store(true, Ordering::SeqCst);
                inner.stats.oversized_lines.fetch_add(1, Ordering::Relaxed);
                inner.handler.oversized(&conn);
                let mut response = protocol::render_parse_error(&format!(
                    "request line exceeds the {}-byte cap; closing connection",
                    limits.max_line_bytes
                ));
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                // Discard (bounded, fixed-buffer — memory never grows) what
                // remains of the over-long line: closing with unread data
                // would RST the verdict out from under the peer.
                let _ = io::copy(&mut reader.by_ref().take(1 << 20), &mut io::sink());
                busy.store(false, Ordering::SeqCst);
                return; // the over-long line is never buffered, only drained
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&buf);
        if first && (line.starts_with("GET ") || line.starts_with("HEAD ")) {
            inner.stats.http_requests.fetch_add(1, Ordering::Relaxed);
            busy.store(true, Ordering::SeqCst);
            serve_http(inner, &mut reader, &mut writer, line.trim());
            busy.store(false, Ordering::SeqCst);
            return; // Connection: close
        }
        first = false;
        let request = line.trim();
        if request.is_empty() || request.starts_with('#') {
            continue; // same skip rule as a batch file
        }
        let Some(mut response) = inner.handler.line(&conn, request) else {
            return;
        };
        response.push('\n');
        let write_ok = writer.write_all(response.as_bytes()).is_ok();
        busy.store(false, Ordering::SeqCst);
        if !write_ok {
            return;
        }
        served += 1;
        if limits.max_requests.is_some_and(|cap| served >= cap) {
            inner
                .stats
                .request_cap_closes
                .fetch_add(1, Ordering::Relaxed);
            return; // cap'th response flushed; keep-alive ends here
        }
    }
}

/// Most header lines one HTTP request may carry before the front stops
/// reading and answers 431 — with the per-line byte cap, this bounds the
/// bytes a header block can make the front consume.
const MAX_HTTP_HEADER_LINES: usize = 128;

/// Drains an HTTP request's header block (the surface is GET/HEAD-only,
/// so no body follows) under the per-line byte cap, returning whether the
/// block overflowed the caps — in which case the caller answers 431.
fn drain_http_headers(reader: &mut BufReader<TcpStream>, max_line: usize) -> bool {
    let mut header = Vec::new();
    let mut lines = 0;
    loop {
        if lines >= MAX_HTTP_HEADER_LINES {
            break true;
        }
        lines += 1;
        match read_bounded_line(reader, &mut header, max_line) {
            LineRead::Oversized => break true,
            LineRead::Line if !header.iter().all(|b| b.is_ascii_whitespace()) => {}
            _ => break false, // blank line, EOF, timeout, or failure
        }
    }
}

/// Answers one HTTP request with the handler's status and body, or `431`
/// when the header block overflows the caps, with the `Connection: close`
/// discipline.
fn serve_http<H: Handler>(
    inner: &Inner<H>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_line: &str,
) {
    let (status, body) = if drain_http_headers(reader, inner.limits.max_line_bytes) {
        (
            "431 Request Header Fields Too Large",
            "header block exceeds the configured cap\n".to_owned(),
        )
    } else {
        let path = request_line.split_whitespace().nth(1).unwrap_or("/");
        inner.handler.http(path)
    };
    let response = http_response(status, "", &body, request_line.starts_with("HEAD "));
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.flush();
}

/// Renders one full HTTP/1.1 response with the `Connection: close`
/// discipline; `extra` holds further header lines, each ending in `\r\n`.
/// A HEAD response carries the headers a GET would (including the body's
/// Content-Length) but never the body itself (RFC 9110 §9.3.2).
fn http_response(status: &str, extra: &str, body: &str, head_only: bool) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\n{extra}Connection: close\r\n\r\n{}",
        body.len(),
        if head_only { "" } else { body }
    )
}
