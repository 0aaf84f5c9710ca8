//! Event-driven TCP front end: one thread, readiness-driven I/O, no
//! per-connection threads.
//!
//! The thread-per-connection loop in [`crate::protocol::serve_tcp`] costs
//! two OS threads per connection, which is why it needs a hard
//! [`crate::protocol::MAX_CONNECTIONS`] cap at all. This module replaces
//! it with a single-threaded readiness loop over nonblocking sockets
//! (epoll on Linux via the offline `polling` shim, a level-triggered
//! claim-all fallback elsewhere): idle connections cost one registered fd
//! and a small buffer, **zero threads**, so the connection cap becomes a
//! soft admission knob — an over-cap client is told `Busy` in-band with a
//! retry hint instead of being silently dropped.
//!
//! Per connection the loop:
//!
//! 1. reads until `WouldBlock` into an input buffer and cuts complete
//!    frames with [`parse_request`];
//! 2. submits each frame via [`ServeHandle::submit_nonblocking`] — the
//!    frontend thread must never sleep on a full shard queue, so queue
//!    pressure surfaces as an in-band `Busy` frame (same shed the SLO
//!    admission path produces);
//! 3. pumps replies **in request order**: whole images serialize straight
//!    into the output buffer; streamed replies drain their tile channel
//!    incrementally, so response memory for a streaming connection stays
//!    at a few row tiles plus the write watermark;
//! 4. writes until `WouldBlock`, closing once a goodbye (or EOF) has been
//!    read and every pending reply is flushed.
//!
//! Backpressure: the output buffer is only refilled while it holds less
//! than [`WRITE_WATERMARK`] unflushed bytes; a slow reader therefore
//! stalls its own stream's tile drain (tiles stay pooled in the shard)
//! rather than ballooning server memory.

use crate::pool::{ServeHandle, ServeReply, ServedStream, StreamEvent, Ticket, TryEvent};
use crate::protocol::{
    forced_streaming, parse_request, write_response, write_stream_failure, Crc32, MAX_FRAME,
    STATUS_STREAM_BEGIN, STATUS_STREAM_CHUNK, STATUS_STREAM_FINAL,
};
use crate::ServeError;
use polling::{Event, Interest, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Soft cap on concurrently open connections (default for
/// [`FrontEnd::new`]); over-cap accepts are answered with a `Busy` frame
/// and closed. Unlike the thread-per-connection cap this bounds only fd
/// and buffer usage — idle connections cost no threads.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Stop refilling a connection's output buffer while it already holds
/// this many unflushed bytes. Bounds per-connection response memory and
/// exerts backpressure on streaming decodes (tiles stay in the shard's
/// bounded pool until the client drains).
pub const WRITE_WATERMARK: usize = 1 << 20;

/// Cap on a connection's *input* buffer. A frame can legitimately be up
/// to 4 + [`MAX_FRAME`] bytes; anything growing beyond that is a protocol
/// violation.
const READ_LIMIT: usize = 4 + MAX_FRAME as usize;

/// Per-tick poll timeout. The loop must wake even with no socket events
/// to pump decode replies that completed in the shard pool.
const TICK: Duration = Duration::from_millis(1);

/// Counters published by [`FrontEnd::run`] (readable concurrently via
/// [`FrontEndStats`]).
#[derive(Debug, Default)]
pub struct FrontEndCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    peak_connections: AtomicU64,
}

/// Snapshot of a front end's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections refused over the cap (each got a `Busy` frame first).
    pub rejected: u64,
    /// Request frames parsed and submitted.
    pub requests: u64,
    /// High-water mark of concurrently open connections.
    pub peak_connections: u64,
}

/// One queued reply slot. Replies are written strictly in request order,
/// so a slot may sit behind earlier slots while already resolved.
enum Pending {
    /// Fully serialized response bytes, ready to copy out.
    Ready(Vec<u8>),
    /// Submitted to the pool; resolved by polling the ticket.
    Waiting(Ticket),
    /// A streamed reply mid-drain: tiles are serialized as they arrive.
    Streaming {
        stream: ServedStream,
        begun: bool,
        crc: Crc32,
    },
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// In-order reply queue.
    pending: VecDeque<Pending>,
    /// Serialized-but-unflushed response bytes.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Goodbye or EOF seen: close once `pending` and `out` drain.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            closing: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn done(&self) -> bool {
        self.closing && self.pending.is_empty() && self.unflushed() == 0
    }
}

/// The event-driven front end. Construct with [`FrontEnd::new`], then
/// [`run`](FrontEnd::run) the loop (it owns the calling thread until
/// [`stop`](FrontEnd::stop) is flagged or the listener dies).
pub struct FrontEnd {
    handle: ServeHandle,
    listener: TcpListener,
    max_connections: usize,
    stop: AtomicBool,
    counters: FrontEndCounters,
}

impl FrontEnd {
    /// Wrap a listener with the [`DEFAULT_MAX_CONNECTIONS`] soft cap.
    pub fn new(handle: ServeHandle, listener: TcpListener) -> io::Result<FrontEnd> {
        FrontEnd::with_max_connections(handle, listener, DEFAULT_MAX_CONNECTIONS)
    }

    /// Wrap a listener with an explicit connection cap (`0` is clamped
    /// to 1).
    pub fn with_max_connections(
        handle: ServeHandle,
        listener: TcpListener,
        max_connections: usize,
    ) -> io::Result<FrontEnd> {
        listener.set_nonblocking(true)?;
        Ok(FrontEnd {
            handle,
            listener,
            max_connections: max_connections.max(1),
            stop: AtomicBool::new(false),
            counters: FrontEndCounters::default(),
        })
    }

    /// Flag the loop to exit after the current tick. Safe from any
    /// thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Counter snapshot; callable concurrently with [`run`](Self::run).
    pub fn stats(&self) -> FrontEndStats {
        FrontEndStats {
            accepted: self.counters.accepted.load(Ordering::Acquire),
            rejected: self.counters.rejected.load(Ordering::Acquire),
            requests: self.counters.requests.load(Ordering::Acquire),
            peak_connections: self.counters.peak_connections.load(Ordering::Acquire),
        }
    }

    /// Run the readiness loop on the calling thread until
    /// [`stop`](Self::stop) is flagged or the listener fails fatally.
    /// Returns the number of requests served.
    pub fn run(&self) -> io::Result<u64> {
        const LISTENER_TOKEN: u64 = u64::MAX;
        let force = forced_streaming();
        let mut poller = Poller::new()?;
        poller.register(
            self.listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READABLE,
        )?;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = 0u64;
        let mut events: Vec<Event> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            events.clear();
            poller.wait(&mut events, Some(TICK))?;
            let mut accept_ready = conns.is_empty() && events.is_empty();
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    accept_ready = true;
                }
            }
            // The portable poller fallback reports nothing for an idle
            // tick; accepting opportunistically on a nonblocking listener
            // is free (WouldBlock) and keeps the fallback live.
            if accept_ready || events.is_empty() {
                self.accept_ready(&mut poller, &mut conns, &mut next_token)?;
            }
            // Readiness only tells us *which* connections to read first;
            // every connection still gets a reply-pump pass each tick
            // because decode completions are not fd events.
            for (&token, conn) in conns.iter_mut() {
                let readable =
                    events.iter().any(|e| e.token == token && e.readable) || conn.unflushed() == 0;
                let alive = (!readable || Self::fill(conn, &self.counters, &self.handle, force))
                    && Self::pump(conn)
                    && Self::flush(conn);
                if !alive || conn.done() {
                    dead.push(token);
                }
            }
            for token in dead.drain(..) {
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
        }
        Ok(self.counters.requests.load(Ordering::Acquire))
    }

    /// Drain the accept queue; over-cap connections get a `Busy` frame
    /// then close.
    fn accept_ready(
        &self,
        poller: &mut Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) -> io::Result<()> {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => return Ok(()),
                Err(e) => return Err(e),
            };
            if conns.len() >= self.max_connections {
                self.counters.rejected.fetch_add(1, Ordering::AcqRel);
                let mut stream = stream;
                let _ = write_response(
                    &mut stream,
                    &Err(ServeError::Busy {
                        retry_after: Duration::from_millis(10),
                    }),
                );
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // A reply leaves in several writes; with Nagle's algorithm on,
            // each after the first waits for the client's delayed ACK. A
            // failure only costs latency, so the connection is kept.
            let _ = stream.set_nodelay(true);
            let token = *next_token;
            *next_token += 1;
            if poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.counters.accepted.fetch_add(1, Ordering::AcqRel);
            conns.insert(token, Conn::new(stream));
            let open = conns.len() as u64;
            self.counters
                .peak_connections
                .fetch_max(open, Ordering::AcqRel);
        }
    }

    /// Read until `WouldBlock`, then parse and submit every complete
    /// frame. Returns `false` when the connection should be torn down
    /// (I/O error or protocol violation).
    fn fill(
        conn: &mut Conn,
        counters: &FrontEndCounters,
        handle: &ServeHandle,
        force: bool,
    ) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    if conn.buf.len() + n > READ_LIMIT {
                        return false;
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        loop {
            match parse_request(&conn.buf) {
                Ok(None) => break,
                Ok(Some((None, consumed))) => {
                    conn.buf.drain(..consumed);
                    conn.closing = true;
                    break;
                }
                Ok(Some((Some(mut frame), consumed))) => {
                    conn.buf.drain(..consumed);
                    if force && frame.v2 {
                        frame.options.options.streaming = true;
                    }
                    counters.requests.fetch_add(1, Ordering::AcqRel);
                    match handle.submit_nonblocking(frame.jpeg, frame.options) {
                        Ok(ticket) => conn.pending.push_back(Pending::Waiting(ticket)),
                        Err(e) => {
                            let mut out = Vec::new();
                            let _ = write_response(&mut out, &Err(e));
                            conn.pending.push_back(Pending::Ready(out));
                        }
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Move resolved replies, **in request order**, into the output
    /// buffer, stopping at the first still-waiting ticket or once the
    /// write watermark is reached. Returns `false` on a wedged reply
    /// channel with nothing recoverable (never happens in practice — the
    /// error is serialized in-band instead).
    fn pump(conn: &mut Conn) -> bool {
        while conn.unflushed() < WRITE_WATERMARK {
            let Some(front) = conn.pending.front_mut() else {
                break;
            };
            match front {
                Pending::Ready(bytes) => {
                    let bytes = std::mem::take(bytes);
                    conn.out.extend_from_slice(&bytes);
                    conn.pending.pop_front();
                }
                Pending::Waiting(ticket) => match ticket.try_reply() {
                    None => break,
                    Some(Ok(ServeReply::Whole(served))) => {
                        let mut out = Vec::new();
                        let _ = write_response(&mut out, &Ok(served));
                        conn.out.extend_from_slice(&out);
                        conn.pending.pop_front();
                    }
                    Some(Ok(ServeReply::Stream(stream))) => {
                        *front = Pending::Streaming {
                            stream,
                            begun: false,
                            crc: Crc32::new(),
                        };
                    }
                    Some(Err(e)) => {
                        let mut out = Vec::new();
                        let _ = write_response(&mut out, &Err(e));
                        conn.out.extend_from_slice(&out);
                        conn.pending.pop_front();
                    }
                },
                Pending::Streaming { stream, begun, crc } => {
                    match stream.try_next() {
                        TryEvent::Pending => break,
                        TryEvent::Event(StreamEvent::Begin {
                            width,
                            height,
                            degraded,
                        }) => {
                            conn.out
                                .extend_from_slice(&[STATUS_STREAM_BEGIN, u8::from(degraded)]);
                            conn.out.extend_from_slice(&width.to_be_bytes());
                            conn.out.extend_from_slice(&height.to_be_bytes());
                            *begun = true;
                        }
                        TryEvent::Event(StreamEvent::Tile(tile)) => {
                            let bytes = tile.bytes();
                            crc.update(bytes);
                            conn.out.extend_from_slice(&[STATUS_STREAM_CHUNK]);
                            conn.out
                                .extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                            conn.out.extend_from_slice(bytes);
                        }
                        TryEvent::Event(StreamEvent::End(result)) => {
                            let terminal = match result {
                                Ok(_) if *begun => {
                                    let mut out = vec![STATUS_STREAM_FINAL, 0u8];
                                    out.extend_from_slice(&crc.finish().to_be_bytes());
                                    out
                                }
                                // Defensive: End(Ok) without a Begin means
                                // the decode emitted zero tiles — answer
                                // with a plain error frame, never a
                                // headerless stream trailer.
                                Ok(_) => {
                                    let mut out = Vec::new();
                                    let _ = write_stream_failure(
                                        &mut out,
                                        false,
                                        &ServeError::WorkerGone,
                                    );
                                    out
                                }
                                Err(e) => {
                                    let mut out = Vec::new();
                                    let _ = write_stream_failure(&mut out, *begun, &e);
                                    out
                                }
                            };
                            conn.out.extend_from_slice(&terminal);
                            conn.pending.pop_front();
                        }
                        TryEvent::Gone => {
                            let begun = *begun;
                            let mut out = Vec::new();
                            let _ = write_stream_failure(&mut out, begun, &ServeError::WorkerGone);
                            conn.out.extend_from_slice(&out);
                            conn.pending.pop_front();
                        }
                    }
                }
            }
        }
        true
    }

    /// Write `conn.out` until `WouldBlock`. Returns `false` on a dead
    /// socket.
    fn flush(conn: &mut Conn) -> bool {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > WRITE_WATERMARK {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        true
    }
}

/// Convenience: run a front end to completion on the calling thread —
/// the event-driven analogue of
/// [`serve_tcp`](crate::protocol::serve_tcp). `stop` is checked each
/// tick; flip it from another thread (or a signal handler) to shut down.
pub fn serve_event_driven(
    handle: &ServeHandle,
    listener: TcpListener,
    max_connections: usize,
    stop: &AtomicBool,
) -> io::Result<u64> {
    let fe = FrontEnd::with_max_connections(handle.clone(), listener, max_connections)?;
    // Bridge the caller's stop flag into the front end's own.
    std::thread::scope(|s| {
        let fe_ref = &fe;
        let watcher = s.spawn(move || {
            while !stop.load(Ordering::Acquire) && !fe_ref.stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(5));
            }
            fe_ref.stop();
        });
        let served = fe.run();
        fe.stop(); // release the watcher if run() exited on its own
        let _ = watcher.join();
        served
    })
}
