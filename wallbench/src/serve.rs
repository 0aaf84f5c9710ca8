//! The `thumbs-serve` workload: the `hetjpeg-serve` stack in process
//! (`Server` with the default `ServeConfig` plus the event-driven
//! `FrontEnd` on loopback TCP), driven open loop at fixed offered rates by
//! one keep-alive connection with a writer and a reader thread.

use crate::corpus::{Image, Rng};
use crate::library::{self, Task};
use crate::stats::{self, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, SLO};
use hetjpeg_core::{DecodeOptions, Decoder};
use hetjpeg_serve::frontend::FrontEnd;
use hetjpeg_serve::protocol::{
    read_response_streamed, write_request, write_request_v2_opts, ServerReply,
};
use hetjpeg_serve::{
    RequestOptions, ServeConfig, ServeError, ServeReply, Server, StreamEvent, SubmitOptions, Ticket,
};
use std::io::{BufReader, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fixed offered rate the latency, SLO and first-tile metrics are
/// measured at (one that today's default server sustains).
pub const FIXED_RPS: f64 = 200.0;
/// Offered rates tried for `max_rps`, from [`FIXED_RPS`] up. The climb
/// stops after two rungs in a row miss the SLO or build a backlog, or when
/// the run's time is spent; `max_rps` is the highest rung sustained.
pub const LADDER: [f64; 18] = [
    200.0, 400.0, 600.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0, 1600.0,
    1700.0, 1800.0, 2000.0, 2200.0, 2500.0, 2800.0,
];
/// Rungs tried, highest first, when [`FIXED_RPS`] itself is not sustained.
const BELOW_LADDER: [f64; 3] = [150.0, 100.0, 50.0];
/// Share of a rung's requests that must be answered correctly within
/// [`SLO`].
const RUNG_SLO_RATIO: f64 = 0.99;

/// How a request is framed and answered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    V1,
    V2,
    V2Streamed,
}

impl Variant {
    fn submit_options(self) -> SubmitOptions {
        SubmitOptions {
            options: RequestOptions {
                streaming: self == Variant::V2Streamed,
                ..RequestOptions::default()
            },
            ..SubmitOptions::default()
        }
    }
}

/// The request stream: image `k mod n` of a seeded permutation, with the
/// variant rotating so each image is sent every way equally often.
fn plan(corpus_len: usize, count: usize, seed: u64) -> Vec<(usize, Variant)> {
    let mut perm: Vec<usize> = (0..corpus_len).collect();
    Rng::new(seed ^ 0x5e7e).shuffle(&mut perm);
    (0..count)
        .map(|k| {
            let variant = match (k + k / corpus_len) % 3 {
                0 => Variant::V1,
                1 => Variant::V2,
                _ => Variant::V2Streamed,
            };
            (perm[k % corpus_len], variant)
        })
        .collect()
}

/// One request's client-side record.
#[derive(Clone, Copy)]
struct Sample {
    due: Instant,
    sent: Instant,
    written: Instant,
    first_tile: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    streamed: bool,
    pixels: usize,
}

impl Sample {
    fn latency_ms(&self) -> Option<f64> {
        self.done
            .filter(|_| self.ok)
            .map(|d| d.duration_since(self.due).as_secs_f64() * 1e3)
    }

    fn within_slo(&self) -> bool {
        self.ok && self.done.is_some_and(|d| d.duration_since(self.due) <= SLO)
    }
}

/// The server, its front end on a loopback port, and the loop thread.
struct Stack {
    server: Server,
    front: Arc<FrontEnd>,
    loop_thread: JoinHandle<()>,
    addr: SocketAddr,
}

fn start() -> Stack {
    let server = Server::start(ServeConfig::default()).expect("server start");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let front = Arc::new(FrontEnd::new(server.handle(), listener).expect("front end"));
    let runner = Arc::clone(&front);
    let loop_thread = std::thread::spawn(move || {
        runner.run().expect("front-end loop");
    });
    Stack {
        server,
        front,
        loop_thread,
        addr,
    }
}

fn stop(stack: Stack) {
    stack.front.stop();
    stack.loop_thread.join().expect("front-end loop thread");
    stack.server.shutdown();
}

/// Build the stack and send every image once each way, closed loop, so
/// the shard pools and `Auto` caches are warm.
fn set_up(corpus: &[Image]) -> Stack {
    let stack = start();
    let mut conn = TcpStream::connect(stack.addr).expect("connect");
    conn.set_nodelay(true).ok();
    let mut reader = QuickAckReader::new(&conn);
    for img in corpus {
        for v in [Variant::V1, Variant::V2, Variant::V2Streamed] {
            send(&mut conn, &img.jpeg, v);
            let _ = read_response_streamed(&mut reader, &mut |_: &[u8]| {});
        }
    }
    hetjpeg_serve::protocol::write_goodbye(&mut conn).ok();
    stack
}

/// The client side of a connection's replies. After every read it asks
/// the kernel to acknowledge at once (`TCP_QUICKACK` on Linux), so reply
/// timing does not depend on the receiver's delayed-ACK heuristics, which
/// switch between runs. (The front end does not disable Nagle's algorithm
/// on its sockets, so against a delayed-ACK client its replies can wait
/// for the client's next request to carry the ACK.)
struct QuickAckReader(TcpStream);

impl QuickAckReader {
    fn new(conn: &TcpStream) -> BufReader<QuickAckReader> {
        BufReader::new(QuickAckReader(conn.try_clone().expect("clone socket")))
    }
}

impl Read for QuickAckReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        quick_ack(&self.0);
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
fn quick_ack(conn: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // A failed call only leaves the kernel's default ACK behaviour, so its
    // result is not checked.
    // SAFETY: the descriptor is owned by `conn` and open for the call, and
    // `value` points at a live i32 whose size is passed as `len`.
    unsafe {
        setsockopt(
            conn.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_conn: &TcpStream) {}

/// Median latency of requests sent one at a time (closed loop) over a
/// fresh connection, every image each way; the reply is read with a plain
/// socket reader (the kernel's delayed ACKs) or with [`QuickAckReader`].
fn closed_loop_ms(addr: SocketAddr, corpus: &[Image], quick_ack: bool) -> f64 {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    let mut reader: Box<dyn Read> = if quick_ack {
        Box::new(QuickAckReader::new(&conn))
    } else {
        Box::new(BufReader::new(conn.try_clone().expect("clone socket")))
    };
    let mut lat = Vec::new();
    for img in corpus {
        for v in [Variant::V1, Variant::V2, Variant::V2Streamed] {
            let t0 = Instant::now();
            send(&mut conn, &img.jpeg, v);
            let _ = read_response_streamed(&mut reader, &mut |_: &[u8]| {});
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    hetjpeg_serve::protocol::write_goodbye(&mut conn).ok();
    stats::median(&lat)
}

fn send(conn: &mut TcpStream, jpeg: &[u8], v: Variant) {
    let mut frame = Vec::with_capacity(jpeg.len() + 32);
    match v {
        Variant::V1 => write_request(&mut frame, jpeg),
        _ => write_request_v2_opts(&mut frame, jpeg, &v.submit_options()),
    }
    .expect("frame request");
    conn.write_all(&frame).expect("send request");
}

/// Offer `plan` at `rate` requests per second over one fresh keep-alive
/// connection: the writer sends each request at its due instant whatever
/// the replies do, the reader checks each reply byte for byte.
fn open_loop(
    addr: SocketAddr,
    corpus: &[Image],
    plan: &[(usize, Variant)],
    rate: f64,
) -> Vec<Sample> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let read_half = QuickAckReader::new(&conn);
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..plan.len())
        .map(|k| start + Duration::from_secs_f64(k as f64 / rate))
        .collect();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut sent = Vec::with_capacity(plan.len());
            for (k, &(img, v)) in plan.iter().enumerate() {
                let now = Instant::now();
                if due[k] > now {
                    std::thread::sleep(due[k] - now);
                }
                let t0 = Instant::now();
                send(&mut conn, &corpus[img].jpeg, v);
                sent.push((t0, Instant::now()));
            }
            hetjpeg_serve::protocol::write_goodbye(&mut conn).ok();
            sent
        });
        let reader = s.spawn(|| {
            let mut r = read_half;
            let mut got = Vec::with_capacity(plan.len());
            for &(img, v) in plan {
                let expected = &corpus[img].expected;
                let mut first = None;
                let mut tiles = Vec::new();
                let reply = read_response_streamed(&mut r, &mut |chunk: &[u8]| {
                    first.get_or_insert_with(Instant::now);
                    tiles.extend_from_slice(chunk);
                });
                let done = Instant::now();
                let ok = match &reply {
                    Ok(ServerReply::Ok(f)) if v == Variant::V2Streamed => {
                        f.rgb.is_empty() && tiles == *expected
                    }
                    Ok(ServerReply::Ok(f)) => f.rgb == *expected,
                    _ => false,
                };
                if reply.is_err() {
                    // A broken or silent connection: every later reply is
                    // missing.
                    break;
                }
                got.push((first, done, ok));
            }
            got
        });
        let sent = writer.join().expect("writer thread");
        let got = reader.join().expect("reader thread");
        plan.iter()
            .enumerate()
            .map(|(k, &(img, v))| {
                let (first_tile, done, ok) = got
                    .get(k)
                    .map_or((None, None, false), |g| (g.0, Some(g.1), g.2));
                Sample {
                    due: due[k],
                    sent: sent[k].0,
                    written: sent[k].1,
                    first_tile,
                    done,
                    ok,
                    streamed: v == Variant::V2Streamed,
                    pixels: corpus[img].pixels(),
                }
            })
            .collect()
    })
}

fn lag_growing(samples: &[Sample]) -> bool {
    let lag = |part: &[Sample]| {
        stats::median(
            &part
                .iter()
                .map(|s| {
                    s.done
                        .map_or(f64::INFINITY, |d| d.duration_since(s.due).as_secs_f64())
                })
                .collect::<Vec<_>>(),
        )
    };
    let n = samples.len();
    let middle = lag(&samples[2 * n / 5..3 * n / 5]);
    let end = lag(&samples[4 * n / 5..]);
    end > 2.0 * middle + 0.005
}

/// A rung is sustained when enough requests meet the SLO and the
/// completion lag at its end is not growing past its middle.
fn sustained(rate: f64, rung: &[Sample]) -> bool {
    let ratio = slo_ratio(rung);
    let growing = lag_growing(rung);
    println!(
        "rung {rate:>6.0} req/s: {} requests, slo_ratio {ratio:.4}, backlog {}",
        rung.len(),
        if growing { "growing" } else { "flat" }
    );
    ratio >= RUNG_SLO_RATIO && !growing
}

fn slo_ratio(samples: &[Sample]) -> f64 {
    samples.iter().filter(|s| s.within_slo()).count() as f64 / samples.len().max(1) as f64
}

fn plan_for(corpus: &[Image], rate: f64, seconds: f64, seed: u64) -> Vec<(usize, Variant)> {
    plan(corpus.len(), ((rate * seconds) as usize).max(30), seed)
}

/// Untraced run: repeated set-up, the fixed-rate phase, then the ladder.
pub fn run(corpus: &[Image], seed: u64, setups: usize, seconds: f64) -> Outcome {
    // The fixed-rate phase runs as one window per set-up, each on a fresh
    // stack, so no single start-up's thread placement decides the figures.
    let fixed_s = 0.4 * seconds;
    let window_s = fixed_s / setups as f64;
    let (mut setup_times, mut windows) = (Vec::new(), Vec::new());
    for i in 0..setups {
        let t0 = Instant::now();
        let stack = set_up(corpus);
        setup_times.push(t0.elapsed().as_secs_f64());
        let plan = plan_for(corpus, FIXED_RPS, window_s, seed + i as u64);
        windows.push(open_loop(stack.addr, corpus, &plan, FIXED_RPS));
        stop(stack);
    }
    let samples: Vec<Sample> = windows.concat();
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;

    // Climb the ladder until two rungs in a row are not sustained; if
    // even the first rung is not, step down until one is.
    let rung_s = 0.025 * seconds;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds - fixed_s);
    let (mut max_rps, mut misses) = (0.0, 0);
    for (i, &rate) in LADDER.iter().enumerate() {
        if Instant::now() + Duration::from_secs_f64(2.0 * rung_s) > deadline {
            println!("ladder stopped by the time limit");
            break;
        }
        if rung_sustained(corpus, rate, rung_s, seed + i as u64) {
            max_rps = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
    }
    if max_rps == 0.0 {
        for (i, &rate) in BELOW_LADDER.iter().enumerate() {
            if rung_sustained(corpus, rate, rung_s, seed + 100 + i as u64) {
                max_rps = rate;
                break;
            }
        }
    }

    let lat: Vec<f64> = samples.iter().filter_map(Sample::latency_ms).collect();
    let first: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && s.streamed)
        .filter_map(|s| {
            s.first_tile
                .map(|t| t.duration_since(s.due).as_secs_f64() * 1e3)
        })
        .collect();
    let mpix: Vec<f64> = windows
        .iter()
        .map(|w| {
            let end = w.iter().filter_map(|s| s.done).max().unwrap_or(w[0].due);
            let px: usize = w.iter().filter(|s| s.ok).map(|s| s.pixels).sum();
            px as f64 / end.duration_since(w[0].due).as_secs_f64().max(1e-3) / 1e6
        })
        .collect();
    let (tail, pct) = stats::tail(&lat);
    println!(
        "fixed rate {FIXED_RPS} req/s: latency_tail_ms is p{pct:.2} of {} replies over {} \
         fresh stacks; slo limit {} ms",
        lat.len(),
        windows.len(),
        SLO.as_millis()
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_times), "s");
    m.put("mpix_per_s", stats::median(&mpix), "Mpx/s");
    m.put("latency_p50_ms", stats::median(&lat), "ms");
    m.put("latency_tail_ms", tail, "ms");
    m.put("slo_ratio", slo_ratio(&samples), "ratio");
    m.put("max_rps", max_rps, "1/s");
    m.put("first_tile_p50_ms", stats::median(&first), "ms");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// Offer `rate` for one rung, each trial on a fresh stack. A rung whose
/// first trial is not sustained gets two more and counts as sustained when
/// two of the three are, so neither one stall nor one lucky trial decides
/// the server's limit.
fn rung_sustained(corpus: &[Image], rate: f64, rung_s: f64, seed: u64) -> bool {
    let trial = |attempt: u64| {
        let stack = set_up(corpus);
        let plan = plan_for(corpus, rate, rung_s, seed + 1000 * attempt);
        let rung = open_loop(stack.addr, corpus, &plan, rate);
        stop(stack);
        sustained(rate, &rung)
    };
    trial(0) || (trial(1) && trial(2))
}

/// One in-process request record.
struct InProc {
    due: Instant,
    submit_ns: f64,
    first_tile: Option<Instant>,
    done: Instant,
    ok: bool,
    image: usize,
}

/// The same open-loop stream through `ServeHandle` directly: one thread
/// submits on schedule, another waits for each ticket in order.
fn in_process(
    server: &Server,
    corpus: &[Image],
    plan: &[(usize, Variant)],
    rate: f64,
) -> Vec<InProc> {
    let handle = server.handle();
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, Result<Ticket, ServeError>)>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut out = Vec::new();
            for (k, due, submit_ns, ticket) in rx {
                let (img, _) = plan[k];
                let expected = &corpus[img].expected;
                let mut first = None;
                let ok = match ticket {
                    Ok(t) => match t.wait_reply() {
                        Ok(ServeReply::Whole(served)) => served.outcome.image.data == *expected,
                        Ok(ServeReply::Stream(stream)) => {
                            let mut data = Vec::new();
                            let mut ok = false;
                            while let Some(ev) = stream.recv() {
                                match ev {
                                    StreamEvent::Tile(tile) => {
                                        first.get_or_insert_with(Instant::now);
                                        data.extend_from_slice(tile.bytes());
                                    }
                                    StreamEvent::End(end) => {
                                        ok = end.is_ok();
                                        break;
                                    }
                                    StreamEvent::Begin { .. } => {}
                                }
                            }
                            ok && data == *expected
                        }
                        Err(_) => false,
                    },
                    Err(_) => false,
                };
                out.push(InProc {
                    due,
                    submit_ns,
                    first_tile: first,
                    done: Instant::now(),
                    ok,
                    image: img,
                });
            }
            out
        });
        for (k, &(img, v)) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            let ticket = handle.submit_nonblocking(corpus[img].jpeg.clone(), v.submit_options());
            let submit_ns = t0.elapsed().as_secs_f64() * 1e9;
            tx.send((k, due, submit_ns, ticket)).expect("waiter alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    })
}

/// Traced run of `thumbs-serve`: the decode-layer pass over the
/// thumbnails, then the serve-layer pass.
pub fn run_traced(corpus: &[Image], seed: u64, seconds: f64, epoch: Instant) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(epoch);
    let mut m = Metrics::default();
    let direct = Decoder::builder().build().expect("direct session");
    let pass: Vec<Task> = (0..corpus.len())
        .map(|image| Task {
            image,
            preview: false,
        })
        .collect();
    for t in &pass {
        let _ = direct.decode(&corpus[t.image].jpeg, DecodeOptions::default());
    }
    let layers = library::layer_pass(&direct, corpus, &pass, &mut tracer, &mut m);
    let serve = serve_layers(corpus, seed, seconds, &mut tracer, &mut m);
    m.put("trace.overhead_ratio", serve.trace_overhead, "ratio");
    (
        Outcome {
            metrics: m,
            attempted: layers.attempted + serve.attempted,
            failed: layers.failed + serve.failed,
        },
        tracer,
    )
}

pub struct ServePass {
    pub attempted: u64,
    pub failed: u64,
    /// Traced over untraced p50 of the same TCP request stream.
    pub trace_overhead: f64,
}

/// The serve-layer pass: the thumbnails at [`FIXED_RPS`] in process
/// through `ServeHandle`, then over TCP untraced and traced, plus closed
/// loops with and without quick ACKs. Emits the `pool.*`, `frontend.*`,
/// `protocol.*`, `stream.*` and `loadgen.*` metrics.
pub fn serve_layers(
    corpus: &[Image],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> ServePass {
    let direct = Decoder::builder().build().expect("direct session");
    // Direct session decode time per image, for the pool-wait split.
    let direct_ms: Vec<f64> = corpus
        .iter()
        .map(|img| {
            let _ = direct.decode(&img.jpeg, DecodeOptions::default());
            let mut v = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let _ = direct.decode(&img.jpeg, DecodeOptions::default());
                v.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            stats::median(&v)
        })
        .collect();
    let stack = set_up(corpus);
    let phase_s = (0.2 * seconds).max(1.0);
    let stream = plan_for(corpus, FIXED_RPS, phase_s, seed);
    let s0 = stack.server.stats();
    let f0 = stack.front.stats();

    let inproc = in_process(&stack.server, corpus, &stream, FIXED_RPS);
    let closed_plain = closed_loop_ms(stack.addr, corpus, false);
    let closed_quick = closed_loop_ms(stack.addr, corpus, true);
    let plain = open_loop(stack.addr, corpus, &stream, FIXED_RPS);
    let traced = open_loop(stack.addr, corpus, &stream, FIXED_RPS);
    let s1 = stack.server.stats();
    let f1 = stack.front.stats();
    stop(stack);

    let (mut attempted, mut failed) = (0u64, 0u64);
    for s in plain.iter().chain(&traced) {
        attempted += 1;
        failed += !s.ok as u64;
    }
    for r in &inproc {
        attempted += 1;
        failed += !r.ok as u64;
    }

    // Client-side spans of the traced TCP pass.
    for (k, s) in traced.iter().enumerate() {
        let req = k as u64;
        let end = s.done.unwrap_or(s.written);
        let root = tracer.record("request", req, s.due, end, None);
        tracer.record("loadgen.late", req, s.due, s.sent, Some(root));
        tracer.record("protocol.write", req, s.sent, s.written, Some(root));
        tracer.record("reply.last_byte", req, s.written, end, Some(root));
        if let Some(t) = s.first_tile {
            tracer.record("stream.first_tile", req, s.due, t, None);
        }
    }
    for (k, r) in inproc.iter().enumerate() {
        let req = (1 << 32) + k as u64;
        let root = tracer.record("serve.ticket", req, r.due, r.done, None);
        let submitted = r.due + Duration::from_secs_f64(r.submit_ns / 1e9);
        tracer.record("serve.submit", req, r.due, submitted, Some(root));
    }

    let p50 =
        |v: &[Sample]| stats::median(&v.iter().filter_map(Sample::latency_ms).collect::<Vec<_>>());
    let inproc_lat: Vec<f64> = inproc
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.done.duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    let wait: Vec<f64> = inproc
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.done.duration_since(r.due).as_secs_f64() * 1e3 - direct_ms[r.image])
        .collect();
    let first_inproc: Vec<f64> = inproc
        .iter()
        .filter_map(|r| {
            r.first_tile
                .map(|t| t.duration_since(r.due).as_secs_f64() * 1e3)
        })
        .collect();
    let requests = (s1.requests() - s0.requests()) as f64;
    let batches = (s1.batches() - s0.batches()) as f64;
    let shed = s1.shed() - s0.shed();
    m.put(
        "pool.submit_us",
        stats::median(&inproc.iter().map(|r| r.submit_ns / 1e3).collect::<Vec<_>>()),
        "us",
    );
    m.put("pool.wait_ms", stats::median(&wait), "ms");
    m.put(
        "pool.mean_batch",
        if batches > 0.0 {
            requests / batches
        } else {
            0.0
        },
        "count",
    );
    m.put("pool.shed_ratio", shed as f64 / requests.max(1.0), "ratio");
    m.put("pool.shed", shed as f64, "count");
    m.put(
        "frontend.overhead_ms",
        p50(&plain) - stats::median(&inproc_lat),
        "ms",
    );
    m.put(
        "frontend.rejected",
        (f1.rejected - f0.rejected) as f64,
        "count",
    );
    m.put("frontend.closed_loop_ms", closed_plain, "ms");
    m.put("frontend.closed_loop_quickack_ms", closed_quick, "ms");
    m.put(
        "protocol.write_us",
        stats::median(&tracer.durations("protocol.write")) / 1e3,
        "us",
    );
    m.put("stream.first_tile_ms", stats::median(&first_inproc), "ms");
    m.put("stream.tile_peak", s1.stream_tile_peak() as f64, "count");
    m.put(
        "stream.streamed",
        (s1.streamed() - s0.streamed()) as f64,
        "count",
    );
    let late: Vec<f64> = traced
        .iter()
        .map(|s| s.sent.duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let (late_tail, _) = stats::tail(&late);
    m.put("loadgen.late_ms", late_tail, "ms");
    ServePass {
        attempted,
        failed,
        trace_overhead: p50(&traced) / p50(&plain),
    }
}
