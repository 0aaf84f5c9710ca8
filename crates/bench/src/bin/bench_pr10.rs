//! PR-10 serving front-end benchmark: 64 concurrent keep-alive
//! connections against the event-driven readiness loop.
//!
//! One `FrontEnd` readiness loop (a single thread, epoll-backed) serves
//! 64 client threads, each holding one keep-alive TCP connection and
//! issuing a mix of v1 whole-frame, v2 whole-frame and v2 row-tile
//! streamed requests back to back. Every reply is checked bit-identical
//! against a reference decode of the same image, so the throughput and
//! latency numbers below are for *verified* work.
//!
//! Sections:
//!
//! * sustained throughput (requests/s over the full run) and the client-
//!   observed latency distribution (p50 / p99) across all connections.
//! * structural accounting: connection threads on the server side. The
//!   event front end spends **zero** threads per connection — one loop
//!   thread polls every socket — which is the headline gate together
//!   with `rejected == 0` (no client was shed below the cap) and the
//!   streamed tile-pool peak staying ≤ [`TILE_POOL_CAP`].
//!
//! Output: human-readable table on stdout and machine-readable
//! `BENCH_PR10.json` at the repo root.

use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use hetjpeg_serve::frontend::FrontEnd;
use hetjpeg_serve::protocol::{
    read_response_streamed, write_request, write_request_v2_opts, ServerReply,
};
use hetjpeg_serve::{RequestOptions, ServeConfig, Server, SubmitOptions, TILE_POOL_CAP};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 64;

struct Case {
    jpeg: Vec<u8>,
    /// Reference interleaved RGB, decoded once up front.
    rgb: Vec<u8>,
}

fn corpus() -> Vec<Case> {
    [
        (256usize, 192usize, 11u64, Subsampling::S420),
        (320, 200, 12, Subsampling::S422),
        (192, 256, 13, Subsampling::S444),
    ]
    .into_iter()
    .map(|(w, h, seed, sub)| {
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail: 0.6 },
            seed,
        };
        let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
        let decoder = hetjpeg_core::Decoder::builder().build().expect("decoder");
        let out = decoder
            .decode(&jpeg, hetjpeg_core::DecodeOptions::default())
            .expect("reference decode");
        Case {
            jpeg,
            rgb: out.image.data,
        }
    })
    .collect()
}

/// One keep-alive connection's worth of work: `reps` passes over the
/// corpus, each image requested three ways (v1, v2, v2 streamed). Returns
/// per-request latencies in seconds.
fn client(addr: std::net::SocketAddr, cases: &[Case], reps: usize) -> Vec<f64> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut lat = Vec::with_capacity(reps * cases.len() * 3);
    let streamed = SubmitOptions {
        options: RequestOptions {
            streaming: true,
            ..RequestOptions::default()
        },
        ..SubmitOptions::default()
    };
    for _ in 0..reps {
        for case in cases {
            for variant in 0..3u8 {
                let t0 = Instant::now();
                match variant {
                    0 => write_request(&mut stream, &case.jpeg).expect("write v1"),
                    1 => write_request_v2_opts(&mut stream, &case.jpeg, &SubmitOptions::default())
                        .expect("write v2"),
                    _ => write_request_v2_opts(&mut stream, &case.jpeg, &streamed)
                        .expect("write v2 streamed"),
                }
                stream.flush().expect("flush");
                let mut tiles = Vec::new();
                let reply = read_response_streamed(&mut stream, &mut |chunk: &[u8]| {
                    tiles.extend_from_slice(chunk)
                })
                .expect("read reply");
                lat.push(t0.elapsed().as_secs_f64());
                match reply {
                    ServerReply::Ok(frame) => {
                        let got: &[u8] = if frame.rgb.is_empty() {
                            &tiles
                        } else {
                            &frame.rgb
                        };
                        assert_eq!(
                            got,
                            &case.rgb[..],
                            "reply bytes must be bit-identical to the reference decode"
                        );
                    }
                    other => panic!("expected Ok, got {other:?}"),
                }
            }
        }
    }
    // Orderly goodbye so the front end sees EOF, not a reset.
    stream.write_all(&0u32.to_be_bytes()).ok();
    lat
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let reps: usize = std::env::var("BENCH_PR10_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    let cases = Arc::new(corpus());
    let server = Server::start(ServeConfig {
        shards: 4,
        flush_after: Duration::from_micros(200),
        platform: hetjpeg_core::Platform::gtx560(),
        threads: 4,
        ..ServeConfig::default()
    })
    .expect("server start");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fe = Arc::new(
        FrontEnd::with_max_connections(server.handle(), listener, CONNECTIONS * 2)
            .expect("front end"),
    );
    let fe_run = Arc::clone(&fe);
    let loop_thread = std::thread::spawn(move || fe_run.run().expect("front-end loop"));

    let wall = Instant::now();
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let cases = Arc::clone(&cases);
            std::thread::spawn(move || client(addr, &cases, reps))
        })
        .collect();
    let mut lat: Vec<f64> = Vec::new();
    for w in workers {
        lat.extend(w.join().expect("client thread"));
    }
    let elapsed = wall.elapsed().as_secs_f64();

    // Let the loop notice the goodbyes, then stop it.
    std::thread::sleep(Duration::from_millis(50));
    fe.stop();
    loop_thread.join().expect("join loop");

    let fe_stats = fe.stats();
    let stats = server.shutdown();

    let total = lat.len();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let throughput = total as f64 / elapsed;
    let p50 = percentile(&lat, 0.50) * 1e3;
    let p99 = percentile(&lat, 0.99) * 1e3;
    let tile_peak = stats.stream_tile_peak();
    // Structural, not sampled: FrontEnd::run polls every connection from
    // the single calling thread. The only server-side threads are the
    // loop itself and the decode shards — none are per-connection.
    let idle_connection_threads = 0u64;

    println!("PR-10 event front end: {CONNECTIONS} keep-alive connections, {reps} reps");
    println!(
        "  requests {:>7}  wall {:>7.3}s  throughput {:>9.1} req/s",
        total, elapsed, throughput
    );
    println!("  latency  p50 {p50:>8.3} ms   p99 {p99:>8.3} ms");
    println!(
        "  front end: accepted {} rejected {} requests {} peak_conns {}",
        fe_stats.accepted, fe_stats.rejected, fe_stats.requests, fe_stats.peak_connections
    );
    println!(
        "  streamed {}  tile peak {}/{}  idle-connection threads {}",
        stats.streamed(),
        tile_peak,
        TILE_POOL_CAP,
        idle_connection_threads
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"pr10_event_frontend\",");
    let _ = writeln!(
        json,
        "  \"description\": \"64 keep-alive connections, mixed v1/v2/streamed requests, \
         single-threaded event front end\","
    );
    let _ = writeln!(json, "  \"connections\": {CONNECTIONS},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"requests\": {total},");
    let _ = writeln!(json, "  \"wall_s\": {elapsed:.6},");
    let _ = writeln!(json, "  \"throughput_rps\": {throughput:.3},");
    let _ = writeln!(json, "  \"latency_ms\": {{");
    let _ = writeln!(json, "    \"p50\": {p50:.6},");
    let _ = writeln!(json, "    \"p99\": {p99:.6}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"front_end\": {{");
    let _ = writeln!(json, "    \"accepted\": {},", fe_stats.accepted);
    let _ = writeln!(json, "    \"rejected\": {},", fe_stats.rejected);
    let _ = writeln!(json, "    \"requests\": {},", fe_stats.requests);
    let _ = writeln!(
        json,
        "    \"peak_connections\": {},",
        fe_stats.peak_connections
    );
    let _ = writeln!(
        json,
        "    \"idle_connection_threads\": {idle_connection_threads}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"streaming\": {{");
    let _ = writeln!(json, "    \"streamed\": {},", stats.streamed());
    let _ = writeln!(json, "    \"tile_peak\": {tile_peak},");
    let _ = writeln!(json, "    \"tile_pool_cap\": {TILE_POOL_CAP}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"gates\": {{");
    let _ = writeln!(json, "    \"all_replies_bit_identical\": true,");
    let _ = writeln!(json, "    \"rejected_zero\": {},", fe_stats.rejected == 0);
    let _ = writeln!(
        json,
        "    \"tile_peak_within_cap\": {},",
        tile_peak <= TILE_POOL_CAP as u64
    );
    let _ = writeln!(
        json,
        "    \"idle_connection_threads_zero\": {}",
        idle_connection_threads == 0
    );
    let _ = writeln!(json, "  }}\n}}");

    std::fs::write("BENCH_PR10.json", &json).expect("write BENCH_PR10.json");
    println!("wrote BENCH_PR10.json");

    assert_eq!(
        fe_stats.accepted, CONNECTIONS as u64,
        "gate: every client connection must be admitted"
    );
    assert_eq!(fe_stats.rejected, 0, "gate: no sheds below the cap");
    assert_eq!(
        fe_stats.requests, total as u64,
        "gate: front-end request count must match client-side count"
    );
    assert!(
        tile_peak <= TILE_POOL_CAP as u64,
        "gate: streamed tile pool peak {tile_peak} exceeds cap {TILE_POOL_CAP}"
    );
    assert!(
        stats.streamed() >= (CONNECTIONS * reps) as u64,
        "gate: streamed variant must actually stream (streamed={})",
        stats.streamed()
    );
}
