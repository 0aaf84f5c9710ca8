//! Host-truthful `Mode::Auto`: the default session prices modes in
//! wall-clock time on the machine that runs it, so it picks among the
//! modes that run natively there, while a paper-machine session keeps its
//! virtual-time pricing.

use hetjpeg_core::model::{Clock, PerformanceModel};
use hetjpeg_core::{DecodeOptions, Decoder, Mode, Platform};
use hetjpeg_corpus::{generate_rgb, ImageSpec, Pattern};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;
use std::time::Instant;

const SIZES: [(usize, usize); 3] = [(64, 64), (256, 192), (1024, 768)];

/// Photo-like images of `(width, height)` in every subsampling, with and
/// without restart markers.
fn images(width: usize, height: usize) -> Vec<(String, Vec<u8>)> {
    let spec = ImageSpec {
        width,
        height,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed: (width * 7 + height) as u64,
    };
    let rgb = generate_rgb(&spec);
    let mut out = Vec::new();
    for subsampling in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for restart_interval in [0, 4] {
            let params = EncodeParams {
                quality: 85,
                subsampling,
                restart_interval,
            };
            let jpeg = encode_rgb(&rgb, width as u32, height as u32, &params).expect("encode");
            let label = format!(
                "{width}x{height} {} dri {restart_interval}",
                subsampling.notation()
            );
            out.push((label, jpeg));
        }
    }
    out
}

#[test]
fn default_auto_runs_cpu_only_modes_with_simd_bytes() {
    let decoder = Decoder::builder().build().expect("default session");
    assert!(decoder.platform().is_host());
    for (w, h) in SIZES {
        for (label, jpeg) in images(w, h) {
            let auto = decoder
                .decode(&jpeg, DecodeOptions::default())
                .expect(&label);
            assert!(
                auto.mode.is_cpu_only(),
                "{label}: Auto picked {:?}",
                auto.mode
            );
            let simd = decoder
                .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd))
                .expect(&label);
            assert_eq!(auto.image.data, simd.image.data, "{label}");
        }
    }
}

#[test]
fn default_predict_ranks_cpu_modes_near_measured_simd_time() {
    let decoder = Decoder::builder().build().expect("default session");
    for (w, h) in SIZES {
        let (label, jpeg) = images(w, h).swap_remove(4); // 4:2:0, no DRI
        let decision = decoder.predict(&jpeg).expect(&label);
        let modes: Vec<Mode> = decision.predictions.iter().map(|p| p.mode).collect();
        assert_eq!(
            modes,
            [Mode::Sequential, Mode::Simd, Mode::ParallelEntropy],
            "{label}"
        );
        for p in &decision.predictions {
            assert!(p.seconds.is_finite() && p.seconds > 0.0, "{label} {p:?}");
        }
        let measured = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                decoder
                    .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd))
                    .expect(&label);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let predicted = decision.predictions[1].seconds;
        let ratio = predicted / measured;
        assert!(
            (0.25..=4.0).contains(&ratio),
            "{label}: predicted {predicted:e} s, measured {measured:e} s"
        );
    }
}

#[test]
fn paper_machine_session_still_offloads_at_1024x768() {
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .build()
        .expect("GTX 560 session");
    assert_eq!(decoder.model().clock, Clock::Virtual);
    let (label, jpeg) = images(1024, 768).swap_remove(4);
    let out = decoder
        .decode(&jpeg, DecodeOptions::default())
        .expect(&label);
    assert!(!out.mode.is_cpu_only(), "{label}: picked {:?}", out.mode);
}

#[test]
fn later_default_sessions_reuse_the_host_model() {
    // Two wall-clock fits never agree to the last bit, so equal models mean
    // the second session did not profile the host again.
    let first = Decoder::builder().build().expect("default session");
    let second = Decoder::builder().build().expect("default session");
    assert_eq!(first.model().clock, Clock::Wall);
    assert_eq!(first.model(), second.model());
}

#[test]
fn host_model_round_trips_with_its_clock() {
    let decoder = Decoder::builder().build().expect("default session");
    let text = decoder.model().save_str();
    assert!(text.contains("clock = wall"), "{text}");
    let back = PerformanceModel::load_str(&text).expect("parse");
    assert_eq!(&back, decoder.model());
    // A session built from the reloaded model prices exactly the same.
    let reloaded = Decoder::builder()
        .model(back)
        .threads(decoder.threads())
        .build()
        .expect("session from the saved model");
    let (label, jpeg) = images(256, 192).swap_remove(0);
    let a = decoder.predict(&jpeg).expect(&label);
    let b = reloaded.predict(&jpeg).expect(&label);
    assert_eq!(a.mode, b.mode);
    assert_eq!(a.predictions, b.predictions);
}
