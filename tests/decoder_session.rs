//! Session-API acceptance tests: `Mode::Auto` bit-identity against its own
//! selection across subsampling/quality/restart combinations (property
//! test), batch pool-reuse accounting, and the scenario axes
//! (planar output, tolerant salvage, validation).

use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{
    BuildError, DecodeOptions, Decoder, OutputFormat, RowStreamOutcome, RowTile, SimdLevel,
};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;
use proptest::prelude::*;

fn noise_rgb(w: usize, h: usize, seed: u32) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = seed | 1;
    for _ in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
    }
    rgb
}

fn noise_jpeg(
    w: usize,
    h: usize,
    quality: u8,
    sub: Subsampling,
    interval: usize,
    seed: u32,
) -> Vec<u8> {
    encode_rgb(
        &noise_rgb(w, h, seed),
        w as u32,
        h as u32,
        &EncodeParams {
            quality,
            subsampling: sub,
            restart_interval: interval,
        },
    )
    .expect("encode")
}

fn noise_progressive(w: usize, h: usize, sub: Subsampling, seed: u32) -> Vec<u8> {
    use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
    encode_rgb_progressive(
        &noise_rgb(w, h, seed),
        w as u32,
        h as u32,
        &EncodeParams {
            quality: 85,
            subsampling: sub,
            restart_interval: 0,
        },
        ScanPreset::Standard10,
    )
    .expect("encode progressive")
}

fn subsampling_strategy() -> impl Strategy<Value = Subsampling> {
    prop_oneof![
        Just(Subsampling::S444),
        Just(Subsampling::S422),
        Just(Subsampling::S420),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: whatever concrete mode `Auto` selects, its
    /// output is bit-identical to decoding with that mode directly —
    /// across subsampling, quality and restart-interval combinations, on
    /// every platform.
    #[test]
    fn auto_is_bit_identical_to_its_selection(
        w in 32usize..160,
        h in 32usize..160,
        sub in subsampling_strategy(),
        quality in 30u8..=95,
        interval in 0usize..8,
        platform_idx in 0usize..3,
        threads in 1usize..8,
        seed in any::<u32>(),
    ) {
        let jpeg = noise_jpeg(w, h, quality, sub, interval, seed);
        let platform = Platform::all()[platform_idx].clone();
        let decoder = Decoder::builder()
            .platform(platform)
            .threads(threads)
            .build()
            .expect("valid configuration");
        let auto = decoder.decode(&jpeg, DecodeOptions::default()).expect("auto decode");
        prop_assert_ne!(auto.mode, Mode::Auto, "outcome must report the selection");
        let direct = decoder
            .decode(&jpeg, DecodeOptions::with_mode(auto.mode))
            .expect("direct decode");
        prop_assert_eq!(&auto.image.data, &direct.image.data, "{:?}", auto.mode);
        prop_assert_eq!(auto.total(), direct.total());
    }
}

#[test]
fn batch_decode_amortizes_pools_across_many_images() {
    // The acceptance assertion for buffer reuse: N same-shaped images, one
    // large-buffer allocation.
    let images: Vec<Vec<u8>> = (0..8)
        .map(|i| noise_jpeg(128, 96, 85, Subsampling::S420, 0, 100 + i))
        .collect();
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .build()
        .expect("valid configuration");
    let outs = decoder.decode_batch(&images, DecodeOptions::with_mode(Mode::Pps));
    assert!(outs.iter().all(|o| o.is_ok()));
    let stats = decoder.pool_stats();
    assert_eq!(stats.coef_allocs, 1, "one coefficient-buffer allocation");
    assert_eq!(stats.coef_reuses, 7, "seven pool reuses");
    assert_eq!(stats.scratch_allocs, 1);
    assert_eq!(stats.scratch_reuses, 7);

    // The same batch through Mode::Auto: identical shape (distinct seeds,
    // so only near-identical densities) must evaluate the model once and
    // serve every other image from the decision cache.
    let outs = decoder.decode_batch(&images, DecodeOptions::default());
    assert!(outs.iter().all(|o| o.is_ok()));
    let stats = decoder.pool_stats();
    assert_eq!(stats.auto_evals, 1, "one Auto evaluation for the batch");
    assert_eq!(
        stats.auto_cache_hits,
        images.len() as u64 - 1,
        "every later same-shape image hits the Auto cache"
    );

    // A shape change re-shapes in place rather than allocating a new pool.
    let other = noise_jpeg(64, 64, 85, Subsampling::S422, 0, 9);
    decoder
        .decode(&other, DecodeOptions::with_mode(Mode::Simd))
        .expect("decode");
    let stats = decoder.pool_stats();
    assert_eq!(stats.coef_allocs, 1);
    assert_eq!(stats.coef_reuses, 2 * images.len() as u64);
}

#[test]
fn mixed_gallery_through_auto_matches_reference() {
    // A heterogeneous batch (sizes, qualities, restart intervals) through
    // the default options: every outcome byte-identical to the reference
    // decoder, every selection a concrete mode.
    let gallery: Vec<Vec<u8>> = vec![
        noise_jpeg(96, 96, 40, Subsampling::S444, 0, 1),
        noise_jpeg(200, 80, 85, Subsampling::S422, 4, 2),
        noise_jpeg(64, 160, 95, Subsampling::S420, 2, 3),
        noise_jpeg(144, 144, 70, Subsampling::S422, 0, 4),
    ];
    let decoder = Decoder::builder()
        .platform(Platform::gt430())
        .threads(4)
        .build()
        .expect("valid configuration");
    for (out, jpeg) in decoder
        .decode_batch(&gallery, DecodeOptions::default())
        .into_iter()
        .zip(&gallery)
    {
        let out = out.expect("decode");
        let reference = hetjpeg_jpeg::decoder::decode(jpeg).expect("reference");
        assert_eq!(out.image.data, reference.data);
        assert_ne!(out.mode, Mode::Auto);
    }
}

#[test]
fn planar_output_converts_to_reference_rgb() {
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        let jpeg = noise_jpeg(100, 76, 85, sub, 0, 5);
        let decoder = Decoder::builder().build().expect("valid configuration");
        let out = decoder
            .decode(
                &jpeg,
                DecodeOptions::with_mode(Mode::Simd).format(OutputFormat::PlanarYcc),
            )
            .expect("planar decode");
        let ycc = out.planar().expect("planar output present");
        assert!(out.rgb().is_none(), "no RGB when planar was requested");
        let reference = hetjpeg_jpeg::decoder::decode(&jpeg).expect("reference");
        assert_eq!(
            ycc.to_rgb().data,
            reference.data,
            "{} planar→RGB mismatch",
            sub.notation()
        );
    }
}

#[test]
fn planar_through_parallel_entropy_matches_too() {
    let jpeg = noise_jpeg(128, 128, 82, Subsampling::S422, 3, 6);
    let decoder = Decoder::builder()
        .threads(4)
        .build()
        .expect("valid configuration");
    let out = decoder
        .decode(
            &jpeg,
            DecodeOptions::with_mode(Mode::ParallelEntropy).format(OutputFormat::PlanarYcc),
        )
        .expect("planar decode");
    let reference = hetjpeg_jpeg::decoder::decode(&jpeg).expect("reference");
    assert_eq!(out.planar().unwrap().to_rgb().data, reference.data);
}

#[test]
fn session_dispatch_choice_is_honored_and_force_scalar_matches() {
    // The kernel dispatch is resolved once at build time; the per-call
    // force-scalar override swaps in the portable fallback, and both paths
    // must produce identical bytes for every mode and output format.
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .threads(4)
        .build()
        .expect("valid configuration");
    assert_eq!(
        decoder.simd_level(),
        SimdLevel::detect(),
        "session resolves the host's one-time dispatch choice at build"
    );
    for (jpeg_idx, jpeg) in [
        noise_jpeg(120, 88, 80, Subsampling::S420, 3, 21),
        noise_jpeg(97, 61, 90, Subsampling::S422, 0, 22), // odd dims
    ]
    .iter()
    .enumerate()
    {
        for mode in [Mode::Simd, Mode::Sps, Mode::Pps, Mode::ParallelEntropy] {
            let fast = decoder
                .decode(jpeg, DecodeOptions::with_mode(mode))
                .expect("decode");
            let forced = decoder
                .decode(
                    jpeg,
                    DecodeOptions::with_mode(mode).force_simd(SimdLevel::Scalar),
                )
                .expect("forced-scalar decode");
            assert_eq!(
                fast.image.data, forced.image.data,
                "image {jpeg_idx} {mode:?}: forced-scalar bytes differ"
            );
        }
        // Planar output through the row-tile SIMD path vs forced scalar.
        let planar = DecodeOptions::with_mode(Mode::Simd).format(OutputFormat::PlanarYcc);
        let fast = decoder.decode(jpeg, planar).expect("planar");
        let forced = decoder
            .decode(jpeg, planar.force_simd(SimdLevel::Scalar))
            .expect("planar forced");
        assert_eq!(
            fast.planar().unwrap().to_rgb().data,
            forced.planar().unwrap().to_rgb().data,
            "image {jpeg_idx}: planar forced-scalar bytes differ"
        );
    }
}

#[test]
fn tolerant_salvage_at_odd_dimensions_matches_forced_scalar() {
    // Truncated streams at 1-px-odd dimensions: the salvage pass runs the
    // row-tile pipeline over an image whose tail rows never saw entropy
    // data (zero coefficients → neutral gray). The vector kernels must
    // neither read past the plane edges nor diverge from the scalar
    // fallback on the damaged tail.
    let decoder = Decoder::builder().build().expect("valid configuration");
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for (w, h) in [(17usize, 33usize), (33, 17), (49, 49)] {
            let mut jpeg = noise_jpeg(w, h, 82, sub, 2, (w * 100 + h) as u32);
            jpeg.truncate(jpeg.len() - jpeg.len() / 3);
            let opts = DecodeOptions::with_mode(Mode::Simd).tolerant();
            let fast = decoder.decode(&jpeg, opts).expect("tolerant decode");
            let forced = decoder
                .decode(&jpeg, opts.force_simd(SimdLevel::Scalar))
                .expect("tolerant forced-scalar decode");
            assert!(fast.truncated, "{w}x{h} {} should salvage", sub.notation());
            assert_eq!(
                fast.image.data,
                forced.image.data,
                "{w}x{h} {}: salvaged bytes differ between levels",
                sub.notation()
            );
            // The damaged tail renders neutral gray.
            let last_px = &fast.image.data[(h - 1) * w * 3..(h - 1) * w * 3 + 3];
            assert_eq!(last_px, &[128, 128, 128], "{w}x{h} {}", sub.notation());
        }
    }
}

#[test]
fn construction_validates_instead_of_panicking_mid_decode() {
    // A model with wg_blocks = 0 used to panic inside the GPU kernels; the
    // builder now rejects it up front.
    let platform = Platform::gtx560();
    let mut broken = platform.untrained_model();
    broken.wg_blocks = 0;
    let err = Decoder::builder()
        .platform(platform.clone())
        .model(broken)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidModel(_)), "{err}");

    // Cross-platform model mis-wiring is caught too.
    let err = Decoder::builder()
        .platform(Platform::gt430())
        .model(Platform::gtx680().untrained_model())
        .build()
        .unwrap_err();
    assert!(
        matches!(err, BuildError::ModelPlatformMismatch { .. }),
        "{err}"
    );
}

/// Stream `jpeg` through `decode_rows` and reassemble the tiles into one
/// RGB buffer, checking the tile geometry along the way.
fn reassemble_rows(
    decoder: &Decoder,
    jpeg: &[u8],
    opts: DecodeOptions,
) -> (Vec<u8>, RowStreamOutcome) {
    let mut rgb = Vec::new();
    let mut next_y = 0usize;
    let out = decoder
        .decode_rows(jpeg, opts, &mut |tile: RowTile<'_>| {
            assert_eq!(tile.y0, next_y, "tiles arrive top to bottom");
            assert_eq!(tile.rgb.len(), tile.rows * tile.width * 3);
            next_y += tile.rows;
            rgb.extend_from_slice(tile.rgb);
            true
        })
        .expect("row stream");
    assert_eq!(next_y, out.height, "tiles cover every pixel row");
    (rgb, out)
}

#[test]
fn decode_rows_reassembles_to_decode_pixels() {
    // Every input class the row stream serves: baseline, DRI, progressive
    // (full script and a one-scan prefix) and tolerant salvage of
    // truncated baseline and progressive streams. The reassembled tiles
    // must equal `decode`'s pixels byte for byte with the same
    // `truncated` flag, on both the scalar and the SIMD render.
    let baseline = noise_jpeg(97, 61, 85, Subsampling::S420, 0, 31);
    let dri = noise_jpeg(120, 88, 80, Subsampling::S422, 3, 32);
    let progressive = noise_progressive(77, 53, Subsampling::S420, 33);
    let mut cut_dri = noise_jpeg(96, 96, 84, Subsampling::S422, 4, 34);
    cut_dri.truncate(cut_dri.len() - cut_dri.len() / 3);
    let mut cut_progressive = noise_progressive(64, 64, Subsampling::S422, 35);
    cut_progressive.truncate(cut_progressive.len() / 2);
    let strict = DecodeOptions::default();
    let cases: Vec<(&str, &[u8], DecodeOptions, bool)> = vec![
        ("baseline", &baseline, strict, false),
        ("dri", &dri, strict, false),
        ("progressive", &progressive, strict, false),
        (
            "progressive max_scans(1)",
            &progressive,
            strict.max_scans(1),
            true,
        ),
        ("truncated dri", &cut_dri, strict.tolerant(), true),
        (
            "truncated progressive",
            &cut_progressive,
            strict.tolerant(),
            true,
        ),
    ];
    let decoder = Decoder::builder().build().expect("valid configuration");
    for (label, jpeg, opts, want_truncated) in cases {
        let whole = decoder.decode(jpeg, opts).expect(label);
        assert_eq!(whole.truncated, want_truncated, "{label}");
        for mode in [Mode::Auto, Mode::Sequential, Mode::Simd, Mode::Pps] {
            let (rgb, out) = reassemble_rows(&decoder, jpeg, DecodeOptions { mode, ..opts });
            assert_eq!(rgb, whole.image.data, "{label} {mode:?}: tile bytes differ");
            assert_eq!(out.truncated, whole.truncated, "{label} {mode:?}");
            assert!(out.completed, "{label} {mode:?}");
            assert_eq!(out.tiles, out.mcu_rows, "{label} {mode:?}");
            assert_eq!(
                (out.width, out.height),
                (whole.image.width, whole.image.height)
            );
            let want_mode = if mode == Mode::Sequential {
                Mode::Sequential
            } else {
                Mode::Simd
            };
            assert_eq!(out.mode, want_mode, "{label} {mode:?}");
        }
    }
}

#[test]
fn decode_rows_decode_and_batch_fail_identically() {
    // The three entry points share one front door, so a rejected input
    // fails with the same error variant and text whichever one carries it:
    // the pixel guard, a strict truncated stream, and a progressive stream
    // whose second scan header is corrupt.
    let good = noise_jpeg(16, 16, 85, Subsampling::S420, 0, 41);
    let big = noise_jpeg(64, 48, 85, Subsampling::S420, 0, 45);
    let mut cut_dri = noise_jpeg(96, 96, 84, Subsampling::S422, 4, 42);
    cut_dri.truncate(cut_dri.len() - cut_dri.len() / 3);
    let mut cut_progressive = noise_progressive(64, 64, Subsampling::S422, 43);
    cut_progressive.truncate(cut_progressive.len() / 2);
    let mut corrupt_progressive = noise_progressive(64, 64, Subsampling::S420, 44);
    let sos: Vec<usize> = corrupt_progressive
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w == &[0xFF, 0xDA])
        .map(|(i, _)| i)
        .collect();
    assert!(sos.len() >= 2, "a multi-scan script");
    // Second scan: FF DA, Lh (2), Ns, Ns × (Cs, Td/Ta), Ss, Se, Ah/Al.
    let ns = corrupt_progressive[sos[1] + 4] as usize;
    let ah_al = sos[1] + 5 + 2 * ns + 2;
    corrupt_progressive[ah_al] = 0x54; // a refinement with no prior pass
    let cases: Vec<(&str, &[u8], DecodeOptions)> = vec![
        (
            "max_pixels",
            &big,
            DecodeOptions::default().max_pixels(64 * 48 - 1),
        ),
        ("strict truncated dri", &cut_dri, DecodeOptions::default()),
        (
            "strict truncated progressive",
            &cut_progressive,
            DecodeOptions::default(),
        ),
        (
            "corrupt progressive",
            &corrupt_progressive,
            DecodeOptions::default(),
        ),
    ];
    let decoder = Decoder::builder().build().expect("valid configuration");
    for (label, jpeg, opts) in cases {
        let whole = decoder.decode(jpeg, opts).expect_err(label);
        let rows = decoder
            .decode_rows(jpeg, opts, &mut |_| true)
            .expect_err(label);
        let batch = decoder.decode_batch(&[jpeg, &good[..]], opts);
        let batched = batch[0].as_ref().expect_err(label);
        assert!(
            batch[1].is_ok(),
            "{label}: the healthy batch member decodes"
        );
        for (path, err) in [("decode_rows", &rows), ("decode_batch", batched)] {
            assert_eq!(err, &whole, "{label}: {path} variant differs");
            assert_eq!(
                err.to_string(),
                whole.to_string(),
                "{label}: {path} text differs"
            );
        }
    }
    // Every mode fails the strict truncated DRI stream with the same error.
    let want = decoder
        .decode(&cut_dri, DecodeOptions::with_mode(Mode::Sequential))
        .expect_err("sequential");
    for mode in Mode::all() {
        let err = decoder
            .decode(&cut_dri, DecodeOptions::with_mode(mode))
            .expect_err(mode.name());
        assert_eq!(err, want, "{mode:?} variant differs");
        assert_eq!(err.to_string(), want.to_string(), "{mode:?} text differs");
    }
}

#[test]
fn decode_rows_sink_abort_stops_after_the_current_tile() {
    let jpeg = noise_jpeg(64, 128, 85, Subsampling::S420, 0, 51);
    let decoder = Decoder::builder().build().expect("valid configuration");
    for stop_after in [1usize, 3] {
        let mut seen = 0usize;
        let out = decoder
            .decode_rows(&jpeg, DecodeOptions::default(), &mut |_| {
                seen += 1;
                seen < stop_after
            })
            .expect("row stream");
        assert!(!out.completed, "stop after {stop_after}");
        assert_eq!(out.tiles, stop_after);
        assert_eq!(seen, stop_after, "no tile after the abort");
        assert!(out.mcu_rows > stop_after);
    }
}
