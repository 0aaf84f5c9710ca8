//! Seeded workload inputs, generated with `hetjpeg_corpus`, plus the
//! reference outputs every decode is checked against.
//!
//! Each workload is a fixed design (sizes × coding settings) whose image
//! *content* comes from the seed, so different seeds give different bytes
//! of the same statistical shape and their figures are comparable.

use hetjpeg_core::{DecodeOptions, Decoder, Mode};
use hetjpeg_corpus::{generate_progressive_jpeg, generate_rgb, ImageSpec, Pattern};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::progressive::ScanPreset;
use hetjpeg_jpeg::types::Subsampling;

/// One generated input and its expected decoded RGB.
pub struct Image {
    pub jpeg: Vec<u8>,
    pub width: usize,
    pub height: usize,
    /// Expected output of a full decode.
    pub expected: Vec<u8>,
    /// Expected output of a `max_scans = 1` preview (progressive only).
    pub expected_preview: Option<Vec<u8>>,
}

impl Image {
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// splitmix64: a tiny deterministic generator for seed derivation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn photo_spec(width: usize, height: usize, seed: u64) -> ImageSpec {
    ImageSpec {
        width,
        height,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed,
    }
}

fn baseline(spec: &ImageSpec, quality: u8, subsampling: Subsampling, restart: usize) -> Vec<u8> {
    encode_rgb(
        &generate_rgb(spec),
        spec.width as u32,
        spec.height as u32,
        &EncodeParams {
            quality,
            subsampling,
            restart_interval: restart,
        },
    )
    .expect("corpus encode")
}

/// Expected pixels from the scalar reference decoder.
fn reference(jpeg: &[u8]) -> Vec<u8> {
    hetjpeg_jpeg::decoder::decode(jpeg)
        .expect("reference decode")
        .data
}

fn image(jpeg: Vec<u8>, width: usize, height: usize) -> Image {
    let expected = reference(&jpeg);
    Image {
        jpeg,
        width,
        height,
        expected,
        expected_preview: None,
    }
}

/// Coding settings crossed with every size: quality spans q75–q95 and the
/// three subsamplings.
const CODINGS: [(Subsampling, u8); 3] = [
    (Subsampling::S420, 75),
    (Subsampling::S422, 85),
    (Subsampling::S444, 95),
];

/// `count` 4:3 sizes whose pixel counts step geometrically from `lo` to
/// `hi` megapixels, so latencies spread smoothly over the range.
fn geometric_sizes(count: usize, lo: f64, hi: f64) -> Vec<(usize, usize)> {
    (0..count)
        .map(|i| {
            let mp = lo * (hi / lo).powf(i as f64 / (count - 1) as f64);
            let w = (mp * 1e6 * 4.0 / 3.0).sqrt().round();
            (w as usize, (w * 0.75).round() as usize)
        })
        .collect()
}

/// `photo`: 25 baseline PhotoLike images from 0.05 to 3.1 MP, codings
/// rotating through [`CODINGS`], every other group of three with a restart
/// interval.
pub fn photo(seed: u64) -> Vec<Image> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (i, (w, h)) in geometric_sizes(25, 0.05, 3.1).into_iter().enumerate() {
        let (sub, q) = CODINGS[i % 3];
        let restart = if (i / 3) % 2 == 0 { 8 } else { 0 };
        let jpeg = baseline(&photo_spec(w, h, rng.next()), q, sub, restart);
        out.push(image(jpeg, w, h));
    }
    rng.shuffle(&mut out);
    out
}

/// `thumbs-serve`: thumbnails from 64×64 to 320×240 in every subsampling.
pub fn thumbs(seed: u64) -> Vec<Image> {
    const SIZES: [(usize, usize); 8] = [
        (64, 64),
        (96, 96),
        (128, 96),
        (160, 120),
        (200, 150),
        (240, 180),
        (256, 192),
        (320, 240),
    ];
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for &(w, h) in &SIZES {
        for &(sub, q) in &CODINGS {
            let jpeg = baseline(&photo_spec(w, h, rng.next()), q, sub, 0);
            out.push(image(jpeg, w, h));
        }
    }
    rng.shuffle(&mut out);
    out
}

/// `progressive-preview`: nine SOF2 PhotoLike images from 0.3 to 3.1 MP,
/// alternating the two scan-script presets. A full decode is checked
/// against the scalar reference decode of the baseline encoding of the
/// same pixels (the progressive path is bit-identical to it); a preview
/// against a `Sequential` session decode with `max_scans = 1`.
pub fn progressive(seed: u64) -> Vec<Image> {
    const SCRIPTS: [(ScanPreset, Subsampling, u8); 2] = [
        (ScanPreset::Standard10, Subsampling::S420, 85),
        (ScanPreset::Spectral4, Subsampling::S422, 90),
    ];
    let reference_session = Decoder::builder().build().expect("reference session");
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (i, (w, h)) in geometric_sizes(9, 0.3, 3.1).into_iter().enumerate() {
        let (preset, sub, q) = SCRIPTS[i % 2];
        let spec = photo_spec(w, h, rng.next());
        let jpeg = generate_progressive_jpeg(&spec, q, sub, preset).expect("corpus encode");
        let expected = reference(&baseline(&spec, q, sub, 0));
        let preview = reference_session
            .decode(
                &jpeg,
                DecodeOptions::with_mode(Mode::Sequential).max_scans(1),
            )
            .expect("preview reference decode")
            .image
            .data;
        out.push(Image {
            jpeg,
            width: w,
            height: h,
            expected,
            expected_preview: Some(preview),
        });
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = thumbs(7);
        let b = thumbs(7);
        let c = thumbs(8);
        assert!(a.iter().zip(&b).all(|(x, y)| x.jpeg == y.jpeg));
        assert!(a.iter().zip(&c).any(|(x, y)| x.jpeg != y.jpeg));
        let px = |v: &[Image]| v.iter().map(Image::pixels).sum::<usize>();
        assert_eq!(px(&a), px(&c), "seeds change content, not the design");
    }
}
