//! Host profiling: the §5.1 offline pass pointed at the machine that runs
//! the code, in wall-clock time.
//!
//! [`super::train`] fits the closed forms to a *modeled* machine, whose
//! GPU is a simulator. On the host that simulator runs on the same cores
//! as the CPU paths, so a virtual-time model cannot say which mode is
//! fastest here. [`train_host`] times the real CPU paths of a session —
//! the sequential entropy fill, the SIMD render, the parallel entropy fill
//! — over a small built-in calibration set and fits the forms `Mode::Auto`
//! prices CPU-only modes with, per core class in the spirit of
//! Rodríguez-Sánchez & Quintana-Ortí (PAPERS.md).

use crate::cost::CpuCostModel;
use crate::model::{Clock, PerformanceModel};
use crate::platform::Platform;
use crate::regress::lsq::Matrix;
use crate::regress::{lstsq, Poly1, Poly2};
use crate::schedule::cpu::{self, Fill, Sink};
use crate::schedule::Mode;
use crate::session::OutputFormat;
use crate::workspace::Workspace;
use hetjpeg_corpus::crop::crop_rgb;
use hetjpeg_corpus::{generate_rgb, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Timed repetitions per calibration image; each sample is the fastest,
/// which discards preemption by other processes.
const REPS: usize = 3;

/// The fitted host model for a session at `level` with `threads` entropy
/// workers. The first call for a (level, threads) pair profiles the host
/// (tens of milliseconds); later calls in the process return that model.
pub fn train_host(level: SimdLevel, threads: usize) -> PerformanceModel {
    static MODELS: OnceLock<Mutex<HashMap<(SimdLevel, usize), PerformanceModel>>> = OnceLock::new();
    // A panic inside `fit` happens before the insert, so a poisoned map
    // still holds only complete models.
    let mut models = MODELS
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    models
        .entry((level, threads))
        .or_insert_with(|| fit(level, threads))
        .clone()
}

/// The calibration set: photo-like crops of one master render (the
/// paper's §5.1 procedure) at three sizes up to 0.11 MP, each in two of
/// the common codings, once with restart markers every 8 MCUs and once
/// without.
fn calibration_set() -> &'static [Vec<u8>] {
    static SET: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SET.get_or_init(|| {
        let (w, h) = (384, 288);
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail: 0.6 },
            seed: 0x4a50,
        };
        let master = generate_rgb(&spec);
        let codings = [
            (Subsampling::S420, 75),
            (Subsampling::S422, 85),
            (Subsampling::S444, 95),
        ];
        let mut set = Vec::new();
        for (i, (cw, ch)) in [(96, 72), (224, 168), (w, h)].into_iter().enumerate() {
            let rgb = crop_rgb(&master, w, h, 0, 0, cw, ch);
            for (k, restart_interval) in [8, 0].into_iter().enumerate() {
                let (subsampling, quality) = codings[(i + k) % codings.len()];
                let params = EncodeParams {
                    quality,
                    subsampling,
                    restart_interval,
                };
                let jpeg = encode_rgb(&rgb, cw as u32, ch as u32, &params)
                    .expect("calibration image encodes");
                set.push(jpeg);
            }
        }
        set
    })
}

/// Least-squares `c` of `y ≈ Σ_j x[j]·c[j]`, the columns scaled to unit
/// maximum for conditioning.
fn least_squares<const N: usize>(xs: &[[f64; N]], ys: &[f64]) -> [f64; N] {
    let scale: [f64; N] =
        std::array::from_fn(|j| xs.iter().fold(f64::MIN_POSITIVE, |m, x| m.max(x[j].abs())));
    let mut a = Matrix::zeros(xs.len(), N);
    for (i, x) in xs.iter().enumerate() {
        for j in 0..N {
            *a.at_mut(i, j) = x[j] / scale[j];
        }
    }
    let (c, _) = lstsq(&a, ys);
    std::array::from_fn(|j| c[j] / scale[j])
}

fn fit(level: SimdLevel, threads: usize) -> PerformanceModel {
    let mut platform = Platform::host();
    platform.cpu = platform.cpu.at_level(level);
    let mut ws = Workspace::default();
    ws.set_simd_level(level);
    let preps: Vec<Prepared<'_>> = calibration_set()
        .iter()
        .map(|jpeg| Prepared::new(jpeg).expect("calibration image parses"))
        .collect();
    // Per image, the fastest of REPS timings of the sequential entropy
    // fill, the SIMD render and the parallel entropy fill, taken in
    // interleaved passes over the set.
    let mut best = vec![[f64::INFINITY; 3]; preps.len()];
    let mut classes = [0u64; 4];
    for rep in 0..REPS {
        for (prep, best) in preps.iter().zip(&mut best) {
            let t0 = Instant::now();
            let filled = cpu::fill(prep, &platform, Fill::Sequential, &mut ws)
                .expect("calibration image decodes");
            let t1 = Instant::now();
            if rep == 0 {
                for (a, b) in classes.iter_mut().zip(filled.classes) {
                    *a += b;
                }
            }
            let sink = Sink::Image(OutputFormat::Rgb);
            cpu::render(prep, &platform, filled, Mode::Simd, sink, &mut ws)
                .expect("calibration image renders");
            best[0] = best[0].min((t1 - t0).as_secs_f64());
            best[1] = best[1].min(t1.elapsed().as_secs_f64());
            if threads > 1 {
                let t0 = Instant::now();
                cpu::fill(prep, &platform, Fill::Parallel(threads), &mut ws)
                    .expect("calibration image decodes in parallel");
                best[2] = best[2].min(t0.elapsed().as_secs_f64());
            }
        }
    }

    let col = |k: usize| best.iter().map(|b| b[k]).collect::<Vec<f64>>();
    // Entropy seconds = a·pixels + b·bytes, i.e. THuff = a + b·d per pixel.
    let xs: Vec<[f64; 2]> = preps
        .iter()
        .map(|p| [p.geom.pixels() as f64, p.parsed.file_size as f64])
        .collect();
    let [a, b] = least_squares(&xs, &col(0)).map(|c| c.max(0.0));
    // The render is linear in pixels: p_cpu(w, rows) = c0 + c1·w·rows.
    let xs: Vec<[f64; 2]> = preps
        .iter()
        .map(|p| [1.0, p.geom.pixels() as f64])
        .collect();
    let [c0, c1] = least_squares(&xs, &col(1));
    let mut p_cpu = Poly2::zero(2);
    p_cpu.coefs[0][0] = c0;
    p_cpu.coefs[1][1] = c1;
    // Parallel entropy seconds = fixed + sequential / speedup; a speedup
    // above the worker count is noise.
    let (pe_speedup, pe_fixed_s) = if threads > 1 {
        let xs: Vec<[f64; 2]> = col(0).iter().map(|&e| [1.0, e]).collect();
        let [fixed, slope] = least_squares(&xs, &col(2));
        (1.0 / slope.max(1.0 / threads as f64), fixed.max(0.0))
    } else {
        (1.0, 0.0)
    };

    let seed = platform.untrained_model();
    PerformanceModel {
        clock: Clock::Wall,
        subsampling: Subsampling::S420,
        thuff_ns_per_px: Poly1::new(vec![a * 1e9, b * 1e9]),
        p_cpu,
        p_gpu: Poly2::zero(2),
        t_disp: Poly2::zero(1),
        pcpu_idct_discount: CpuCostModel::idct_discount(&classes),
        pe_speedup,
        pe_fixed_s,
        ..seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_set_is_small_and_mixes_restart_layouts() {
        let set = calibration_set();
        let mut with_dri = 0;
        for jpeg in set {
            let prep = Prepared::new(jpeg).unwrap();
            assert!(prep.geom.pixels() <= 110_592);
            with_dri += (prep.parsed.frame.restart_interval > 0) as usize;
        }
        assert_eq!(with_dri * 2, set.len());
    }

    #[test]
    fn host_model_prices_positive_wall_seconds() {
        let model = train_host(SimdLevel::detect(), 2);
        assert_eq!(model.clock, Clock::Wall);
        assert_eq!(model.platform, "host");
        assert!(model.huff_time(1e6, 0.2) > 0.0);
        assert!(model.p_cpu(1024.0, 768.0) > model.p_cpu(64.0, 64.0));
        // Two workers at most halve the entropy time.
        assert!(model.pe_speedup > 0.0 && model.pe_speedup <= 2.0);
        assert!(model.pe_fixed_s >= 0.0);
    }
}
