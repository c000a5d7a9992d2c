//! The static-object universe: deterministic per-object sizes.
//!
//! Each cacheable object (product page, image set, static page) has a fixed
//! size derived from its id by hashing — the same object always has the
//! same size, across runs and across nodes, without storing a catalogue in
//! memory. Sizes follow a lognormal-like distribution (median ~8 KB, heavy
//! tail to ~2 MB), the classic web-object shape: this is what makes
//! `maximum_object_size_in_memory` (default 8 KB!) a meaningful knob.

use crate::cache::ObjectId;
use std::sync::OnceLock;
use tpcw::scale::CatalogScale;

/// Median object size in KB.
const MEDIAN_KB: f64 = 8.0;
/// Lognormal sigma (shape).
const SIGMA: f64 = 1.2;
/// Clamp range in bytes.
const MIN_BYTES: u64 = 512;
const MAX_BYTES: u64 = 2 * 1024 * 1024;

#[inline]
fn hash64(mut x: u64) -> u64 {
    // SplitMix64 finaliser — good avalanche, cheap.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Inverse standard-normal CDF (Acklam's rational approximation; relative
/// error < 1.15e-9 — far more than enough for size synthesis).
#[allow(clippy::excessive_precision)] // published approximation constants
fn inv_norm_cdf(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Deterministic size of object `id`, in bytes.
///
/// Ids of the paper's catalogue (`CatalogScale::hpdc04`, 20,050 objects)
/// are served from a table filled once per process with the same
/// formula, which takes an `exp` and often a `ln` off every cacheable
/// request; other ids compute it directly.
pub fn object_size_bytes(id: ObjectId) -> u64 {
    static SIZES: OnceLock<Box<[u32]>> = OnceLock::new();
    let sizes = SIZES.get_or_init(|| {
        (0..CatalogScale::hpdc04().static_objects())
            // Sizes are clamped to MAX_BYTES (2 MiB), so they fit a u32.
            .map(|id| compute_size(id) as u32)
            .collect()
    });
    match usize::try_from(id).ok().and_then(|i| sizes.get(i)) {
        Some(&bytes) => u64::from(bytes),
        None => compute_size(id),
    }
}

/// The size formula behind [`object_size_bytes`].
fn compute_size(id: ObjectId) -> u64 {
    let h = hash64(id);
    // Map to (0,1) strictly.
    let u = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    let z = inv_norm_cdf(u);
    let kb = MEDIAN_KB * (SIGMA * z).exp();
    simkit::time::round_nonneg(kb * 1024.0).clamp(MIN_BYTES, MAX_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        for id in 0..100 {
            assert_eq!(object_size_bytes(id), object_size_bytes(id));
        }
    }

    #[test]
    fn table_matches_formula() {
        let catalogue = CatalogScale::hpdc04().static_objects();
        for id in (0..catalogue)
            .chain(catalogue..catalogue + 100)
            .chain([u64::MAX])
        {
            assert_eq!(object_size_bytes(id), compute_size(id), "id {id}");
        }
    }

    #[test]
    fn sizes_within_clamp() {
        for id in 0..100_000 {
            let s = object_size_bytes(id);
            assert!((MIN_BYTES..=MAX_BYTES).contains(&s), "id {id}: {s}");
        }
    }

    #[test]
    fn median_near_8kb_and_heavy_tail() {
        let n = 100_000u64;
        let mut sizes: Vec<u64> = (0..n).map(object_size_bytes).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64 / 1024.0;
        assert!((6.5..9.5).contains(&median), "median {median} KB");
        // About half the objects fit under the default 8 KB in-memory cap.
        let under_8k = sizes.iter().filter(|&&s| s <= 8 * 1024).count() as f64 / n as f64;
        assert!((0.40..0.60).contains(&under_8k), "under-8K {under_8k}");
        // A real tail exists: some objects exceed 256 KB.
        let over_256k = sizes.iter().filter(|&&s| s > 256 * 1024).count();
        assert!(over_256k > 50, "tail too thin: {over_256k}");
    }

    #[test]
    fn inv_norm_cdf_sane() {
        assert!((inv_norm_cdf(0.5)).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inv_norm_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!(inv_norm_cdf(1e-6) < -4.0);
        assert!(inv_norm_cdf(1.0 - 1e-6) > 4.0);
    }

    #[test]
    fn mean_larger_than_median() {
        // Lognormal: mean = median * exp(sigma^2/2) ~ 13 KB.
        let n = 100_000u64;
        let total: u64 = (0..n).map(object_size_bytes).sum();
        let mean_kb = total as f64 / n as f64 / 1024.0;
        assert!((10.0..17.0).contains(&mean_kb), "mean {mean_kb} KB");
    }
}
