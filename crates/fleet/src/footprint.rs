//! Deterministic per-application memory footprints.
//!
//! §3.4/Figure 8 fit per-application allocated memory with a Burr XII
//! distribution (c = 11.652, k = 0.221, λ = 107.083, MB). The fleet
//! charges each warm container a footprint drawn from that fit by
//! inverse transform — but instead of a random stream, the uniform
//! variate is a hash of `(tenant, app)`. The sample is therefore a pure
//! function of the identity: the daemon, the offline simulator, every
//! shard layout, and every restore charge the same app the same memory
//! without persisting a single byte of it.

use sitw_stats::distributions::{Burr, ContinuousDist};

use crate::{fnv1a_extend, mix64, FNV1A_OFFSET};

/// Footprints are clamped to this range (MB). The floor keeps every
/// container chargeable; the ceiling caps the Burr tail at 4 GiB — the
/// heaviest app class of Figure 8 — so one pathological hash cannot make
/// a tenant's budget meaningless.
pub const MIN_FOOTPRINT_MB: u64 = 1;
/// Upper clamp of [`footprint_mb`] (see [`MIN_FOOTPRINT_MB`]).
pub const MAX_FOOTPRINT_MB: u64 = 4096;

/// The deterministic warm-container footprint of `app` under `tenant`,
/// in whole MB.
///
/// Integer MB keeps all ledger arithmetic exact (no float accumulation
/// to drift across snapshot/restore or shard layouts).
pub fn footprint_mb(tenant: &str, app: &str) -> u64 {
    // Hash the pair with an unambiguous separator (0x1F, which tenant
    // names cannot contain) so ("ab","c") and ("a","bc") differ; folded
    // part by part, so a first sight copies nothing.
    let parts: [&[u8]; 3] = [tenant.as_bytes(), &[0x1F], app.as_bytes()];
    let h = mix64(parts.iter().fold(FNV1A_OFFSET, |h, p| fnv1a_extend(h, p)));
    // 53 bits of hash → uniform in (0, 1): the +0.5 keeps the variate
    // strictly inside the open interval where the quantile is finite.
    let u = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    let mb = Burr::memory_fit().quantile(u).ceil() as u64;
    mb.clamp(MIN_FOOTPRINT_MB, MAX_FOOTPRINT_MB)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_tenant_scoped() {
        assert_eq!(footprint_mb("acme", "app-1"), footprint_mb("acme", "app-1"));
        // The same app under a different tenant is a different container.
        let a = footprint_mb("acme", "app-1");
        let b = footprint_mb("globex", "app-1");
        // (Hash collisions are possible in principle; these two differ.)
        assert_ne!(a, b);
        // The separator disambiguates the pair.
        assert_ne!(footprint_mb("ab", "c"), footprint_mb("a", "bc"));
    }

    /// Folding the hash over the parts gives the footprint of the hash
    /// of their concatenation `tenant ‖ 0x1F ‖ app`, empty and non-ASCII
    /// names included.
    #[test]
    fn folded_hash_equals_the_concatenated_one() {
        let concatenated = |tenant: &str, app: &str| {
            let mut bytes = Vec::with_capacity(tenant.len() + 1 + app.len());
            bytes.extend_from_slice(tenant.as_bytes());
            bytes.push(0x1F);
            bytes.extend_from_slice(app.as_bytes());
            let h = mix64(crate::fnv1a(&bytes));
            let u = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
            let mb = Burr::memory_fit().quantile(u).ceil() as u64;
            mb.clamp(MIN_FOOTPRINT_MB, MAX_FOOTPRINT_MB)
        };
        let words = [
            "",
            "a",
            "acme",
            "app-000042",
            "é",
            "日本",
            "🦀",
            "a\u{1F}b",
            " %\n",
        ];
        let mut state = 0x5EED_u64;
        for i in 0..4_000u64 {
            state = mix64(state ^ i);
            let tenant = format!("{}{}", words[state as usize % words.len()], state % 7);
            let app = match i % 3 {
                0 => words[(state >> 8) as usize % words.len()].to_owned(),
                1 => format!("app-{:06}", state >> 40),
                _ => format!(
                    "{}{}",
                    words[(state >> 16) as usize % words.len()],
                    state >> 50
                ),
            };
            let tenant = if i % 5 == 0 { String::new() } else { tenant };
            assert_eq!(
                footprint_mb(&tenant, &app),
                concatenated(&tenant, &app),
                "{tenant:?} {app:?}"
            );
        }
    }

    #[test]
    fn footprints_are_clamped_and_burr_shaped() {
        let mut sum = 0u64;
        let n = 2_000u64;
        for i in 0..n {
            let mb = footprint_mb("t", &format!("app-{i:06}"));
            assert!((MIN_FOOTPRINT_MB..=MAX_FOOTPRINT_MB).contains(&mb));
            sum += mb;
        }
        // Figure 8: median ~170 MB, 90th percentile below ~400 MB. The
        // hash-driven sample mean should land in the same ballpark.
        let mean = sum as f64 / n as f64;
        assert!((100.0..400.0).contains(&mean), "mean footprint {mean} MB");
    }
}
