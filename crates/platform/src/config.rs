//! Platform configuration and latency model.
//!
//! Mirrors the paper's §5.3 testbed: one controller VM plus 18 invoker
//! VMs (2 cores / 4 GB each) running functions in Docker containers, and
//! the component latencies they report: "the (in-memory) language runtime
//! initiation takes O(10 ms) and the container initiation takes
//! O(100 ms) for cold containers".

use rand::Rng;

use sitw_trace::TimeMs;

/// Cluster and latency parameters for the OpenWhisk-model simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Number of invoker nodes (paper: 18).
    pub num_invokers: usize,
    /// Container memory capacity per invoker, MB (paper VMs: 4 GB; a
    /// slice is reserved for the invoker itself).
    pub invoker_memory_mb: f64,
    /// REST front-end + controller processing latency (ms).
    pub controller_latency_ms: f64,
    /// Kafka-like bus latency controller → invoker (ms).
    pub bus_latency_ms: f64,
    /// Median container initialization time for a cold start (ms).
    pub container_init_ms: f64,
    /// Median language-runtime bootstrap added to the first execution in
    /// a fresh container (ms).
    pub runtime_bootstrap_ms: f64,
    /// Log-normal sigma applied to both init times and execution jitter.
    pub latency_sigma: f64,
    /// RNG seed for latency/function sampling.
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            num_invokers: 18,
            invoker_memory_mb: 3_276.0, // 4 GB × 0.8 usable.
            controller_latency_ms: 1.0,
            bus_latency_ms: 2.0,
            container_init_ms: 150.0,
            runtime_bootstrap_ms: 900.0,
            latency_sigma: 0.35,
            seed: 0x0511,
        }
    }
}

/// Samples a log-normal value with the given median and sigma.
pub fn lognormal_around<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    median * (sigma * z).exp()
}

/// Converts fractional milliseconds to integer [`TimeMs`], minimum 1.
pub fn ms(value: f64) -> TimeMs {
    value.max(1.0).round() as TimeMs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = PlatformConfig::default();
        assert_eq!(c.num_invokers, 18);
        assert!(c.invoker_memory_mb > 3_000.0);
        assert!(c.container_init_ms >= 100.0, "container init O(100ms)");
        assert!(c.runtime_bootstrap_ms >= 10.0, "runtime init ≥ O(10ms)");
    }

    #[test]
    fn lognormal_median_is_centered() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut xs: Vec<f64> = (0..10_000)
            .map(|_| lognormal_around(&mut rng, 150.0, 0.35))
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 150.0).abs() < 10.0, "median {median}");
    }

    #[test]
    fn ms_floors_at_one() {
        assert_eq!(ms(0.2), 1);
        assert_eq!(ms(10.6), 11);
    }
}
