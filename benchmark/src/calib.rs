//! Host-speed calibration.
//!
//! The host this benchmark was sized on is two vCPUs of a shared
//! machine whose speed is not its own: for tens of minutes at a time
//! every workload runs at half its usual rate and is billed twice the
//! CPU per operation, with `steal` in `/proc/stat` showing nothing. No
//! run length the driver's budget allows averages that out, and no
//! bound the contract allows absorbs it.
//!
//! So every speed figure is reported relative to how fast the host was
//! *while it was measured*. A fixed piece of reference work
//! ([`reference_work`]) is timed on two threads at once every
//! [`EVERY`] of a measured phase, with the load paused, and before
//! every timed set-up. The median of those times against
//! [`REFERENCE_NS`] is the host's speed during the phase ([`speed`]);
//! rates are divided by it, CPU costs and set-up times multiplied by it,
//! so they read as they would on a host on which the reference work
//! takes exactly [`REFERENCE_NS`] on both threads at once.
//!
//! The reference work is deliberately not repo code: a change to the
//! programs under test cannot move it. What it should look like was
//! settled by measurement (`benchmark/README.md`): a dependent chain of
//! integer operations in the first-level cache, four independent
//! chains, and timed sleeps were tried next to it, over an hour in which
//! the host changed speed several times, and the decision-like pass
//! kept here followed all four workloads best.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What [`reference_work`] takes on each of two threads at once on the
/// reference host: the host the benchmark was sized on, at its usual
/// speed.
pub const REFERENCE_NS: f64 = 2.2e6;

const EVENTS: u32 = 7_000;
const APPS: usize = 4_096;
const BINS: usize = 240;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The histograms the reference work reads: shared, read-only, mostly
/// empty bins with a few busy ones, like idle-time histograms.
fn histograms() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0xC0FF_EE00_D15E_A5E5u64;
        (0..APPS * BINS)
            .map(|_| {
                x = lcg(x);
                if x >> 60 == 0 {
                    (x >> 40) as u32 & 0xFF
                } else {
                    0
                }
            })
            .collect()
    })
}

/// The reference work: an imitation of the decision path, frozen here.
/// For each of [`EVENTS`] pseudo-random events: render the app's name,
/// hash it, find the app's histogram among 4 096 (3.9 MB in all — past
/// the second-level cache, like the state of a busy node), and scan the
/// 240 bins for the ones holding the 5th and the 99th percentile. It
/// mixes what the programs under test mix — byte handling, a hash,
/// a dependent load, a short streaming scan with data-dependent
/// branches — so whatever slows them (less processor time, a busy
/// sibling hardware thread, neighbours in the shared cache) slows it
/// about as much.
pub fn reference_work() -> u64 {
    let table = histograms();
    let mut name = *b"app-000000";
    let (mut x, mut acc) = (0x5EED_5EED_5EED_5EEDu64, 0u64);
    for _ in 0..black_box(EVENTS) {
        x = lcg(x);
        let mut v = (x >> 40) as u32 % 1_000_000;
        for d in name[4..].iter_mut().rev() {
            *d = b'0' + (v % 10) as u8;
            v /= 10;
        }
        let hash = name.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let app = (hash >> 20) as usize % APPS;
        let bins = &table[app * BINS..(app + 1) * BINS];
        let total: u64 = bins.iter().map(|b| *b as u64).sum();
        let (lo_at, hi_at) = (total / 20, total - total / 100);
        let (mut seen, mut lo, mut hi) = (0u64, 0usize, 0usize);
        for (i, b) in bins.iter().enumerate() {
            seen += *b as u64;
            if seen <= lo_at {
                lo = i;
            }
            if seen < hi_at {
                hi = i;
            }
        }
        acc = acc.wrapping_add((lo * BINS + hi) as u64);
    }
    acc
}

/// Times the reference work once on the calling thread, ns.
pub fn time_once() -> f64 {
    let t0 = Instant::now();
    black_box(reference_work());
    t0.elapsed().as_nanos() as f64
}

/// Times the reference work on two threads at once; the mean of the
/// two, ns.
pub fn time_pair() -> f64 {
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(time_once);
        (
            time_once(),
            other.join().expect("the reference work does not panic"),
        )
    });
    (a + b) / 2.0
}

/// Host speed relative to the reference host from reference-work times
/// (ns): 1 when their median is [`REFERENCE_NS`], 0.5 when the work
/// took twice as long. 1 when there are no samples (phases too short to
/// reach a calibration point — smoke runs).
pub fn speed(samples_ns: &[f64]) -> f64 {
    let m = crate::stats::median(samples_ns);
    if m > 0.0 {
        REFERENCE_NS / m
    } else {
        1.0
    }
}

/// How often a measured phase takes a calibration point. The host's
/// speed moves by a quarter from one tenth of a second to the next, so
/// the median needs many points: a 15 s phase takes about 110 per
/// client thread, and spends under 4 % of its time on them.
pub const EVERY: Duration = Duration::from_millis(125);

/// When one thread of a phase takes its calibration points.
///
/// Every thread that drives load asks [`Ticker::due`] between two units
/// of its work and, when another [`EVERY`] of the phase has passed,
/// does the reference work there and then. All threads count from the
/// same instant, so they stop within one unit of work of each other:
/// the client threads compute instead of driving load, the programs
/// under test finish what is in flight and fall idle, and the
/// reference work has the two vCPUs to itself, like the load it stands
/// in for.
#[derive(Debug)]
pub struct Ticker {
    /// When the phase began; `None` is never due (warm-up, set-up).
    from: Option<Instant>,
    every: Duration,
    /// Multiples of `every` already served.
    served: u128,
}

impl Ticker {
    /// Due every `every` from `from` on.
    pub fn new(from: Option<Instant>, every: Duration) -> Ticker {
        Ticker {
            from,
            every,
            served: 0,
        }
    }

    /// Whether a point has come due since the last one taken; says so
    /// once per point (a thread that was away for several intervals
    /// owes one point, not several).
    pub fn due(&mut self) -> bool {
        let Some(from) = self.from else { return false };
        let intervals = from.elapsed().as_nanos() / self.every.as_nanos().max(1);
        let due = intervals > self.served;
        self.served = intervals;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_median() {
        assert_eq!(speed(&[REFERENCE_NS; 5]), 1.0);
        // One preempted sample does not move it; a host at half speed
        // reads 0.5.
        let mut samples = vec![2.0 * REFERENCE_NS; 9];
        samples.push(40.0 * REFERENCE_NS);
        assert_eq!(speed(&samples), 0.5);
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn the_reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
        assert!(time_once() > 100_000.0, "7k histogram scans take time");
    }

    #[test]
    fn a_point_comes_due_once_per_interval() {
        assert!(!Ticker::new(None, Duration::from_millis(1)).due());
        let mut t = Ticker::new(Some(Instant::now()), Duration::from_millis(20));
        assert!(!t.due(), "nothing is due before the first interval");
        std::thread::sleep(Duration::from_millis(45));
        // Two intervals have passed: one point covers both.
        assert!(t.due());
        assert!(!t.due());
    }
}
