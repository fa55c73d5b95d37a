//! "A steady-state decision on the shard thread allocates nothing" as a
//! count, not a timing: this binary installs a counting global
//! allocator and replays a two-tenant stream through a [`ShardWorker`].
//!
//! The count is thread-local, so the harness's other test threads do
//! not disturb it, and it is read around each call under test — what
//! the test itself allocates between calls is not charged to them.
//!
//! The same allocator keeps the bytes a thread holds (allocated minus
//! freed), which turns "bytes per app" into a count as well:
//! `bytes_per_app_stay_under_their_ceilings` and its production twin
//! report what a shard holds for an app at first sight, after its first
//! idle time and after a hundred of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use sitw_core::{DecisionKind, HybridConfig, ProductionConfig, MINUTE_MS};
use sitw_fleet::{footprint_mb, mix64, TenantLedger, TenantSpec};
use sitw_serve::shard::{ShardWorker, TenantRestore};
use sitw_serve::telem::{ShardTelem, EVENT_RING};
use sitw_sim::PolicySpec;
use sitw_telemetry::{EventKind, EventRing};

thread_local! {
    /// Allocations made by this thread (`alloc_zeroed` and `realloc`
    /// keep their default bodies, which go through `alloc`).
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed. A growing
    /// `Vec` nets out to its new capacity (`realloc` is an `alloc`, a
    /// copy and a `dealloc`).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count_one(size: usize) {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + size as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is therefore this type's; the counter is
// a thread-local `Cell` and touches no memory the allocator manages.
// sitw-lint: allow(unsafe-confinement)
unsafe impl GlobalAlloc for Counting {
    // sitw-lint: allow(unsafe-confinement)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        System.alloc(layout)
    }

    // sitw-lint: allow(unsafe-confinement)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const FREE: u16 = 1;
const TIGHT: u16 = 2;
const APPS_PER_TENANT: usize = 48;

/// An endless two-tenant invocation stream in timestamp order. Each app
/// beats at its own period of 1–9 minutes with a few seconds of jitter;
/// one gap in 128 is three hours instead — inside the histogram's
/// four-hour range (so no app turns out-of-bounds and asks ARIMA), far
/// past the 99th-percentile keep-alive (so the app's charge lapses and
/// it comes back cold).
struct Stream {
    names: Vec<String>,
    /// `(next timestamp, tenant, app index)`, earliest first.
    due: BinaryHeap<Reverse<(u64, u16, usize)>>,
    beats: Vec<u64>,
}

impl Stream {
    fn new() -> Stream {
        let names = (0..APPS_PER_TENANT)
            .map(|i| format!("app-{i:04}"))
            .collect();
        let due = [FREE, TIGHT]
            .into_iter()
            .flat_map(|t| (0..APPS_PER_TENANT).map(move |i| Reverse((i as u64 * 1_000, t, i))))
            .collect();
        Stream {
            names,
            due,
            beats: vec![0; 2 * APPS_PER_TENANT],
        }
    }

    fn next(&mut self) -> (u16, &str, u64) {
        let Reverse((ts, tenant, i)) = self.due.pop().expect("endless");
        let slot = (tenant - FREE) as usize * APPS_PER_TENANT + i;
        self.beats[slot] += 1;
        let r = mix64(self.beats[slot] << 16 | slot as u64);
        let gap = if r.is_multiple_of(128) {
            180 * MINUTE_MS
        } else {
            (1 + i as u64 % 9) * MINUTE_MS + (r >> 8) % 5_000
        };
        self.due.push(Reverse((ts + gap, tenant, i)));
        (tenant, &self.names[i], ts)
    }
}

#[test]
fn steady_state_invoke_allocates_nothing() {
    let tenant = |id, name: &str, budget_mb| {
        TenantRestore::fresh(TenantSpec {
            id,
            name: name.into(),
            policy: PolicySpec::Hybrid(HybridConfig::default()),
            budget_mb,
        })
    };
    // The tight tenant can hold about two thirds of its apps at once.
    let total: u64 = (0..APPS_PER_TENANT)
        .map(|i| footprint_mb("tight", &format!("app-{i:04}")))
        .sum();
    let events = Arc::new(Mutex::new(EventRing::new(EVENT_RING)));
    let mut worker = ShardWorker::new(
        0,
        vec![
            tenant(FREE, "free", 0),
            tenant(TIGHT, "tight", total * 2 / 3),
        ],
    )
    .unwrap()
    .with_telem(ShardTelem {
        events: Arc::clone(&events),
        ..ShardTelem::default()
    });
    let mut stream = Stream::new();

    // Warm-up: every app's idle-time history is past its cap (so it
    // overwrites in place instead of growing), and the event ring has
    // wrapped four times over (so every slot's buffers have held an
    // eviction).
    let history_cap = HybridConfig::default().history_cap as u64;
    while stream.beats.iter().any(|&b| b <= history_cap + 2)
        || events.lock().unwrap().pushed() < 4 * EVENT_RING as u64
    {
        let (tenant, app, ts) = stream.next();
        worker.invoke(tenant, app, ts).unwrap();
    }

    let pushed_before = events.lock().unwrap().pushed();
    let (mut warm, mut lapsed, mut downgraded, mut arima) = (0u64, 0u64, 0u64, 0u64);
    let mut allocated = 0u64;
    for _ in 0..120_000 {
        let (tenant, app, ts) = stream.next();
        let (decision, allocs) = counted(|| worker.invoke(tenant, app, ts));
        let decision = decision.unwrap();
        arima += (decision.kind == DecisionKind::Arima) as u64;
        allocated += allocs;
        match (decision.cold, decision.evicted) {
            (false, _) => warm += 1,
            (true, false) => lapsed += 1,
            (true, true) => downgraded += 1,
        }
    }
    // The replay took every path the claim covers...
    let ring = events.lock().unwrap();
    let evictions = ring
        .events()
        .filter(|e| e.kind == EventKind::Eviction)
        .count();
    assert!(warm > 50_000, "{warm} warm hits");
    assert!(lapsed > 100, "{lapsed} keep-alive lapses");
    assert!(downgraded > 5_000, "{downgraded} eviction downgrades");
    assert!(evictions > 0 && ring.pushed() - pushed_before > 10_000);
    assert_eq!(arima, 0, "the stream stays inside the histogram range");
    // ...and none of them allocated.
    assert_eq!(
        allocated, 0,
        "allocations over {warm} warm hits, {lapsed} lapses, {downgraded} downgrades"
    );
}

/// The out-of-bounds branch as a count: apps on a rhythm of about five
/// hours — past the histogram's four, so from the fifth idle time on
/// every decision is an ARIMA forecast — through a shard worker. Their
/// histories are constant (the mean model, no search), jittered,
/// alternating and trending (differenced), so the order search takes
/// its different paths. The fit workspace is the thread's: once the
/// thread has searched a full history, and every history has stopped
/// growing, an ARIMA decision allocates nothing.
#[test]
fn arima_decision_allocates_nothing() {
    const APPS: usize = 24;
    let mut worker = ShardWorker::new(
        0,
        vec![TenantRestore::fresh(TenantSpec {
            id: FREE,
            name: "free".into(),
            policy: PolicySpec::Hybrid(HybridConfig::default()),
            budget_mb: 0,
        })],
    )
    .unwrap();
    let names: Vec<String> = (0..APPS).map(|i| format!("oob-{i:02}")).collect();
    let mut ts = [0u64; APPS];
    let history_cap = HybridConfig::default().history_cap as u64;
    let (mut first_arima, mut measured, mut allocated) = (None, 0u64, 0u64);
    for beat in 0..history_cap + 40 {
        for (i, name) in names.iter().enumerate() {
            let minutes = match i % 4 {
                0 => 300,
                1 => 290 + mix64(beat << 8 | i as u64) % 20,
                2 => [280, 320][beat as usize % 2],
                _ => 250 + 2 * beat,
            };
            ts[i] += minutes * MINUTE_MS;
            let (decision, allocs) = counted(|| worker.invoke(FREE, name, ts[i]));
            let kind = decision.unwrap().kind;
            if kind == DecisionKind::Arima {
                first_arima.get_or_insert(beat);
            }
            // Past the cap every history is full and the thread has
            // searched one: from here each decision is counted.
            if beat > history_cap {
                assert_eq!(kind, DecisionKind::Arima, "{name} at beat {beat}");
                measured += 1;
                allocated += allocs;
            }
        }
    }
    assert_eq!(first_arima, Some(5), "ARIMA from the fifth idle time on");
    assert!(measured >= 900, "{measured} ARIMA decisions");
    assert_eq!(allocated, 0, "allocations over {measured} ARIMA decisions");
}

#[test]
fn ledger_charge_allocates_on_first_sight_only() {
    let names: Vec<String> = (0..1_000).map(|i| format!("app-{i:04}")).collect();
    let mut ledger = TenantLedger::new(0);
    // The very first charge also creates the map and the heap.
    ledger.charge(&names[0], 0, 1_000_000, 10);
    let mut first_sight = 0;
    for name in &names[1..] {
        let ((), allocs) = counted(|| {
            ledger.charge(name, 0, 1_000_000, 10);
        });
        // The shared name, plus the map or the heap growing.
        assert!(allocs <= 2, "{allocs} allocations on first sight of {name}");
        first_sight += allocs;
    }
    assert!(
        first_sight < 1_000 + 32,
        "{first_sight} over 999 first sights"
    );

    // Re-charges: expiry later (entry only), then earlier than the
    // queued key (a fresh node). The first round grows the heap to its
    // working size; after it neither arm allocates.
    for round in 0..4u64 {
        for (now, expiry) in [(1 + round, 2_000_000 + round), (1 + round, 500_000 - round)] {
            for name in &names {
                let ((), allocs) = counted(|| {
                    ledger.charge(name, now, expiry, 10);
                });
                assert!(
                    round == 0 || allocs == 0,
                    "{allocs} allocations re-charging {name}"
                );
            }
        }
    }
    assert_eq!(ledger.stats().warm_apps, 1_000);
}

/// What a shard holds per app under `policy`, as counts: allocations
/// made and bytes still held after first sight, after the first idle
/// time and after a hundred idle times, on a ten-minute rhythm (the
/// hybrid histogram branch, never ARIMA; one trace day). Two figures per
/// stage: the median over apps of what their own invokes cost (the
/// app's own blocks) and the mean of everything the shard holds (those
/// plus the tenant's app table, its name map and its expiry heap at
/// whatever fill they stand).
fn per_app_stages(label: &str, policy: PolicySpec) -> [(u64, i64, f64); 3] {
    const APPS: usize = 1_000;
    let names: Vec<String> = (0..APPS).map(|i| format!("app-{i:04}")).collect();
    let held = || (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let empty = held();
    let mut worker = ShardWorker::new(
        0,
        vec![TenantRestore::fresh(TenantSpec {
            id: FREE,
            name: "free".into(),
            policy,
            budget_mb: 0,
        })],
    )
    .unwrap();
    let mut own = vec![(0u64, 0i64); APPS];
    let mut report = Vec::new();
    for beat in 0..=100u64 {
        for (i, name) in names.iter().enumerate() {
            let before = held();
            let ts = beat * 10 * MINUTE_MS + i as u64;
            worker.invoke(FREE, name, ts).unwrap();
            let after = held();
            own[i].0 += after.0 - before.0;
            own[i].1 += after.1 - before.1;
        }
        if [0, 1, 100].contains(&beat) {
            let mut sorted = own.clone();
            sorted.sort_unstable_by_key(|&(_, bytes)| bytes);
            let (allocs, bytes) = sorted[APPS / 2];
            let all = held();
            let mean = (all.1 - empty.1) as f64 / APPS as f64;
            println!(
                "{label}: after {beat:3} idle times: {allocs} allocations and {bytes} B per app \
                 (median of its own invokes), {mean:.0} B per app held by the shard (mean)"
            );
            report.push((allocs, bytes, mean));
        }
    }
    report.try_into().expect("three stages")
}

#[test]
fn bytes_per_app_stay_under_their_ceilings() {
    let [first_sight, first_idle, hundredth] =
        per_app_stages("hybrid", PolicySpec::Hybrid(HybridConfig::default()));
    // First sight: 960 B of bins and the 8-byte name, interned once as
    // the table's `Arc<str>` (24 B); the third allocation is the
    // footprint hash's scratch, freed on return. Then the history, which
    // grows as a `Vec` does — 32 B at the first idle time, doubling to
    // 512 B at the 33rd — and no further once the ring is full.
    assert!(
        first_sight.0 <= 3 && first_sight.1 <= 984,
        "{first_sight:?}"
    );
    assert!(
        first_idle.0 <= 4 && first_idle.1 <= 984 + 32,
        "{first_idle:?}"
    );
    assert!(
        hundredth.0 <= 8 && hundredth.1 <= 984 + 512,
        "{hundredth:?}"
    );
    // With every table the shard keeps, at the fill a thousand apps
    // leave them (2 003 B when this was written).
    assert!(hundredth.2 <= 2_020.0, "{hundredth:?}");
}

/// The same three stages for a production tenant (§6).
#[test]
fn production_bytes_per_app_stay_under_their_ceilings() {
    let [first_sight, first_idle, hundredth] = per_app_stages(
        "production",
        PolicySpec::Production(ProductionConfig::default()),
    );
    // First sight: the 24-byte name and the cached aggregate's 240 `f64`
    // (1 920 B), allocated where the slot is created rather than in a
    // decision; the third allocation is the footprint scratch. The
    // first idle time opens the first day: its 960 B of bins and the
    // day list (four 64-byte entries). A hundred idle times on one day
    // add nothing.
    assert!(
        first_sight.0 <= 3 && first_sight.1 <= 24 + 1_920,
        "{first_sight:?}"
    );
    assert!(
        first_idle.0 <= 5 && first_idle.1 <= 24 + 1_920 + 960 + 256,
        "{first_idle:?}"
    );
    assert!(
        hundredth.0 <= 5 && hundredth.1 <= 24 + 1_920 + 960 + 256,
        "{hundredth:?}"
    );
    // With every table the shard keeps (3 667 B when this was written).
    assert!(hundredth.2 <= 3_670.0, "{hundredth:?}");
}

/// A production tenant's steady state over days, as counts: apps on
/// rhythms of 3 to 11 minutes for twenty trace days, past the fourteen
/// days of retention. Once every app has been seen, a decision that
/// stays inside its app's current day allocates nothing, and one that
/// opens a day allocates at most twice: the day's bins, and the day
/// list growing until retention caps it.
#[test]
fn production_decisions_allocate_only_when_a_day_opens() {
    const APPS: usize = 12;
    const DAYS: u64 = 20;
    const DAY_MS: u64 = 24 * 60 * MINUTE_MS;
    let mut worker = ShardWorker::new(
        0,
        vec![TenantRestore::fresh(TenantSpec {
            id: FREE,
            name: "free".into(),
            policy: PolicySpec::Production(ProductionConfig::default()),
            budget_mb: 0,
        })],
    )
    .unwrap()
    // Telemetry off: this counts the decision, not the event ring.
    .with_telem(ShardTelem {
        enabled: false,
        ..ShardTelem::default()
    });
    let names: Vec<String> = (0..APPS).map(|i| format!("prod-{i:02}")).collect();
    let mut due: BinaryHeap<Reverse<(u64, usize)>> =
        (0..APPS).map(|i| Reverse((i as u64 * 7_000, i))).collect();
    // The day of each app's newest recorded idle time; `None` until its
    // first, which opens its first day.
    let mut seen = [false; APPS];
    let mut newest_day = [None; APPS];
    let (mut same_day, mut new_day) = ((0u64, 0u64), (0u64, 0u64));
    let mut most_on_a_new_day = 0;
    while let Some(Reverse((ts, i))) = due.pop() {
        if ts >= DAYS * DAY_MS {
            break;
        }
        let (decision, allocs) = counted(|| worker.invoke(FREE, &names[i], ts));
        decision.unwrap();
        let day = ts / DAY_MS;
        // First sight records nothing and creates the app: not counted.
        if std::mem::replace(&mut seen[i], true) {
            if newest_day[i] == Some(day) {
                same_day = (same_day.0 + 1, same_day.1 + allocs);
            } else {
                new_day = (new_day.0 + 1, new_day.1 + allocs);
                most_on_a_new_day = most_on_a_new_day.max(allocs);
            }
            newest_day[i] = Some(day);
        }
        let r = mix64((ts << 8) | i as u64);
        let gap = (3 + i as u64 % 9) * MINUTE_MS + (r >> 8) % 5_000;
        due.push(Reverse((ts + gap, i)));
    }
    println!(
        "production over {DAYS} days: {} same-day decisions, {} allocations; {} day openings, \
         {} allocations, at most {most_on_a_new_day} on one",
        same_day.0, same_day.1, new_day.0, new_day.1
    );
    assert!(same_day.0 > 40_000, "{same_day:?} same-day decisions");
    assert_eq!(
        new_day.0,
        APPS as u64 * DAYS,
        "one day opened per app per day"
    );
    assert_eq!(
        same_day.1, 0,
        "allocations over {} decisions inside an open day",
        same_day.0
    );
    assert!(
        most_on_a_new_day <= 2,
        "{most_on_a_new_day} allocations opening a day ({new_day:?})"
    );
}
