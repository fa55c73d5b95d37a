//! "A steady-state decision on a shard allocates nothing" as a
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
//! idle time and after a hundred of them, and on a mix of apps shaped
//! like the `bin-batch` benchmark's. A third count is the most bytes a
//! thread held at once, which shows what growing a table copies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use sitw_core::{DecisionKind, HybridConfig, PolicyFactory, ProductionConfig, Windows, MINUTE_MS};
use sitw_fleet::{
    footprint_mb, mix64, AppRecord, PolicyState, RestoredApp, TenantLedger, TenantSpec,
};
use sitw_serve::shard::{ShardTelem, ShardWorker, TenantRestore};
use sitw_sim::PolicySpec;
use sitw_telemetry::{EventKind, EventRing, EVENT_RING};

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
    /// The most `LIVE_BYTES` has read since it was last reset.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count_one(size: usize) {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE_BYTES.try_with(|c| {
        c.set(c.get() + size as i64);
        let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(c.get())));
    });
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

/// Runs `f` and returns its result with the most bytes it held at once
/// on top of what the thread held before.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(before));
    let out = f();
    (out, PEAK_BYTES.with(Cell::get) - before)
}

/// Rows per segment of a table's columns (`sitw_fleet`'s, private): a
/// first sight that opens one allocates that segment in each column.
const SEGMENT_ROWS: usize = 16;

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
/// every decision is an ARIMA forecast — through a [`ShardWorker`]. Their
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
    let mut first_sight = 0;
    for (i, name) in names.iter().enumerate() {
        let ((), allocs) = counted(|| {
            ledger.charge(name, 0, 1_000_000, 10);
        });
        // Nothing: a short name goes in the row. A sight that opens a
        // segment allocates it, and the name index and the expiry heap
        // grow to fit the table's new size (the segment list too, now
        // and then).
        if i % SEGMENT_ROWS == 0 {
            assert!(
                allocs <= 4,
                "{allocs} allocations opening a segment at {name}"
            );
        } else {
            assert_eq!(allocs, 0, "allocations on first sight of {name}");
        }
        first_sight += allocs;
    }
    assert!(
        first_sight <= 3 * 1_000u64.div_ceil(SEGMENT_ROWS as u64) + 7,
        "{first_sight} over 1 000 first sights"
    );

    // Re-charges: expiry later (entry only), then earlier than the
    // queued key (a fresh node). The heap was sized as the table grew:
    // neither arm allocates.
    for round in 0..4u64 {
        for (now, expiry) in [(1 + round, 2_000_000 + round), (1 + round, 500_000 - round)] {
            for name in &names {
                let ((), allocs) = counted(|| {
                    ledger.charge(name, now, expiry, 10);
                });
                assert_eq!(allocs, 0, "allocations re-charging {name}");
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
/// app's own blocks, and a segment of each column when its sight opens
/// one) and the mean of everything the shard holds (those plus the
/// tenant's app table, its name index and its expiry heap at whatever
/// fill they stand, and the shard's own buffers). The most bytes any one
/// first sight held at once on top of what was there comes fourth.
fn per_app_stages(label: &str, policy: PolicySpec) -> ([(u64, i64, f64); 3], i64) {
    const APPS: usize = 1_000;
    let names: Vec<String> = (0..APPS).map(|i| format!("app-{i:04}")).collect();
    let held = || (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    // This test's own bookkeeping is allocated first: it is not the
    // shard's.
    let mut own = vec![(0u64, 0i64); APPS];
    let mut sorted = own.clone();
    let mut report = Vec::with_capacity(3);
    let mut first_sight_peak = 0;
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
    for beat in 0..=100u64 {
        for (i, name) in names.iter().enumerate() {
            let before = held();
            let ts = beat * 10 * MINUTE_MS + i as u64;
            let (decision, peak) = peak_of(|| worker.invoke(FREE, name, ts));
            decision.unwrap();
            if beat == 0 {
                first_sight_peak = first_sight_peak.max(peak);
            }
            let after = held();
            own[i].0 += after.0 - before.0;
            own[i].1 += after.1 - before.1;
        }
        if [0, 1, 100].contains(&beat) {
            sorted.copy_from_slice(&own);
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
    println!("{label}: at most {first_sight_peak} B held at once by one first sight");
    (report.try_into().expect("three stages"), first_sight_peak)
}

#[test]
fn bytes_per_app_stay_under_their_ceilings() {
    let ([first_sight, first_idle, hundredth], first_sight_peak) =
        per_app_stages("hybrid", PolicySpec::Hybrid(HybridConfig::default()));
    // An app's own invokes allocate nothing: its name (up to 22
    // bytes), its row, its bins and its history are in the table's
    // columns and size classes, whose segments the sights that open
    // them pay for. The footprint hash folds over the tenant and app
    // names and copies neither.
    for stage in [first_sight, first_idle, hundredth] {
        assert!(stage.0 == 0 && stage.1 == 0, "{stage:?}");
    }
    // Growing the table copies no column: the most one first sight
    // holds at once is a segment of the rows (16 × 192 B) and of the
    // segment lists, with the name index (8 192 B into 16 384 B) and the
    // expiry heap regrown — never a second copy of a column. A first
    // sight holds no bins and no history.
    assert!(first_sight_peak <= 36_000, "{first_sight_peak} B");
    // With every table the shard keeps, at the fill a thousand apps
    // leave them. Per app, after a hundred idle times on a ten-minute
    // rhythm (one bin):
    //
    //     36  bins: one entry of 8 B in the class of 4, its owner's row
    //         number 4 B
    //    260  history: 64 × u32 of milliseconds in the cap's ring class,
    //         its owner's row number 4 B
    //    193  row, 192 B: the name 24 (up to 22 bytes inline),
    //         footprint, expiry and queued key 24, heap generation and
    //         warm flag 5 (+3 padding); `last_ts`, windows, stamp and
    //         the last verdict's idle time 40; the hybrid totals 24, two
    //         cursors 24 (packed) and counters 24; the history ring's
    //         spot, head and length 12; the bins' spot and length 8; the
    //         verdict's flags and branch 2 (+6 padding)
    //     33  expiry heap reserved to 2 × 1 008 + 33 nodes of 16 B
    //     16  name index: 2 048 entries of 8 B
    //     44  the shard's own buffers (telemetry, event ring) over 1 000
    //         apps
    //     35  the rest: the owner lists' slack (1 024 rows reserved),
    //         the unused rows of the last segments, segment lists, the
    //         shard's per-tenant and per-shard counters
    //
    // An app whose bins fill more than 64 of the 240 holds them dense,
    // 960 B, as every app did before (1 797 B in all then; 2 003 B
    // before the table held its apps in columns, of which 16 B were this
    // test's own counters). See `a_bin_batch_mix_holds_growing_rings`
    // for a mix that spreads its bins.
    assert!(hundredth.2 <= HYBRID_HUNDREDTH_CEILING, "{hundredth:?}");
    assert!(
        first_sight.2 <= 293.0 && first_idle.2 <= 353.0,
        "{first_sight:?} {first_idle:?}"
    );
    // Restored with 40 idle times, then 30 more: the rebuild allocates
    // nothing (a short name is copied into the row), and the
    // record's lists are dropped once copied into the columns, so the
    // shard holds what it holds for an app it saw a hundred idle times
    // of.
    let (rebuild, restored) = restored_app_stage();
    assert!(rebuild.0 == 0 && rebuild.1 <= 0, "{rebuild:?}");
    assert!(restored <= HYBRID_HUNDREDTH_CEILING, "{restored}");
}

/// The hundredth stage's ceiling, B per app.
const HYBRID_HUNDREDTH_CEILING: f64 = 618.0;

/// What a shard holds per app on a mix of apps shaped like the
/// `bin-batch` benchmark's warm snapshot, where 11.4 % of apps hold at
/// most 3 idle times and 70 % hold 32 to 64, and 43.6 % of apps fill at
/// most 16 of the 240 bins, 57.3 % at most 64. Of every 50 apps, as
/// (idle times, bins filled): 1 is seen once (0, 0); 5 hold (3, 3); 6
/// hold (20, 8) and 3 hold (20, 20); 10 hold (100, 12), 4 hold (100, 40)
/// and 21 hold (100, 90) — 44 % fill at most 16 bins, 58 % at most 64,
/// and 42 % hold every bin's count. An app's idle times cycle over its
/// bins. The history rings take the sizes a growing ring would (4, 32
/// and 64 values) and the bins the classes their entries select (4, 8,
/// 16, 32, 64 or dense), so the mix holds less than a history column of
/// the cap's stride, `rings`, or a dense bins column, `dense`, would.
fn mix_stage() -> (f64, f64, f64) {
    const APPS: usize = 1_000;
    let shape = |i: usize| -> (u64, u64) {
        match i % 50 {
            0 => (0, 0),
            1..=5 => (3, 3),
            6..=11 => (20, 8),
            12..=14 => (20, 20),
            15..=24 => (100, 12),
            25..=28 => (100, 40),
            _ => (100, 90),
        }
    };
    let names: Vec<String> = (0..APPS).map(|i| format!("app-{i:04}")).collect();
    let mut ts: Vec<u64> = (0..APPS as u64).collect();
    let live = || LIVE_BYTES.with(Cell::get);
    let empty = live();
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
    for beat in 0..=100u64 {
        for (i, name) in names.iter().enumerate() {
            let (idle_times, bins) = shape(i);
            if beat > idle_times {
                continue;
            }
            if beat > 0 {
                // The idle times cycle over `bins` bins spread across
                // minutes 1 to 239.
                let bin = 1 + (beat - 1) % bins * (238 / bins);
                ts[i] += bin * MINUTE_MS + i as u64 % 1_000;
            }
            worker.invoke(FREE, name, ts[i]).unwrap();
        }
    }
    let mean = (live() - empty) as f64 / APPS as f64;
    // What each app's ring holds below the cap's 64 values (4 B each),
    // and what its bins hold below 960 B (8 B an entry, beside a 4 B
    // owner).
    let (below_cap, below_dense): (u64, u64) = (0..APPS)
        .map(|i| {
            let (idle_times, bins) = shape(i);
            let ring = match idle_times {
                0 => 0,
                3 => 4,
                20 => 32,
                _ => 64,
            };
            let class = match bins {
                0 => 0,
                65.. => 960,
                n => n.next_power_of_two().max(4) * 8 + 4,
            };
            ((64 - ring) * 4, 960 - class)
        })
        .fold((0, 0), |(r, d), (a, b)| (r + a, d + b));
    let rings = mean + below_cap as f64 / APPS as f64;
    let dense = mean + below_dense as f64 / APPS as f64;
    println!(
        "hybrid: bin-batch mix: {mean:.0} B per app held by the shard (mean); \
         {rings:.0} B with a history column of the cap's stride, {dense:.0} B with \
         every app's bins dense"
    );
    (mean, rings, dense)
}

#[test]
fn a_bin_batch_mix_holds_growing_rings() {
    let (mean, rings, dense) = mix_stage();
    // 1 064 B when this was written, against 1 694 B for the same mix
    // when every app's bins were dense and its history `f64`.
    assert!(mean <= MIX_CEILING, "{mean}");
    // The rings save what a ring below the cap leaves unused, 4 B a
    // value; the sparse classes save most of 960 B per app that fills
    // few bins.
    assert!(rings - mean >= 50.0, "{mean} against {rings}");
    assert!(dense - mean >= 400.0, "{mean} against {dense}");
}

/// The mix's ceiling, B per app.
const MIX_CEILING: f64 = 1_064.0;

/// What a hybrid app restored from a snapshot with 40 idle times holds
/// after 30 more, as counts: the median over apps of the allocations and
/// bytes of its rebuild (`RestoredApp::new`, the per-app part of a
/// restore: the interned name, and the histogram's totals and cursors,
/// which allocate nothing), counted on a twin of the record since the
/// shard rebuilds all of them in one call; and the mean per app of what
/// the shard holds once the records are gone — their lists are copied
/// into the table's columns and dropped.
fn restored_app_stage() -> ((u64, i64), f64) {
    const APPS: usize = 1_000;
    let cfg = HybridConfig::default();
    let spec = TenantSpec {
        id: FREE,
        name: "free".into(),
        policy: PolicySpec::Hybrid(cfg.clone()),
        budget_mb: 0,
    };
    let held = || (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let names: Vec<String> = (0..APPS).map(|i| format!("app-{i:04}")).collect();
    let mut rebuilds = vec![(0u64, 0i64); APPS];
    let empty = held();
    let mut apps = Vec::with_capacity(APPS);
    for (name, rebuild) in names.iter().zip(&mut rebuilds) {
        let mut snap = cfg.new_policy().app().snapshot();
        snap.history = (0..40).map(|m| 10.0 + f64::from(m)).collect();
        let record = AppRecord {
            app: name.clone(),
            last_ts: 0,
            windows: Windows::keep_loaded(0),
            evicted: false,
            state: PolicyState::Hybrid(snap),
        };
        let twin = record.clone();
        let before = held();
        let rebuilt = RestoredApp::new(&spec, twin, 0);
        let after = held();
        *rebuild = (after.0 - before.0, after.1 - before.1);
        drop(rebuilt);
        apps.push(record);
    }
    let restore = TenantRestore {
        apps,
        ..TenantRestore::fresh(spec)
    };
    let mut worker = ShardWorker::new(0, vec![restore]).unwrap();
    for beat in 1..=30u64 {
        for name in &names {
            worker.invoke(FREE, name, beat * 10 * MINUTE_MS).unwrap();
        }
    }
    let mean = (held().1 - empty.1) as f64 / APPS as f64;
    rebuilds.sort_unstable_by_key(|&(_, bytes)| bytes);
    let (allocs, bytes) = rebuilds[APPS / 2];
    println!(
        "hybrid: restored at 40 idle times: {allocs} allocations and {bytes} B per app to \
         rebuild (median); after 30 more, {mean:.0} B per app held by the shard (mean)"
    );
    ((allocs, bytes), mean)
}

/// The same three stages for a production tenant (§6).
#[test]
fn production_bytes_per_app_stay_under_their_ceilings() {
    let ([first_sight, first_idle, hundredth], _) = per_app_stages(
        "production",
        PolicySpec::Production(ProductionConfig::default()),
    );
    // First sight: the cached aggregate's 240 `f64` (1 920 B; the name
    // is in the row), allocated where the row is created rather than in a
    // decision; the footprint hash allocates nothing. The first idle
    // time opens the first day: its 960 B of bins and the day list (four
    // 64-byte entries). A hundred idle times on one day add nothing.
    assert!(
        first_sight.0 <= 1 && first_sight.1 <= 1_920,
        "{first_sight:?}"
    );
    assert!(
        first_idle.0 <= 3 && first_idle.1 <= 1_920 + 960 + 256,
        "{first_idle:?}"
    );
    assert!(
        hundredth.0 <= 3 && hundredth.1 <= 1_920 + 960 + 256,
        "{hundredth:?}"
    );
    // With every table the shard keeps (3 582 B when this was written;
    // 3 667 B before the table held its apps in columns).
    assert!(hundredth.2 <= 3_583.0, "{hundredth:?}");
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
