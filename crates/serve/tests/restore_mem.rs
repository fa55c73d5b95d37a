//! "Restoring, writing and loading a snapshot never hold the whole
//! document" as a count: this binary installs a process-wide counting
//! allocator that keeps live and peak bytes, and measures what
//! [`Snapshot::load`], [`Server::start`] restoring a snapshot and
//! [`Snapshot::write_to`] hold beyond the state itself.
//!
//! Each figure is a peak during the call minus what is live after it
//! (`load`, `start`) or before it (`write_to`): the memory the call needed
//! on top of the state. Reading the document whole costs its size; read
//! and written a line at a time it costs a read or write buffer and the
//! longest line. The count covers every thread, so the binary holds
//! exactly one test.
//!
//! The same allocator counts allocations, which turns "a decode copies
//! each list once, at its size" into a count too: decoding the document
//! allocates each app's name, bins and history once and every vector at
//! exactly its length, and restoring a node adds only each name's
//! interned copy per app.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use sitw_core::{AppPolicy, HybridConfig, PolicyFactory, MINUTE_MS};
use sitw_fleet::LedgerExport;
use sitw_serve::snapshot::{AppRecord, PolicyState, TenantSnapshot, MAX_LINE_BYTES};
use sitw_serve::{ServeConfig, Server, Snapshot};
use sitw_sim::PolicySpec;

/// Bytes allocated minus bytes freed, by every thread (`realloc` keeps
/// its default body: an `alloc`, a copy and a `dealloc`, so a growing
/// buffer briefly counts twice, as it does in the allocator).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE` since the last [`peak_since`] reset.
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Allocations made, by every thread (`alloc_zeroed` and `realloc` go
/// through `alloc`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is therefore this type's; the counters
// are static atomics and touch no memory the allocator manages.
// sitw-lint: allow(unsafe-confinement)
unsafe impl GlobalAlloc for Counting {
    // sitw-lint: allow(unsafe-confinement)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        System.alloc(layout)
    }

    // sitw-lint: allow(unsafe-confinement)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the peak of live bytes while it
/// ran.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, i64) {
    PEAK.store(live(), Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed))
}

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const APPS: usize = 5_000;
const TENANTS: u16 = 3;

/// What each call may hold beyond the state: its read or write buffer
/// and bookkeeping, on top of one line no longer than the decoder's cap.
const SLACK: i64 = 256 * 1024;
const CEILING: i64 = SLACK + MAX_LINE_BYTES as i64;

/// What decoding allocates beyond three per app: per named tenant its
/// name, policy label, spec and app list; per document its policy label,
/// the default app list and the two tenant lists (their first push).
const PER_TENANT: u64 = 4;
const PER_DOCUMENT: u64 = 4;
/// What restoring a node allocates: per app its name, bins and history
/// as parsed (a short name is copied into its row; the lists are made
/// into sparse entries and milliseconds in their own blocks, copied into
/// the table's classes and dropped); per 16 apps a segment of each of
/// the columns a hybrid table fills (rows, the bins' class and the
/// history's class) and one spare; per named tenant its table, spec and
/// ledger; per document the default tenant on every shard, the node
/// itself (listener, reactors, telemetry rings), the restore's threads
/// and their batches — eight more of which a slow builder can make the
/// reading thread allocate — and the growth of the segment and owner
/// lists. The load-then-build restore made 20 191 for this document, the
/// pipeline with an allocation per app's bins, history and name 20 129,
/// the table's columns 16 495 (16 809 while names were blocks of their
/// own), and the size classes with their owners in one list per class
/// 16 292.
const RESTORE_PER_APP: u64 = 3;
const RESTORE_PER_SEGMENT: u64 = 4;
const RESTORE_PER_TENANT: u64 = 12;
const RESTORE_PER_DOCUMENT: u64 = 208 + 2 * 8;
/// The decoded state may not grow past what vectors sized from their
/// counts made it (8 130 800 B when that was measured).
const DECODED_CEILING: i64 = 8_130_800;

/// A hybrid app that has seen `beats` invocations at a seeded rhythm
/// inside the histogram's range, so its bins and its history are full.
fn app(cfg: &HybridConfig, i: usize) -> AppRecord {
    let mut p = cfg.new_policy();
    p.on_invocation(None);
    let period = 5 + (sitw_fleet::mix64(i as u64) % 200);
    let mut windows = p.on_invocation(Some(period * MINUTE_MS));
    for k in 0..70u64 {
        let jitter = sitw_fleet::mix64(i as u64 ^ (k << 32)) % 7;
        windows = p.on_invocation(Some((period + jitter) * MINUTE_MS));
    }
    AppRecord {
        app: format!("app-{i:06}"),
        last_ts: 1_000_000_000 + i as u64,
        windows,
        evicted: false,
        state: PolicyState::Hybrid(p.app().snapshot()),
    }
}

/// The default tenant and [`TENANTS`] named ones, [`APPS`] apps in all.
fn snapshot(cfg: &HybridConfig) -> Snapshot {
    let label = PolicySpec::Hybrid(cfg.clone()).label();
    let mut apps: Vec<AppRecord> = (0..APPS).map(|i| app(cfg, i)).collect();
    let per_tenant = APPS / (TENANTS as usize + 1);
    let tenants = (1..=TENANTS)
        .map(|id| TenantSnapshot {
            id,
            name: format!("t{id}"),
            policy_label: label.clone(),
            spec_str: Some("hybrid".into()),
            budget_mb: 0,
            prod_clock: None,
            ledger: LedgerExport::default(),
            apps: apps.split_off(apps.len() - per_tenant),
        })
        .collect();
    Snapshot {
        policy_label: label,
        prod_clock: None,
        apps,
        default_ledger: LedgerExport::default(),
        tenants,
    }
}

#[test]
fn load_restore_and_write_hold_no_whole_document() {
    let cfg = HybridConfig::default();
    let snap = snapshot(&cfg);
    let dir = std::env::temp_dir().join(format!("sitw-restore-mem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    snap.write_to(&path).unwrap();
    let doc = std::fs::metadata(&path).unwrap().len() as i64;

    // Loading: the peak minus the result.
    let before = live();
    let (loaded, peak) = peak_during(|| Snapshot::load(&path).unwrap());
    let load_excess = peak - live();
    let held = live() - before;
    assert_eq!(loaded, snap);
    drop(loaded);

    // Restoring a node: the peak minus what the started node holds.
    let ((server, peak), restore_allocs) = counted(|| {
        peak_during(|| {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                shards: 2,
                reactor_threads: 1,
                policy: PolicySpec::Hybrid(cfg.clone()),
                restore_path: Some(path.clone()),
                ..ServeConfig::default()
            })
            .unwrap()
        })
    });
    let start_excess = peak - live();
    let restored = server.shutdown().unwrap();
    assert_eq!(restored, snap);
    drop(restored);

    // Writing: the peak minus what was live before.
    let before = live();
    let ((), peak) = peak_during(|| snap.write_to(&path).unwrap());
    let write_excess = peak - before;
    std::fs::remove_dir_all(&dir).unwrap();

    // Decoding: one allocation for each app's name, bins and history,
    // each at exactly its length, plus the document's and each tenant's
    // own few (labels, names, app lists, the tenant lists).
    let text = snap.encode();
    let (decoded, decode_allocs) = counted(|| Snapshot::decode(&text).unwrap());
    assert_eq!(decoded, snap);
    let app_lists = std::iter::once(&decoded.apps).chain(decoded.tenants.iter().map(|t| &t.apps));
    for apps in app_lists {
        assert_eq!(apps.capacity(), apps.len(), "an app list");
        for rec in apps {
            let PolicyState::Hybrid(h) = &rec.state else {
                panic!("{} is not a hybrid app", rec.app);
            };
            assert_eq!(rec.app.capacity(), rec.app.len(), "{}'s name", rec.app);
            assert_eq!(h.bins.capacity(), h.bins.len(), "{}'s bins", rec.app);
            assert_eq!(
                h.history.capacity(),
                h.history.len(),
                "{}'s history",
                rec.app
            );
        }
    }
    drop((decoded, text));

    println!(
        "{APPS} apps, {doc} B document, {held} B decoded; beyond the state: \
         load {load_excess} B, restore {start_excess} B, write {write_excess} B \
         (ceiling {CEILING} B); decode {decode_allocs} allocations; restore \
         {restore_allocs} allocations ({:.2} per app)",
        restore_allocs as f64 / APPS as f64,
    );
    assert!(
        decode_allocs <= 3 * APPS as u64 + PER_TENANT * u64::from(TENANTS) + PER_DOCUMENT,
        "{decode_allocs} allocations decoding {APPS} apps"
    );
    assert!(
        restore_allocs
            <= RESTORE_PER_APP * APPS as u64
                + RESTORE_PER_SEGMENT * (APPS as u64).div_ceil(16)
                + RESTORE_PER_TENANT * u64::from(TENANTS)
                + RESTORE_PER_DOCUMENT,
        "{restore_allocs} allocations restoring {APPS} apps"
    );
    assert!(held <= DECODED_CEILING, "{held} B decoded");
    assert!(
        doc > CEILING,
        "the document must outgrow the ceiling to show anything"
    );
    for (what, excess) in [
        ("load", load_excess),
        ("restore", start_excess),
        ("write", write_excess),
    ] {
        assert!(excess <= CEILING, "{what} held {excess} B beyond the state");
    }
}
