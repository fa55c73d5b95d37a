//! The tenant decision kernel: one tenant's apps, policy state and
//! memory ledger behind one [`TenantState::step`].
//!
//! The serving daemon's shard workers and the offline [`crate::FleetSim`]
//! both call this step, so what they answer for an invocation is equal
//! by construction. The composition rule per invocation:
//!
//! 1. classify the idle gap through
//!    [`sitw_core::Windows::classify_gap`] (single source of truth);
//! 2. if the app's image was **evicted during the gap**, downgrade the
//!    verdict to cold (and suppress the phantom pre-warm load);
//! 3. advance the app's policy state under the tenant's one
//!    configuration (its [`PolicySpec`]) to get the next windows;
//! 4. charge the ledger: the app is warm until
//!    [`sitw_core::Windows::loaded_until`], holding its deterministic
//!    Burr footprint; any victims the budget forces out are marked
//!    evicted for *their* next invocation.
//!
//! An app is one row of the tenant's one table ([`TenantLedger`]): the
//! ledger's half (name, footprint, charge) and the kernel's
//! [`AppState`] — `last_ts`, windows, stamp, the last verdict and, for a
//! hybrid app, the [`HybridRow`] of histogram totals, cursors and
//! counters — 192 bytes in all. What does not fit a fixed row is in
//! storage the tenant keeps beside the table: a hybrid tenant's bins and
//! history rings in size classes (an app's nonzero bins as 8-byte
//! entries, or past 64 of them every bin's count; its idle times as
//! `u32` milliseconds), a production tenant's [`ProductionApp`]s in a
//! column of one per row. Nothing the spec holds is repeated per app. A
//! step makes **one probe by app name**, for that row (or a first
//! sight, which appends a row and its columns' entries), and then works
//! by index: the hybrid policy decides over the row and its bins and
//! history, and each victim is marked evicted inside the ledger's
//! eviction loop as its charge is released, never looked up again. A
//! production tenant adds only its backup clock, a
//! [`ProductionManager`]. A restore rebuilds a record's row and makes
//! its bins and history into the classes' form on any thread
//! ([`RestoredApp`]), and copies them in as it inserts it.
//!
//! Nothing outside this module composes those four. A change to the
//! step is therefore invisible to online == offline parity; it is held
//! by the differential proptest against the step it replaced
//! (`sim_ref.rs`, test-only) and the parent-captured goldens in
//! `sim.rs`.

use std::fmt;

use sitw_core::{
    DecisionKind, HybridApp, HybridRow, HybridSnapshot, PolicySpec, ProductionApp,
    ProductionAppState, ProductionManager, Windows,
};

use crate::footprint::footprint_mb;
use crate::ledger::{LedgerExport, TenantLedger, Victims};
use crate::registry::TenantSpec;
use crate::slab::{BinSlot, BinTable, Column, HybridLists, Name, Ring, Rings};

/// The verdict for one invocation — what the daemon answers and what
/// the offline replay predicts, one type so the two compare element by
/// element (`sitw_serve::Decision` is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetVerdict {
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load occurred in the gap ending here.
    pub prewarm_load: bool,
    /// The image was evicted for memory pressure during the gap: a
    /// would-be warm start was downgraded to cold (always false for
    /// unbudgeted tenants).
    pub evicted: bool,
    /// The policy branch that produced the windows.
    pub kind: DecisionKind,
    /// Windows governing the gap until the app's next invocation.
    pub windows: Windows,
}

/// What one accepted [`TenantState::step`] did. The borrows are the
/// tenant's own: victims stay in the ledger's buffer (a step allocates
/// nothing), and the spec rides along so a caller can name the tenant
/// in what it logs per victim while that buffer is still borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Served<'a> {
    /// The verdict for the invocation.
    pub verdict: FleetVerdict,
    /// The apps the charge evicted, in eviction order — already marked;
    /// possibly the invoked app itself, when its footprint cannot fit
    /// at all.
    pub victims: Victims<'a>,
    /// The tenant's configuration.
    pub tenant: &'a TenantSpec,
}

/// The timestamp is older than the app's last accepted one. Policy
/// state is a function of the ordered idle-time stream, so out-of-order
/// delivery is surfaced, not folded in; the rejected step changed
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The app's last accepted timestamp.
    pub last_ts: u64,
}

/// What one application's policy has learned, read in place: a view of
/// the app's row and of the tenant's columns. Configuration is not in
/// it: every decision reads that from the tenant's [`PolicySpec`].
#[derive(Debug, Clone, Copy)]
pub enum ServedPolicy<'a> {
    /// Fixed keep-alive or no-unloading: nothing to learn, the windows
    /// are the spec's.
    Stateless,
    /// The hybrid histogram policy.
    Hybrid(HybridApp<'a>),
    /// The production scheme (§6).
    Production {
        /// The branch that produced the most recent decision.
        last: DecisionKind,
        /// The app's retained daily histograms and cached aggregate.
        app: &'a ProductionApp,
    },
}

/// Serializable policy state of one application.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyState {
    /// The policy keeps no per-app state beyond the windows themselves
    /// (fixed keep-alive, no-unloading).
    Stateless,
    /// Full hybrid-policy state.
    Hybrid(HybridSnapshot),
    /// Production-manager state: the app's retained daily histograms.
    Production {
        /// The branch that served the app's most recent decision.
        last: DecisionKind,
        /// The retained daily histograms, oldest first.
        state: ProductionAppState,
    },
}

/// What a restored app brings to the tenant's storage beside its row:
/// a hybrid app's bins and history in the classes' form (copied in,
/// then dropped), a production app's state.
#[derive(Debug)]
enum Learned {
    Stateless,
    Hybrid(HybridLists),
    Production(ProductionApp),
}

impl PolicyState {
    /// Rebuilds an app's policy state under `spec` into `row`: the
    /// fixed-size part goes in the row, the rest is returned for the
    /// columns.
    ///
    /// # Errors
    ///
    /// Fails when the state variant does not match the spec (e.g. a
    /// hybrid snapshot restored into a fixed-keep-alive server) or the
    /// spec's configuration refuses it (histogram geometry, day order).
    fn learned(self, spec: &PolicySpec, row: &mut AppState) -> Result<Learned, String> {
        match (self, spec) {
            (PolicyState::Stateless, PolicySpec::Fixed(_) | PolicySpec::NoUnloading) => {
                Ok(Learned::Stateless)
            }
            (PolicyState::Hybrid(snap), PolicySpec::Hybrid(cfg)) => {
                snap.check(cfg)?;
                let HybridSnapshot {
                    bins,
                    oob_count,
                    history,
                    counts,
                    last_decision,
                } = snap;
                let (lists, hybrid) = HybridLists::new(bins, history, |bins| {
                    HybridRow::restore(cfg, &bins, oob_count, counts)
                });
                row.hybrid = hybrid;
                row.kind = last_decision;
                Ok(Learned::Hybrid(lists))
            }
            (PolicyState::Production { last, state }, PolicySpec::Production(cfg)) => {
                row.kind = last;
                Ok(Learned::Production(ProductionApp::import(cfg, state)?))
            }
            (state, spec) => Err(format!(
                "snapshot state {:?} does not match policy '{}'",
                match state {
                    PolicyState::Stateless => "stateless",
                    PolicyState::Hybrid(_) => "hybrid",
                    PolicyState::Production { .. } => "production",
                },
                spec.label()
            )),
        }
    }
}

/// One application's complete serving state, as snapshots and
/// replication rounds carry it.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRecord {
    /// Application id.
    pub app: String,
    /// Last accepted invocation timestamp.
    pub last_ts: u64,
    /// Windows governing the gap in progress.
    pub windows: Windows,
    /// The image was evicted for memory pressure during the gap in
    /// progress (the next invocation is downgraded to cold).
    pub evicted: bool,
    /// Policy-internal state.
    pub state: PolicyState,
}

/// Everything [`TenantState::restore`] rebuilds one tenant from: its
/// spec plus the app records and ledger slice routed to it.
pub struct TenantRestore {
    /// The tenant's configuration.
    pub spec: TenantSpec,
    /// The tenant's app records.
    pub apps: Vec<AppRecord>,
    /// The tenant's ledger (or this shard's slice of it).
    pub ledger: LedgerExport,
    /// Production backup clock, when the tenant serves production mode.
    pub prod_clock: Option<u64>,
}

impl TenantRestore {
    /// An empty-state restore for `spec`.
    pub fn fresh(spec: TenantSpec) -> TenantRestore {
        TenantRestore {
            spec,
            apps: Vec::new(),
            ledger: LedgerExport::default(),
            prod_clock: None,
        }
    }
}

/// One app record rebuilt under its tenant's spec — its name,
/// footprint, row and what goes beside it — before it meets the
/// tenant's table: the part of a restore that reads no table (the
/// histogram totals and cursor walks, and making the bins into sparse
/// entries and the history into milliseconds, in the record's own
/// blocks), so a restore can make it on any thread and insert it
/// ([`TenantState::insert_app`]) in order. The insert copies the bins
/// and history into the table's classes and hands the record's blocks
/// back ([`SpentRecord`]).
#[derive(Debug)]
pub struct RestoredApp {
    name: Name,
    mb: u64,
    /// The refusal, when the record does not belong under the spec.
    state: Result<(AppState, Learned), RestoreError>,
}

impl RestoredApp {
    /// Rebuilds `rec` under `spec`, stamped `stamp`.
    pub fn new(spec: &TenantSpec, rec: AppRecord, stamp: u64) -> RestoredApp {
        let mut row = AppState::new(rec.last_ts, stamp);
        row.windows = rec.windows;
        row.set_flag(EVICTED, rec.evicted);
        let state = rec
            .state
            .learned(&spec.policy, &mut row)
            .map(|learned| (row, learned));
        RestoredApp {
            mb: footprint_mb(&spec.name, &rec.app),
            name: Name::from_string(rec.app),
            state: state.map_err(RestoreError::Record),
        }
    }
}

/// What is left of a [`RestoredApp`] once [`TenantState::insert_app`]
/// has copied its bins and history into the table's classes: their
/// blocks, to drop.
#[derive(Debug)]
pub struct SpentRecord {
    /// Held only to be dropped.
    _lists: Option<(Vec<u32>, Vec<f64>)>,
}

/// One served verdict with the inputs that produced it, kept per app
/// for decision provenance (its timestamp is the app's `last_ts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastVerdict {
    /// The idle time classified (`None` for the app's first sight).
    pub idle_ms: Option<u64>,
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load occurred in the gap.
    pub prewarm_load: bool,
    /// The verdict was an eviction downgrade.
    pub evicted: bool,
    /// The branch that produced the next windows.
    pub kind: DecisionKind,
}

/// [`AppState::flags`] bits.
const EVICTED: u8 = 1;
const VERDICT: u8 = 1 << 1;
const VERDICT_IDLE: u8 = 1 << 2;
const VERDICT_COLD: u8 = 1 << 3;
const VERDICT_PREWARM: u8 = 1 << 4;
const VERDICT_EVICTED: u8 = 1 << 5;

/// The kernel's half of an app's row: what [`TenantState::step`] reads
/// and writes per app, packed into 136 bytes beside the ledger's half
/// (name, footprint, charge) in the same table row. A hybrid app's bins
/// and history are in the tenant's classes, a production app's state in
/// a column of its own; nothing the spec holds is repeated here.
/// Callers see it read-only, through [`TenantState::app`].
#[derive(Debug, Clone)]
pub struct AppState {
    last_ts: u64,
    windows: Windows,
    stamp: u64,
    /// The last verdict's idle time, when [`VERDICT_IDLE`] is set.
    idle_ms: u64,
    /// A hybrid app's totals, cursors and counters.
    hybrid: HybridRow,
    /// Where a hybrid app's history lives in the tenant's rings.
    ring: Ring,
    /// Where a hybrid app's bins live in the tenant's bins.
    bins: BinSlot,
    /// [`EVICTED`] and the last verdict's `VERDICT_*` bits.
    flags: u8,
    /// The branch of the last decision: the last verdict's, or for an
    /// app restored since, its record's.
    kind: DecisionKind,
}

impl AppState {
    /// The row of an app first seen (or restored) at `ts`.
    fn new(last_ts: u64, stamp: u64) -> AppState {
        AppState {
            last_ts,
            // The placeholder windows are replaced by the first step.
            windows: Windows::keep_loaded(0),
            stamp,
            idle_ms: 0,
            hybrid: HybridRow::default(),
            ring: Ring::default(),
            bins: BinSlot::default(),
            flags: 0,
            // Overwritten by the decision that follows.
            kind: DecisionKind::StandardKeepAlive,
        }
    }

    fn set_flag(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// Last accepted invocation timestamp.
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    /// Windows governing the gap in progress.
    pub fn windows(&self) -> Windows {
        self.windows
    }

    /// The image was evicted for memory pressure during the gap in
    /// progress; the next invocation is downgraded to cold.
    pub fn evicted(&self) -> bool {
        self.flags & EVICTED != 0
    }

    /// The stamp of the step (or restore) that last changed this record:
    /// its own invocation, or the one whose charge evicted it. The
    /// daemon passes its mutation sequence, so a replication round
    /// exports exactly the records stamped past the follower's
    /// frontier; the simulator passes 0.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The most recent verdict served plus its inputs (`None` only for
    /// restored apps that have not been invoked since).
    pub fn last_verdict(&self) -> Option<LastVerdict> {
        let on = |flag| self.flags & flag != 0;
        on(VERDICT).then(|| LastVerdict {
            idle_ms: on(VERDICT_IDLE).then_some(self.idle_ms),
            cold: on(VERDICT_COLD),
            prewarm_load: on(VERDICT_PREWARM),
            evicted: on(VERDICT_EVICTED),
            kind: self.kind,
        })
    }

    /// Records `v` as the last verdict.
    fn set_last_verdict(&mut self, v: LastVerdict) {
        let bit = |on: bool, flag: u8| if on { flag } else { 0 };
        self.flags = self.flags & EVICTED
            | VERDICT
            | bit(v.idle_ms.is_some(), VERDICT_IDLE)
            | bit(v.cold, VERDICT_COLD)
            | bit(v.prewarm_load, VERDICT_PREWARM)
            | bit(v.evicted, VERDICT_EVICTED);
        self.idle_ms = v.idle_ms.unwrap_or(0);
        self.kind = v.kind;
    }
}

/// One app's row as a reader sees it: its [`AppState`] and what its
/// policy has learned.
#[derive(Debug, Clone, Copy)]
pub struct AppView<'a> {
    /// The app's row.
    pub state: &'a AppState,
    /// What the app's policy has learned.
    pub policy: ServedPolicy<'a>,
}

/// Why [`TenantState::restore`] refused a payload: it does not
/// describe one table of apps the step could serve. Nothing is
/// installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A record does not belong under the tenant's policy, its state
    /// does not fit the policy's configuration, or it names an app
    /// twice.
    Record(String),
    /// A ledger charge no record holds: an app with no record, or an MB
    /// other than the app's footprint.
    Charge {
        /// The charged app.
        app: String,
        /// The charged MB.
        mb: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Record(e) => f.write_str(e),
            RestoreError::Charge { app, mb } => write!(
                f,
                "ledger charges app '{app}' {mb} MB, which is not a recorded app's footprint"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// What a tenant's table keeps beside the rows for its policy: a hybrid
/// tenant's bins and history rings, each in size classes of
/// [`crate::slab`]'s one mechanism, where an app seen once holds
/// nothing; a production tenant's app states, a column of one per row.
#[derive(Debug)]
enum Columns {
    Stateless,
    Hybrid(Box<HybridColumns>),
    Production(Column<ProductionApp>),
}

/// A hybrid tenant's bins and history rings (boxed: a tenant of another
/// policy keeps no room for them).
#[derive(Debug)]
struct HybridColumns {
    bins: BinTable,
    history: Rings,
}

impl Columns {
    fn new(spec: &PolicySpec) -> Columns {
        match spec {
            PolicySpec::Fixed(_) | PolicySpec::NoUnloading => Columns::Stateless,
            PolicySpec::Hybrid(cfg) => {
                let (bins, _, cap) = cfg.state_key();
                Columns::Hybrid(Box::new(HybridColumns {
                    bins: BinTable::new(bins),
                    history: Rings::new(cap),
                }))
            }
            PolicySpec::Production(_) => Columns::Production(Column::new(1)),
        }
    }

    /// The columns' entries of an app seen for the first time. What they
    /// allocate is allocated here, where the row is created, so that no
    /// decision body does: a production app's buffers, and a segment when
    /// its column opens one. A hybrid app holds nothing yet; its first
    /// idle time takes a spot in the smallest class of its bins and of
    /// its history.
    fn push_fresh(&mut self, spec: &PolicySpec) {
        if let (Columns::Production(apps), PolicySpec::Production(cfg)) = (self, spec) {
            apps.push(ProductionApp::new(cfg));
        }
    }

    /// The columns' entries of a restored app in row `slot`, whose row is
    /// `row`, and what is left of the app.
    fn push_learned(&mut self, learned: Learned, slot: usize, row: &mut AppState) -> SpentRecord {
        match (self, learned) {
            (Columns::Hybrid(h), Learned::Hybrid(mut lists)) => {
                let HybridColumns { bins, history } = &mut **h;
                row.bins = bins.restore(slot, &lists);
                let (codes, escaped) = lists.history();
                row.ring = history.restore(slot, codes, escaped);
                SpentRecord {
                    _lists: Some(lists.into_blocks()),
                }
            }
            (Columns::Production(apps), Learned::Production(app)) => {
                apps.push(app);
                SpentRecord { _lists: None }
            }
            (Columns::Stateless, Learned::Stateless) => SpentRecord { _lists: None },
            _ => unreachable!("checked by `fits`"),
        }
    }

    /// Whether `learned` goes in these columns: made under a spec of
    /// this kind and geometry.
    fn fits(&self, learned: &Learned) -> bool {
        match (self, learned) {
            (Columns::Hybrid(h), Learned::Hybrid(lists)) => {
                h.bins.num_bins() == lists.num_bins() && lists.codes().len() <= h.history.cap()
            }
            (Columns::Production(_), Learned::Production(_))
            | (Columns::Stateless, Learned::Stateless) => true,
            _ => false,
        }
    }

    /// Makes room in the segment list for `apps` more apps (size
    /// classes grow as their apps arrive).
    fn reserve(&mut self, apps: usize) {
        if let Columns::Production(column) = self {
            column.reserve(apps);
        }
    }

    /// What the app in row `slot`, whose row is `state`, has learned.
    fn policy<'a>(&'a self, slot: usize, state: &'a AppState) -> ServedPolicy<'a> {
        match self {
            Columns::Stateless => ServedPolicy::Stateless,
            Columns::Hybrid(h) => ServedPolicy::Hybrid(HybridApp::new(
                &state.hybrid,
                state.kind,
                h.bins.view(&state.bins),
                h.history.view(&state.ring, slot),
            )),
            Columns::Production(apps) => ServedPolicy::Production {
                last: state.kind,
                app: apps.get(slot),
            },
        }
    }
}

/// One tenant's complete decision state: its spec, the app table with
/// the columns its policy needs and, when the tenant's policy is
/// [`PolicySpec::Production`], the backup clock.
pub struct TenantState {
    spec: TenantSpec,
    table: TenantLedger<AppState>,
    columns: Columns,
    /// `Some` iff `spec.policy` is [`PolicySpec::Production`]: the
    /// tenant's backup clock. It holds no app.
    production: Option<ProductionManager>,
}

impl TenantState {
    /// Empty state for `spec`.
    pub fn new(spec: TenantSpec) -> TenantState {
        TenantState {
            production: match &spec.policy {
                PolicySpec::Production(cfg) => Some(ProductionManager::new(*cfg)),
                _ => None,
            },
            table: TenantLedger::empty(spec.budget_mb),
            columns: Columns::new(&spec.policy),
            spec,
        }
    }

    /// Rebuilds a tenant from a restore payload — a snapshot, a promoted
    /// replica, any caller holding a tenant's records at once — stamping
    /// every record `stamp`: [`TenantState::new`], [`TenantState::reserve`],
    /// [`TenantState::restore_app`] per record in order, then
    /// [`TenantState::restore_ledger`].
    ///
    /// # Errors
    ///
    /// This is where state enters, so this is where a payload the step
    /// could not serve is refused: a record that does not belong under
    /// the tenant's policy (production state into a non-production
    /// tenant, stateless or hybrid state into a production tenant,
    /// hybrid state under a fixed policy, bins or days the tenant's
    /// configuration refuses), two records of one app, and a ledger
    /// charge for an app with no record or for an MB that is not the
    /// app's footprint.
    /// [`TenantState::step`] never meets one.
    pub fn restore(restore: TenantRestore, stamp: u64) -> Result<TenantState, RestoreError> {
        let mut tenant = Self::new(restore.spec);
        tenant.reserve(restore.apps.len());
        for rec in restore.apps {
            tenant.restore_app(rec, stamp)?;
        }
        tenant.restore_ledger(restore.ledger, restore.prod_clock)?;
        Ok(tenant)
    }

    /// Makes room for `apps` more apps before the table grows: a
    /// restore whose records arrive one at a time presizes with the
    /// count its document declares (the daemon's restore builds each
    /// tenant this way, on the thread of the shard that owns it). The
    /// name index, the expiry heap and the segment lists are sized; the
    /// segments open as rows arrive.
    pub fn reserve(&mut self, apps: usize) {
        self.table.reserve(apps);
        self.columns.reserve(apps);
    }

    /// Adds one restored app to the table, stamped `stamp`:
    /// [`RestoredApp::new`] under this tenant's spec, then
    /// [`TenantState::insert_app`].
    ///
    /// # Errors
    ///
    /// [`RestoreError::Record`] for a record [`TenantState::restore`]
    /// refuses; nothing is added.
    pub fn restore_app(&mut self, rec: AppRecord, stamp: u64) -> Result<(), RestoreError> {
        let app = RestoredApp::new(&self.spec, rec, stamp);
        self.insert_app(app).map(drop)
    }

    /// Adds an app [`RestoredApp::new`] made under this tenant's spec to
    /// the table, hashing its name once, and copies its bins and history
    /// into the columns. Returns what is left of the record — the
    /// blocks of its lists — for the caller to drop where it holds no
    /// lock: freeing them costs more than copying them when another
    /// thread allocated them.
    ///
    /// # Errors
    ///
    /// The table holds the app already, or the record did not belong
    /// under the spec; nothing is added. (A record that is both is
    /// refused as the second.)
    pub fn insert_app(&mut self, app: RestoredApp) -> Result<SpentRecord, RestoreError> {
        let RestoredApp { name, mb, state } = app;
        let mut learned = None;
        let columns = &self.columns;
        let inserted = self.table.insert_new(name, || {
            let (row, made) = state?;
            if !columns.fits(&made) {
                return Err(RestoreError::Record(
                    "a record rebuilt under another policy".into(),
                ));
            }
            learned = Some(made);
            Ok((mb, row))
        })?;
        match (inserted, learned) {
            (Ok(slot), Some(learned)) => {
                let row = &mut self.table.row_mut(slot).app;
                Ok(self.columns.push_learned(learned, slot, row))
            }
            (Err(name), _) => Err(RestoreError::Record(format!(
                "app '{}' has two records",
                name.as_str()
            ))),
            (Ok(_), None) => unreachable!("a row is made with its columns' entries"),
        }
    }

    /// Ends a restore: sets the backup clock (production tenants) and
    /// loads the ledger over the apps restored so far.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Charge`] for a ledger charge no restored app
    /// holds.
    pub fn restore_ledger(
        &mut self,
        ledger: LedgerExport,
        prod_clock: Option<u64>,
    ) -> Result<(), RestoreError> {
        if let (Some(manager), Some(at_ms)) = (&mut self.production, prod_clock) {
            manager.set_last_backup_ms(at_ms);
        }
        self.table.load(ledger, |table, app, mb| {
            let slot = table.slot_of(app).filter(|&slot| table.row(slot).mb == mb);
            slot.ok_or_else(|| RestoreError::Charge {
                app: app.into(),
                mb,
            })
        })
    }

    /// Classifies one invocation and advances the tenant. `stamp` is
    /// written into every record the step changes — the app's own and
    /// each victim's. A rejected step changes nothing.
    // sitw-lint: hot-path
    pub fn step(&mut self, app: &str, ts: u64, stamp: u64) -> Result<Served<'_>, OutOfOrder> {
        let (slot, idle) = match self.table.slot_of(app) {
            Some(slot) => {
                let last_ts = self.table.row(slot).app.last_ts;
                if ts < last_ts {
                    return Err(OutOfOrder { last_ts });
                }
                (slot, Some(ts - last_ts))
            }
            // First invocation of this app: no idle time, so cold by
            // definition (§5.1).
            None => {
                let mb = footprint_mb(&self.spec.name, app);
                let slot = self.table.insert(app, mb, AppState::new(ts, stamp));
                self.columns.push_fresh(&self.spec.policy);
                (slot, None)
            }
        };
        let row = self.table.row_mut(slot);
        let state = &mut row.app;
        let gap = idle.map(|idle| state.windows.classify_gap(idle));
        // The memory-pressure downgrade: a gap the policy would have
        // served warm is cold when the budget evicted the image mid-gap
        // (and the phantom pre-warm load with it). Cleared before the
        // charge, which may set it again.
        let was_evicted = state.evicted();
        state.set_flag(EVICTED, false);
        if let Some(clock) = &mut self.production {
            clock.tick_backup(ts);
        }
        let ((windows, kind), [bins_moved, ring_moved]) =
            advance(&self.spec.policy, &mut self.columns, slot, state, ts, idle);
        let verdict = FleetVerdict {
            cold: gap.is_none_or(|g| g.cold) || was_evicted,
            prewarm_load: gap.is_some_and(|g| g.prewarm_load) && !was_evicted,
            evicted: was_evicted,
            kind,
            windows,
        };
        state.windows = windows;
        state.last_ts = ts;
        state.set_last_verdict(LastVerdict {
            idle_ms: idle,
            cold: verdict.cold,
            prewarm_load: verdict.prewarm_load,
            evicted: was_evicted,
            kind,
        });
        state.stamp = stamp;

        // Charge the ledger: the app is warm until its windows lapse,
        // holding its footprint. Budget overflows evict by earliest
        // expiry — possibly the just-charged app itself — and each
        // victim is marked as the eviction loop releases it.
        let expiry = verdict.windows.loaded_until(ts);
        let mb = row.mb;
        // The app's bins or history moved up a class, and another app's
        // took its old spot.
        if let Some((owner, spot)) = bins_moved {
            self.table.row_mut(owner).app.bins.moved_to(spot);
        }
        if let Some((owner, spot)) = ring_moved {
            self.table.row_mut(owner).app.ring.moved_to(spot);
        }
        let victims = self.table.charge_slot(slot, ts, expiry, mb, |victim| {
            victim.set_flag(EVICTED, true);
            victim.stamp = stamp;
        });
        Ok(Served {
            verdict,
            victims,
            tenant: &self.spec,
        })
    }

    /// The tenant's configuration.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Replaces the memory budget (0 = unlimited). Enforcement is lazy —
    /// the new budget bites on the *next* charge — so a budget set
    /// mid-stream never rewrites verdicts retroactively.
    pub fn set_budget(&mut self, budget_mb: u64) {
        self.spec.budget_mb = budget_mb;
        self.table.set_budget(budget_mb);
    }

    /// The tenant's app table, as its memory ledger.
    pub fn ledger(&self) -> &TenantLedger<AppState> {
        &self.table
    }

    /// The tenant's backup clock (`Some` iff it serves
    /// [`PolicySpec::Production`]) and its §6 counters.
    pub fn production(&self) -> Option<&ProductionManager> {
        self.production.as_ref()
    }

    /// Number of apps the tenant has state for.
    pub fn num_apps(&self) -> usize {
        self.table.len()
    }

    /// One app's row and what its policy has learned, if the tenant has
    /// seen it.
    pub fn app(&self, app: &str) -> Option<AppView<'_>> {
        let slot = self.table.slot_of(app)?;
        let state = &self.table.row(slot).app;
        Some(AppView {
            state,
            policy: self.columns.policy(slot, state),
        })
    }

    /// Exports the records `keep` selects, sorted by app id — everything
    /// for a snapshot, the records stamped past a frontier for a round.
    pub fn export_apps(&self, keep: impl Fn(&AppState) -> bool) -> Vec<AppRecord> {
        let mut apps: Vec<AppRecord> = self
            .table
            .rows()
            .enumerate()
            .filter(|(_, row)| keep(&row.app))
            .map(|(slot, row)| AppRecord {
                app: String::from(row.name.as_str()),
                last_ts: row.app.last_ts,
                windows: row.app.windows,
                evicted: row.app.evicted(),
                state: match self.columns.policy(slot, &row.app) {
                    ServedPolicy::Stateless => PolicyState::Stateless,
                    ServedPolicy::Hybrid(h) => PolicyState::Hybrid(h.snapshot()),
                    ServedPolicy::Production { last, app } => PolicyState::Production {
                        last,
                        state: app.export(),
                    },
                },
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        apps
    }
}

/// A row whose bins or history moved to make room, with its new spot.
type Moved = Option<(usize, u32)>;

/// Advances one app's policy state — its row `state` and what row `slot`
/// holds beside it — under the tenant's spec: the windows governing its
/// next gap and the branch that produced them, and the rows whose bins
/// and whose history ring moved to make room, with their new spots.
// sitw-lint: hot-path
fn advance(
    spec: &PolicySpec,
    columns: &mut Columns,
    slot: usize,
    state: &mut AppState,
    ts: u64,
    idle: Option<u64>,
) -> ((Windows, DecisionKind), [Moved; 2]) {
    let decided = match (columns, spec) {
        (Columns::Stateless, PolicySpec::Fixed(f)) => {
            (Windows::keep_loaded(f.keep_alive_ms), DecisionKind::Static)
        }
        (Columns::Stateless, PolicySpec::NoUnloading) => {
            (Windows::NEVER_UNLOAD, DecisionKind::Static)
        }
        (Columns::Hybrid(h), PolicySpec::Hybrid(cfg)) => {
            let HybridColumns { bins, history } = &mut **h;
            let mut bins = bins.bins(&mut state.bins, slot);
            let mut history = history.history(&mut state.ring, slot);
            let decided = state
                .hybrid
                .on_invocation(cfg, &mut bins, &mut history, idle);
            return (decided, [bins.moved(), history.moved()]);
        }
        (Columns::Production(apps), PolicySpec::Production(cfg)) => {
            apps.get_mut(slot).on_invocation(cfg, ts, idle)
        }
        // Columns their spec did not build: `TenantState::new` never
        // makes any. Nothing to consult keeps nothing warm.
        _ => (Windows::keep_loaded(0), DecisionKind::Static),
    };
    (decided, [None; 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sitw_core::MINUTE_MS;

    fn spec(policy: &str, budget_mb: u64) -> TenantSpec {
        TenantSpec {
            id: 1,
            name: "t".into(),
            policy: PolicySpec::parse(policy).unwrap(),
            budget_mb,
        }
    }

    /// Everything a snapshot of the tenant would carry, as text: equal
    /// strings are byte-equal exports.
    fn export(t: &TenantState) -> String {
        format!(
            "{:?} {:?} {:?}",
            t.export_apps(|_| true),
            t.ledger().export(),
            t.production().map(|m| m.last_backup_ms()),
        )
    }

    #[test]
    fn an_app_row_stays_192_bytes() {
        // Every app has one, so its size is in every per-app ceiling:
        // the ledger's name, footprint and charge (56 B) and the kernel's
        // 136 B: the hybrid row's 72, the 12-byte ring header and the
        // 8-byte bins header among them. The bins and history are in the
        // size classes.
        use std::mem::size_of;
        assert_eq!(size_of::<HybridRow>(), 72);
        assert_eq!(size_of::<AppState>(), 136);
        assert_eq!(size_of::<crate::ledger::Row<AppState>>(), 192);
    }

    #[test]
    fn a_rejected_step_changes_nothing() {
        for policy in ["fixed:10", "hybrid", "production"] {
            // A budget two of the three apps fit under: steps evict.
            let budget = footprint_mb("t", "a") + footprint_mb("t", "b");
            let mut live = TenantState::new(spec(policy, budget));
            let mut twin = TenantState::new(spec(policy, budget));
            let mut ts = 0;
            for i in 0..90u64 {
                ts += 7 * MINUTE_MS + i % 3 * 20_000;
                let app = ["a", "b", "c"][(i % 3) as usize];
                let got = live.step(app, ts, i).map(|s| s.verdict);
                assert_eq!(got, twin.step(app, ts, i).map(|s| s.verdict));
            }
            // Only `live` sees the late timestamps — two days late for
            // the production clock to notice, had it been consulted.
            let before = export(&live);
            for app in ["a", "b", "c"] {
                let last_ts = live.app(app).unwrap().state.last_ts();
                assert_eq!(
                    live.step(app, last_ts - 1, 1_000).map(|s| s.verdict),
                    Err(OutOfOrder { last_ts })
                );
                assert!(live.step(app, 0, 1_000).is_err());
                assert_eq!(export(&live), before, "{policy}: rejection left a trace");
                assert!(live.app(app).unwrap().state.stamp() < 1_000);
            }
            // And the next in-order steps answer as if it never came.
            for i in 0..30u64 {
                ts += 2_900 * MINUTE_MS * (i % 2) + 9 * MINUTE_MS;
                let app = ["c", "a", "b"][(i % 3) as usize];
                let got = live.step(app, ts, 2_000).map(|s| s.verdict);
                assert_eq!(
                    got,
                    twin.step(app, ts, 2_000).map(|s| s.verdict),
                    "{policy}"
                );
            }
            assert_eq!(export(&live), export(&twin));
        }
    }

    #[test]
    fn production_steps_tick_the_tenant_backup_clock() {
        // The clock is the tenant's, not an app's: two apps, one clock.
        let mut t = TenantState::new(spec("production", 0));
        t.step("a", 2 * 3_600_000 + 5, 0).unwrap();
        t.step("b", 5 * 3_600_000 + 5, 1).unwrap();
        let clock = t.production().unwrap();
        assert_eq!(clock.backups_taken(), 5);
        assert_eq!(clock.last_backup_ms(), 5 * 3_600_000);
        assert!(TenantState::new(spec("hybrid", 0)).production().is_none());
    }

    #[test]
    fn restore_refuses_records_the_step_could_not_serve() {
        let record = |state: PolicyState| AppRecord {
            app: "a".into(),
            last_ts: 5,
            windows: Windows::keep_loaded(600_000),
            evicted: false,
            state,
        };
        let production = PolicyState::Production {
            last: DecisionKind::Histogram,
            state: ProductionAppState::default(),
        };
        for (policy, state) in [
            ("hybrid", production.clone()),
            ("fixed:10", production.clone()),
            ("production", PolicyState::Stateless),
            ("fixed:10", {
                let mut t = TenantState::new(spec("hybrid", 0));
                t.step("a", 0, 0).unwrap();
                t.export_apps(|_| true).remove(0).state
            }),
        ] {
            let restore = TenantRestore {
                apps: vec![record(state)],
                ..TenantRestore::fresh(spec(policy, 0))
            };
            assert!(TenantState::restore(restore, 0).is_err(), "{policy}");
        }
        // The matching pairings restore, stamped as asked.
        let restore = TenantRestore {
            apps: vec![record(production)],
            ..TenantRestore::fresh(spec("production", 0))
        };
        let t = TenantState::restore(restore, 7).unwrap();
        assert_eq!(t.app("a").unwrap().state.stamp(), 7);
        assert!(t.app("a").unwrap().state.last_verdict().is_none());
    }

    /// The tenant's full state as a restore payload.
    fn payload(t: &TenantState) -> TenantRestore {
        TenantRestore {
            spec: t.spec().clone(),
            apps: t.export_apps(|_| true),
            ledger: t.ledger().export(),
            prod_clock: t.production().map(|m| m.last_backup_ms()),
        }
    }

    #[test]
    fn restore_refuses_a_ledger_that_is_not_the_records_charges() {
        // Three apps under a budget that holds two: one is evicted.
        let budget = footprint_mb("t", "a") + footprint_mb("t", "b");
        let mut t = TenantState::new(spec("hybrid", budget));
        for (i, app) in ["a", "b", "c"].into_iter().enumerate() {
            t.step(app, i as u64 * 1_000, 0).unwrap();
        }
        assert!(t.ledger().stats().evictions > 0);
        let edited = |edit: fn(&mut TenantRestore)| {
            let mut restore = payload(&t);
            edit(&mut restore);
            TenantState::restore(restore, 0).map(|_| ()).unwrap_err()
        };
        // A charge for an app with no record: it would count toward
        // `warm_mb` and evict real apps, and its own eviction would mark
        // nothing.
        let phantom = edited(|r| r.ledger.warm.push(("ghost".into(), 9_000, 10)));
        let charge = |app: &str, mb| RestoreError::Charge {
            app: app.into(),
            mb,
        };
        assert_eq!(phantom, charge("ghost", 10));
        // A charge of an MB that is not the app's footprint.
        let resized = edited(|r| r.ledger.warm[0].2 += 1);
        let (app, mb) = (
            payload(&t).ledger.warm[0].0.clone(),
            payload(&t).ledger.warm[0].2,
        );
        assert_eq!(resized, charge(&app, mb + 1));
        // Two records of one app.
        let twice = edited(|r| r.apps.push(r.apps[0].clone()));
        assert_eq!(
            twice,
            RestoreError::Record("app 'a' has two records".into())
        );
        // The payload as exported restores.
        assert!(TenantState::restore(payload(&t), 0).is_ok());
    }

    /// All four [`PolicySpec`] kinds.
    const POLICIES: [&str; 4] = ["fixed:10", "no-unloading", "hybrid", "production"];
    /// Budgets in MB: unlimited, one almost no footprint fits under (the
    /// just-charged app is then its own victim), and three that bite
    /// harder or softer.
    const BUDGETS_MB: [u64; 5] = [0, 20, 150, 400, 1_200];
    /// Per-app rhythms: ones the hybrid histogram learns, one past its
    /// 4 h range (out of bounds, ARIMA), one longer than a day.
    const PERIODS_MS: [u64; 6] = [
        2 * MINUTE_MS,
        5 * MINUTE_MS,
        10 * MINUTE_MS,
        45 * MINUTE_MS,
        300 * MINUTE_MS,
        1_800 * MINUTE_MS,
    ];
    const JUMPS_MS: [u64; 3] = [360 * MINUTE_MS, 1_560 * MINUTE_MS, 4_400 * MINUTE_MS];

    proptest! {
        /// A tenant exported and restored into a fresh [`TenantState`]
        /// at random points continues exactly like one that never was:
        /// after every step the verdict or rejection, the victim list
        /// and the full export (records, ledger, production clock) are
        /// equal. Streams are `kernel_step_equals_the_inline_reference`'s
        /// for one tenant: every policy kind, budgets down to one no
        /// footprint fits, rhythmic apps with exact ties, late
        /// timestamps and jumps of hours to days.
        #[test]
        fn export_restore_continue_equals_uninterrupted(
            policy in 0usize..POLICIES.len(),
            budget in 0usize..BUDGETS_MB.len(),
            apps in 3usize..=8,
            seed in 0u64..u64::MAX,
            words in prop::collection::vec(0u64..u64::MAX, 200..900),
        ) {
            let spec = spec(POLICIES[policy], BUDGETS_MB[budget]);
            let names: Vec<String> = (0..apps).map(|i| format!("app-{i}")).collect();
            let mix = |salt: u64| crate::mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let period = |a: usize| PERIODS_MS[(mix(100 + a as u64) % PERIODS_MS.len() as u64) as usize];
            let mut due: Vec<u64> = (0..apps).map(|a| mix(a as u64) % period(a)).collect();
            let mut last: Vec<Option<u64>> = vec![None; apps];
            let mut live = TenantState::new(spec.clone());
            let mut restored = TenantState::new(spec);
            let mut restores = 0;
            for (step, &w) in words.iter().enumerate() {
                let field = |salt: u64| crate::mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                if field(7) % 16 == 0 {
                    restored = TenantState::restore(payload(&restored), step as u64)
                        .map_err(|e| format!("step {step}: {e}"))?;
                    restores += 1;
                }
                let ra = (field(3) % apps as u64) as usize;
                let (a, ts) = match field(1) % 64 {
                    // Late: before the app's last accepted timestamp.
                    1..=3 => (ra, last[ra].map_or(0, |l| l.saturating_sub(1 + field(4) % 100_000))),
                    // An exact tie with the last accepted timestamp.
                    4..=6 => (ra, last[ra].unwrap_or(due[ra])),
                    // Hours to days pass.
                    7 => {
                        let jump = JUMPS_MS[(field(4) % 3) as usize];
                        due.iter_mut().for_each(|d| *d += jump);
                        continue;
                    }
                    // Whichever app is due first, mostly on the beat.
                    _ => {
                        let a = (0..apps).min_by_key(|&a| due[a]).expect("apps");
                        let ts = due[a];
                        let p = period(a);
                        due[a] = ts + if field(5) % 16 == 0 { 0 } else { p + field(6) % (p / 16) };
                        (a, ts)
                    }
                };
                let step_stamp = step as u64;
                let got = restored.step(&names[a], ts, step_stamp).map(|s| (s.verdict, s.victims.to_vec()));
                let want = live.step(&names[a], ts, step_stamp).map(|s| (s.verdict, s.victims.to_vec()));
                prop_assert!(got == want, "step {step}: ({a}, {ts}) gave {got:?}, want {want:?}");
                if want.is_ok() {
                    last[a] = Some(ts);
                    due[a] = due[a].max(ts);
                }
                let full = |t: &TenantState| {
                    let p = payload(t);
                    (p.apps, p.ledger, p.prod_clock)
                };
                prop_assert!(full(&restored) == full(&live), "step {step}: exports differ");
            }
            prop_assert!(restores > 0);
        }
    }
}
