//! Restore: a snapshot document becomes the shards' tenant tables, on
//! every core the node has.
//!
//! A node restores at start ([`from_file`], `--restore`) and a standby at
//! promotion ([`from_replica`], its replicated [`Snapshot`]); both run
//! one pipeline. The calling thread reads the document: it frames lines
//! and runs every check that spans them through a [`Decoder`] —
//! header, order, tenant ids, declared counts, the end marker — and
//! registers the document's tenants as their lines arrive
//! ([`Registrar`]). Each app record it reads no further than its tenant
//! and, for the default tenant, its name: enough to route it, by the
//! `shard_of` the serving path uses, to the table of the shard that will
//! own it. Builders — scoped threads, one per shard and at most one per
//! core — parse the records' lists and rebuild each app under its
//! tenant's spec, on every builder at once, and insert the apps straight
//! into their tables in document order ([`Exchange`]). No whole
//! [`Snapshot`] is built first, and every builder has ended when a
//! restore returns.
//!
//! The order is kept because documents group records by tenant: routing
//! each record to a builder owning its shard would leave one builder
//! idle for as long as another tenant's run of records lasts.
//!
//! Records travel in batches of at most [`BATCH_BYTES`] of text, and the
//! text sent and not yet inserted is capped at [`IN_FLIGHT_BYTES`], so a
//! restore holds a read buffer, one partial line and those batches
//! beyond the state it builds. A line longer than a batch is parsed by
//! the reading thread and sent as a record.
//!
//! Every document has the outcome the load-then-build sequence it
//! replaces had. A corrupt document is refused with the error of its
//! earliest corrupt line — a builder's parse error is always on a line
//! before any the reading thread refused, since it stops there — and
//! the node serves from empty state, every builder's tables dropped. A
//! document that decodes but does not build (the registry or a tenant
//! table refuses it) fails the start, or the promotion, with the message
//! the first refusal gives, taking shards in order, each shard's
//! tenants by id, a tenant's records before its ledger.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::io;
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use sitw_fleet::{
    fnv1a, LedgerExport, RestoredApp, SpentRecord, TenantId, TenantRegistry, TenantSpec,
    TenantState, DEFAULT_TENANT,
};
use sitw_sim::PolicySpec;
use sitw_telemetry::lock_unpoisoned;

use crate::server::ServeConfig;
use crate::shard::shard_of;
use crate::snapshot::{
    decode_app, parse_record, AppRecord, Decoder, Records, Snapshot, SnapshotError, TenantSnapshot,
    MAX_RESERVED_APPS,
};

/// The most record text one batch to a builder carries; a longer line
/// is parsed by the reading thread instead of being copied.
const BATCH_BYTES: usize = 32 * 1024;

/// The most items one batch carries.
const BATCH_ITEMS: usize = 64;

/// The most record text sent to builders and not yet inserted.
const IN_FLIGHT_BYTES: usize = 4 * BATCH_BYTES;

/// Builds the tenant registry of a start or a promotion as a document's
/// tenants arrive: the document's policy must be the configured one,
/// its tenants come first (ids preserved), and configured tenants are
/// verified against them or appended. The first refusal ends the
/// registration and is the one reported.
pub(crate) struct Registrar<'a> {
    cfg: &'a ServeConfig,
    registry: TenantRegistry,
    /// The document's policy label has been checked.
    checked: bool,
    refused: Option<String>,
}

impl<'a> Registrar<'a> {
    pub(crate) fn new(cfg: &'a ServeConfig) -> Self {
        Registrar {
            cfg,
            registry: TenantRegistry::new(cfg.policy.clone()),
            checked: false,
            refused: None,
        }
    }

    fn check_policy(&mut self, label: &str) {
        if mem::replace(&mut self.checked, true) {
            return;
        }
        let expected = self.cfg.policy.label();
        if label != expected {
            self.refused = Some(format!(
                "snapshot policy '{label}' does not match configured '{expected}'"
            ));
        }
    }

    /// Registers the document tenant `t` of a document under
    /// `policy_label`; its spec, or `None` once anything was refused.
    fn tenant(&mut self, policy_label: &str, t: &TenantSnapshot) -> Option<&TenantSpec> {
        self.check_policy(policy_label);
        if self.refused.is_some() {
            return None;
        }
        match self.register(t) {
            Ok(id) => self.registry.get(id),
            Err(e) => {
                self.refused = Some(e);
                None
            }
        }
    }

    fn register(&mut self, t: &TenantSnapshot) -> Result<TenantId, String> {
        // Configured spec wins when present (it carries the actual
        // PolicySpec; the snapshot only proves the label). A tenant the
        // new process was not configured with is rebuilt from its
        // canonical spec string.
        let configured = self.cfg.tenants.iter().find(|c| c.name == t.name);
        let (policy, budget_mb) = match configured {
            Some(c) => {
                if c.policy.label() != t.policy_label {
                    return Err(format!(
                        "tenant '{}': snapshot policy '{}' does not match configured '{}'",
                        t.name,
                        t.policy_label,
                        c.policy.label()
                    ));
                }
                (c.policy.clone(), c.budget_mb)
            }
            None => {
                let spec_str = t.spec_str.as_ref().ok_or_else(|| {
                    format!(
                        "tenant '{}' has no canonical spec in the snapshot; \
                         configure it explicitly to restore",
                        t.name
                    )
                })?;
                let policy = PolicySpec::parse(spec_str).map_err(|e| e.to_string())?;
                (policy, t.budget_mb)
            }
        };
        let id = self.registry.register(&t.name, policy, budget_mb)?;
        if id != t.id {
            return Err(format!(
                "tenant '{}': snapshot id {} cannot be preserved (got {id})",
                t.name, t.id
            ));
        }
        Ok(id)
    }

    /// The registry, configured tenants the document lacks appended;
    /// `policy_label` is the document's, `None` when there is none.
    ///
    /// # Errors
    ///
    /// The first refusal.
    pub(crate) fn finish(mut self, policy_label: Option<&str>) -> Result<TenantRegistry, String> {
        if let Some(label) = policy_label {
            self.check_policy(label);
        }
        if let Some(e) = self.refused {
            return Err(e);
        }
        for c in &self.cfg.tenants {
            if self.registry.resolve(&c.name).is_none() {
                self.registry
                    .register(&c.name, c.policy.clone(), c.budget_mb)?;
            }
        }
        Ok(self.registry)
    }
}

/// A restored node's state: its registry and each shard's tenants.
pub(crate) struct Restored {
    pub(crate) registry: TenantRegistry,
    /// Per shard, in order: the default tenant and every named tenant
    /// whose home it is.
    pub(crate) shards: Vec<Vec<TenantState>>,
    /// Why the configured snapshot was not restored (it is corrupt): the
    /// node serves from empty state and says so on `/healthz`.
    pub(crate) restore_error: Option<String>,
}

/// The state a start restores: the `--restore` file through the
/// pipeline when it exists, else empty state.
///
/// # Errors
///
/// The file exists but cannot be read, or it decodes but does not build
/// (the message is the first refusal's).
pub(crate) fn from_file(cfg: &ServeConfig) -> io::Result<Restored> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let Some(path) = cfg.restore_path.as_ref().filter(|p| p.exists()) else {
        return fresh(cfg, None).map_err(invalid);
    };
    let (read, mut built) = pipeline(cfg, &vec![0; cfg.shards], |route| {
        Decoder::with_records(route).read(path)
    })?;
    // A builder's parse error precedes whatever stopped the reading
    // thread, a read error included: its line was read first.
    let read = match (built.corrupt.take(), read) {
        (Some(e), _) | (None, Err(SnapshotError::Corrupt(e))) => {
            eprintln!(
                "sitw-serve: snapshot {} is corrupt, serving from empty state: {e}",
                path.display()
            );
            return fresh(cfg, Some(e)).map_err(invalid);
        }
        // The file exists but cannot be read (permissions, I/O): a
        // transient environment problem, so fail loudly instead of
        // silently dropping state.
        (None, Err(SnapshotError::Io(e))) => return Err(e),
        (None, Ok(registry)) => registry,
    };
    let registry = read.map_err(invalid)?;
    let shards = built.shards(&registry, cfg.shards).map_err(invalid)?;
    Ok(Restored {
        registry,
        shards,
        restore_error: None,
    })
}

/// The state a promotion installs: `replica` through the pipeline, each
/// shard's records stamped `stamps[shard]`.
///
/// # Errors
///
/// The first refusal, as at a start; nothing is installed.
pub(crate) fn from_replica(
    cfg: &ServeConfig,
    replica: Snapshot,
    stamps: &[u64],
) -> Result<(TenantRegistry, Vec<Vec<TenantState>>), String> {
    let (registry, built) = pipeline(cfg, stamps, |route| route.replay(replica))
        .map_err(|e| format!("restore threads: {e}"))?;
    let registry = registry.unwrap_or_else(|never| match never {})?;
    let shards = built.shards(&registry, stamps.len())?;
    Ok((registry, shards))
}

/// Empty state: the configured registry, each shard its tenants fresh.
fn fresh(cfg: &ServeConfig, restore_error: Option<String>) -> Result<Restored, String> {
    let registry = Registrar::new(cfg).finish(None)?;
    let shards = Built::default().shards(&registry, cfg.shards)?;
    Ok(Restored {
        registry,
        shards,
        restore_error,
    })
}

/// What the reading side of a restore came to: the registry, or its
/// refusal, once the document was read to its end; or the reader's own
/// error.
type Read<E> = Result<Result<TenantRegistry, String>, E>;

/// Runs `read` on this thread with a [`Route`] to the builder threads
/// — one per shard, at most one per core — and returns what it returned
/// (the registry, once `read` has ended its route) with what the
/// builders built.
fn pipeline<E>(
    cfg: &ServeConfig,
    stamps: &[u64],
    read: impl FnOnce(Route<'_>) -> Result<(Snapshot, Route<'_>), E>,
) -> io::Result<(Read<E>, Built)> {
    let shards = stamps.len();
    let cores = thread::available_parallelism().map_or(1, usize::from);
    let exchange = Exchange::default();
    let tables = Mutex::new(HashMap::new());
    let (read, corrupt) = thread::scope(|scope| {
        let (exchange, tables) = (&exchange, &tables);
        let mut handles = Vec::new();
        for i in 0..shards.min(cores).max(1) {
            let builder = thread::Builder::new().name(format!("sitw-restore-{i}"));
            match builder.spawn_scoped(scope, move || Builder::run(exchange, tables, stamps)) {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    exchange.close();
                    return Err(e);
                }
            }
        }
        let route = Route::new(cfg, shards, exchange);
        let read = read(route).map(|(doc, route)| route.end(doc));
        let mut corrupt: Option<(usize, String)> = None;
        for handle in handles {
            match handle.join() {
                Ok(Some((line, e))) if corrupt.as_ref().is_none_or(|(l, _)| line < *l) => {
                    corrupt = Some((line, e));
                }
                Ok(_) => {}
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok((read, corrupt))
    })?;
    let tables = tables.into_inner().unwrap_or_else(PoisonError::into_inner);
    let built = Built {
        tables: tables.into_iter().collect(),
        corrupt: corrupt.map(|(_, e)| e),
    };
    Ok((read, built))
}

/// What the reading thread sends the builders, in document order.
enum Item {
    /// Opens `spec`'s table on `shard`, or makes room in it for `apps`
    /// more apps.
    Tenant {
        shard: usize,
        spec: Arc<TenantSpec>,
        apps: usize,
    },
    /// Record line `no` of the tenant `spec` registered (`None`: a
    /// tenant the registry refused) on `shard`, from its app name on:
    /// the batch's text up to `end`, after the previous line's.
    Line {
        shard: usize,
        spec: Option<Arc<TenantSpec>>,
        no: usize,
        end: usize,
    },
    /// A record already parsed, of the tenant `spec` registered.
    Record {
        shard: usize,
        spec: Option<Arc<TenantSpec>>,
        rec: AppRecord,
    },
    /// A record rebuilt under its tenant's spec: what a builder makes of
    /// a line or a record before the batch's turn.
    App {
        shard: usize,
        tenant: TenantId,
        app: RestoredApp,
    },
    /// The ledger and backup clock that end `tenant`'s restore on
    /// `shard`.
    Ledger {
        shard: usize,
        tenant: TenantId,
        ledger: Box<LedgerExport>,
        prod_clock: Option<u64>,
    },
    /// Nothing to insert: a record of a tenant the registry refused, or
    /// the line that failed to parse.
    Skip,
}

/// Items in document order and the record text their lines refer to.
/// Batches come back emptied, so a restore allocates a handful.
#[derive(Default)]
struct Batch {
    /// Its place in the order the reading thread sent batches.
    seq: u64,
    text: Vec<u8>,
    items: Vec<Item>,
}

impl Batch {
    fn allocated() -> Batch {
        Batch {
            seq: 0,
            text: Vec::with_capacity(BATCH_BYTES),
            items: Vec::with_capacity(BATCH_ITEMS),
        }
    }
}

/// Between the reading thread and the builders: the batches sent, the
/// text in flight, and the order their items go into the tables.
///
/// A builder that has rebuilt a batch deposits it; whichever builder
/// deposits the batch whose turn it is inserts it, and every deposited
/// batch that follows in order, while the others go on parsing. So no
/// builder waits for another, and the tables see the items in document
/// order.
#[derive(Default)]
struct Exchange {
    state: Mutex<State>,
    /// A batch was sent, or the reading thread is done.
    sent: Condvar,
    /// Text in flight drained to half the cap.
    drained: Condvar,
}

#[derive(Default)]
struct State {
    /// Batches sent and not yet taken, in order.
    queue: VecDeque<Batch>,
    /// Batches rebuilt and not yet inserted, by `seq - turn`.
    ready: VecDeque<Option<Batch>>,
    /// Emptied batches for the reading thread to fill again.
    spare: Vec<Batch>,
    /// Record text sent and not yet inserted: at most
    /// [`IN_FLIGHT_BYTES`], or one batch when a batch alone is more.
    in_flight: usize,
    /// The next batch's `seq`.
    next_seq: u64,
    /// The `seq` of the next batch to go into the tables: `ready`'s
    /// first.
    turn: u64,
    /// A builder is inserting.
    inserting: bool,
    /// The reading thread waits for text to drain.
    reader_waits: bool,
    /// The reading thread sends nothing more.
    closed: bool,
    /// A builder panicked: nobody waits for anything any more.
    abandoned: bool,
}

impl Exchange {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock_unpoisoned(&self.state)
    }

    /// Sends `batch` — first waiting, if the text in flight is full,
    /// until half of it is in the tables — and returns an empty one to
    /// fill.
    fn send(&self, mut batch: Batch) -> Batch {
        let bytes = batch.text.len();
        let mut state = self.lock();
        if state.in_flight > 0 && state.in_flight + bytes > IN_FLIGHT_BYTES {
            state.reader_waits = true;
            while state.in_flight > IN_FLIGHT_BYTES / 2 && !state.abandoned {
                state = (self.drained.wait(state)).unwrap_or_else(PoisonError::into_inner);
            }
            state.reader_waits = false;
        }
        batch.seq = state.next_seq;
        state.next_seq += 1;
        state.in_flight += bytes;
        state.queue.push_back(batch);
        let spare = state.spare.pop();
        drop(state);
        self.sent.notify_one();
        spare.unwrap_or_else(Batch::allocated)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.sent.notify_all();
    }

    /// The next batch, or `None` once every batch is taken and the
    /// reading thread is done.
    fn take(&self) -> Option<Batch> {
        let mut state = self.lock();
        loop {
            if state.abandoned {
                return None;
            }
            if let Some(batch) = state.queue.pop_front() {
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = (self.sent.wait(state)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Deposits a rebuilt batch; returns the batch whose turn it is
    /// when the caller is to insert it.
    fn rebuilt(&self, batch: Batch) -> Option<Batch> {
        let mut state = self.lock();
        let at = (batch.seq - state.turn) as usize;
        if state.ready.len() <= at {
            state.ready.resize_with(at + 1, || None);
        }
        state.ready[at] = Some(batch);
        Self::next_turn(&mut state)
    }

    /// Ends the turn of `batch`, whose items are in the tables; returns
    /// the next batch for the caller to insert, if it is ready.
    fn inserted(&self, mut batch: Batch) -> Option<Batch> {
        let mut state = self.lock();
        state.in_flight -= batch.text.len();
        batch.text.clear();
        state.spare.push(batch);
        state.inserting = false;
        if state.reader_waits && state.in_flight <= IN_FLIGHT_BYTES / 2 {
            self.drained.notify_one();
        }
        Self::next_turn(&mut state)
    }

    /// The batch whose turn it is, unless it is not ready or being
    /// inserted already.
    fn next_turn(state: &mut State) -> Option<Batch> {
        if state.inserting || !matches!(state.ready.front(), Some(Some(_))) {
            return None;
        }
        state.inserting = true;
        state.turn += 1;
        state.ready.pop_front().flatten()
    }
}

/// Wakes every waiter for good when a builder panics, so that neither
/// the reading thread nor another builder waits for it.
struct Abandon<'a>(&'a Exchange);

impl Drop for Abandon<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lock().abandoned = true;
            self.0.sent.notify_all();
            self.0.drained.notify_all();
        }
    }
}

/// The batch the reading thread fills. However its [`Route`] goes — at
/// the document's end or at an error the reading thread met — what it
/// holds is sent and the exchange closed, so the builders parse every
/// line read before the end: the lines before an error may hold an
/// earlier one.
struct Outbox<'a> {
    batch: Batch,
    exchange: &'a Exchange,
}

impl Outbox<'_> {
    fn flush(&mut self) {
        if !self.batch.items.is_empty() {
            self.batch = self.exchange.send(mem::take(&mut self.batch));
        }
    }
}

impl Drop for Outbox<'_> {
    fn drop(&mut self) {
        self.flush();
        self.exchange.close();
    }
}

/// The [`Records`] of a restore: routes each record to the shard that
/// will own it, and registers and opens each tenant as its line
/// arrives.
struct Route<'a> {
    registrar: Registrar<'a>,
    shards: usize,
    default_spec: Arc<TenantSpec>,
    /// Each document tenant's home shard and registered spec, in
    /// document order.
    homes: Vec<(usize, Option<Arc<TenantSpec>>)>,
    out: Outbox<'a>,
}

impl<'a> Route<'a> {
    fn new(cfg: &'a ServeConfig, shards: usize, exchange: &'a Exchange) -> Route<'a> {
        let registrar = Registrar::new(cfg);
        let default_spec = registrar.registry.get(DEFAULT_TENANT).cloned();
        let mut route = Route {
            registrar,
            shards,
            default_spec: Arc::new(default_spec.expect("the default tenant always exists")),
            homes: Vec::new(),
            out: Outbox {
                batch: Batch::allocated(),
                exchange,
            },
        };
        route.open_default(0);
        route
    }

    /// Opens the default tenant on every shard with room for its share
    /// of `apps`.
    fn open_default(&mut self, apps: usize) {
        let share = apps.min(MAX_RESERVED_APPS).div_ceil(self.shards);
        for shard in 0..self.shards {
            let spec = Arc::clone(&self.default_spec);
            self.push(Item::Tenant {
                shard,
                spec,
                apps: share,
            });
        }
    }

    fn push(&mut self, item: Item) {
        if self.out.batch.items.len() == BATCH_ITEMS {
            self.out.flush();
        }
        self.out.batch.items.push(item);
    }

    /// The shard and registered spec of a record of the tenant at
    /// `tenant` in `snap.tenants` (`None`: the default tenant, routed by
    /// `app`).
    fn whose(&self, tenant: Option<usize>, app: &[u8]) -> (usize, Option<Arc<TenantSpec>>) {
        match tenant {
            None => (
                (fnv1a(app) % self.shards as u64) as usize,
                Some(Arc::clone(&self.default_spec)),
            ),
            Some(i) => self.homes[i].clone(),
        }
    }

    /// Replays a replica as the document it encodes, in its order.
    fn replay(mut self, mut replica: Snapshot) -> Result<(Snapshot, Route<'a>), Infallible> {
        let apps = mem::take(&mut replica.apps);
        let tenants = mem::take(&mut replica.tenants);
        let mut tenant_apps = Vec::with_capacity(tenants.len());
        for mut t in tenants {
            let records = mem::take(&mut t.apps);
            replica.tenants.push(t);
            self.tenant(&mut replica, records.len());
            tenant_apps.push(records);
        }
        self.apps(&mut replica, apps.len());
        for rec in apps {
            self.parsed(&mut replica, None, rec);
        }
        for (i, records) in tenant_apps.into_iter().enumerate() {
            for rec in records {
                self.parsed(&mut replica, Some(i), rec);
            }
        }
        Ok((replica, self))
    }

    /// Sends each tenant's ledger and clock — the default tenant's warm
    /// entries by app, its cursor and clock to every shard, its scalar
    /// counters to shard 0 — and ends the registration.
    fn end(mut self, doc: Snapshot) -> Result<TenantRegistry, String> {
        let dl = doc.default_ledger;
        let mut warm = vec![Vec::new(); self.shards];
        for entry in dl.warm {
            warm[shard_of(&entry.0, self.shards)].push(entry);
        }
        for (shard, warm) in warm.into_iter().enumerate() {
            let first = shard == 0;
            let ledger = LedgerExport {
                warm,
                evictions: if first { dl.evictions } else { 0 },
                idle_mb_ms: if first { dl.idle_mb_ms } else { 0 },
                cursor_ms: dl.cursor_ms,
            };
            self.push(Item::Ledger {
                shard,
                tenant: DEFAULT_TENANT,
                ledger: Box::new(ledger),
                prod_clock: doc.prod_clock,
            });
        }
        for (i, t) in doc.tenants.into_iter().enumerate() {
            self.push(Item::Ledger {
                shard: self.homes[i].0,
                tenant: t.id,
                ledger: Box::new(t.ledger),
                prod_clock: t.prod_clock,
            });
        }
        self.out.flush();
        self.registrar.finish(Some(&doc.policy_label))
    }
}

impl Records for Route<'_> {
    fn tenant(&mut self, snap: &mut Snapshot, apps: usize) {
        let Some(t) = snap.tenants.last() else {
            return;
        };
        let home = shard_of(&t.name, self.shards);
        let spec =
            (self.registrar.tenant(&snap.policy_label, t)).map(|spec| Arc::new(spec.clone()));
        self.homes.push((home, spec.clone()));
        if let Some(spec) = spec {
            let apps = apps.min(MAX_RESERVED_APPS);
            self.push(Item::Tenant {
                shard: home,
                spec,
                apps,
            });
        }
    }

    fn apps(&mut self, _snap: &mut Snapshot, apps: usize) {
        self.open_default(apps);
    }

    fn parsed(&mut self, _snap: &mut Snapshot, tenant: Option<usize>, rec: AppRecord) {
        let (shard, spec) = self.whose(tenant, rec.app.as_bytes());
        self.push(Item::Record { shard, spec, rec });
    }

    fn text(
        &mut self,
        snap: &mut Snapshot,
        no: usize,
        tenant: Option<usize>,
        rest: &[u8],
    ) -> Result<(), String> {
        if rest.len() > BATCH_BYTES {
            let rec = parse_record(no, rest)?;
            self.parsed(snap, tenant, rec);
            return Ok(());
        }
        let name = rest.split(|&b| b == b' ').next().unwrap_or_default();
        // An escaped name routes by what it decodes to; one that does
        // not decode fails its builder's parse wherever it goes.
        let decoded = match name.contains(&b'%') {
            true => std::str::from_utf8(name)
                .ok()
                .and_then(|n| decode_app(n).ok()),
            false => None,
        };
        let app = decoded.as_ref().map_or(name, |n| n.as_bytes());
        let (shard, spec) = self.whose(tenant, app);
        // The line's text and item go into one batch.
        let batch = &mut self.out.batch;
        if batch.items.len() == BATCH_ITEMS || batch.text.len() + rest.len() > BATCH_BYTES {
            self.out.flush();
        }
        let text = &mut self.out.batch.text;
        text.extend_from_slice(rest);
        let end = text.len();
        self.push(Item::Line {
            shard,
            spec,
            no,
            end,
        });
        Ok(())
    }
}

/// One tenant's table on one shard, and the first thing it refused.
struct Table {
    state: TenantState,
    refused: Option<String>,
}

/// Every shard's tables, by shard and tenant id.
type Tables = HashMap<(usize, TenantId), Table>;

/// A builder thread: it takes batches as they come, parses their lines
/// and rebuilds their records under their tenants' specs, and inserts
/// the batches whose turn it finds come ([`Exchange`]) — so records
/// parse and rebuild on every builder at once and enter their tables in
/// document order, as a single thread would have put them there.
struct Builder;

impl Builder {
    /// Returns the first corrupt line it parsed, and its error.
    fn run(exchange: &Exchange, tables: &Mutex<Tables>, stamps: &[u64]) -> Option<(usize, String)> {
        let _abandon = Abandon(exchange);
        let mut corrupt = None;
        let mut spent = Vec::new();
        while let Some(mut batch) = exchange.take() {
            // Past its first corrupt line a builder's lines can only be
            // later ones: it stops parsing, and its lines stay lines.
            if corrupt.is_none() {
                corrupt = Self::rebuild(&mut batch, stamps);
            }
            let mut turn = exchange.rebuilt(batch);
            while let Some(mut batch) = turn {
                let mut tables = lock_unpoisoned(tables);
                for item in batch.items.drain(..) {
                    Self::insert(&mut tables, item, &mut spent);
                }
                drop(tables);
                // The records' lists, copied into the tables, are freed
                // with the lock released.
                spent.clear();
                turn = exchange.inserted(batch);
            }
        }
        corrupt
    }

    /// Makes each line and record of the batch an [`Item::App`], up to
    /// its first corrupt line, which it returns.
    fn rebuild(batch: &mut Batch, stamps: &[u64]) -> Option<(usize, String)> {
        let mut start = 0;
        for item in &mut batch.items {
            let (shard, spec, rec) = match mem::replace(item, Item::Skip) {
                Item::Line {
                    shard,
                    spec,
                    no,
                    end,
                } => {
                    let parsed = parse_record(no, &batch.text[start..end]);
                    start = end;
                    match parsed {
                        Ok(rec) => (shard, spec, rec),
                        Err(e) => return Some((no, e)),
                    }
                }
                Item::Record { shard, spec, rec } => (shard, spec, rec),
                other => {
                    *item = other;
                    continue;
                }
            };
            // A record of a tenant the registry refused builds nothing.
            if let Some(spec) = spec {
                let app = RestoredApp::new(&spec, rec, stamps[shard]);
                let tenant = spec.id;
                *item = Item::App { shard, tenant, app };
            }
        }
        None
    }

    /// Inserts `item`; what is left of an inserted app goes to `spent`.
    fn insert(tables: &mut Tables, item: Item, spent: &mut Vec<SpentRecord>) {
        match item {
            Item::Tenant { shard, spec, apps } => {
                let table = tables.entry((shard, spec.id)).or_insert_with(|| Table {
                    state: TenantState::new(TenantSpec::clone(&spec)),
                    refused: None,
                });
                table.state.reserve(apps);
            }
            // A table takes nothing more once it refused a record.
            Item::App { shard, tenant, app } => {
                if let Some(table) = tables.get_mut(&(shard, tenant)) {
                    if table.refused.is_none() {
                        match table.state.insert_app(app) {
                            Ok(left) => spent.push(left),
                            Err(e) => table.refused = Some(e.to_string()),
                        }
                    }
                }
            }
            Item::Ledger {
                shard,
                tenant,
                ledger,
                prod_clock,
            } => {
                if let Some(table) = tables.get_mut(&(shard, tenant)) {
                    if table.refused.is_none() {
                        if let Err(e) = table.state.restore_ledger(*ledger, prod_clock) {
                            table.refused = Some(e.to_string());
                        }
                    }
                }
            }
            // What a corrupt document left unparsed: it is refused.
            Item::Line { .. } | Item::Record { .. } | Item::Skip => {}
        }
    }
}

/// What the builders built.
#[derive(Default)]
struct Built {
    tables: Vec<((usize, TenantId), Table)>,
    /// The earliest corrupt line's error.
    corrupt: Option<String>,
}

impl Built {
    /// Each shard's tenants — the tables built, and a fresh one for
    /// every registered tenant without — or the first refusal.
    fn shards(
        mut self,
        registry: &TenantRegistry,
        shards: usize,
    ) -> Result<Vec<Vec<TenantState>>, String> {
        self.tables.sort_by_key(|&(key, _)| key);
        let mut out: Vec<Vec<TenantState>> = (0..shards).map(|_| Vec::new()).collect();
        for ((shard, _), table) in self.tables {
            if let Some(e) = table.refused {
                return Err(e);
            }
            out[shard].push(table.state);
        }
        for spec in registry.tenants() {
            let home = registry.shard_of(spec.id, "", shards);
            for (shard, tenants) in out.iter_mut().enumerate() {
                let here = spec.id == DEFAULT_TENANT || shard == home;
                if here && !tenants.iter().any(|t| t.spec().id == spec.id) {
                    tenants.push(TenantState::new(spec.clone()));
                }
            }
        }
        Ok(out)
    }
}

/// The pipeline against the load-then-build sequence it replaced
/// (`crate::restore_ref`, the parent's code kept test-only): on valid
/// documents every shard holds what the sequence gave it, and on corrupt
/// or refused ones the outcome — the empty state with its
/// `restore_error`, or the start error — is the sequence's, message for
/// message.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore_ref::{build_registry, partition_restore};
    use crate::server::{merge_exports, Server, TenantConfig};
    use crate::shard::ShardWorker;
    use crate::snapshot::samples::{self, Rng};
    use crate::snapshot::ShardExport;
    use proptest::prelude::*;
    use sitw_fleet::TenantRestore;
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    /// What a start made of a document: its registry, every shard's
    /// export and the restore error — or the error the start failed
    /// with.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Started {
            tenants: Vec<TenantSpec>,
            shards: Vec<ShardExport>,
            restore_error: Option<String>,
        },
        Failed(String),
    }

    /// The parent's start: the whole document decoded, the registry built
    /// from it, the records partitioned, each shard built.
    fn reference(cfg: &ServeConfig) -> Outcome {
        let path = cfg.restore_path.as_ref().expect("a restore path");
        let (snap, restore_error) = match Snapshot::load(path) {
            Ok(snap) => (Some(snap), None),
            Err(SnapshotError::Corrupt(e)) => (None, Some(e)),
            Err(SnapshotError::Io(e)) => return Outcome::Failed(e.to_string()),
        };
        let registry = match build_registry(cfg, snap.as_ref()) {
            Ok(registry) => registry,
            Err(e) => return Outcome::Failed(e),
        };
        let mut shards = Vec::new();
        for (id, tenants) in partition_restore(&registry, snap, cfg.shards)
            .into_iter()
            .enumerate()
        {
            match ShardWorker::new(id, tenants) {
                Ok(worker) => shards.push(worker.export()),
                Err(e) => return Outcome::Failed(e),
            }
        }
        Outcome::Started {
            tenants: registry.tenants().to_vec(),
            shards,
            restore_error,
        }
    }

    /// The pipeline's start, with a deadline: a restore that does not
    /// return has left a thread waiting.
    fn pipeline(cfg: &ServeConfig) -> Outcome {
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let outcome = match from_file(&cfg) {
                Ok(restored) => Outcome::Started {
                    tenants: restored.registry.tenants().to_vec(),
                    shards: (restored.shards.into_iter().enumerate())
                        .map(|(id, tenants)| ShardWorker::with_tenants(id, tenants).export())
                        .collect(),
                    restore_error: restored.restore_error,
                },
                Err(e) => Outcome::Failed(e.to_string()),
            };
            let _ = tx.send(outcome);
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the restore returned")
    }

    /// Waits for every restore thread of this process to be gone:
    /// restores run concurrently in other tests end in milliseconds,
    /// a leaked builder never.
    fn no_restore_thread_left() {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let names: Vec<String> = std::fs::read_dir("/proc/self/task")
                .map(|tasks| {
                    tasks
                        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                        .filter(|name| name.starts_with("sitw-restore"))
                        .collect()
                })
                .unwrap_or_default();
            if names.is_empty() {
                return;
            }
            assert!(Instant::now() < deadline, "left running: {names:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sitw-restore-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const POLICIES: [&str; 3] = ["hybrid", "fixed:10", "production"];

    /// A document a node wrote: the default tenant and up to three named
    /// ones under the policies above (some budgeted tight enough to
    /// evict), each app invoked on a seeded rhythm.
    fn valid_document(seed: u64, apps: u64) -> (Vec<TenantConfig>, Snapshot) {
        let rng = &mut Rng(seed);
        let tenants: Vec<TenantConfig> = (1..=rng.below(4))
            .map(|id| TenantConfig {
                name: format!("t{id}"),
                policy: PolicySpec::parse(rng.pick(&POLICIES)).unwrap(),
                budget_mb: rng.pick(&[0, 300, 2_000]),
            })
            .collect();
        let cfg = ServeConfig {
            tenants: tenants.clone(),
            ..ServeConfig::default()
        };
        let registry = Registrar::new(&cfg).finish(None).unwrap();
        let fresh = registry.tenants().iter().cloned().map(TenantRestore::fresh);
        let mut worker = ShardWorker::new(0, fresh.collect()).unwrap();
        let mut ts = 0;
        for _ in 0..apps * 4 {
            ts += rng.below(20 * 60_000);
            let tenant = rng.below(tenants.len() as u64 + 1) as TenantId;
            let app = format!("app-{}%{}", rng.below(apps), rng.below(2));
            worker.invoke(tenant, &app, ts).unwrap();
        }
        let label = cfg.policy.label();
        (tenants, merge_exports(label, [worker.export()]))
    }

    /// `doc`'s text with one of the edits a restore must refuse as the
    /// sequence did — or none.
    fn edited(rng: &mut Rng, doc: &str) -> Vec<u8> {
        let mut lines: Vec<String> = doc.lines().map(str::to_owned).collect();
        let records: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("app ") || lines[i].starts_with("tapp "))
            .collect();
        let pick =
            |rng: &mut Rng, of: &[usize]| of.get(rng.below(of.len() as u64) as usize).copied();
        match rng.below(9) {
            // A byte changed anywhere, or the document cut anywhere.
            0 | 1 => {
                let mut bytes = doc.as_bytes().to_vec();
                let at = rng.below(bytes.len() as u64) as usize;
                if rng.below(2) == 0 {
                    bytes.truncate(at);
                } else {
                    bytes[at] = rng.pick(&[b'x', b',', b'%', b' ', b'\n', 0xFF, b'9']);
                }
                return bytes;
            }
            // A record twice, its count raised to match.
            2 => {
                if let Some(i) = pick(rng, &records) {
                    let line = lines[i].clone();
                    lines.insert(i + 1 + rng.below(2) as usize, line.clone());
                    let count = match line.strip_prefix("tapp ") {
                        Some(rest) => {
                            let id = rest.split(' ').next().unwrap_or_default();
                            lines
                                .iter()
                                .position(|l| l.starts_with(&format!("tenant {id} ")))
                        }
                        None => lines.iter().position(|l| l.starts_with("apps ")),
                    };
                    if let Some(c) = count {
                        let mut tokens: Vec<String> =
                            lines[c].split(' ').map(str::to_owned).collect();
                        let k = if tokens[0] == "apps" { 1 } else { 4 };
                        tokens[k] = (tokens[k].parse::<u64>().unwrap() + 1).to_string();
                        lines[c] = tokens.join(" ");
                    }
                }
            }
            // A record of a tenant nobody declared.
            3 => {
                if let Some(i) = pick(rng, &records) {
                    let skip = if lines[i].starts_with("tapp ") { 2 } else { 1 };
                    let rest: Vec<&str> = lines[i].split(' ').skip(skip).collect();
                    lines.insert(i, format!("tapp 99 {}", rest.join(" ")));
                }
            }
            // Another policy for the document or a tenant.
            4 => lines[1] = "policy fixed-10min".into(),
            5 => {
                for l in lines.iter_mut().filter(|l| l.starts_with("tenant ")) {
                    *l = l.replace("hybrid-4h", "fixed-10min ");
                }
            }
            // A warm charge at an MB that is not the app's footprint, or
            // a record under a policy its tenant does not serve.
            6 => {
                if let Some(l) = lines
                    .iter_mut()
                    .find(|l| l.starts_with("twarm ") || l.starts_with("dwarm "))
                {
                    l.push('1');
                }
            }
            7 => {
                if let Some(i) = pick(rng, &records) {
                    let head: Vec<&str> = lines[i].split(' ').collect();
                    let keep = if head[0] == "tapp" { 6 } else { 5 };
                    lines[i] = head[..keep.min(head.len())].join(" ");
                }
            }
            _ => {}
        }
        let mut text = lines.join("\n");
        text.push('\n');
        text.into_bytes()
    }

    fn restore_cfg(path: &Path, shards: usize, tenants: Vec<TenantConfig>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards,
            tenants,
            restore_path: Some(path.to_owned()),
            ..ServeConfig::default()
        }
    }

    proptest! {
        /// Valid and edited documents of up to a few hundred apps, on one
        /// to five shards, with the document's tenants configured or not:
        /// the pipeline's outcome is the sequence's.
        #[test]
        fn pipeline_equals_load_then_build(
            seed in 0u64..u64::MAX,
            shards in 1usize..6,
            apps in 0u64..300,
        ) {
            let rng = &mut Rng(seed ^ 0x5eed);
            let dir = temp_dir("prop");
            let path = dir.join("state.snap");
            let (tenants, snap) = if rng.below(4) == 0 {
                // Random tenants, ids, labels and states: mostly refused.
                (Vec::new(), samples::snapshot(seed, apps % 40))
            } else {
                valid_document(seed, apps)
            };
            let configured = match rng.below(3) {
                0 => Vec::new(),
                _ => tenants,
            };
            std::fs::write(&path, edited(rng, &snap.encode())).unwrap();
            let cfg = restore_cfg(&path, shards, configured);
            prop_assert_eq!(pipeline(&cfg), reference(&cfg));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Thousands of good records and then a corrupt one, a missing end
    /// and a refused record among them: the error of the earliest line
    /// wins, and no restore thread outlives its restore.
    #[test]
    fn a_corrupt_record_after_thousands_of_good_ones_is_the_error() {
        let (tenants, snap) = valid_document(7, 3_000);
        let text = snap.encode();
        let lines: Vec<&str> = text.lines().collect();
        let last = lines.len() - 2;
        let dir = temp_dir("late");
        let path = dir.join("state.snap");
        let mut edits: Vec<(String, Vec<u8>)> = Vec::new();
        let spoil = |l: &str| l.replacen(",", ",x", 1).replacen(" bins ", " bins 1,", 1);
        for at in [last - 1, last - 40, last / 2] {
            let mut bad: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            bad[at] = spoil(&bad[at]);
            edits.push((format!("line {at}"), (bad.join("\n") + "\n").into_bytes()));
        }
        // Two corrupt lines, far apart or a batch apart (and so likely
        // parsed by different builders): the earlier one is the error.
        let pairs = [
            (last / 3, last / 2),
            (10, last - 1),
            (last / 2, last / 2 + 20),
        ];
        for (a, b) in pairs
            .into_iter()
            .chain([(100, 121), (last / 3, last / 3 + 19)])
        {
            let mut bad: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            bad[a] = bad[a].replacen(" hybrid ", " hybridx ", 1);
            bad[b] = spoil(&bad[b]);
            edits.push((
                format!("lines {a}, {b}"),
                (bad.join("\n") + "\n").into_bytes(),
            ));
        }
        edits.push(("no end".into(), lines[..last].join("\n").into_bytes()));
        let mut two: Vec<&str> = lines.clone();
        two.insert(last / 3, lines[last / 3 + 1]);
        two.insert(last - 5, "app x");
        edits.push((
            "corrupt after refused".into(),
            (two.join("\n") + "\n").into_bytes(),
        ));
        for (what, bytes) in edits {
            std::fs::write(&path, bytes).unwrap();
            for shards in [1, 2, 5] {
                let cfg = restore_cfg(&path, shards, tenants.clone());
                let want = reference(&cfg);
                assert!(
                    matches!(
                        &want,
                        Outcome::Started {
                            restore_error: Some(_),
                            ..
                        }
                    ),
                    "{what}: {want:?}"
                );
                assert_eq!(pipeline(&cfg), want, "{what}, {shards} shards");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        no_restore_thread_left();
    }

    /// Refusals in tables of two shards: the first shard's is the
    /// error, as the sequence built shard 0 first.
    #[test]
    fn refusals_are_reported_in_shard_order() {
        let dir = temp_dir("order");
        let path = dir.join("state.snap");
        let mut checked = 0;
        for seed in 0..200 {
            let (tenants, mut snap) = valid_document(seed, 60);
            let homes: Vec<usize> = snap.tenants.iter().map(|t| shard_of(&t.name, 2)).collect();
            let (Some(a), Some(b)) = (
                homes.iter().position(|&h| h == 0),
                homes.iter().position(|&h| h == 1),
            ) else {
                continue;
            };
            if snap.tenants[a].apps.is_empty() || snap.tenants[b].apps.is_empty() {
                continue;
            }
            // A record twice in a tenant of each shard, the later shard's
            // first in the document.
            for t in [b, a] {
                let twice = snap.tenants[t].apps[0].clone();
                snap.tenants[t].apps.push(twice);
            }
            snap.write_to(&path).unwrap();
            let cfg = restore_cfg(&path, 2, tenants);
            let want = reference(&cfg);
            assert!(
                matches!(&want, Outcome::Failed(e) if e.contains("two records")),
                "{want:?}"
            );
            assert_eq!(pipeline(&cfg), want);
            checked += 1;
        }
        assert!(checked > 0, "no document had tenants on both shards");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A node restored through the pipeline — one to five shards, one or
    /// two reactors — serves exactly the document it was restored from.
    #[test]
    fn a_restored_node_snapshots_the_document() {
        let dir = temp_dir("node");
        let path = dir.join("state.snap");
        for (seed, shards, reactors) in [(1, 1, 1), (2, 2, 2), (3, 3, 1), (4, 4, 2), (5, 5, 1)] {
            let (tenants, snap) = valid_document(seed, 400);
            snap.write_to(&path).unwrap();
            let server = Server::start(ServeConfig {
                reactor_threads: reactors,
                ..restore_cfg(&path, shards, tenants)
            })
            .unwrap();
            assert_eq!(server.snapshot().unwrap(), Snapshot::load(&path).unwrap());
            server.shutdown().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
        no_restore_thread_left();
    }
}
