//! The BullFrog controller: logical flip + lazy migration interposition.
//!
//! [`Bullfrog::submit_migration`] performs the paper's §2.1 protocol:
//!
//! 1. validate & classify the plan (optionally running the §2.4
//!    synchronous validation);
//! 2. create the new (empty) output tables;
//! 3. **logically switch**: the new schema is immediately active, and for
//!    big-flip plans every request that touches the old tables is rejected
//!    with [`Error::SchemaRetired`];
//! 4. allocate the trackers and (optionally) schedule background
//!    migration threads (§2.2).
//!
//! Afterwards, every client operation that reaches a new-schema table goes
//! through `ensure_migrated`: the request predicate is transposed onto the
//! old tables, the candidate granules are computed, and Algorithm 1 runs
//! to completion **before** the client's own operation executes on the new
//! schema. Inserts widen the migrated scope to whatever the new table's
//! uniqueness and foreign-key constraints need checked (§2.1, §4.5).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{Error, Result, Row, RowId, TxnId, Value};
use bullfrog_engine::exec::{strip_aliases, ExecOptions, QueryOutput};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{conjoin, conjuncts, Expr, SelectSpec};
use bullfrog_txn::{LockKey, LockMode, Transaction};
use parking_lot::{Mutex, RwLock};

use crate::access::{ClientAccess, SchemaVersion};
use crate::background::BackgroundConfig;
use crate::bitmap::BitmapTracker;
use crate::granule::Tracker;
use crate::hashmap::HashTracker;
use crate::migrate::{
    all_candidates, candidates_for, group_key_columns, migrate_candidates, DedupMode,
    MigrateOptions, StatementRuntime,
};
use crate::plan::{MigrationPlan, Tracking};
use crate::stats::MigrationStats;

/// Controller configuration.
#[derive(Clone)]
pub struct BullfrogConfig {
    /// Duplicate-migration detection mode (§3.7).
    pub dedup: DedupMode,
    /// Background migration settings (§2.2).
    pub background: BackgroundConfig,
    /// How long a worker blocks on another worker's in-progress granule
    /// before rechecking.
    pub wait_timeout: Duration,
    /// Abort-injection hook for tests (fires in migration transactions).
    pub failpoint: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl Default for BullfrogConfig {
    fn default() -> Self {
        BullfrogConfig {
            dedup: DedupMode::Tracker,
            background: BackgroundConfig::default(),
            wait_timeout: Duration::from_millis(10),
            failpoint: None,
        }
    }
}

impl std::fmt::Debug for BullfrogConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BullfrogConfig")
            .field("dedup", &self.dedup)
            .field("background", &self.background)
            .field("wait_timeout", &self.wait_timeout)
            .field("failpoint", &self.failpoint.is_some())
            .finish()
    }
}

/// A live migration: runtimes plus lookup structures.
pub struct ActiveMigration {
    /// Plan name.
    pub name: String,
    /// One runtime per statement.
    pub runtimes: Vec<Arc<StatementRuntime>>,
    /// Output table name → runtime index.
    by_output: HashMap<String, usize>,
    /// Old input table names.
    pub inputs: HashSet<String>,
    /// Shared counters.
    pub stats: Arc<MigrationStats>,
    /// Whether writes to the input tables are rejected while migrating.
    pub frozen_inputs: bool,
    /// Group-key indexes built for this migration, as `(table, index)`;
    /// finalize drops the ones whose table it keeps. Held while they are
    /// built, so finalize waits for a build in progress.
    group_indexes: Mutex<Vec<(String, String)>>,
    /// Per-statement completion flags.
    complete: Vec<AtomicBool>,
    /// Gate opened once the flip-time writer quiesce finishes (snapshot
    /// engine mode). Granule reads run lock-free at their own snapshots,
    /// so they must not start while a pre-flip writer could still commit
    /// an input-table write behind them; 2PL needs no gate (its S locks
    /// queue behind any straggler's X lock) and starts open.
    ready: AtomicBool,
}

impl ActiveMigration {
    /// The runtime producing `output_table`, if any.
    pub fn runtime_for(&self, output_table: &str) -> Option<&Arc<StatementRuntime>> {
        self.by_output.get(output_table).map(|i| &self.runtimes[*i])
    }

    /// Marks a statement complete.
    pub fn set_complete(&self, idx: usize) {
        self.complete[idx].store(true, Ordering::Release);
    }

    /// True when the statement's migration has fully finished.
    pub fn is_statement_complete(&self, idx: usize) -> bool {
        self.complete[idx].load(Ordering::Acquire)
    }

    /// True when every statement finished **and** no migration transaction
    /// is still in flight. The quiescence half matters in ON-CONFLICT mode,
    /// where a redundant worker may still hold uncommitted duplicate
    /// inserts after another worker marked the last granule migrated;
    /// finalize and input-unfreeze also key off this, so old tables are
    /// never dropped under a straggler transaction.
    pub fn is_complete(&self) -> bool {
        (0..self.runtimes.len()).all(|i| self.is_statement_complete(i)) && self.quiescent()
    }

    /// True when no migration transaction is currently in flight.
    fn quiescent(&self) -> bool {
        self.runtimes
            .iter()
            .all(|rt| rt.in_flight.load(Ordering::SeqCst) == 0)
    }

    /// Blocks until the flip-time quiesce gate opens (no-op under 2PL,
    /// where the gate starts open).
    pub fn wait_ready(&self) {
        while !self.ready.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

impl std::fmt::Debug for ActiveMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveMigration")
            .field("name", &self.name)
            .field("statements", &self.runtimes.len())
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// Per-statement `(row_capacity, granule_size)` bitmap tracker
/// dimensions; `(0, 0)` entries mean "hash-tracked, nothing to size".
pub type TrackerCaps = Vec<(u64, u64)>;

/// Controls for a non-standard migration submission, used by replication
/// mirrors ([`Bullfrog::submit_migration_with`]). The default mirrors
/// [`Bullfrog::submit_migration`] exactly.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Overrides `config.background.enabled` for this migration. Replicas
    /// pass `Some(false)`: their granule state comes from the primary's
    /// log, never from local migration work.
    pub background: Option<bool>,
    /// Per-statement bitmap dimensions to use instead of deriving them
    /// from the local heap.
    pub tracker_caps: Option<TrackerCaps>,
    /// Skips §2.4 eager validation even when the plan requests it (the
    /// primary already validated; re-running against a lagging replica
    /// heap could spuriously fail).
    pub skip_validation: bool,
}

/// Point-in-time view of an active migration's progress, as reported by
/// [`Bullfrog::progress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationProgress {
    /// Plan name.
    pub name: String,
    /// Statements in the plan.
    pub statements: u64,
    /// Statements whose physical migration has finished.
    pub statements_complete: u64,
    /// Whether every statement finished.
    pub complete: bool,
    /// Whether the old input tables reject writes while migrating.
    pub frozen_inputs: bool,
    /// Granules marked migrated, summed over every statement's tracker.
    pub granules_done: u64,
    /// Total granules across every tracker (hash-tracked statements
    /// report groups observed so far, converging on the true total).
    pub granules_total: u64,
    /// Counter snapshot.
    pub stats: crate::stats::MigrationStatsSnapshot,
}

/// The BullFrog database: an engine plus lazy schema evolution.
pub struct Bullfrog {
    db: Arc<Database>,
    config: BullfrogConfig,
    active: RwLock<Option<Arc<ActiveMigration>>>,
    retired: RwLock<HashSet<String>>,
    flipped: AtomicBool,
    shutdown: Arc<AtomicBool>,
    bg_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Bullfrog {
    /// Wraps a database with default configuration.
    pub fn new(db: Arc<Database>) -> Self {
        Self::with_config(db, BullfrogConfig::default())
    }

    /// Wraps a database with the given configuration.
    pub fn with_config(db: Arc<Database>, config: BullfrogConfig) -> Self {
        Bullfrog {
            db,
            config,
            active: RwLock::new(None),
            retired: RwLock::new(HashSet::new()),
            flipped: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
            bg_threads: Mutex::new(Vec::new()),
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> &BullfrogConfig {
        &self.config
    }

    /// The active migration, if one is running.
    pub fn active(&self) -> Option<Arc<ActiveMigration>> {
        self.active.read().clone()
    }

    /// Point-in-time progress of the active migration (`None` when no
    /// migration is live). This is what the server's `STATUS` opcode
    /// reports to remote clients.
    pub fn progress(&self) -> Option<MigrationProgress> {
        let active = self.active()?;
        Some(MigrationProgress {
            name: active.name.clone(),
            statements: active.runtimes.len() as u64,
            statements_complete: (0..active.runtimes.len())
                .filter(|&i| active.is_statement_complete(i))
                .count() as u64,
            complete: active.is_complete(),
            frozen_inputs: active.frozen_inputs,
            granules_done: active
                .runtimes
                .iter()
                .map(|rt| rt.tracker.migrated_count())
                .sum(),
            granules_total: active
                .runtimes
                .iter()
                .map(|rt| rt.tracker.total_granules())
                .sum(),
            stats: active.stats.snapshot(),
        })
    }

    /// Submits a migration: validates, creates output tables, flips the
    /// logical schema, and (per config) schedules background migration.
    /// The flip is O(statements), never O(data). When the inputs are
    /// frozen or retired, the call then builds any group-key index before
    /// it returns; that backfill is O(key table), but no client waits for
    /// it.
    pub fn submit_migration(&self, plan: MigrationPlan) -> Result<Arc<ActiveMigration>> {
        self.submit_migration_with(plan, SubmitOptions::default())
            .map(|(m, _)| m)
    }

    /// As [`Bullfrog::submit_migration`], with replication-mirror controls,
    /// returning the per-statement bitmap tracker dimensions actually used
    /// (`(row_capacity, granule_size)`; `(0, 0)` for hash-tracked
    /// statements). A primary journals these so its replicas allocate
    /// identically-shaped trackers: the replica's heap bound at apply time
    /// can lag the primary's at submit time, and a smaller bitmap would
    /// panic on out-of-range granule marks shipped in the log.
    pub fn submit_migration_with(
        &self,
        mut plan: MigrationPlan,
        opts: SubmitOptions,
    ) -> Result<(Arc<ActiveMigration>, TrackerCaps)> {
        if self.active.read().is_some() {
            return Err(Error::InvalidMigration(
                "a migration is already in progress".into(),
            ));
        }
        let obs = Arc::clone(self.db.obs());
        let flip_started = std::time::Instant::now();
        let flip_t0 = obs.now_us();
        plan.resolve(&self.db)?;

        if plan.validate_eagerly && !opts.skip_validation {
            self.validate_plan(&plan)?;
        }

        // ON CONFLICT mode requires a unique constraint on every output
        // (paper §3.7's applicability condition).
        if self.config.dedup == DedupMode::OnConflict {
            for s in &plan.statements {
                if s.output.primary_key.is_empty() && s.output.uniques.is_empty() {
                    return Err(Error::InvalidMigration(format!(
                        "ON CONFLICT dedup requires a unique constraint on {}",
                        s.output.name
                    )));
                }
            }
        }

        // Create the (empty) output tables.
        for s in &plan.statements {
            self.db.create_table(s.output.clone())?;
        }
        let inputs_unwritable = plan.freeze_inputs || plan.big_flip;

        // Allocate trackers.
        let stats = Arc::new(MigrationStats::new());
        let mut runtimes = Vec::with_capacity(plan.statements.len());
        let mut caps = Vec::with_capacity(plan.statements.len());
        for (i, s) in plan.statements.iter().enumerate() {
            let tracker: Arc<dyn Tracker> = match s.tracking() {
                Tracking::Bitmap {
                    driving_alias,
                    granule_rows,
                } => {
                    let (cap, gran) = match opts.tracker_caps.as_ref().and_then(|c| c.get(i)) {
                        Some(&(cap, gran)) if cap > 0 => (cap, gran),
                        _ => {
                            let table_name =
                                &s.spec.input(driving_alias).expect("resolved alias").table;
                            let cap = self.db.table(table_name)?.heap().ordinal_bound();
                            (cap.max(1), *granule_rows)
                        }
                    };
                    caps.push((cap, gran));
                    Arc::new(BitmapTracker::new(cap, gran))
                }
                Tracking::Hash { .. } | Tracking::PairHash { .. } => {
                    caps.push((0, 0));
                    Arc::new(HashTracker::new())
                }
            };
            runtimes.push(Arc::new(StatementRuntime::new(
                i as u32,
                s.clone(),
                tracker,
                Arc::clone(&stats),
                &obs,
                inputs_unwritable,
            )));
        }

        let by_output = runtimes
            .iter()
            .enumerate()
            .map(|(i, rt)| (rt.stmt.output.name.clone(), i))
            .collect();
        let si = self.db.config().mode.is_snapshot();
        let migration = Arc::new(ActiveMigration {
            name: plan.name.clone(),
            complete: runtimes.iter().map(|_| AtomicBool::new(false)).collect(),
            by_output,
            inputs: plan.input_tables().into_iter().collect(),
            group_indexes: Mutex::new(Vec::new()),
            stats,
            frozen_inputs: plan.freeze_inputs,
            runtimes,
            ready: AtomicBool::new(!si),
        });

        // The logical switch: new schema live, old schema (big flip)
        // retired.
        if plan.big_flip {
            let mut retired = self.retired.write();
            for t in plan.input_tables() {
                retired.insert(t);
            }
        }
        *self.active.write() = Some(Arc::clone(&migration));
        self.flipped.store(true, Ordering::Release);

        // Snapshot mode: drain pre-flip writers before any granule work
        // starts. Granule reads run lock-free at their own snapshots, so a
        // transaction that wrote an input table before the flip and is
        // still uncommitted could commit *behind* a granule read and be
        // lost from the new schema. The flip above already makes new
        // input-table writes fail the frozen/retired checks (those
        // rejections also unwind any straggler blocked on this gate);
        // draining the rest closes the window. On timeout (a writer held a
        // write open pathologically long) we open the gate anyway — that
        // degrades to at-flip-race semantics rather than wedging the
        // migration forever.
        if si {
            let oracle = self.db.wal().oracle();
            let barrier = oracle.barrier_seq();
            let quiesce = obs.tracer().span("migrate.quiesce", barrier);
            oracle.quiesce_writers_before(barrier, Duration::from_secs(5));
            obs.histogram("migrate.quiesce_us").record(quiesce.finish());
            migration.ready.store(true, Ordering::Release);
        }

        obs.tracer().record(
            "migrate.flip",
            migration.runtimes.len() as u64,
            flip_t0,
            obs.now_us(),
        );
        obs.histogram("migrate.flip_us")
            .record_micros(flip_started.elapsed());

        // Group-key indexes, after the flip: no new transaction can write
        // an unwritable input any more, so the build waits only for the
        // pre-flip stragglers and blocks no live client. Granule work
        // scans until an index is published. Writable inputs get none.
        if inputs_unwritable {
            self.build_group_indexes(&plan, &migration);
        }

        // Background migration threads (§2.2).
        if opts.background.unwrap_or(self.config.background.enabled) {
            self.spawn_background_for(&migration);
        }
        Ok((migration, caps))
    }

    /// Gives each hash-tracked statement whose group key is a list of
    /// bare columns an index led by those columns, unless the key table
    /// already has one, so that finding and reading a group costs
    /// O(group) rather than a table scan. Records the `(table, index)`
    /// pairs built in `migration`.
    ///
    /// The backfill runs under the key table's S lock, so no writer is in
    /// flight: none of its uncommitted changes can be missed by the scan
    /// or rolled back into an index that never saw them. When the lock
    /// times out, the statement keeps the scan path, which stays correct.
    fn build_group_indexes(&self, plan: &MigrationPlan, migration: &ActiveMigration) {
        let mut built = migration.group_indexes.lock();
        for s in &plan.statements {
            let Tracking::Hash {
                key_alias,
                key_exprs,
            } = s.tracking()
            else {
                continue;
            };
            let table_name = &s.spec.input(key_alias).expect("resolved alias").table;
            let Ok(table) = self.db.table(table_name) else {
                continue;
            };
            let keys: Vec<Expr> = key_exprs.iter().map(strip_aliases).collect();
            let Some(cols) = group_key_columns(&table, &keys) else {
                continue;
            };
            if table.index_led_by(&cols).is_some() {
                continue;
            }
            let names: Vec<&str> = cols
                .iter()
                .map(|&c| table.schema().columns[c].name.as_str())
                .collect();
            let index = format!("{}_{}_group_idx", table.name(), names.join("_"));
            let mut txn = self.db.begin();
            let ok = self
                .db
                .lock(&mut txn, LockKey::Table(table.id()), LockMode::S)
                .and_then(|()| table.create_index(&index, &names, false))
                .is_ok();
            self.db.abort(&mut txn);
            if ok {
                built.push((table_name.clone(), index));
            }
        }
    }

    /// Spawns background migration workers for `migration` and tracks
    /// their join handles.
    fn spawn_background_for(&self, migration: &Arc<ActiveMigration>) {
        let mut bg_opts = self.migrate_options(true, migration.runtimes.clone(), None);
        bg_opts.cancel = Some(Arc::clone(&self.shutdown));
        let handles = crate::background::spawn_background(
            Arc::clone(&self.db),
            Arc::clone(migration),
            self.config.background.clone(),
            bg_opts,
            Arc::clone(&self.shutdown),
        );
        self.bg_threads.lock().extend(handles);
    }

    /// (Re)spawns background migration workers for the currently active
    /// migration, if any and if it is still incomplete. Recovery and
    /// replication promotion call this after rebuilding the tracker state:
    /// [`Bullfrog::submit_migration_with`] with `background: Some(false)`
    /// (the mirror path) deliberately skips the spawn, and a restored
    /// primary would otherwise never finish its migration without client
    /// traffic. Honors `config.background.enabled`; idempotent in the
    /// sense that extra workers cooperate harmlessly through the trackers,
    /// but callers should invoke it once per restore.
    pub fn respawn_background(&self) {
        if !self.config.background.enabled {
            return;
        }
        let Some(migration) = self.active() else {
            return;
        };
        if migration.is_complete() {
            return;
        }
        self.spawn_background_for(&migration);
    }

    /// §2.4 synchronous validation: evaluates every statement fully and
    /// checks the output rows against the new schema (types, NOT NULL,
    /// CHECK, and duplicate unique keys) without inserting anything.
    fn validate_plan(&self, plan: &MigrationPlan) -> Result<()> {
        for s in &plan.statements {
            let mut txn = self.db.begin();
            let result = bullfrog_engine::exec::execute_spec(
                &self.db,
                &mut txn,
                &s.spec,
                &ExecOptions::default(),
            );
            self.db.abort(&mut txn); // read-only; discard
            let out = result?;
            // Collect unique key sets.
            let mut unique_sets: Vec<(String, Vec<usize>, HashSet<Vec<Value>>)> = Vec::new();
            if !s.output.primary_key.is_empty() {
                unique_sets.push((
                    format!("{}_pkey", s.output.name),
                    s.output.pk_indices()?,
                    HashSet::new(),
                ));
            }
            for u in &s.output.uniques {
                unique_sets.push((
                    u.name.clone(),
                    s.output.col_indices(&u.columns)?,
                    HashSet::new(),
                ));
            }
            for row in &out.rows {
                s.output.validate_row(row)?;
                for (name, cols, seen) in &mut unique_sets {
                    if !seen.insert(row.key(cols)) {
                        return Err(Error::UniqueViolation {
                            table: s.output.name.clone(),
                            constraint: name.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn migrate_options(
        &self,
        background: bool,
        peers: Vec<Arc<StatementRuntime>>,
        parent: Option<TxnId>,
    ) -> MigrateOptions {
        MigrateOptions {
            dedup: self.config.dedup,
            wait_timeout: self.config.wait_timeout,
            failpoint: self.config.failpoint.clone(),
            background,
            peers,
            fk_depth: 0,
            parent,
            ..Default::default()
        }
    }

    /// Rejects access to retired (pre-flip) tables.
    fn check_not_retired(&self, table: &str) -> Result<()> {
        if self.retired.read().contains(table) {
            return Err(Error::SchemaRetired(table.to_owned()));
        }
        Ok(())
    }

    /// Lazily migrates everything a request with `pred` over
    /// `output_table` might touch. No-op when the table is not an output
    /// of the active migration or its statement already completed.
    pub fn ensure_migrated(&self, output_table: &str, pred: Option<&Expr>) -> Result<()> {
        self.ensure_migrated_as(output_table, pred, None)
    }

    /// As [`Bullfrog::ensure_migrated`], on behalf of client transaction
    /// `parent`: the migration transactions it spawns treat `parent`'s
    /// locks as compatible, so a transaction that wrote input rows itself
    /// (co-maintained plans keep inputs writable) can still lazily migrate
    /// the granules those rows belong to.
    fn ensure_migrated_as(
        &self,
        output_table: &str,
        pred: Option<&Expr>,
        parent: Option<TxnId>,
    ) -> Result<()> {
        let Some(active) = self.active() else {
            return Ok(());
        };
        let Some(idx) = active.by_output.get(output_table).copied() else {
            return Ok(());
        };
        if active.is_statement_complete(idx) {
            return Ok(());
        }
        active.wait_ready();
        let rt = &active.runtimes[idx];
        let candidates = candidates_for(&self.db, rt, pred)?;
        migrate_candidates(
            &self.db,
            rt,
            candidates,
            &self.migrate_options(false, active.runtimes.clone(), parent),
        )
    }

    /// Constraint-driven widening for an insert into `table` (§2.1, §4.5):
    /// before the insert's uniqueness and FK checks can be trusted, any
    /// old-schema data that could conflict or be referenced must be in the
    /// new schema.
    fn ensure_for_insert(&self, table: &str, row: &Row, parent: Option<TxnId>) -> Result<()> {
        let Some(active) = self.active() else {
            return Ok(());
        };
        let Some(rt) = active.runtime_for(table) else {
            return Ok(());
        };
        let schema = &rt.stmt.output;
        // Unique constraints: migrate rows sharing the key values.
        let mut key_sets: Vec<Vec<usize>> = Vec::new();
        if !schema.primary_key.is_empty() {
            key_sets.push(schema.pk_indices()?);
        }
        for u in &schema.uniques {
            key_sets.push(schema.col_indices(&u.columns)?);
        }
        for cols in key_sets {
            let pred = conjoin(
                cols.iter()
                    .map(|&i| {
                        Expr::column(schema.columns[i].name.clone()).eq(Expr::Lit(row[i].clone()))
                    })
                    .collect(),
            );
            self.ensure_migrated_as(table, pred.as_ref(), parent)?;
        }
        // FK constraints whose target is itself being migrated: the
        // referenced key must exist in the new schema before the check.
        for fk in &schema.foreign_keys {
            if active.runtime_for(&fk.ref_table).is_none() {
                continue;
            }
            let cols = schema.col_indices(&fk.columns)?;
            let key: Vec<Value> = row.key(&cols);
            if key.iter().any(Value::is_null) {
                continue;
            }
            let pred = conjoin(
                fk.ref_columns
                    .iter()
                    .zip(key)
                    .map(|(c, v)| Expr::column(c.clone()).eq(Expr::Lit(v)))
                    .collect(),
            );
            self.ensure_migrated_as(&fk.ref_table, pred.as_ref(), parent)?;
        }
        Ok(())
    }

    /// Writes to old-schema input tables are rejected while a
    /// backwards-compatible migration runs (lazy migration requires frozen
    /// inputs; big-flip plans retire them outright).
    fn check_not_frozen_input(&self, table: &str) -> Result<()> {
        if let Some(active) = self.active() {
            if active.frozen_inputs && !active.is_complete() && active.inputs.contains(table) {
                return Err(Error::SchemaRetired(format!(
                    "{table} is frozen while migration '{}' is in progress",
                    active.name
                )));
            }
        }
        Ok(())
    }

    /// True when the active migration (if any) has fully completed.
    pub fn migration_complete(&self) -> bool {
        match self.active() {
            None => true,
            Some(m) => m.is_complete(),
        }
    }

    /// Blocks until the migration completes or `timeout` elapses.
    pub fn wait_migration_complete(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.migration_complete() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.migration_complete()
    }

    /// Finishes a completed migration: drops the old tables (when
    /// `drop_old`) and clears the active slot. Errors when incomplete or
    /// when no migration is active.
    ///
    /// The per-statement completion flags are normally set by the
    /// background workers; when they are unset (e.g. background migration
    /// disabled and clients did all the work), this performs the
    /// authoritative check itself: every candidate granule of every
    /// statement must be migrated.
    pub fn finalize_migration(&self, drop_old: bool) -> Result<()> {
        self.finalize_inner(drop_old, false)
    }

    /// Finalizes without the completeness gate. A replication replica
    /// mirrors a primary's already-gated `FINALIZE MIGRATION`: granule
    /// records committed between the journal point and the finalize check
    /// may still sit in the unapplied tail, so the replica's local tracker
    /// can lag even though the primary proved completeness.
    pub fn finalize_migration_force(&self, drop_old: bool) -> Result<()> {
        self.finalize_inner(drop_old, true)
    }

    fn finalize_inner(&self, drop_old: bool, force: bool) -> Result<()> {
        let obs = Arc::clone(self.db.obs());
        let started = std::time::Instant::now();
        let t0 = obs.now_us();
        let Some(active) = self.active() else {
            // Forced (mirror) finalizes stay idempotent: a replica that
            // bootstrapped from a post-finalize snapshot has no active
            // migration when the journaled Finalize event replays.
            if force {
                return Ok(());
            }
            return Err(Error::InvalidMigration(
                "no active migration to finalize".into(),
            ));
        };
        if !force && !active.is_complete() {
            for (idx, rt) in active.runtimes.iter().enumerate() {
                if active.is_statement_complete(idx) {
                    continue;
                }
                let all = all_candidates(&self.db, rt)?;
                if all
                    .iter()
                    .all(|g| rt.tracker.state(g) == crate::granule::GranuleState::Migrated)
                {
                    active.set_complete(idx);
                }
            }
        }
        if !force && !active.is_complete() {
            return Err(Error::InvalidMigration(format!(
                "migration '{}' is not complete",
                active.name
            )));
        }
        if drop_old {
            for t in &active.inputs {
                let _ = self.db.drop_table(t);
            }
        } else {
            for (table, index) in active.group_indexes.lock().iter() {
                if let Ok(t) = self.db.table(table) {
                    t.drop_index(index);
                }
            }
        }
        *self.active.write() = None;
        // Only a finalize that actually retired the migration records;
        // probes that error ("not complete") are drain-polling noise.
        obs.tracer()
            .record("migrate.finalize", u64::from(drop_old), t0, obs.now_us());
        obs.histogram("migrate.finalize_us")
            .record_micros(started.elapsed());
        Ok(())
    }

    /// Stops background threads (joins them).
    pub fn shutdown_background(&self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.bg_threads.lock().drain(..) {
            let _ = h.join();
        }
        self.shutdown.store(false, Ordering::Release);
    }
}

impl Drop for Bullfrog {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.bg_threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl ClientAccess for Bullfrog {
    fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn version(&self) -> SchemaVersion {
        if self.flipped.load(Ordering::Acquire) {
            SchemaVersion::New
        } else {
            SchemaVersion::Old
        }
    }

    fn select(
        &self,
        txn: &mut Transaction,
        table: &str,
        predicate: Option<&Expr>,
        policy: LockPolicy,
    ) -> Result<Vec<(RowId, Row)>> {
        self.check_not_retired(table)?;
        self.ensure_migrated_as(table, predicate, Some(txn.id()))?;
        // The lazy migration just committed rows this client's snapshot
        // predates; advance a still-unused snapshot so the read sees them.
        self.db.refresh_snapshot(txn);
        self.db.select(txn, table, predicate, policy)
    }

    fn get_by_pk(
        &self,
        txn: &mut Transaction,
        table: &str,
        key: &[Value],
        policy: LockPolicy,
    ) -> Result<Option<(RowId, Row)>> {
        self.check_not_retired(table)?;
        // Build the pk predicate for migration scoping.
        if let Ok(t) = self.db.table(table) {
            let pk = &t.schema().primary_key;
            if pk.len() == key.len() {
                let pred = conjoin(
                    pk.iter()
                        .zip(key)
                        .map(|(c, v)| Expr::column(c.clone()).eq(Expr::Lit(v.clone())))
                        .collect(),
                );
                self.ensure_migrated_as(table, pred.as_ref(), Some(txn.id()))?;
            } else {
                self.ensure_migrated_as(table, None, Some(txn.id()))?;
            }
        }
        self.db.refresh_snapshot(txn);
        self.db.get_by_pk(txn, table, key, policy)
    }

    fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<RowId> {
        self.check_not_retired(table)?;
        self.check_not_frozen_input(table)?;
        self.ensure_for_insert(table, &row, Some(txn.id()))?;
        self.db.refresh_snapshot(txn);
        self.db.insert(txn, table, row)
    }

    fn update(&self, txn: &mut Transaction, table: &str, rid: RowId, row: Row) -> Result<()> {
        self.check_not_retired(table)?;
        self.check_not_frozen_input(table)?;
        // Updates changing a unique key must respect the same widening as
        // inserts (§2.1: "updates to the unique attribute").
        self.ensure_for_insert(table, &row, Some(txn.id()))?;
        self.db.refresh_snapshot(txn);
        self.db.update(txn, table, rid, row)
    }

    fn delete(&self, txn: &mut Transaction, table: &str, rid: RowId) -> Result<Row> {
        self.check_not_retired(table)?;
        self.check_not_frozen_input(table)?;
        self.db.delete(txn, table, rid)
    }

    fn execute_spec(
        &self,
        txn: &mut Transaction,
        spec: &SelectSpec,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        // Every input that is a new-schema output must be migrated for the
        // slice this read touches: transpose the read's own single-alias
        // conjuncts into per-output-table predicates.
        for input in &spec.inputs {
            self.check_not_retired(&input.table)?;
            let mut parts: Vec<Expr> = Vec::new();
            if let Some(f) = &spec.filter {
                for c in conjuncts(f) {
                    let mut cols = Vec::new();
                    c.columns(&mut cols);
                    let all_this_alias = !cols.is_empty()
                        && cols
                            .iter()
                            .all(|cr| cr.table.as_deref() == Some(input.alias.as_str()));
                    if all_this_alias {
                        parts.push(bullfrog_engine::exec::strip_aliases(&c));
                    }
                }
            }
            if let Some(extra) = opts.extra_filters.get(&input.alias) {
                parts.push(bullfrog_engine::exec::strip_aliases(extra));
            }
            self.ensure_migrated_as(&input.table, conjoin(parts).as_ref(), Some(txn.id()))?;
        }
        self.db.refresh_snapshot(txn);
        bullfrog_engine::exec::execute_spec(&self.db, txn, spec, opts)
    }
}

impl std::fmt::Debug for Bullfrog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bullfrog")
            .field("flipped", &self.flipped.load(Ordering::Relaxed))
            .field("active", &self.active().map(|a| a.name.clone()))
            .finish()
    }
}
