//! Hash-tracked (n:1) migrations through a group-key index.
//!
//! Right after the flip of a plan that freezes or retires its inputs,
//! the controller gives a hash-tracked statement whose group key is a
//! list of bare columns an index led by those columns, so finding a
//! group's granule and reading its rows cost O(group) rather than a table
//! scan. The properties under test:
//!
//! - **Same candidates**: for any predicate, the index path names the
//!   same granules as the scan path it replaces.
//! - **Stragglers**: a transaction that moved an input row between
//!   groups before the flip and rolls back after it leaves no trace in
//!   the output, whether or not the index could be built around it.
//! - **Stragglers reading the output**: two pre-flip writers of
//!   disjoint groups each read their group after the flip without
//!   waiting for the other (2PL).
//! - **Co-maintained plans** (`freeze_inputs = false`) still migrate
//!   every group exactly once while clients keep writing the input.
//!
//! Engine mode comes from `BULLFROG_ENGINE_MODE` (the verify script runs
//! this crate under both 2PL and SI).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, TableSchema, Value};
use bullfrog_core::{
    candidates_for, BackgroundConfig, Bullfrog, BullfrogConfig, ClientAccess, HashTracker,
    MigrationPlan, MigrationStatement, MigrationStats, StatementRuntime,
};
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_query::{AggFunc, Expr, SelectSpec};
use proptest::prelude::*;

fn accounts(db: &Database) {
    db.create_table(
        TableSchema::new(
            "acc",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("owner", DataType::Int),
                ColumnDef::new("region", DataType::Int),
                ColumnDef::new("bal", DataType::Int),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
}

/// `acc_totals`: SUM(bal) grouped by `key` (bare `acc` columns).
fn totals_statement(key: &[&str]) -> MigrationStatement {
    let mut spec = SelectSpec::new().from_table("acc", "a");
    let mut columns = Vec::new();
    for k in key {
        spec = spec.select(*k, Expr::col("a", *k));
        columns.push(ColumnDef::new(*k, DataType::Int));
    }
    spec = spec.select_agg("total", AggFunc::Sum, Expr::col("a", "bal"));
    columns.push(ColumnDef::nullable("total", DataType::Int));
    MigrationStatement::new(
        TableSchema::new("acc_totals", columns).with_primary_key(key),
        spec,
    )
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("integer column")
}

// --- index path vs scan path ------------------------------------------

/// A client predicate over `acc_totals(owner, region, total)`.
#[derive(Debug, Clone)]
enum Pred {
    Whole,
    Owner(i64),
    Both(i64, i64),
    /// Both keys pinned plus a conjunct that may contradict them.
    BothAndRegionBelow(i64, i64, i64),
    /// Both keys pinned plus an untransposable aggregate conjunct.
    BothAndTotalAbove(i64, i64, i64),
    OwnerAbove(i64),
}

impl Pred {
    fn expr(&self) -> Option<Expr> {
        let eq = |c: &str, v: i64| Expr::column(c).eq(Expr::lit(v));
        match *self {
            Pred::Whole => None,
            Pred::Owner(o) => Some(eq("owner", o)),
            Pred::Both(o, r) => Some(eq("owner", o).and(eq("region", r))),
            Pred::BothAndRegionBelow(o, r, c) => Some(
                eq("owner", o)
                    .and(eq("region", r))
                    .and(Expr::column("region").lt(Expr::lit(c))),
            ),
            Pred::BothAndTotalAbove(o, r, t) => Some(
                eq("region", r)
                    .and(Expr::column("total").gt(Expr::lit(t)))
                    .and(eq("owner", o)),
            ),
            Pred::OwnerAbove(o) => Some(Expr::column("owner").gt(Expr::lit(o))),
        }
    }
}

/// Key values run one past the data on both sides, so absent keys occur.
fn arb_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (0i64..1).prop_map(|_| Pred::Whole),
        (-1i64..7).prop_map(Pred::Owner),
        (-1i64..7, -1i64..5).prop_map(|(o, r)| Pred::Both(o, r)),
        (-1i64..7, -1i64..5, 0i64..5).prop_map(|(o, r, c)| Pred::BothAndRegionBelow(o, r, c)),
        (-1i64..7, -1i64..5, 0i64..300).prop_map(|(o, r, t)| Pred::BothAndTotalAbove(o, r, t)),
        (-1i64..7).prop_map(Pred::OwnerAbove),
    ]
}

/// A database holding `rows` as `(owner, region, bal)` minus the rows at
/// the `deletes` positions, and a runtime for the two-column GROUP BY.
fn grouped(
    rows: &[(i64, i64, i64)],
    deletes: &[usize],
    index: Option<&[&str]>,
) -> (Database, StatementRuntime) {
    let db = Database::new();
    accounts(&db);
    let mut rids = Vec::new();
    for (id, &(owner, region, bal)) in rows.iter().enumerate() {
        rids.push(
            db.insert_unlogged("acc", row![id as i64, owner, region, bal])
                .unwrap(),
        );
    }
    for &d in deletes {
        if let Some(&rid) = rids.get(d) {
            let _ = db.table("acc").unwrap().delete(rid);
        }
    }
    if let Some(cols) = index {
        db.create_index("acc", "acc_key_idx", cols, false).unwrap();
    }
    let mut stmt = totals_statement(&["owner", "region"]);
    stmt.resolve(&db).unwrap();
    let rt = StatementRuntime::new(
        0,
        stmt,
        Arc::new(HashTracker::new()),
        Arc::new(MigrationStats::new()),
        db.obs(),
        false,
    );
    (db, rt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_candidates_equal_scan_candidates(
        rows in proptest::collection::vec((0i64..6, 0i64..4, 0i64..100), 0..60),
        deletes in proptest::collection::vec(0usize..60, 0..12),
        preds in proptest::collection::vec(arb_pred(), 1..8),
        reversed in any::<bool>(),
    ) {
        // Index column order need not match the key order.
        let cols: &[&str] = if reversed { &["region", "owner"] } else { &["owner", "region"] };
        let (plain, plain_rt) = grouped(&rows, &deletes, None);
        let (indexed, indexed_rt) = grouped(&rows, &deletes, Some(cols));
        for p in &preds {
            let expr = p.expr();
            let scanned = candidates_for(&plain, &plain_rt, expr.as_ref()).unwrap();
            let looked_up = candidates_for(&indexed, &indexed_rt, expr.as_ref()).unwrap();
            prop_assert_eq!(&looked_up, &scanned, "predicate {:?}", p);
        }
    }
}

// --- a straggler across the flip -------------------------------------------

const OWNERS: i64 = 40;
const PER_OWNER: i64 = 25;
/// An owner with a single row, which the straggler moves away.
const LONE_OWNER: i64 = 99;
const LONE_ID: i64 = 10_000;
/// A group that exists only in the straggler's uncommitted write.
const PHANTOM_OWNER: i64 = 77;

fn bal(id: i64) -> i64 {
    id * 7 % 101
}

fn straggler_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    accounts(&db);
    for id in 0..OWNERS * PER_OWNER {
        db.insert_unlogged("acc", row![id, id % OWNERS, 0, bal(id)])
            .unwrap();
    }
    db.insert_unlogged("acc", row![LONE_ID, LONE_OWNER, 0, 5])
        .unwrap();
    db
}

fn oracle(db: &Database) -> BTreeMap<i64, i64> {
    let mut totals = BTreeMap::new();
    for (_, r) in db.select_unlocked("acc", None).unwrap() {
        *totals.entry(int(&r[1])).or_insert(0) += int(&r[3]);
    }
    totals
}

fn output(db: &Database) -> BTreeMap<i64, i64> {
    let rows = db.select_unlocked("acc_totals", None).unwrap();
    let totals: BTreeMap<i64, i64> = rows.iter().map(|(_, r)| (int(&r[0]), int(&r[1]))).collect();
    assert_eq!(totals.len(), rows.len(), "a group migrated twice");
    totals
}

fn eager_background() -> BullfrogConfig {
    BullfrogConfig {
        background: BackgroundConfig {
            enabled: true,
            start_delay: Duration::ZERO,
            batch: 8,
            pause: Duration::ZERO,
            threads: 2,
        },
        ..BullfrogConfig::default()
    }
}

/// Reads one owner's total through the controller, retrying lock
/// timeouts and write conflicts.
fn read_total(db: &Database, bf: &Bullfrog, owner: i64) -> Option<i64> {
    let pred = Expr::column("owner").eq(Expr::lit(owner));
    for _ in 0..200 {
        let mut txn = db.begin();
        match bf.select(&mut txn, "acc_totals", Some(&pred), LockPolicy::Shared) {
            Ok(rows) => {
                db.commit(&mut txn).unwrap();
                assert!(rows.len() <= 1, "owner {owner} has {} totals", rows.len());
                return rows.first().map(|(_, r)| int(&r[1]));
            }
            Err(e) if e.is_retryable() => db.abort(&mut txn),
            Err(e) => panic!("read of owner {owner}: {e}"),
        }
    }
    panic!("read of owner {owner} kept timing out");
}

/// A transaction moves the lone owner's only row, and one row of owner
/// 5, into other groups before the flip, then rolls back after the
/// flip, while clients and the background sweep migrate. Under 2PL it
/// aborts either inside the index build's lock wait (held 50 ms; the
/// index is then built on the clean table) or after that wait timed out
/// (held 600 ms against the 200 ms default lock timeout; the statement
/// then keeps the scan path). The output must match the committed input,
/// each group exactly once, and no client may see any other total. One
/// client reads owner 5 first, while the straggler may still hold the
/// row it moved out of that group: a read that took row S locks on the
/// group's current rows would miss that row and freeze a short total.
#[test]
fn straggler_rollback_leaves_no_trace_in_an_aggregate() {
    for hold in [Duration::from_millis(50), Duration::from_millis(600)] {
        let db = straggler_db();
        let expected = oracle(&db);
        let (moved_tx, moved_rx) = mpsc::channel();
        let straggler = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut txn = db.begin();
                let t = db.table("acc").unwrap();
                let (lone, _) = t.get_by_pk(&[Value::Int(LONE_ID)]).unwrap();
                db.update(&mut txn, "acc", lone, row![LONE_ID, 3, 0, 5])
                    .unwrap();
                let (five, _) = t.get_by_pk(&[Value::Int(5)]).unwrap();
                db.update(&mut txn, "acc", five, row![5, PHANTOM_OWNER, 0, 1_000])
                    .unwrap();
                moved_tx.send(()).unwrap();
                std::thread::sleep(hold);
                db.abort(&mut txn);
            })
        };
        moved_rx.recv().unwrap();

        let bf = Arc::new(Bullfrog::with_config(Arc::clone(&db), eager_background()));
        bf.submit_migration(
            MigrationPlan::new("acc_totals").with_statement(totals_statement(&["owner"])),
        )
        .unwrap();
        let clients: Vec<_> = (0..2i64)
            .map(|c| {
                let (db, bf, expected) = (Arc::clone(&db), Arc::clone(&bf), expected.clone());
                std::thread::spawn(move || {
                    // The lone owner is left to the background sweep: its
                    // enumeration must not miss the group the straggler
                    // emptied.
                    let mut owners: Vec<i64> = if c == 0 {
                        vec![5, 3, PHANTOM_OWNER]
                    } else {
                        vec![3, PHANTOM_OWNER, 5]
                    };
                    owners.extend((0..OWNERS).map(|o| (o * 7 + c) % OWNERS));
                    for owner in owners {
                        if let Some(total) = read_total(&db, &bf, owner) {
                            assert_eq!(Some(&total), expected.get(&owner), "owner {owner}");
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        straggler.join().unwrap();
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        bf.shutdown_background();

        assert_eq!(output(&db), expected, "held {hold:?}");
        let stats = bf.active().unwrap().stats.snapshot();
        assert_eq!(stats.rows_migrated, expected.len() as u64);
        assert_eq!(stats.rows_dropped, 0);
    }
}

/// Two transactions each update a row of their own group before the
/// flip, then read that group's total from the new table after it, then
/// commit. Under 2PL neither may wait for the other: each one's IX lock
/// on the frozen input keeps the other's migration from its table S
/// lock, so a migration run for a straggler takes row S locks instead.
/// (A lazy migration retries lock timeouts, so two stragglers waiting
/// for each other would stall for good.) SI drains pre-flip writers at
/// the flip, so the case is 2PL's alone.
#[test]
fn stragglers_on_disjoint_groups_read_the_output_without_waiting() {
    let db = straggler_db();
    if db.config().mode.is_snapshot() {
        return;
    }
    let mut config = eager_background();
    config.background.enabled = false;
    let bf = Arc::new(Bullfrog::with_config(Arc::clone(&db), config));
    let (written_tx, written_rx) = mpsc::channel();
    let (seen_tx, seen_rx) = mpsc::channel();
    let mut flipped = Vec::new();
    for (id, delta) in [(1i64, 100i64), (2, 200)] {
        let (db, bf) = (Arc::clone(&db), Arc::clone(&bf));
        let (written, seen) = (written_tx.clone(), seen_tx.clone());
        let (go_tx, go_rx) = mpsc::channel::<()>();
        flipped.push(go_tx);
        std::thread::spawn(move || {
            let owner = id % OWNERS;
            let mut txn = db.begin();
            let (rid, _) = db
                .table("acc")
                .unwrap()
                .get_by_pk(&[Value::Int(id)])
                .unwrap();
            db.update(&mut txn, "acc", rid, row![id, owner, 0, bal(id) + delta])
                .unwrap();
            written.send(()).unwrap();
            go_rx.recv().unwrap();
            let pred = Expr::column("owner").eq(Expr::lit(owner));
            let rows = bf
                .select(&mut txn, "acc_totals", Some(&pred), LockPolicy::Shared)
                .unwrap_or_else(|e| panic!("straggler on owner {owner}: {e}"));
            db.commit(&mut txn).unwrap();
            seen.send((owner, int(&rows[0].1[1]))).unwrap();
        });
    }
    for _ in 0..2 {
        written_rx.recv().unwrap();
    }
    bf.submit_migration(
        MigrationPlan::new("acc_totals").with_statement(totals_statement(&["owner"])),
    )
    .unwrap();
    for go in flipped {
        go.send(()).unwrap();
    }
    let seen: Vec<(i64, i64)> = (0..2)
        .map(|_| {
            seen_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a straggler's read stalled or failed")
        })
        .collect();

    let expected = oracle(&db);
    for (owner, total) in seen {
        assert_eq!(Some(&total), expected.get(&owner), "owner {owner}");
    }
    for &owner in expected.keys() {
        read_total(&db, &bf, owner);
    }
    assert_eq!(output(&db), expected);
}

// --- co-maintained plan ------------------------------------------------

/// One writer under the co-maintenance contract: insert an input row
/// that opens group `owner`, then upsert that group's total in the
/// output, as TPC-C's new-order does for `order_totals` (the lazy
/// migration behind the upsert's read sees the writer's own row). A
/// writer that rolls back touches only the input.
fn open_group(
    db: &Database,
    bf: &Bullfrog,
    id: i64,
    owner: i64,
    commit: bool,
) -> bullfrog_common::Result<()> {
    let mut txn = db.begin();
    let written = (|| {
        bf.insert(&mut txn, "acc", row![id, owner, 0, bal(id)])?;
        if !commit {
            std::thread::sleep(Duration::from_millis(2));
            return Ok(());
        }
        let key = [Value::Int(owner)];
        match bf.get_by_pk(&mut txn, "acc_totals", &key, LockPolicy::Exclusive)? {
            Some((rid, _)) => bf.update(&mut txn, "acc_totals", rid, row![owner, bal(id)]),
            None => bf
                .insert(&mut txn, "acc_totals", row![owner, bal(id)])
                .map(drop),
        }
    })();
    match written {
        Ok(()) if commit => db.commit(&mut txn),
        outcome => {
            db.abort(&mut txn);
            outcome
        }
    }
}

/// With writable inputs, clients keep opening new groups while the
/// background sweep runs; some of them roll back. Every committed group
/// appears exactly once with its total, and no rolled-back row reaches
/// the output.
#[test]
fn co_maintained_plan_migrates_each_group_once_under_writers() {
    let db = Arc::new(Database::new());
    accounts(&db);
    for id in 0..400i64 {
        db.insert_unlogged("acc", row![id, id % 20, 0, bal(id)])
            .unwrap();
    }
    let bf = Arc::new(Bullfrog::with_config(Arc::clone(&db), eager_background()));
    let mut plan = MigrationPlan::new("acc_totals")
        .with_statement(totals_statement(&["owner"]))
        .backwards_compatible();
    plan.freeze_inputs = false;
    bf.submit_migration(plan).unwrap();

    let writers: Vec<_> = (0..2i64)
        .map(|w| {
            let (db, bf) = (Arc::clone(&db), Arc::clone(&bf));
            std::thread::spawn(move || {
                for i in 0..40i64 {
                    let (id, owner) = (10_000 + w * 1_000 + i, 1_000 + w * 100 + i);
                    let commit = i % 5 != 4;
                    let mut attempts = 0;
                    loop {
                        match open_group(&db, &bf, id, owner, commit) {
                            Ok(()) => break,
                            Err(e) if e.is_retryable() && attempts < 50 => attempts += 1,
                            Err(e) => panic!("writer for owner {owner}: {e}"),
                        }
                    }
                    let total = read_total(&db, &bf, owner);
                    assert_eq!(total, commit.then(|| bal(id)), "owner {owner}");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert!(bf.wait_migration_complete(Duration::from_secs(30)));
    bf.shutdown_background();

    // `output` fails on a group copied twice. Writers insert the totals
    // of the groups the migration has not reached, so the migration
    // itself copied at least the 20 pre-existing ones.
    let expected = oracle(&db);
    assert_eq!(output(&db), expected);
    let stats = bf.active().unwrap().stats.snapshot();
    assert!(stats.rows_migrated >= 20, "{stats:?}");
}
