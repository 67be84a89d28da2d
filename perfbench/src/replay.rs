//! The traced run's layer replay: a fixed slice of the seeded op stream,
//! single-threaded, through each layer's public entry point in turn —
//! `Client` (wire) → `Session` → `Bullfrog` (`ClientAccess`) →
//! `Database` → `Table`. Every call is a span whose parent is the same
//! op's call one layer up; a layer's self time is its span minus that
//! child span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Error, Result, Value};
use bullfrog_core::{Bullfrog, ClientAccess, Passthrough};
use bullfrog_engine::exec::ExecOptions;
use bullfrog_engine::{Database, LockPolicy};
use bullfrog_net::{Client, Response, Session, SessionCounters};
use bullfrog_query::{Expr, SelectSpec};
use bullfrog_sql::{parse_statement, parse_template, qualify_spec, Statement};

use crate::env::{int, READ_ID, UPD_ID};
use crate::stats::nanos;
use crate::trace::Spans;
use crate::wire;

/// Attempts per replayed call before its op is left out of the sample.
const ATTEMPTS: usize = 10;
/// Ops timed through `Database::select` behind an open writer.
pub const SI_READS: usize = 100;
/// Parses per SQL text for `sql.parse_us`.
const PARSE_ROUNDS: usize = 200;

#[derive(Clone, Copy)]
pub enum Op {
    Read(i64),
    /// `(from, to, amount)`.
    Transfer(i64, i64, i64),
}

/// Draws a transfer between two distinct uniform accounts. The lower id
/// is always debited first, so every transfer locks in one global order;
/// the sign of the amount keeps the drawn direction.
pub fn draw_transfer(rng: &mut crate::stats::Rng, rows: u64) -> Op {
    let a = rng.below(rows);
    let b = (a + 1 + rng.below(rows - 1)) % rows;
    let amount = 1 + rng.below(9) as i64;
    Op::Transfer(
        a.min(b) as i64,
        a.max(b) as i64,
        if a < b { amount } else { -amount },
    )
}

/// Per-op call durations (ns) by layer, index-aligned by op.
#[derive(Default)]
pub struct Layers {
    pub wire: Vec<u64>,
    pub session: Vec<u64>,
    pub core: Vec<u64>,
    pub engine: Vec<u64>,
    /// Per pk probe: a transfer probes two keys.
    pub storage: Vec<u64>,
    /// `Database::get_by_pk` alone, for the reads.
    pub get_by_pk: Vec<u64>,
    /// Ops left out because every attempt at some layer failed.
    pub errors: u64,
}

/// Per-op `outer − inner` in ns, for the ops both layers timed.
pub fn self_ns(outer: &[u64], inner: &[u64]) -> Vec<u64> {
    outer
        .iter()
        .zip(inner)
        .map(|(o, i)| o.saturating_sub(*i))
        .collect()
}

fn read_spec(db: &Database, table: &str, key: i64) -> SelectSpec {
    let t = parse_template(&format!("SELECT balance FROM {table} WHERE id = ?"))
        .expect("read template");
    match t.bind(&[Value::Int(key)]).expect("bind read") {
        Statement::Select(spec) => qualify_spec(db, &spec).expect("qualify read"),
        other => panic!("read template bound to {other:?}"),
    }
}

fn shared() -> ExecOptions {
    ExecOptions {
        lock: LockPolicy::Shared,
        ..ExecOptions::default()
    }
}

/// One autocommit read through `access` (core: `Bullfrog`; engine:
/// `Passthrough`).
fn read_via(access: &dyn ClientAccess, spec: &SelectSpec) -> Result<()> {
    let db = access.db();
    let mut txn = db.begin();
    match access.execute_spec(&mut txn, spec, &shared()) {
        Ok(out) if out.rows.len() == 1 => db.commit(&mut txn),
        Ok(out) => {
            db.abort(&mut txn);
            Err(Error::Internal(format!(
                "read matched {} rows",
                out.rows.len()
            )))
        }
        Err(e) => {
            db.abort(&mut txn);
            Err(e)
        }
    }
}

/// One transfer transaction through `access`: X-locking select by pk,
/// update, for each side, then commit.
fn transfer_via(access: &dyn ClientAccess, table: &str, a: i64, b: i64, amount: i64) -> Result<()> {
    let db = access.db();
    let mut txn = db.begin();
    let body = |txn: &mut bullfrog_txn::Transaction| -> Result<()> {
        for (key, delta) in [(a, -amount), (b, amount)] {
            let pred = Expr::column("id").eq(Expr::Lit(Value::Int(key)));
            let rows = access.select(txn, table, Some(&pred), LockPolicy::Exclusive)?;
            let [(rid, row)] = rows.as_slice() else {
                return Err(Error::Internal(format!(
                    "{table} id {key} matched {} rows",
                    rows.len()
                )));
            };
            let mut new = row.clone();
            let balance = new.0[2].as_i64().expect("integer balance");
            new.0[2] = Value::Int(balance + delta);
            access.update(txn, table, *rid, new)?;
        }
        Ok(())
    };
    match body(&mut txn) {
        Ok(()) => db.commit(&mut txn),
        Err(e) => {
            db.abort(&mut txn);
            Err(e)
        }
    }
}

fn session_ok(r: Response) -> Result<()> {
    match r {
        Response::Err { message, .. } => Err(Error::Eval(message)),
        _ => Ok(()),
    }
}

fn session_op(s: &mut Session, op: Op) -> Result<()> {
    match op {
        Op::Read(k) => session_ok(s.execute_prepared(READ_ID, &int(k))),
        Op::Transfer(a, b, amount) => {
            session_ok(s.execute("BEGIN"))?;
            for (key, delta) in [(a, -amount), (b, amount)] {
                let params = bullfrog_common::Row(vec![Value::Int(delta), Value::Int(key)]);
                session_ok(s.execute_prepared(UPD_ID, &params))?;
            }
            session_ok(s.execute("COMMIT"))
        }
    }
}

fn wire_op(c: &mut Client, spans: &mut Spans, op_id: u64, parent: u64, op: Op) -> Result<()> {
    let r = match op {
        Op::Read(k) => wire::read(c, spans, op_id, parent, READ_ID, Value::Int(k)).map(|_| true),
        Op::Transfer(a, b, amount) => wire::transfer(
            c,
            spans,
            op_id,
            parent,
            Value::Int(a),
            Value::Int(b),
            amount,
        ),
    };
    match r {
        Ok(true) => Ok(()),
        Ok(false) => Err(Error::Internal("transfer matched no row".into())),
        Err(e) => Err(Error::Eval(e.to_string())),
    }
}

/// Times `f` as a span, retrying transient failures; `None` when every
/// attempt failed.
fn timed(
    spans: &mut Spans,
    name: &'static str,
    op_id: u64,
    parent: u64,
    mut f: impl FnMut(&mut Spans, u64) -> Result<()>,
) -> Option<(u64, u64)> {
    for _ in 0..ATTEMPTS {
        let (id, start) = spans.open();
        let r = f(spans, id);
        let ns = nanos(start.elapsed());
        spans.close(id, parent, op_id, name, start);
        if r.is_ok() {
            return Some((id, ns));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    None
}

/// Replays `ops` on `table` through every layer. `conn` is one of the
/// run's own connections, already prepared on `table`.
pub fn layers(
    bf: &Arc<Bullfrog>,
    conn: &mut Client,
    table: &str,
    ops: &[Op],
    spans: &mut Spans,
    first_op_id: u64,
) -> Layers {
    let db = Arc::clone(bf.db());
    let pass = Passthrough::new(Arc::clone(&db));
    let heap_table = db.table(table).expect("replay table");
    let mut session = Session::new(
        Arc::clone(bf),
        Arc::new(SessionCounters::default()),
        Duration::from_secs(10),
    );
    session_ok(session.prepare(
        READ_ID,
        &format!("SELECT balance FROM {table} WHERE id = ?"),
    ))
    .expect("session prepare read");
    session_ok(session.prepare(
        UPD_ID,
        &format!("UPDATE {table} SET balance = balance + ? WHERE id = ?"),
    ))
    .expect("session prepare update");

    let mut out = Layers::default();
    for (i, &op) in ops.iter().enumerate() {
        let op_id = first_op_id + i as u64;
        let spec = match op {
            Op::Read(k) => Some(read_spec(&db, table, k)),
            Op::Transfer(..) => None,
        };
        let Some((wire_id, wire_ns)) = timed(spans, "layer.wire", op_id, 0, |sp, id| {
            wire_op(conn, sp, op_id, id, op)
        }) else {
            out.errors += 1;
            continue;
        };
        let Some((sess_id, sess_ns)) = timed(spans, "layer.session", op_id, wire_id, |_, _| {
            session_op(&mut session, op)
        }) else {
            out.errors += 1;
            continue;
        };
        let core = timed(spans, "layer.core", op_id, sess_id, |_, _| {
            match (op, &spec) {
                (Op::Read(_), Some(spec)) => read_via(bf.as_ref(), spec),
                (Op::Transfer(a, b, amount), _) => transfer_via(bf.as_ref(), table, a, b, amount),
                _ => unreachable!("reads carry a spec"),
            }
        });
        let Some((core_id, core_ns)) = core else {
            out.errors += 1;
            continue;
        };
        let engine = timed(spans, "layer.engine", op_id, core_id, |_, _| {
            match (op, &spec) {
                (Op::Read(_), Some(spec)) => read_via(&pass, spec),
                (Op::Transfer(a, b, amount), _) => transfer_via(&pass, table, a, b, amount),
                _ => unreachable!("reads carry a spec"),
            }
        });
        let Some((engine_id, engine_ns)) = engine else {
            out.errors += 1;
            continue;
        };
        let keys: Vec<i64> = match op {
            Op::Read(k) => vec![k],
            Op::Transfer(a, b, _) => vec![a, b],
        };
        let (storage_id, start) = spans.open();
        for k in &keys {
            std::hint::black_box(heap_table.get_by_pk(&[Value::Int(*k)]));
        }
        let storage_ns = nanos(start.elapsed()) / keys.len() as u64;
        spans.close(storage_id, engine_id, op_id, "layer.storage", start);

        out.wire.push(wire_ns);
        out.session.push(sess_ns);
        out.core.push(core_ns);
        out.engine.push(engine_ns);
        out.storage.push(storage_ns);
        if let Op::Read(k) = op {
            let mut txn = db.begin();
            let start = Instant::now();
            let r = db.get_by_pk(&mut txn, table, &[Value::Int(k)], LockPolicy::Shared);
            out.get_by_pk.push(nanos(start.elapsed()));
            if r.is_ok() {
                let _ = db.commit(&mut txn);
            } else {
                db.abort(&mut txn);
            }
        }
    }
    out
}

/// In-window replay: each transfer goes through `Bullfrog` first, which
/// migrates the touched granules inline, then through the `Database` on
/// the same rows. Returns per-op `(core_ns, engine_ns)`.
pub fn inline(
    bf: &Arc<Bullfrog>,
    table: &str,
    ops: &[Op],
    spans: &mut Spans,
    first_op_id: u64,
) -> (Vec<u64>, Vec<u64>) {
    let pass = Passthrough::new(Arc::clone(bf.db()));
    let (mut core, mut engine) = (Vec::new(), Vec::new());
    for (i, &op) in ops.iter().enumerate() {
        let Op::Transfer(a, b, amount) = op else {
            continue;
        };
        let op_id = first_op_id + i as u64;
        let Some((core_id, core_ns)) = timed(spans, "layer.core", op_id, 0, |_, _| {
            transfer_via(bf.as_ref(), table, a, b, amount)
        }) else {
            continue;
        };
        let Some((_, engine_ns)) = timed(spans, "layer.engine", op_id, core_id, |_, _| {
            transfer_via(&pass, table, a, b, amount)
        }) else {
            continue;
        };
        core.push(core_ns);
        engine.push(engine_ns);
    }
    (core, engine)
}

/// `Database::select` by pk while another transaction holds an
/// uncommitted write on row `writer_key`. Under SI this is the read that
/// falls back to a version-chain scan. Returns per-read ns.
pub fn reads_behind_writer(
    db: &Arc<Database>,
    table: &str,
    writer_key: i64,
    keys: &[i64],
) -> Vec<u64> {
    let mut writer = db.begin();
    let pred = Expr::column("id").eq(Expr::Lit(Value::Int(writer_key)));
    let rows = db
        .select(&mut writer, table, Some(&pred), LockPolicy::Exclusive)
        .expect("writer select");
    let (rid, row) = rows.into_iter().next().expect("writer row exists");
    db.update(&mut writer, table, rid, row)
        .expect("writer update");
    let mut out = Vec::with_capacity(keys.len());
    for &k in keys.iter().filter(|&&k| k != writer_key) {
        let pred = Expr::column("id").eq(Expr::Lit(Value::Int(k)));
        let mut txn = db.begin();
        let start = Instant::now();
        let r = db.select(&mut txn, table, Some(&pred), LockPolicy::Shared);
        out.push(nanos(start.elapsed()));
        match r {
            Ok(_) => {
                let _ = db.commit(&mut txn);
            }
            Err(_) => db.abort(&mut txn),
        }
    }
    db.abort(&mut writer);
    out
}

/// Mean µs per `bullfrog_sql` parse of the workload's SQL texts
/// (templates through `parse_template`, the rest `parse_statement`).
pub fn parse_us(statements: &[&str], templates: &[&str]) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    for _ in 0..PARSE_ROUNDS {
        for s in statements {
            std::hint::black_box(parse_statement(s).expect("workload SQL parses"));
            n += 1;
        }
        for s in templates {
            std::hint::black_box(parse_template(s).expect("workload template parses"));
            n += 1;
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}
