//! Client-side ops over BFNET1 and their error accounting: retryable
//! errors are retried with a bounded budget, an error naming a retired
//! table is handed back as a schema switch, and only exhausted or
//! non-retryable errors count as failed.

use std::time::Duration;

use bullfrog_common::{Row, Value};
use bullfrog_net::{Client, ClientError, ClientResult, QueryReply};

use crate::env::{classify, ErrClass, UPD_ID};
use crate::trace::Spans;

/// Attempts per op before a retryable error counts as a failure.
const RETRY_BUDGET: u32 = 10;

#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub write_conflicts: u64,
    pub lock_timeouts: u64,
    pub other_retries: u64,
    pub flip_reissues: u64,
    /// Output-check violations (wrong value, wrong row count).
    pub wrong: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.write_conflicts += o.write_conflicts;
        self.lock_timeouts += o.lock_timeouts;
        self.other_retries += o.other_retries;
        self.flip_reissues += o.flip_reissues;
        self.wrong += o.wrong;
    }
}

pub enum Outcome {
    Done,
    Failed,
    /// The op's table was retired by a migration flip.
    Retired,
}

/// Runs `f` until it succeeds, the retry budget runs out, or it hits a
/// non-retryable or retired-table error.
pub fn with_retry(counts: &mut Counts, mut f: impl FnMut() -> ClientResult<()>) -> Outcome {
    for attempt in 0..RETRY_BUDGET {
        let err = match f() {
            Ok(()) => return Outcome::Done,
            Err(e) => e,
        };
        match classify(&err) {
            ErrClass::WriteConflict => counts.write_conflicts += 1,
            ErrClass::LockTimeout => counts.lock_timeouts += 1,
            ErrClass::Retry => counts.other_retries += 1,
            ErrClass::Retired => return Outcome::Retired,
            ErrClass::Fail => {
                eprintln!("perfbench: op failed: {err}");
                return Outcome::Failed;
            }
        }
        std::thread::sleep(Duration::from_micros(50 << attempt.min(6)));
    }
    Outcome::Failed
}

/// One prepared point read; returns the result rows.
pub fn read(
    c: &mut Client,
    spans: &mut Spans,
    op: u64,
    parent: u64,
    stmt: u64,
    key: Value,
) -> ClientResult<Vec<Row>> {
    match spans.call("wire.execute", op, parent, || {
        c.execute_prepared(stmt, Row(vec![key]))
    })? {
        QueryReply::Rows { rows, .. } => Ok(rows),
        QueryReply::Ok { .. } => Err(ClientError::Protocol("read returned OK".into())),
    }
}

/// `BEGIN`, debit `from`, credit `to`, `COMMIT`, through the prepared
/// `UPD_ID` statement (`SET <col> = <col> + ? WHERE <key> = ?`). Returns
/// whether both updates matched exactly one row; a mismatch is rolled
/// back, never committed.
pub fn transfer(
    c: &mut Client,
    spans: &mut Spans,
    op: u64,
    parent: u64,
    from: Value,
    to: Value,
    amount: i64,
) -> ClientResult<bool> {
    spans.call("wire.begin", op, parent, || c.execute("BEGIN"))?;
    let mut matched = true;
    for (key, delta) in [(from, -amount), (to, amount)] {
        let n = spans.call("wire.execute", op, parent, || {
            c.execute_prepared(UPD_ID, Row(vec![Value::Int(delta), key]))
        })?;
        matched &= matches!(n, QueryReply::Ok { affected: 1 });
    }
    if !matched {
        c.execute("ROLLBACK")?;
        return Ok(false);
    }
    spans.call("wire.commit", op, parent, || c.execute("COMMIT"))?;
    Ok(true)
}
