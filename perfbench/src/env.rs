//! One benchmark database: an in-process loopback `Server` over a
//! `Bullfrog`-wrapped `Database`, the two client connections that carry
//! all load (set-up, ops, DDL and polls), and the loaded `accounts` table.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Row, Value};
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{Client, ClientError, Server, ServerConfig};
use bullfrog_obs::MetricsSnapshot;

use crate::stats::mix;

/// Client connections (and client threads): at most `nproc` on the
/// 2-vCPU reference host.
pub const CONNS: usize = 2;
/// Accounts per `INSERT` during the load.
const LOAD_CHUNK: u64 = 5000;
/// Owners rows are spread across (the n:1 aggregate's group count).
pub const OWNERS: u64 = 64;

pub const READ_SQL: &str = "SELECT balance FROM accounts WHERE id = ?";
pub const CREATE_SQL: &str =
    "CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))";

/// Prepared-statement ids, the same on every connection.
pub const READ_ID: u64 = 1;
pub const UPD_ID: u64 = 2;

#[derive(Clone, Copy)]
pub struct Shape {
    pub mode: EngineMode,
    pub rows: u64,
    /// File-backed WAL with synchronous group commit (default `WalOptions`)
    /// instead of the in-memory WAL.
    pub durable: bool,
}

pub struct Env {
    pub bf: Arc<Bullfrog>,
    pub server: Server,
    pub conns: Vec<Client>,
    pub rows: u64,
    pub total: i64,
    dir: Option<PathBuf>,
}

/// The balance `id` is loaded with; point reads check against it.
pub fn initial_balance(seed: u64, id: u64) -> i64 {
    1000 + (mix(seed, id) % 1000) as i64
}

pub fn owner_of(id: u64) -> u64 {
    id % OWNERS
}

pub fn owner_name(o: u64) -> String {
    format!("o{o}")
}

impl Env {
    /// Binds the server, creates the schema and loads `shape.rows`
    /// accounts over the two connections. `wal_dir` must be fresh for a
    /// durable shape. Returns the environment and its set-up time.
    pub fn setup(shape: Shape, seed: u64, wal_dir: Option<PathBuf>) -> (Env, Duration) {
        let started = Instant::now();
        let config = DbConfig {
            mode: shape.mode,
            ..DbConfig::default()
        };
        let db = match (&wal_dir, shape.durable) {
            (Some(dir), true) => {
                std::fs::create_dir_all(dir).expect("create WAL dir");
                Database::with_wal_file_opts(
                    config,
                    dir.join("bench.wal"),
                    bullfrog_txn::WalOptions::default(),
                )
                .expect("open file-backed WAL")
            }
            _ => Database::with_config(config),
        };
        let bf = Arc::new(Bullfrog::new(Arc::new(db)));
        let server = Server::bind(("127.0.0.1", 0), Arc::clone(&bf), ServerConfig::default())
            .expect("bind loopback server");
        let mut conns: Vec<Client> = (0..CONNS)
            .map(|_| Client::connect(server.local_addr()).expect("connect"))
            .collect();
        conns[0].execute(CREATE_SQL).expect("create accounts");
        std::thread::scope(|s| {
            for (w, c) in conns.iter_mut().enumerate() {
                s.spawn(move || {
                    let chunks = shape.rows.div_ceil(LOAD_CHUNK);
                    for chunk in (w as u64..chunks).step_by(CONNS) {
                        let lo = chunk * LOAD_CHUNK;
                        let hi = (lo + LOAD_CHUNK).min(shape.rows);
                        let values: Vec<String> = (lo..hi)
                            .map(|i| {
                                format!(
                                    "({i}, '{}', {})",
                                    owner_name(owner_of(i)),
                                    initial_balance(seed, i)
                                )
                            })
                            .collect();
                        let n = c
                            .execute(&format!(
                                "INSERT INTO accounts VALUES {}",
                                values.join(", ")
                            ))
                            .expect("load accounts");
                        assert_eq!(n, hi - lo, "load inserted a short chunk");
                    }
                });
            }
        });
        let total = (0..shape.rows).map(|i| initial_balance(seed, i)).sum();
        let elapsed = started.elapsed();
        (
            Env {
                bf,
                server,
                conns,
                rows: shape.rows,
                total,
                dir: wal_dir,
            },
            elapsed,
        )
    }

    pub fn db(&self) -> &Arc<Database> {
        self.bf.db()
    }

    /// Prepares the workload statements on `table` on every connection.
    pub fn prepare_accounts(&mut self, table: &str) {
        for c in &mut self.conns {
            prepare_accounts(c, table);
        }
    }

    /// Stops the server, joins the background migration threads and
    /// removes the WAL directory.
    pub fn teardown(mut self) {
        self.conns.clear();
        self.server.shutdown();
        self.bf.shutdown_background();
        let dir = self.dir.take();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn prepare_accounts(c: &mut Client, table: &str) {
    c.prepare(
        READ_ID,
        &format!("SELECT balance FROM {table} WHERE id = ?"),
    )
    .expect("prepare read");
    c.prepare(
        UPD_ID,
        &format!("UPDATE {table} SET balance = balance + ? WHERE id = ?"),
    )
    .expect("prepare update");
}

pub fn int(v: i64) -> Row {
    Row(vec![Value::Int(v)])
}

/// Named STATUS value (0 when absent).
pub fn stat(pairs: &[(String, i64)], key: &str) -> i64 {
    pairs.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
}

/// `(count, sum)` of a METRICS histogram over a window.
pub fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |m: &MetricsSnapshot| m.histogram(name).map_or((0, 0), |h| (h.count(), h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.wrapping_sub(s0))
}

/// Exact mean of a METRICS histogram over a window (0 without samples).
pub fn hist_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let (n, sum) = hist_delta(before, after, name);
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// How an error reply is handled by the workload's error accounting.
pub enum ErrClass {
    WriteConflict,
    LockTimeout,
    /// Other retryable transaction failures (`TxnAborted`).
    Retry,
    /// The op named a table the last migration retired or froze: the
    /// schema switched under it.
    Retired,
    /// Not retryable: counts toward `fail_ratio`.
    Fail,
}

pub fn classify(e: &ClientError) -> ErrClass {
    match e {
        ClientError::Server {
            retryable: true,
            message,
            ..
        } => {
            if message.contains("write-write conflict") {
                ErrClass::WriteConflict
            } else if message.contains("timed out waiting for lock") {
                ErrClass::LockTimeout
            } else {
                ErrClass::Retry
            }
        }
        ClientError::Server { message, .. }
            if message.contains("retired schema version")
                || message.contains("is frozen while migration") =>
        {
            ErrClass::Retired
        }
        ClientError::Server { .. } => ErrClass::Fail,
        // A broken transport ends the run: no later op on the connection
        // could be trusted.
        ClientError::Io(_) | ClientError::Protocol(_) => {
            panic!("transport failure: {e}")
        }
    }
}
