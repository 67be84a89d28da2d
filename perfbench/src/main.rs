//! The repository benchmark. Drives three workloads over BFNET1 against
//! an in-process loopback `Server`, checks their outputs, and prints
//! every metric by name with its unit; the last stdout line is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_read|rw_si|lazy_migrate --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/METRICS.md` for what each metric measures and which
//! end-to-end metric each per-layer one should move.

mod closed;
mod env;
mod lazy;
mod replay;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bullfrog_engine::{EngineMode, LockPolicy};
use bullfrog_obs::MetricsSnapshot;

use crate::closed::Mix;
use crate::env::{hist_delta, hist_mean, stat, Env, Shape, CONNS, OWNERS};
use crate::replay::{self_ns, Op};
use crate::stats::{json_num, json_str, pct_us, peak_rss_mb, percentile, Rng};
use crate::trace::Spans;
use crate::wire::Counts;

/// Set-ups per run; `setup_s` is their median. The run uses the first.
const SETUPS: usize = 3;
/// Closed-loop warm-up the timed window excludes.
const CLOSED_WARMUP: Duration = Duration::from_secs(1);
/// Ops replayed through the layers after a closed-loop traced window.
const CLOSED_REPLAY_OPS: usize = 1000;

const POINT_ROWS: u64 = 200_000;
const RW_ROWS: u64 = 100_000;
const LAZY_ROWS: u64 = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run measured. `e2e` and `layer` are the two JSON sets;
/// `extra` holds workload-specific figures that are printed (and kept in
/// the trace file) but are not in the JSON, because the JSON must carry
/// the same metric names on every workload.
#[derive(Default)]
struct Report {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    extra: Vec<Metric>,
    checks: Vec<(String, bool)>,
    counts: Counts,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }
    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }
    fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric { name, value, unit });
    }
    fn check(&mut self, what: String, ok: bool) {
        self.checks.push((what, ok));
    }
}

fn median_ns_us(mut v: Vec<u64>) -> f64 {
    pct_us(&mut v, 0.5)
}

/// Metrics/STATUS at the start and end of the timed window, read over
/// the run's own connection 0.
struct Deltas {
    m0: MetricsSnapshot,
    m1: MetricsSnapshot,
    s0: Vec<(String, i64)>,
    s1: Vec<(String, i64)>,
}

impl Deltas {
    fn status(&self, key: &str) -> f64 {
        (stat(&self.s1, key) - stat(&self.s0, key)) as f64
    }
    fn mean(&self, hist: &str) -> f64 {
        hist_mean(&self.m0, &self.m1, hist)
    }
}

fn snapshot(env: &mut Env) -> (MetricsSnapshot, Vec<(String, i64)>) {
    let c = &mut env.conns[0];
    (c.metrics().expect("METRICS"), c.status().expect("STATUS"))
}

/// Per-layer metrics every workload reports: the METRICS/STATUS deltas of
/// the timed window, the client-side error accounting, and (traced run)
/// the layer replay.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &mut Report,
    d: &Deltas,
    counts: &Counts,
    client_busy_ns: u64,
    replay: &replay::Layers,
    si_reads: &[u64],
    parse_us: f64,
    overhead_pct: f64,
) {
    let (n_exec, s_exec) = hist_delta(&d.m0, &d.m1, "net.execute_us");
    let (n_query, s_query) = hist_delta(&d.m0, &d.m1, "net.query_us");
    let service = (s_exec + s_query) as f64 / (n_exec + n_query).max(1) as f64;
    let rtt = client_busy_ns as f64 / 1e3 / (n_exec + n_query).max(1) as f64;
    r.layer(
        "net.rtt_self_us",
        median_ns_us(self_ns(&replay.wire, &replay.session)),
        "us",
    );
    r.layer("net.service_us", service, "us");
    r.layer("net.wait_us", rtt - service, "us");
    r.layer("net.statements", d.status("sessions.statements"), "count");
    r.layer(
        "session.self_us",
        median_ns_us(self_ns(&replay.session, &replay.core)),
        "us",
    );
    r.layer("sql.parse_us", parse_us, "us");
    r.layer(
        "core.self_us",
        median_ns_us(self_ns(&replay.core, &replay.engine)),
        "us",
    );
    r.layer(
        "engine.get_by_pk_us",
        median_ns_us(replay.get_by_pk.clone()),
        "us",
    );
    let mut si = si_reads.to_vec();
    r.layer("engine.si_read_us", pct_us(&mut si, 0.5), "us");
    r.layer("engine.si_read_p99_us", pct_us(&mut si, 0.99), "us");
    r.layer(
        "engine.write_conflicts",
        counts.write_conflicts as f64,
        "count",
    );
    r.layer(
        "engine.mvcc_versions",
        stat(&d.s1, "mvcc.versions") as f64,
        "count",
    );
    r.layer(
        "engine.gc_reclaimed",
        d.status("mvcc.gc_reclaimed"),
        "count",
    );
    r.layer("engine.commit_us", d.mean("engine.commit_us"), "us");
    let commits = d.status("sessions.commits").max(1.0);
    r.layer(
        "txn.flushes_per_commit",
        d.status("wal.flushes") / commits,
        "ratio",
    );
    r.layer(
        "txn.wal_bytes_per_commit",
        d.status("wal.flushed_bytes") / commits,
        "B",
    );
    r.layer("txn.lock_timeouts", counts.lock_timeouts as f64, "count");
    r.layer(
        "storage.pk_probe_us",
        median_ns_us(replay.storage.clone()),
        "us",
    );
    r.layer("trace.overhead_pct", overhead_pct, "%");
    // The in-memory WAL never flushes, and a read-only workload never
    // appends: these have no samples on some workloads, so they are
    // printed rather than carried in the JSON.
    r.extra("txn.wal_append_us", d.mean("wal.append_us"), "us");
    r.extra("txn.wal_commit_wait_us", d.mean("wal.commit_wait_us"), "us");
    r.extra("txn.wal_flush_us", d.mean("wal.flush_us"), "us");
    r.extra("txn.other_retries", counts.other_retries as f64, "count");
    r.extra("replay.errors", replay.errors as f64, "count");
}

/// The `core.*` migration counters, summed over the migrations' final
/// STATUS reports (all zero when no migration ran).
fn core_metrics(r: &mut Report, statuses: &[&[(String, i64)]], flip_reissues: u64) {
    let sum = |k: &str| statuses.iter().map(|s| stat(s, k)).sum::<i64>() as f64;
    let migrated = sum("migration.granules_migrated");
    let background = sum("migration.background_granules");
    let (waits, skips) = (sum("migration.waits"), sum("migration.skips"));
    r.layer("core.inline_granules", migrated - background, "count");
    r.layer("core.background_granules", background, "count");
    r.layer(
        "core.inline_share",
        if migrated > 0.0 {
            (migrated - background) / migrated
        } else {
            0.0
        },
        "ratio",
    );
    r.layer("core.claim_waits", waits, "count");
    r.layer("core.skips", skips, "count");
    r.layer(
        "core.conflict_skips",
        sum("migration.conflict_skips"),
        "count",
    );
    r.layer("core.migration_aborts", sum("migration.aborts"), "count");
    let attempts = migrated + waits + skips;
    r.layer(
        "core.useful_ratio",
        if attempts > 0.0 {
            migrated / attempts
        } else {
            0.0
        },
        "ratio",
    );
    r.layer("core.flip_reissues", flip_reissues as f64, "count");
}

fn workload_sql(workload: &str) -> (Vec<&'static str>, Vec<&'static str>) {
    let upd = "UPDATE accounts SET balance = balance + ? WHERE id = ?";
    match workload {
        "point_read" => (vec![env::CREATE_SQL], vec![env::READ_SQL]),
        "rw_si" => (
            vec![env::CREATE_SQL, "BEGIN", "COMMIT"],
            vec![env::READ_SQL, upd],
        ),
        _ => (
            vec![
                env::CREATE_SQL,
                "BEGIN",
                "COMMIT",
                lazy::SPLIT_SQL,
                lazy::FINALIZE_SQL,
                lazy::AGG_SQL,
            ],
            vec![upd, lazy::TOTALS_SQL],
        ),
    }
}

/// Sum and row count of `table`'s `col`, read in-process after the load
/// has stopped (a snapshot read under SI).
fn table_total(env: &Env, table: &str, col: usize) -> (i64, u64) {
    let db = env.db();
    let mut txn = db.begin();
    let rows = db
        .select(&mut txn, table, None, LockPolicy::Shared)
        .expect("verification scan");
    let _ = db.commit(&mut txn);
    let sum = rows
        .iter()
        .map(|(_, r)| r.0[col].as_i64().expect("integer"))
        .sum();
    (sum, rows.len() as u64)
}

fn run_closed(
    env: &mut Env,
    args: &Args,
    mix: Mix,
    r: &mut Report,
    spans: &mut [Spans],
    replay_spans: &mut Spans,
) {
    let mut rngs: Vec<Rng> = (0..CONNS)
        .map(|w| Rng::new(args.seed, 10 + w as u64))
        .collect();
    closed::run(env, args.seed, mix, CLOSED_WARMUP, &mut rngs, spans);
    let (m0, s0) = snapshot(env);
    let secs = Duration::from_secs(args.seconds);
    let (window, overhead) = if args.trace {
        let untraced = closed::run(env, args.seed, mix, secs / 2, &mut rngs, spans);
        spans.iter_mut().for_each(|s| s.on = true);
        let traced = closed::run(env, args.seed, mix, secs / 2, &mut rngs, spans);
        // Throughput swings too much between halves to show the tracing
        // cost, so compare the halves' median read latency, as the open
        // loop does.
        let p50 = |w: &closed::Window| pct_us(&mut w.reads.clone(), 0.5);
        let pct = (p50(&traced) - p50(&untraced)) / p50(&untraced) * 100.0;
        let mut all = untraced;
        all.reads.extend(traced.reads);
        all.txns.extend(traced.txns);
        all.ops += traced.ops;
        all.elapsed += traced.elapsed;
        all.counts.add(&traced.counts);
        (all, pct)
    } else {
        (
            closed::run(env, args.seed, mix, secs, &mut rngs, spans),
            0.0,
        )
    };
    let (m1, s1) = snapshot(env);
    let d = Deltas { m0, m1, s0, s1 };

    let mut ops: Vec<u64> = window.reads.iter().chain(&window.txns).copied().collect();
    let busy: u64 = ops.iter().sum();
    let mut reads = window.reads.clone();
    let mut txns = window.txns.clone();
    r.e2e("read_p50_us", pct_us(&mut reads, 0.5), "us");
    r.extra("read_samples", reads.len() as f64, "count");
    r.extra("read_p99_us", pct_us(&mut reads, 0.99), "us");
    r.extra(
        "ops_per_s",
        window.ops as f64 / window.elapsed.as_secs_f64(),
        "1/s",
    );
    r.extra("op_p50_us", pct_us(&mut ops, 0.5), "us");
    r.extra("op_p99_us", pct_us(&mut ops, 0.99), "us");
    if !txns.is_empty() {
        r.extra("txn_p50_us", pct_us(&mut txns, 0.5), "us");
        r.extra("txn_p99_us", pct_us(&mut txns, 0.99), "us");
    }
    r.extra(
        "fail_ratio",
        window.counts.failed as f64 / window.counts.attempted.max(1) as f64,
        "ratio",
    );
    r.counts = window.counts;

    // Traced run: replay a fixed slice of the seeded stream through the
    // layers, then time pk reads behind an open writer.
    let (layers, si_reads) = if args.trace {
        let mut rng = Rng::new(args.seed, 100);
        let ops: Vec<Op> = (0..CLOSED_REPLAY_OPS)
            .map(|_| closed::next_op(&mut rng, mix, env.rows))
            .collect();
        let bf = std::sync::Arc::clone(&env.bf);
        let layers = replay::layers(
            &bf,
            &mut env.conns[0],
            "accounts",
            &ops,
            replay_spans,
            1 << 50,
        );
        let keys: Vec<i64> = (0..replay::SI_READS)
            .map(|_| rng.below(env.rows) as i64)
            .collect();
        let writer = rng.below(env.rows) as i64;
        (
            layers,
            replay::reads_behind_writer(env.db(), "accounts", writer, &keys),
        )
    } else {
        (replay::Layers::default(), Vec::new())
    };
    let (stmts, templates) = workload_sql(&args.workload);
    let parse = if args.trace {
        replay::parse_us(&stmts, &templates)
    } else {
        0.0
    };
    layer_metrics(
        r,
        &d,
        &window.counts,
        busy,
        &layers,
        &si_reads,
        parse,
        overhead,
    );
    core_metrics(r, &[], window.counts.flip_reissues);

    r.check(
        format!("{} wrong replies", window.counts.wrong),
        window.counts.wrong == 0,
    );
    let (sum, n) = table_total(env, "accounts", 2);
    r.check(
        format!("accounts holds {n} of {} rows", env.rows),
        n == env.rows,
    );
    r.check(
        format!("total balance {sum}, loaded {}", env.total),
        sum == env.total,
    );
}

/// An op sent less than this after its due time ran on schedule.
const ON_TIME_NS: u64 = 1_000_000;

/// The first due time at or after `end` from which every worker has sent
/// an op on schedule again.
fn caught_up(samples: &[lazy::Sample], end: u64) -> u64 {
    (0..CONNS)
        .map(|w| {
            samples
                .iter()
                .filter(|s| s.worker == w && s.due_ns >= end && s.late_ns < ON_TIME_NS)
                .map(|s| s.due_ns)
                .min()
                .unwrap_or(u64::MAX)
        })
        .max()
        .unwrap_or(end)
}

fn run_lazy(
    env: &mut Env,
    args: &Args,
    r: &mut Report,
    spans: &mut [Spans],
    replay_spans: &mut Spans,
) {
    let run = lazy::run(
        env,
        args.seed,
        args.seconds as f64,
        args.trace,
        spans,
        replay_spans,
    );
    let tl = &run.timeline;
    let (m0, s0) = tl.before.clone().expect("window start snapshot");
    let (m1, s1) = snapshot(env);
    let d = Deltas { m0, m1, s0, s1 };

    // A window lasts from its DDL until every worker sends on time again:
    // ops queued behind a migration stall belong to the migration.
    let split = tl.split_start_ns..caught_up(&run.samples, tl.split_end_ns);
    let agg = tl.agg_start_ns..caught_up(&run.samples, tl.agg_end_ns);
    let in_window = |due: u64| split.contains(&due) || agg.contains(&due);
    let mut ops: Vec<u64> = run.samples.iter().map(|s| s.lat_ns).collect();
    // The reads are of `owner_totals`; those due while its migration runs
    // are the ones the migration can delay.
    let mut reads: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| s.read && agg.contains(&s.due_ns))
        .map(|s| s.lat_ns)
        .collect();
    let mut tail_reads: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| s.read && !in_window(s.due_ns))
        .map(|s| s.lat_ns)
        .collect();
    let mut txns: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| !s.read && !in_window(s.due_ns))
        .map(|s| s.lat_ns)
        .collect();
    let mut window: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| in_window(s.due_ns))
        .map(|s| s.lat_ns)
        .collect();
    let mut late: Vec<u64> = run.samples.iter().map(|s| s.late_ns).collect();
    let busy: u64 = run.samples.iter().map(|s| s.lat_ns - s.late_ns).sum();
    r.e2e("read_p50_us", pct_us(&mut reads, 0.5), "us");
    r.extra("read_samples", reads.len() as f64, "count");
    r.extra("read_p99_us", pct_us(&mut reads, 0.99), "us");
    r.extra(
        "ops_per_s",
        run.samples.len() as f64 / (tl.end_ns as f64 / 1e9),
        "1/s",
    );
    r.extra("op_p50_us", pct_us(&mut ops, 0.5), "us");
    r.extra("op_p99_us", pct_us(&mut ops, 0.99), "us");
    r.extra("tail_read_p50_us", pct_us(&mut tail_reads, 0.5), "us");
    r.extra("tail_read_p99_us", pct_us(&mut tail_reads, 0.99), "us");
    r.extra("txn_p50_us", pct_us(&mut txns, 0.5), "us");
    r.extra("txn_p99_us", pct_us(&mut txns, 0.99), "us");
    r.extra("window_p50_us", pct_us(&mut window, 0.5), "us");
    r.extra("window_p99_us", pct_us(&mut window, 0.99), "us");
    r.extra(
        "migration_s",
        (tl.split_end_ns - tl.split_start_ns) as f64 / 1e9,
        "s",
    );
    r.extra(
        "agg_migration_s",
        (tl.agg_end_ns - tl.agg_start_ns) as f64 / 1e9,
        "s",
    );
    r.extra(
        "fail_ratio",
        run.counts.failed as f64 / run.counts.attempted.max(1) as f64,
        "ratio",
    );
    r.extra(
        "gen.late_p99_ms",
        percentile(&mut late, 0.99) as f64 / 1e6,
        "ms",
    );
    r.counts = run.counts;

    // Trace overhead: an open loop completes what is due whether traced or
    // not, so the cost shows as latency: median latency of the traced
    // half of the pre-phase against the untraced half.
    let half = tl.half_ns;
    let p50_in = |lo: u64| {
        let mut v: Vec<u64> = run
            .samples
            .iter()
            .filter(|s| (lo..lo + half).contains(&s.due_ns))
            .map(|s| s.lat_ns)
            .collect();
        pct_us(&mut v, 0.5)
    };
    let overhead = if args.trace {
        (p50_in(half) - p50_in(0)) / p50_in(0).max(f64::MIN_POSITIVE) * 100.0
    } else {
        0.0
    };
    let empty = replay::Layers::default();
    let (stmts, templates) = workload_sql(&args.workload);
    let parse = if args.trace {
        replay::parse_us(&stmts, &templates)
    } else {
        0.0
    };
    layer_metrics(
        r,
        &d,
        &run.counts,
        busy,
        tl.replay.as_ref().unwrap_or(&empty),
        &tl.si_reads,
        parse,
        overhead,
    );
    core_metrics(
        r,
        &[&tl.split_status, &tl.agg_status],
        run.counts.flip_reissues,
    );
    r.extra("core.granule_us", d.mean("migrate.granule_us"), "us");
    r.extra("core.flip_us", d.mean("migrate.flip_us"), "us");
    r.extra("core.finalize_us", d.mean("migrate.finalize_us"), "us");
    r.extra(
        "core.finalize_rtt_us",
        tl.finalize_rtt_ns as f64 / 1e3,
        "us",
    );
    let ddl: u64 = tl.ddl_rtt_ns.iter().sum();
    r.extra(
        "core.ddl_rtt_us",
        ddl as f64 / 1e3 / tl.ddl_rtt_ns.len().max(1) as f64,
        "us",
    );
    if let Some((core, engine)) = &tl.inline {
        r.extra(
            "core.inline_self_us",
            median_ns_us(self_ns(core, engine)),
            "us",
        );
    }

    // Output checks: exactly-once for both migrations, conservation
    // through both, and the aggregate's shape.
    for (name, st, rows) in [
        ("split", &tl.split_status, env.rows),
        ("aggregate", &tl.agg_status, OWNERS),
    ] {
        let migrated = stat(st, "migration.rows_migrated");
        r.check(
            format!("{name}: rows_migrated {migrated} of {rows}"),
            migrated == rows as i64,
        );
        let skips = stat(st, "migration.conflict_skips");
        r.check(format!("{name}: conflict_skips {skips}"), skips == 0);
        let dropped = stat(st, "migration.rows_dropped");
        r.check(format!("{name}: rows_dropped {dropped}"), dropped == 0);
    }
    r.check(
        format!("{} wrong replies", run.counts.wrong),
        run.counts.wrong == 0,
    );
    let (sum, n) = table_total(env, "accounts_v2", 2);
    r.check(
        format!("accounts_v2 holds {n} of {} rows", env.rows),
        n == env.rows,
    );
    r.check(
        format!("accounts_v2 total {sum}, loaded {}", env.total),
        sum == env.total,
    );
    let (grand, groups) = table_total(env, "owner_totals", 1);
    r.check(
        format!("owner_totals has {groups} of {OWNERS} groups"),
        groups == OWNERS,
    );
    r.check(
        format!("owner_totals grand total {grand}, loaded {}", env.total),
        grand == env.total,
    );
}

fn print_json(r: &Report, trace: bool) {
    let correct = r.checks.iter().all(|(_, ok)| *ok);
    let set = if trace { &r.layer } else { &r.e2e };
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.counts.attempted.max(1),
        r.counts.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (shape, what) = match args.workload.as_str() {
        "point_read" => (
            Shape {
                mode: EngineMode::TwoPL,
                rows: POINT_ROWS,
                durable: false,
            },
            "2PL, in-memory WAL, closed loop, prepared pk reads with uniform keys".to_string(),
        ),
        "rw_si" => (
            Shape {
                mode: EngineMode::Snapshot,
                rows: RW_ROWS,
                durable: false,
            },
            "SI, in-memory WAL, closed loop, 50/50 prepared pk reads and two-row transfers"
                .to_string(),
        ),
        "lazy_migrate" => (
            Shape {
                mode: EngineMode::TwoPL,
                rows: LAZY_ROWS,
                durable: true,
            },
            format!(
                "2PL, file-backed WAL in a fresh dir, sync COMMIT, default WalOptions \
                 (group_window 0, default shard count), open loop at {} ops/s",
                lazy::RATE
            ),
        ),
        other => {
            eprintln!("perfbench: unknown workload {other} (point_read, rw_si, lazy_migrate)");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}: {what}; {} rows, {CONNS} connections",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        shape.rows
    );
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");

    let wal_dir = |i: usize| {
        shape
            .durable
            .then(|| out_dir.join(format!("wal-{}-{i}", std::process::id())))
    };
    // The run uses the first set-up, so the peak RSS covers one set-up
    // plus the run in a fresh process; the other set-ups only time
    // `setup_s` and come after the run.
    let (mut env, took) = Env::setup(shape, args.seed, wal_dir(0));
    let mut setup = vec![took.as_secs_f64()];
    env.prepare_accounts("accounts");

    let epoch = Instant::now();
    let mut spans: Vec<Spans> = (0..CONNS as u64)
        .map(|w| Spans::new(epoch, w + 1))
        .collect();
    // The replays record into their own buffer, so the traced window's op
    // spans cannot crowd them out.
    let mut replay_spans = Spans::new(epoch, CONNS as u64 + 1);
    replay_spans.on = args.trace;
    let mut r = Report::default();
    let (spans, replays) = (&mut spans[..], &mut replay_spans);
    match args.workload.as_str() {
        "point_read" => run_closed(&mut env, &args, Mix::Reads, &mut r, spans, replays),
        "rw_si" => run_closed(&mut env, &args, Mix::ReadWrite, &mut r, spans, replays),
        _ => run_lazy(&mut env, &args, &mut r, spans, replays),
    }
    env.teardown();
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    for i in 1..SETUPS {
        let (e, took) = Env::setup(shape, args.seed, wal_dir(i));
        setup.push(took.as_secs_f64());
        e.teardown();
    }
    r.e2e("setup_s", stats::median_f64(&setup), "s");

    // The per-layer figures come from the traced run's replay; an
    // untraced run has only their METRICS half, so it prints none.
    let layer: &[Metric] = if args.trace { &r.layer } else { &[] };
    for (set, metrics) in [
        ("e2e", &r.e2e[..]),
        ("layer", layer),
        ("extra", &r.extra[..]),
    ] {
        for m in metrics {
            println!("perfbench: [{set}] {} = {} {}", m.name, m.value, m.unit);
        }
    }
    for (what, ok) in &r.checks {
        println!(
            "perfbench: check {}: {what}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let summary: Vec<(String, f64, &str)> = r
            .layer
            .iter()
            .chain(&r.extra)
            .map(|m| (m.name.to_string(), m.value, m.unit))
            .collect();
        let recorders: Vec<&Spans> = spans.iter().chain([&replay_spans]).collect();
        trace::write(&path, &recorders, &summary);
        println!("perfbench: spans written to {}", path.display());
    }
    print_json(&r, args.trace);
    if r.checks.iter().any(|(_, ok)| !ok) {
        std::process::exit(1);
    }
}
