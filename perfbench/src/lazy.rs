//! `lazy_migrate`: the paper's experiment at wire level. An open loop of
//! transfers at a fixed rate runs across five phases:
//!
//! 1. a steady pre-phase on `accounts`;
//! 2. the 1:1 split `accounts → accounts_v2` (bitmap-tracked), after
//!    which the workers switch tables at once;
//! 3. `FINALIZE MIGRATION`, then a short steady stretch on `accounts_v2`;
//! 4. the n:1 `owner_totals` GROUP BY migration (hash-tracked), after
//!    which the workers read per-owner totals;
//! 5. a tail.
//!
//! The DDL and the STATUS polls go over worker 0's connection, between
//! its ops. Every op is timed from the time it was due.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::Value;
use bullfrog_core::ClientAccess;
use bullfrog_net::Client;

use crate::env::{owner_name, owner_of, prepare_accounts, stat, Env, READ_ID};
use crate::replay::{self, Op};
use crate::stats::{nanos, Rng};
use crate::trace::Spans;
use crate::wire::{self, with_retry, Counts, Outcome};

/// Offered load across both connections, ops/s.
pub const RATE: f64 = 500.0;
/// Open-loop warm-up before the timed window.
const WARMUP: Duration = Duration::from_secs(1);
/// Shares of `--seconds` given to the steady phases; the two migration
/// windows last as long as the migrations take.
const PRE_SHARE: f64 = 0.4;
const MID_SHARE: f64 = 0.2;
const TAIL_SHARE: f64 = 0.3;
const POLL: Duration = Duration::from_millis(20);
/// A migration still incomplete after this fails the run.
const MIGRATION_TIMEOUT: Duration = Duration::from_secs(90);
/// Ops per replay slice in the traced run.
const REPLAY_OPS: usize = 200;

pub const SPLIT_SQL: &str =
    "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)";
pub const AGG_SQL: &str = "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
                           FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)";
pub const FINALIZE_SQL: &str = "FINALIZE MIGRATION";

const PHASE_ACCOUNTS: u8 = 0;
const PHASE_V2: u8 = 1;
const PHASE_TOTALS: u8 = 2;

pub struct Sample {
    /// Due time, ns after the timed window opened.
    pub due_ns: u64,
    /// Completion minus due time.
    pub lat_ns: u64,
    /// Send time minus due time.
    pub late_ns: u64,
    pub read: bool,
    pub worker: usize,
}

/// What worker 0's control role observed.
#[derive(Default)]
pub struct Timeline {
    pub split_start_ns: u64,
    pub split_end_ns: u64,
    pub agg_start_ns: u64,
    pub agg_end_ns: u64,
    pub end_ns: u64,
    pub split_status: Vec<(String, i64)>,
    pub agg_status: Vec<(String, i64)>,
    pub ddl_rtt_ns: Vec<u64>,
    pub finalize_rtt_ns: u64,
    pub before: Option<(bullfrog_obs::MetricsSnapshot, Vec<(String, i64)>)>,
    /// Length of each half of the pre-phase; a traced run records spans
    /// only from the second half on.
    pub half_ns: u64,
    /// Traced run only: the pre-phase layer replay, the in-window
    /// `(core, engine)` replay, and reads behind an open writer.
    pub replay: Option<replay::Layers>,
    pub inline: Option<(Vec<u64>, Vec<u64>)>,
    pub si_reads: Vec<u64>,
}

pub struct Run {
    pub samples: Vec<Sample>,
    pub counts: Counts,
    pub timeline: Timeline,
}

struct Shared {
    phase: AtomicU8,
    stop: AtomicBool,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Stage {
    Start,
    Pre,
    Split,
    Mid,
    Agg,
    Tail,
    Done,
}

struct Control<'a> {
    stage: Stage,
    /// Start of the timed window.
    t0: Instant,
    /// When the current steady phase (pre, mid or tail) ends.
    phase_end: Instant,
    mid: Duration,
    tail: Duration,
    /// Next STATUS poll while a migration runs.
    next: Instant,
    /// The running migration must complete before this.
    deadline: Instant,
    tl: Timeline,
    trace: bool,
    seed: u64,
    rows: u64,
    /// Spans of the traced run's replays.
    spans: &'a mut Spans,
}

fn rel(t0: Instant, t: Instant) -> u64 {
    nanos(t.saturating_duration_since(t0))
}

fn poll_complete(c: &mut Client) -> Option<Vec<(String, i64)>> {
    let status = c.status().expect("STATUS poll");
    (stat(&status, "migration.complete") == 1).then_some(status)
}

impl Control<'_> {
    /// Advances the phase machine; runs between worker 0's ops.
    fn step(&mut self, c: &mut Client, bf: &Arc<bullfrog_core::Bullfrog>, shared: &Shared) {
        let now = Instant::now();
        if now < self.t0 {
            return;
        }
        match self.stage {
            Stage::Start => {
                let m = c.metrics().expect("METRICS");
                let s = c.status().expect("STATUS");
                self.tl.before = Some((m, s));
                self.stage = Stage::Pre;
            }
            Stage::Pre if now >= self.phase_end => {
                if self.trace {
                    let mut rng = Rng::new(self.seed, 100);
                    let ops = mixed_slice(&mut rng, self.rows);
                    self.tl.replay =
                        Some(replay::layers(bf, c, "accounts", &ops, self.spans, 1 << 50));
                    let keys: Vec<i64> = (0..replay::SI_READS)
                        .map(|_| rng.below(self.rows) as i64)
                        .collect();
                    self.tl.si_reads = replay::reads_behind_writer(
                        bf.db(),
                        "accounts",
                        rng.below(self.rows) as i64,
                        &keys,
                    );
                }
                let sent = Instant::now();
                c.execute(SPLIT_SQL).expect("split migration DDL");
                self.tl.ddl_rtt_ns.push(nanos(sent.elapsed()));
                self.tl.split_start_ns = rel(self.t0, sent);
                shared.phase.store(PHASE_V2, Ordering::Release);
                if self.trace {
                    let mut rng = Rng::new(self.seed, 200);
                    let ops = transfer_slice(&mut rng, self.rows);
                    self.tl.inline =
                        Some(replay::inline(bf, "accounts_v2", &ops, self.spans, 2 << 50));
                }
                self.deadline = sent + MIGRATION_TIMEOUT;
                self.stage = Stage::Split;
            }
            Stage::Split | Stage::Agg if now >= self.next => {
                self.next = now + POLL;
                assert!(
                    now < self.deadline,
                    "migration did not complete in {MIGRATION_TIMEOUT:?}"
                );
                let Some(status) = poll_complete(c) else {
                    return;
                };
                let done = Instant::now();
                if self.stage == Stage::Split {
                    self.tl.split_end_ns = rel(self.t0, done);
                    self.tl.split_status = status;
                    let sent = Instant::now();
                    c.execute(FINALIZE_SQL).expect("FINALIZE MIGRATION");
                    self.tl.finalize_rtt_ns = nanos(sent.elapsed());
                    self.phase_end = Instant::now() + self.mid;
                    self.stage = Stage::Mid;
                } else {
                    self.tl.agg_end_ns = rel(self.t0, done);
                    self.tl.agg_status = status;
                    self.phase_end = done + self.tail;
                    self.stage = Stage::Tail;
                }
            }
            Stage::Mid if now >= self.phase_end => {
                let sent = Instant::now();
                c.execute(AGG_SQL).expect("aggregate migration DDL");
                self.tl.ddl_rtt_ns.push(nanos(sent.elapsed()));
                self.tl.agg_start_ns = rel(self.t0, sent);
                shared.phase.store(PHASE_TOTALS, Ordering::Release);
                self.deadline = sent + MIGRATION_TIMEOUT;
                self.stage = Stage::Agg;
            }
            Stage::Tail if now >= self.phase_end => {
                self.tl.end_ns = rel(self.t0, now);
                shared.stop.store(true, Ordering::Release);
                self.stage = Stage::Done;
            }
            _ => {}
        }
    }
}

/// The pre-phase slice alternates pk reads with the transfers, so the
/// engine and storage read probes exist on every workload.
fn mixed_slice(rng: &mut Rng, rows: u64) -> Vec<Op> {
    transfer_slice(rng, rows)
        .into_iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Transfer(a, ..) if i % 2 == 0 => Op::Read(a),
            op => op,
        })
        .collect()
}

fn transfer_slice(rng: &mut Rng, rows: u64) -> Vec<Op> {
    (0..REPLAY_OPS)
        .map(|_| replay::draw_transfer(rng, rows))
        .collect()
}

pub const TOTALS_SQL: &str = "SELECT total FROM owner_totals WHERE owner = ?";

fn prepare_phase(c: &mut Client, phase: u8) {
    match phase {
        PHASE_ACCOUNTS => prepare_accounts(c, "accounts"),
        PHASE_V2 => prepare_accounts(c, "accounts_v2"),
        _ => {
            c.prepare(READ_ID, TOTALS_SQL).expect("prepare owner read");
        }
    }
}

/// Runs the drawn transfer in `phase`: a transfer on the live accounts
/// table, or, once the aggregate has flipped, a read of the debited
/// account's owner total. `Ok(false)` is an output-check violation.
fn run_op(
    c: &mut Client,
    sp: &mut Spans,
    op_id: u64,
    parent: u64,
    phase: u8,
    op: Op,
) -> bullfrog_net::ClientResult<bool> {
    let Op::Transfer(from, to, amount) = op else {
        unreachable!("the open loop draws transfers");
    };
    if phase < PHASE_TOTALS {
        return wire::transfer(
            c,
            sp,
            op_id,
            parent,
            Value::Int(from),
            Value::Int(to),
            amount,
        );
    }
    let owner = Value::Text(owner_name(owner_of(from as u64)));
    Ok(wire::read(c, sp, op_id, parent, READ_ID, owner)?.len() == 1)
}

/// Runs the whole open loop: warm-up, then the five phases, each worker
/// on its own connection and schedule. In a traced run the second half
/// of the pre-phase and everything after it records spans, and worker 0
/// replays op slices through the layers before and just after the split.
pub fn run(
    env: &mut Env,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut [Spans],
    replay_spans: &mut Spans,
) -> Run {
    let shared = Shared {
        phase: AtomicU8::new(PHASE_ACCOUNTS),
        stop: AtomicBool::new(false),
    };
    let start = Instant::now();
    let t0 = start + WARMUP;
    let pre = Duration::from_secs_f64(seconds * PRE_SHARE);
    let trace_from = t0 + pre / 2;
    let mut control = Control {
        stage: Stage::Start,
        t0,
        phase_end: t0 + pre,
        mid: Duration::from_secs_f64(seconds * MID_SHARE),
        tail: Duration::from_secs_f64(seconds * TAIL_SHARE),
        next: t0,
        deadline: t0,
        tl: Timeline {
            half_ns: nanos(pre / 2),
            ..Timeline::default()
        },
        trace,
        seed,
        rows: env.rows,
        spans: replay_spans,
    };
    let bf = Arc::clone(&env.bf);
    let rows = env.rows;
    let conns = env.conns.len() as u64;
    let mut control_slot = Some(&mut control);
    let parts: Vec<(Vec<Sample>, Counts)> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .conns
            .iter_mut()
            .zip(spans.iter_mut())
            .enumerate()
            .map(|(w, (c, sp))| {
                let mut control = if w == 0 { control_slot.take() } else { None };
                let (shared, bf) = (&shared, &bf);
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 10 + w as u64);
                    let mut samples = Vec::new();
                    let mut counts = Counts::default();
                    let mut prepared = PHASE_ACCOUNTS;
                    for k in 0u64.. {
                        if let Some(ctl) = control.as_deref_mut() {
                            ctl.step(c, bf, shared);
                        }
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let due =
                            start + Duration::from_secs_f64((k * conns + w as u64) as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let op = replay::draw_transfer(&mut rng, rows);
                        sp.on = trace && due >= trace_from;
                        let op_id = ((w as u64) << 40) | k;
                        let mut cnt = Counts {
                            attempted: 1,
                            ..Counts::default()
                        };
                        let mut wrong = false;
                        let mut phase = shared.phase.load(Ordering::Acquire);
                        let (id, sent) = sp.open();
                        let outcome = loop {
                            if phase != prepared {
                                prepare_phase(c, phase);
                                prepared = phase;
                            }
                            let o = with_retry(&mut cnt, || {
                                wrong |= !run_op(c, sp, op_id, id, phase, op)?;
                                Ok(())
                            });
                            let Outcome::Retired = o else {
                                break o;
                            };
                            // The schema switched under the op: wait for
                            // the flip to be published, re-prepare on the
                            // new table and re-issue.
                            cnt.flip_reissues += 1;
                            let waited = Instant::now();
                            while shared.phase.load(Ordering::Acquire) == phase {
                                assert!(
                                    waited.elapsed() < Duration::from_secs(10),
                                    "retired-table error without a published flip"
                                );
                                std::thread::sleep(Duration::from_micros(20));
                            }
                            phase = shared.phase.load(Ordering::Acquire);
                        };
                        let read = phase == PHASE_TOTALS;
                        sp.close(
                            id,
                            0,
                            op_id,
                            if read { "op.read" } else { "op.transfer" },
                            sent,
                        );
                        if due < t0 {
                            continue; // warm-up
                        }
                        cnt.wrong += u64::from(wrong);
                        match outcome {
                            Outcome::Done => samples.push(Sample {
                                due_ns: rel(t0, due),
                                lat_ns: rel(due, Instant::now()),
                                late_ns: rel(due, sent),
                                read,
                                worker: w,
                            }),
                            _ => cnt.failed += 1,
                        }
                        counts.add(&cnt);
                    }
                    (samples, counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut counts = Counts::default();
    for (s, c) in parts {
        samples.extend(s);
        counts.add(&c);
    }
    Run {
        samples,
        counts,
        timeline: control.tl,
    }
}
