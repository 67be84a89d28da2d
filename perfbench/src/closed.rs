//! Closed-loop workloads: each connection sends its next op only after
//! the reply to the previous one.
//!
//! - `point_read`: prepared pk reads with uniform keys, each checked
//!   against the loaded value.
//! - `rw_si`: a seeded 50/50 mix of prepared pk reads and two-row
//!   transfers (`BEGIN`/`UPDATE`/`UPDATE`/`COMMIT`).

use std::time::{Duration, Instant};

use bullfrog_common::Value;

use crate::env::{initial_balance, Env, READ_ID};
use crate::replay::{self, Op};
use crate::stats::{nanos, Rng};
use crate::trace::Spans;
use crate::wire::{self, with_retry, Counts, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Reads only.
    Reads,
    /// Half reads, half transfers.
    ReadWrite,
}

/// Draws the next op of the seeded stream.
pub fn next_op(rng: &mut Rng, mix: Mix, rows: u64) -> Op {
    let read = mix == Mix::Reads || rng.below(2) == 0;
    if read {
        return Op::Read(rng.below(rows) as i64);
    }
    replay::draw_transfer(rng, rows)
}

#[derive(Default)]
pub struct Window {
    pub reads: Vec<u64>,
    pub txns: Vec<u64>,
    pub ops: u64,
    pub elapsed: Duration,
    pub counts: Counts,
}

/// Runs the closed loop on every connection for `length`; each worker
/// continues its own seeded stream in `rngs`.
pub fn run(
    env: &mut Env,
    seed: u64,
    mix: Mix,
    length: Duration,
    rngs: &mut [Rng],
    spans: &mut [Spans],
) -> Window {
    let rows = env.rows;
    let started = Instant::now();
    let deadline = started + length;
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .conns
            .iter_mut()
            .zip(rngs.iter_mut())
            .zip(spans.iter_mut())
            .enumerate()
            .map(|(w, ((c, rng), sp))| {
                s.spawn(move || {
                    let mut out = Window::default();
                    let mut op_id = (w as u64) << 40;
                    while Instant::now() < deadline {
                        op_id += 1;
                        let op = next_op(rng, mix, rows);
                        let (id, t0) = sp.open();
                        out.counts.attempted += 1;
                        let mut wrong = false;
                        let outcome = match op {
                            Op::Read(k) => with_retry(&mut out.counts, || {
                                let got = wire::read(c, sp, op_id, id, READ_ID, Value::Int(k))?;
                                let ok = match mix {
                                    Mix::Reads => {
                                        got.len() == 1
                                            && got[0].0[0]
                                                == Value::Int(initial_balance(seed, k as u64))
                                    }
                                    Mix::ReadWrite => got.len() == 1,
                                };
                                wrong |= !ok;
                                Ok(())
                            }),
                            Op::Transfer(a, b, amount) => with_retry(&mut out.counts, || {
                                let matched = wire::transfer(
                                    c,
                                    sp,
                                    op_id,
                                    id,
                                    Value::Int(a),
                                    Value::Int(b),
                                    amount,
                                )?;
                                wrong |= !matched;
                                Ok(())
                            }),
                        };
                        let ns = nanos(t0.elapsed());
                        out.counts.wrong += u64::from(wrong);
                        let name = match op {
                            Op::Read(_) => "op.read",
                            Op::Transfer(..) => "op.transfer",
                        };
                        sp.close(id, 0, op_id, name, t0);
                        match outcome {
                            Outcome::Done => {
                                out.ops += 1;
                                match op {
                                    Op::Read(_) => out.reads.push(ns),
                                    Op::Transfer(..) => out.txns.push(ns),
                                }
                            }
                            // No migration runs here, so a retired table
                            // is as much a failure as any other error.
                            Outcome::Failed | Outcome::Retired => out.counts.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect()
    });
    let mut total = Window {
        elapsed: started.elapsed(),
        ..Window::default()
    };
    for p in parts {
        total.reads.extend(p.reads);
        total.txns.extend(p.txns);
        total.ops += p.ops;
        total.counts.add(&p.counts);
    }
    total
}
