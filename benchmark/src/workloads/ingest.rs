//! `ingest_wal`: the write path. A durable database takes a stream of
//! 64-row appends under the default compaction policy (each compaction
//! is also a WAL checkpoint), a rolling-window `DELETE` keeps the live
//! set level so write amplification is at steady state, the newest
//! rows are read while ingest goes on, and the database is then
//! checkpointed, dropped and reopened.
//!
//! The flush policy is the engine's current one (see
//! [`crate::host::WAL_FLUSH_POLICY`]): durability is checked at
//! process-death level only — recovered ≡ committed after drop and
//! reopen — not against power loss.

use super::{ms, us, Clock, Pass, Scale};
use crate::gen::{Dims, Events, Stmt};
use crate::host::{dir_bytes, IoCounters, ScratchDir};
use crate::oracle::{expected, flat_row, matches, Flat};
use crate::span::Recorder;
use crate::stats::median;
use std::time::{Duration, Instant};
use vagg_db::{Database, SqlOutcome};

pub const BATCH_ROWS: usize = 64;
/// Bytes of user data per row: four `u32` columns.
const ROW_BYTES: usize = 16;
/// Reopen cycles after the checkpoint.
pub const REOPENS: usize = 3;

/// How the stream is shaped at a scale.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Appends per pass.
    pub batches: usize,
    /// Rows registered before the stream starts, and the width of the
    /// rolling window the DELETE keeps.
    pub window: usize,
    /// A `DELETE … WHERE ts < now − window` after every this many
    /// batches.
    pub delete_every: usize,
    /// A read of the newest `read_rows` rows after every this many
    /// batches.
    pub read_every: usize,
    pub read_rows: usize,
}

pub fn shape(scale: Scale) -> Shape {
    scale.pick(
        Shape {
            batches: 2048,
            window: 16_384,
            delete_every: 64,
            read_every: 100,
            read_rows: 4096,
        },
        Shape {
            batches: 96,
            window: 1024,
            delete_every: 16,
            read_every: 24,
            read_rows: 512,
        },
    )
}

fn select(db: &mut Database, sql: &str) -> Result<vagg_db::QueryOutput, String> {
    match db.run_sql(sql) {
        Ok(SqlOutcome::Rows(out)) => Ok(out),
        other => Err(format!("{sql}: {other:?}")),
    }
}

/// The table's rows, oldest first (`ts` is unique).
fn table_rows(db: &Database) -> Vec<[u32; 4]> {
    let table = db.table("events").expect("events is registered");
    let col = |name| table.column(name).expect("events has its four columns");
    let (g, h, v, ts) = (col("g"), col("h"), col("v"), col("ts"));
    let mut rows: Vec<[u32; 4]> = (0..table.rows())
        .map(|i| [g[i], h[i], v[i], ts[i]])
        .collect();
    rows.sort_unstable_by_key(|r| r[3]);
    rows
}

/// Times one call into the engine: a span (when traced) and a latency.
fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = rec.span(name, f);
    (out, t.elapsed())
}

pub fn pass(seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let shape = shape(scale);
    let dims = Dims::generate(seed);

    let mut clock = Clock::start(0);
    let setup = Instant::now();
    let dir = ScratchDir::new("wal");
    let mut model = Events::generate(shape.window, 0, seed);
    let stream = Events::generate(
        shape.batches * BATCH_ROWS,
        shape.window as u32,
        seed.wrapping_add(0x1D6E57),
    );
    let batches: Vec<_> = (0..shape.batches)
        .map(|b| stream.batch(b * BATCH_ROWS, (b + 1) * BATCH_ROWS))
        .collect();
    let mut db = Database::open(dir.path()).expect("open a fresh durable database");
    db.register(model.table());
    let recent = |now: usize| Stmt::Recent {
        after: (now - shape.read_rows) as u32,
    };
    select(&mut db, &recent(shape.window).sql()).expect("warm-up read");
    pass.setup_s = clock.calibrated_s(setup.elapsed());

    let mut rec = Recorder::new(traced);
    let (mut compactions, mut deletes, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    let io_before = IoCounters::read();
    let root = rec.enter("harness.loop");
    for (b, batch) in batches.into_iter().enumerate() {
        rec.next_op();
        let (receipt, took) = timed(&mut rec, "db.append", || db.append_rows("events", batch));
        clock.op(took, true);
        match receipt {
            Ok(r) if r.compacted => compactions.push(ms(took)),
            Ok(_) => {}
            Err(e) => pass.fail(format!("append {b}: {e}")),
        }
        rec.span("harness.oracle", || {
            model.extend_from(&stream, b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
        });
        let now = shape.window + (b + 1) * BATCH_ROWS;

        if (b + 1) % shape.delete_every == 0 {
            let cutoff = (now - shape.window) as u32;
            let sql = format!("DELETE FROM events WHERE ts < {cutoff}");
            let (outcome, took) = timed(&mut rec, "db.delete", || db.run_sql(&sql));
            clock.op(took, false);
            deletes.push(ms(took));
            if !matches!(outcome, Ok(SqlOutcome::Deleted(_))) {
                pass.fail(format!("{sql}: {outcome:?}"));
            }
            model.retain_from(cutoff);
        }
        if (b + 1) % shape.read_every == 0 {
            let stmt = recent(now);
            let sql = stmt.sql();
            let (out, took) = timed(&mut rec, "db.read", || select(&mut db, &sql));
            clock.op(took, false);
            reads.push(ms(took));
            let oracle = rec.enter("harness.oracle");
            match out {
                Err(e) => pass.fail(e),
                Ok(out) => {
                    pass.sim_cycles += out.report.cycles;
                    let got: Vec<Flat> = out.rows.iter().map(flat_row).collect();
                    if !matches(stmt, &got, &expected(stmt, &model, &dims)) {
                        pass.fail(format!(
                            "{sql}: rows differ from the host model of the window"
                        ));
                    }
                }
            }
            rec.exit(oracle);
        }
    }
    let io = IoCounters::read().since(io_before);

    let (result, checkpoint) = timed(&mut rec, "db.checkpoint", || db.checkpoint());
    clock.op(checkpoint, false);
    if let Err(e) = result {
        pass.fail(format!("checkpoint: {e}"));
    }
    let stored = dir_bytes(dir.path());

    // Committed state, as the host model has it.
    let committed: Vec<[u32; 4]> = (0..model.rows()).map(|i| model.row(i)).collect();
    if table_rows(&db) != committed {
        pass.fail("the live table differs from the host model after the stream");
    }

    // Drop → open → first full aggregate; recovered ≡ committed.
    let full = Stmt::Full;
    let want = expected(full, &model, &dims);
    let (mut opens, mut recovers) = (Vec::new(), Vec::new());
    for cycle in 0..REOPENS {
        drop(db);
        let (reopened, open) = timed(&mut rec, "db.open", || Database::open(dir.path()));
        db = match reopened {
            Ok(db) => db,
            Err(e) => {
                pass.fail(format!("reopen {cycle}: {e}"));
                clock.op(open, false);
                break;
            }
        };
        let (out, first) = timed(&mut rec, "db.read", || select(&mut db, &full.sql()));
        clock.op(open + first, false);
        opens.push(open.as_secs_f64());
        recovers.push(ms(open + first));
        match out {
            Err(e) => pass.fail(e),
            Ok(out) => {
                pass.sim_cycles += out.report.cycles;
                let got: Vec<Flat> = out.rows.iter().map(flat_row).collect();
                if !matches(full, &got, &want) || table_rows(&db) != committed {
                    pass.fail(format!(
                        "reopen {cycle}: recovered state differs from committed"
                    ));
                }
            }
        }
    }
    rec.exit(root);
    clock.finish(&mut pass);
    if !traced {
        return pass;
    }
    let appended = (shape.batches * BATCH_ROWS) as f64;
    pass.layer("db.delta.compaction_ms", median(&compactions));
    pass.layer("db.delta.compactions", compactions.len() as f64);
    pass.layer("db.delta.delete_ms", median(&deletes));
    pass.layer("db.delta.read_ms", median(&reads));
    pass.layer(
        "db.wal.write_syscalls_per_batch",
        io.syscw as f64 / shape.batches as f64,
    );
    pass.layer(
        "db.wal.written_bytes_per_user_byte",
        io.wchar as f64 / (appended * ROW_BYTES as f64),
    );
    pass.layer("db.wal.checkpoint_ms", ms(checkpoint));
    pass.layer(
        "db.wal.stored_bytes_per_live_byte",
        stored as f64 / (committed.len() * ROW_BYTES) as f64,
    );
    pass.layer(
        "db.wal.replay_rows_per_s",
        committed.len() as f64 / median(&opens),
    );
    pass.layer("db.wal.recover_ms", median(&recovers));

    // The same appends without a log under them.
    let mut memory = Database::new();
    memory.register(Events::generate(shape.window, 0, seed).table());
    let in_memory: Vec<f64> = (0..shape.batches)
        .map(|b| {
            let batch = stream.batch(b * BATCH_ROWS, (b + 1) * BATCH_ROWS);
            let t = Instant::now();
            memory
                .append_rows("events", batch)
                .expect("in-memory append");
            us(t.elapsed())
        })
        .collect();
    let durable_us = median(&pass.primary_wall_ms()) * 1e3;
    pass.layer("db.delta.append_us", median(&in_memory));
    pass.layer(
        "db.wal.append_overhead_pct",
        (durable_us / median(&in_memory) - 1.0) * 100.0,
    );

    pass.threads.push(rec);
    pass
}
