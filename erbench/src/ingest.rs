//! `ingest-checkpoint`: bulk writes beside reads on a durable M2 database.
//! Each round bulk-loads new R2/R3 entities with `copy_from`, reads the
//! touched tables right after the load invalidated the plan cache,
//! restarts the database (recovery replays the load from the WAL) and
//! takes a delta checkpoint. Every restart must reproduce the full row
//! fingerprint taken before it.

use crate::data::{self, Model, REntity};
use crate::util::{self, Fingerprint, Rng, WorkDir};
use crate::{EndToEnd, Options, Report, Scale};
use erbiumdb::core::{BulkEntity, CheckpointKind, Database};
use erbiumdb::Connection;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SETUPS: usize = 5;
/// Rounds per timed run at least.
pub const MIN_ROUNDS: usize = 102;
/// Rounds before the database is reset to the set-up copy, so every cycle
/// sees the same sizes however fast the rounds run.
pub const ROUNDS_PER_CYCLE: usize = 6;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub n_r: i64,
    /// R2 and R3 entities each per round.
    pub batch: i64,
}

pub fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n_r: 5_000,
            batch: 250,
        },
        Scale::Tiny => Sizes {
            n_r: 200,
            batch: 10,
        },
    }
}

/// Timings of one round, in µs, and what its checkpoint wrote.
#[derive(Debug, Clone)]
pub struct Round {
    pub rows: usize,
    pub user_bytes: u64,
    pub copy_us: f64,
    pub read_us: [f64; 4],
    pub restart_us: f64,
    pub checkpoint_us: f64,
    pub checkpoint: Option<CheckpointKind>,
    pub checkpoint_bytes: u64,
    /// Database directory size after the checkpoint, and the user bytes
    /// it holds (set-up data plus this cycle's rounds).
    pub dir_bytes: u64,
    pub live_user_bytes: u64,
}

impl Round {
    pub fn total_us(&self) -> f64 {
        self.copy_us + self.read_us.iter().sum::<f64>() + self.restart_us + self.checkpoint_us
    }
}

/// One cycle: a fresh copy of the set-up database, driven for
/// `ROUNDS_PER_CYCLE` rounds.
pub struct Cycle {
    pub dir: PathBuf,
    pub db: Option<Database>,
    pub model: Model,
    rng: Rng,
    next_id: i64,
    user_bytes: u64,
}

impl Cycle {
    pub fn start(base: &Path, dir: PathBuf, model: &Model, seed: u64) -> Result<Cycle, String> {
        util::copy_dir(base, &dir);
        let db = Database::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let next_id = model.r.keys().last().map_or(0, |k| k + 1);
        Ok(Cycle {
            dir,
            db: Some(db),
            model: model.clone(),
            rng: Rng::new(seed ^ 0x1265),
            next_id,
            user_bytes: model.user_bytes,
        })
    }

    pub fn db(&mut self) -> &mut Database {
        self.db.as_mut().expect("database is open between rounds")
    }

    /// Run one round, recording each check as an operation in `report`.
    pub fn round(&mut self, sizes: Sizes, report: &mut Report) -> Result<Round, String> {
        let n_s = self.model.n_s;
        let mut batches: [Vec<REntity>; 2] = Default::default();
        for (b, ty) in batches.iter_mut().zip([2usize, 3]) {
            for _ in 0..sizes.batch {
                b.push(data::r_entity(&mut self.rng, self.next_id, ty, n_s));
                self.next_id += 1;
            }
        }
        let rows = batches.iter().map(Vec::len).sum();
        let user_bytes: u64 = batches
            .iter()
            .flatten()
            .flat_map(|e| e.attrs.iter().map(|(_, v)| util::user_bytes(v)))
            .sum();
        self.user_bytes += user_bytes;

        let t = Instant::now();
        for (ty, batch) in ["R2", "R3"].iter().zip(&batches) {
            let bulk: Vec<BulkEntity> = batch.iter().map(REntity::bulk).collect();
            match self.db().copy_from(ty, &bulk) {
                Ok(n) if n == bulk.len() => report.op(true),
                other => report.fail(format!("copy_from {ty}: {other:?}")),
            }
        }
        let copy_us = t.elapsed().as_secs_f64() * 1e6;
        for e in batches.iter().flatten() {
            self.model.r.insert(e.id, e.clone());
        }

        let probe = &batches[0][self.rng.index(batches[0].len())];
        let mut owners: Vec<i64> = batches.iter().flatten().map(|e| e.s).collect();
        owners.sort_unstable();
        owners.dedup();
        owners.truncate(16);
        let reads = self.reads(probe.id, &owners);
        let mut read_us = [0.0; 4];
        for (f, (sql, want)) in reads.iter().enumerate() {
            let t = Instant::now();
            let got = Connection::query(self.db(), sql);
            read_us[f] = t.elapsed().as_secs_f64() * 1e6;
            match got {
                Ok(rows) if Fingerprint::of_rows(&rows.rows) == *want => report.op(true),
                other => report.fail(format!(
                    "read-after-write {}: got {:?}, model says {want:?}",
                    crate::FAMILIES[f],
                    other.map(|r| Fingerprint::of_rows(&r.rows))
                )),
            }
        }

        let before = util::catalog_fingerprint(self.db().catalog());
        let t = Instant::now();
        drop(self.db.take());
        let reopened = Database::open(&self.dir);
        let restart_us = t.elapsed().as_secs_f64() * 1e6;
        let db = reopened.map_err(|e| format!("reopen {}: {e}", self.dir.display()))?;
        let after = util::catalog_fingerprint(db.catalog());
        if after == before {
            report.op(true);
        } else {
            report.fail(format!(
                "recovery changed the rows: {before:?} -> {after:?}"
            ));
        }
        self.db = Some(db);

        let listing = util::dir_listing(&self.dir);
        let t = Instant::now();
        let checkpoint = self.db().checkpoint();
        let checkpoint_us = t.elapsed().as_secs_f64() * 1e6;
        let checkpoint = match checkpoint {
            Ok(kind) => {
                report.op(true);
                kind
            }
            Err(e) => {
                report.fail(format!("checkpoint: {e}"));
                None
            }
        };
        let checkpoint_bytes = util::bytes_written(&listing, &util::dir_listing(&self.dir), |n| {
            n.starts_with("snapshot")
        });
        Ok(Round {
            rows,
            user_bytes,
            copy_us,
            read_us,
            restart_us,
            checkpoint_us,
            checkpoint,
            checkpoint_bytes,
            dir_bytes: util::dir_bytes(&self.dir),
            live_user_bytes: self.user_bytes,
        })
    }

    /// One read per family with the rows the model says it must return:
    /// an E3-shaped lookup of a new key, E5 over R3, an E7-shaped weak
    /// join over S the batch linked to, and E9b over R2.
    pub fn reads(&self, probe: i64, owners: &[i64]) -> [(String, Fingerprint); 4] {
        let m = &self.model;
        let ids: Vec<String> = owners.iter().map(i64::to_string).collect();
        [
            (
                format!("SELECT r.r_mv1 FROM R r WHERE r.r_id = {probe}"),
                m.expected(0, &[probe]),
            ),
            (
                erbium_bench::queries::E5.to_string(),
                m.expected(1, &m.ids_of(&[3])),
            ),
            (
                format!(
                    "SELECT s.s_id, s.s_a, w.s1_no, w.s1_a FROM S s JOIN S1 w VIA s_s1 \
                     WHERE s.s_id IN ({})",
                    ids.join(", ")
                ),
                m.expected(2, owners),
            ),
            (
                erbium_bench::queries::E9B.to_string(),
                m.expected(3, &m.ids_of(&[2, 4])),
            ),
        ]
    }
}

impl Drop for Cycle {
    fn drop(&mut self) {
        drop(self.db.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Build the set-up database in `dir` (closed on return).
pub fn set_up(dir: &Path, seed: u64, sizes: Sizes) -> Result<Model, String> {
    data::build(dir, seed, sizes.n_r).map(|(model, _)| model)
}

/// Run whole cycles while `more(rounds_so_far)` holds, so every run mixes
/// the same database sizes. `observe(cycle, done)` runs just before and
/// just after each round, outside its timing.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    base: &Path,
    work: &WorkDir,
    model: &Model,
    seed: u64,
    sizes: Sizes,
    report: &mut Report,
    mut more: impl FnMut(usize) -> bool,
    mut observe: impl FnMut(&mut Cycle, bool),
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut cycle_no = 0u64;
    while more(rounds.len()) {
        let dir = work.join(&format!("cycle{cycle_no}"));
        let mut cycle = match Cycle::start(base, dir, model, seed.wrapping_add(cycle_no)) {
            Ok(c) => c,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        cycle_no += 1;
        for _ in 0..ROUNDS_PER_CYCLE {
            observe(&mut cycle, false);
            match cycle.round(sizes, report) {
                Ok(r) => rounds.push(r),
                Err(e) => {
                    report.fail(e);
                    return rounds;
                }
            }
            observe(&mut cycle, true);
        }
    }
    rounds
}

pub fn run(opts: &Options) -> Report {
    let sizes = sizes(opts.scale);
    let mut report = Report::new();
    let mut e2e = EndToEnd {
        tail: util::tail_level(MIN_ROUNDS),
        ..EndToEnd::default()
    };
    let work = WorkDir::new("ingest");
    let base = work.join("base");
    let mut model = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match set_up(&base, opts.seed, sizes) {
            Ok(m) => model = Some(m),
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                e2e.finish(&mut report);
                return report;
            }
        }
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    let model = model.expect("at least one set-up");
    crate::start_measuring(&mut report);
    let t0 = Instant::now();
    let rounds = drive(
        &base,
        &work,
        &model,
        opts.seed,
        sizes,
        &mut report,
        |n| n < MIN_ROUNDS || t0.elapsed().as_secs_f64() < opts.seconds,
        |_, _| {},
    );
    let deltas = rounds
        .iter()
        .filter(|r| matches!(r.checkpoint, Some(CheckpointKind::Delta { .. })))
        .count();
    report.note(format!(
        "ingest-checkpoint: durable M2, n_r={} seed={}, SyncPolicy::EveryN(32), unbounded pool, \
         {} R2 + {} R3 per round, {} rounds ({} per cycle), {deltas} delta checkpoints, \
         one closed-loop embedded client",
        sizes.n_r,
        opts.seed,
        sizes.batch,
        sizes.batch,
        rounds.len(),
        ROUNDS_PER_CYCLE
    ));
    let part = |f: fn(&Round) -> f64| util::median(&rounds.iter().map(f).collect::<Vec<_>>()) / 1e3;
    report.note(format!(
        "  round parts (median ms): copy {:.2}, restart {:.2}, checkpoint {:.2}",
        part(|r| r.copy_us),
        part(|r| r.restart_us),
        part(|r| r.checkpoint_us)
    ));
    for r in &rounds {
        e2e.units += r.rows as f64;
        e2e.busy_s += r.total_us() / 1e6;
        e2e.latency_us.push(r.total_us());
        for f in 0..4 {
            e2e.family_ms[f].push(r.read_us[f] / 1e3);
        }
    }
    e2e.finish(&mut report);
    report
}
