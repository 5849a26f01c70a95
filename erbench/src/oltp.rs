//! `entity-oltp`: one closed-loop `RemoteClient` against an in-process ERSP
//! server over a durable M2 database whose row pages outgrow the buffer
//! pool. A seeded mix of ≈70% point reads and ≈30% single-entity write
//! transactions on uniform keys; every read is checked against a client-side
//! model of the writes acknowledged so far.

use crate::data::{self, Model, REntity};
use crate::util::{self, Fingerprint, Rng, WorkDir};
use crate::{EndToEnd, Options, Report, Scale};
use erbiumdb::client::RemoteClient;
use erbiumdb::core::{Database, DurabilityOptions};
use erbiumdb::server::{Server, ServerOptions};
use erbiumdb::storage::Value;
use erbiumdb::{Connection, DbError, Rows, TxOps};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SETUPS: usize = 5;
/// Requests per timed run at least.
pub const MIN_OPS: usize = 2_000;
/// The buffer pool holds this share of the loaded row pages.
const POOL_SHARE: usize = 4;

pub fn n_r(scale: Scale) -> i64 {
    match scale {
        Scale::Full => 5_000,
        Scale::Tiny => 500,
    }
}

/// The four point-read templates, one per trade-off family, in
/// `crate::FAMILIES` order.
pub const READS: [&str; 4] = [
    "SELECT r.r_mv1 FROM R r WHERE r.r_id = ?",
    "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r WHERE r.r_id = ?",
    "SELECT s.s_id, s.s_a, w.s1_no, w.s1_a FROM S s JOIN S1 w VIA s_s1 WHERE s.s_id = ?",
    "SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r WHERE r.r_id = ?",
];

/// Write kinds, for per-kind reporting.
pub const WRITES: [&str; 4] = ["insert", "update", "link", "delete"];

#[derive(Debug, Clone)]
pub enum Op {
    /// Read family `f` with key `k`; the expected rows come from the model.
    Read(usize, i64),
    Insert(REntity),
    Update {
        id: i64,
        r2_a: i64,
        r_mv1: Value,
    },
    Link {
        r2: i64,
        owner: i64,
        no: i64,
    },
    Delete(i64),
}

impl Op {
    /// Index into `WRITES`; `None` for reads.
    pub fn write_kind(&self) -> Option<usize> {
        match self {
            Op::Read(..) => None,
            Op::Insert(_) => Some(0),
            Op::Update { .. } => Some(1),
            Op::Link { .. } => Some(2),
            Op::Delete(_) => Some(3),
        }
    }
}

/// Seeded op stream over a model that follows acknowledged writes.
pub struct Mix {
    rng: Rng,
    pub model: Model,
    /// Base keys by role.
    all: Vec<i64>,
    r3: Vec<i64>,
    r2_subtree: Vec<i64>,
    r2: Vec<i64>,
    inserted: Vec<i64>,
    deleted: Vec<i64>,
    links: std::collections::BTreeSet<(i64, i64, i64)>,
    next_id: i64,
}

/// A read key: mostly one of `base`, sometimes a key the run
/// inserted or deleted (whose read must then find nothing).
fn pick(rng: &mut Rng, base: &[i64], inserted: &[i64], deleted: &[i64]) -> i64 {
    match rng.below(10) {
        0 if !inserted.is_empty() => inserted[rng.index(inserted.len())],
        1 if !deleted.is_empty() => deleted[rng.index(deleted.len())],
        _ => base[rng.index(base.len())],
    }
}

impl Mix {
    pub fn new(model: Model, seed: u64) -> Mix {
        let all: Vec<i64> = model.r.keys().copied().collect();
        let next_id = all.last().map_or(0, |k| k + 1) + 1_000_000;
        Mix {
            rng: Rng::new(seed ^ 0x0170_0170),
            r3: model.ids_of(&[3]),
            r2_subtree: model.ids_of(&[2, 4]),
            r2: model.ids_of(&[2]),
            all,
            model,
            inserted: Vec::new(),
            deleted: Vec::new(),
            links: Default::default(),
            next_id,
        }
    }

    pub fn next_op(&mut self) -> Op {
        // 70% reads, weighted so the median request falls inside the
        // cluster of weak-family reads rather than in the gap between
        // cheap reads and writes, where it would jump between them.
        let roll = self.rng.below(100);
        match roll {
            0..=29 => Op::Read(
                0,
                pick(&mut self.rng, &self.all, &self.inserted, &self.deleted),
            ),
            30..=39 => Op::Read(1, self.r3[self.rng.index(self.r3.len())]),
            40..=59 => Op::Read(2, self.rng.index(self.model.n_s as usize) as i64),
            60..=69 => Op::Read(
                3,
                pick(
                    &mut self.rng,
                    &self.r2_subtree,
                    &self.inserted,
                    &self.deleted,
                ),
            ),
            70..=77 => self.insert_op(),
            78..=86 => {
                let id = if self.rng.below(5) == 0 && !self.inserted.is_empty() {
                    self.inserted[self.rng.index(self.inserted.len())]
                } else {
                    self.r2[self.rng.index(self.r2.len())]
                };
                let n = 1 + self.rng.below(5);
                let r_mv1 = Value::Array(
                    (0..n)
                        .map(|_| Value::Int(self.rng.below(1_000) as i64))
                        .collect(),
                );
                Op::Update {
                    id,
                    r2_a: self.rng.below(1_000) as i64,
                    r_mv1,
                }
            }
            87..=91 => loop {
                let r2 = self.r2[self.rng.index(self.r2.len())];
                let owner = self.rng.below(self.model.n_s as u64) as i64;
                let no = self.rng.below(2) as i64;
                if !self.links.contains(&(r2, owner, no)) {
                    break Op::Link { r2, owner, no };
                }
            },
            _ if self.inserted.is_empty() => self.insert_op(),
            _ => Op::Delete(self.inserted[self.rng.index(self.inserted.len())]),
        }
    }

    fn insert_op(&mut self) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        Op::Insert(data::r_entity(&mut self.rng, id, 2, self.model.n_s))
    }

    /// Apply an acknowledged write to the model.
    pub fn acknowledge(&mut self, op: &Op) {
        match op {
            Op::Read(..) => {}
            Op::Insert(e) => {
                self.inserted.push(e.id);
                self.deleted.retain(|d| *d != e.id);
                self.model.r.insert(e.id, e.clone());
            }
            Op::Update { id, r2_a, r_mv1 } => {
                if let Some(e) = self.model.r.get_mut(id) {
                    e.set("r2_a", Value::Int(*r2_a));
                    e.set("r_mv1", r_mv1.clone());
                }
            }
            Op::Link { r2, owner, no } => {
                self.links.insert((*r2, *owner, *no));
            }
            Op::Delete(id) => {
                self.inserted.retain(|i| i != id);
                self.deleted.push(*id);
                self.model.r.remove(id);
            }
        }
    }

    /// Links acknowledged so far (the data loads none).
    pub fn link_count(&self) -> u64 {
        self.links.len() as u64
    }
}

/// A connection with the four read templates prepared on it.
pub struct Session<C: Connection> {
    pub conn: C,
    stmts: Vec<C::Prepared>,
}

impl<C: Connection> Session<C> {
    pub fn new(mut conn: C) -> Result<Session<C>, DbError> {
        let stmts = READS
            .iter()
            .map(|sql| conn.prepare(sql))
            .collect::<Result<_, _>>()?;
        Ok(Session { conn, stmts })
    }

    /// Execute one op; reads return their rows.
    pub fn apply(&mut self, op: &Op) -> Result<Option<Rows>, DbError> {
        match op {
            Op::Read(f, k) => {
                let rows = self
                    .conn
                    .execute_prepared(&self.stmts[*f], &[Value::Int(*k)])?;
                return Ok(Some(rows));
            }
            Op::Insert(e) => self.conn.transaction(|tx: &mut dyn TxOps| {
                tx.insert_linked("R2", &e.attrs, &[("r_s", vec![Value::Int(e.s)])])
            })?,
            Op::Update { id, r2_a, r_mv1 } => self.conn.transaction(|tx: &mut dyn TxOps| {
                tx.update_entity(
                    "R2",
                    &[Value::Int(*id)],
                    &[("r2_a", Value::Int(*r2_a)), ("r_mv1", r_mv1.clone())],
                )
            })?,
            Op::Link { r2, owner, no } => self.conn.transaction(|tx: &mut dyn TxOps| {
                tx.link(
                    "r2_s1",
                    &[Value::Int(*r2)],
                    &[Value::Int(*owner), Value::Int(*no)],
                    &[],
                )
            })?,
            Op::Delete(id) => self
                .conn
                .transaction(|tx: &mut dyn TxOps| tx.delete_entity("R2", &[Value::Int(*id)]))?,
        }
        Ok(None)
    }

    /// The end-of-run link oracle: every acknowledged `r2_s1` link, no more.
    pub fn count_links(&mut self) -> Result<u64, DbError> {
        let rows = self
            .conn
            .query("SELECT r.r_id, w.s_id, w.s1_no FROM R2 r JOIN S1 w VIA r2_s1")?;
        Ok(rows.rows.len() as u64)
    }
}

/// Latency samples of one op stream, split by kind.
#[derive(Debug, Default)]
pub struct Samples {
    pub all_us: Vec<f64>,
    pub read_us: [Vec<f64>; 4],
    pub write_us: [Vec<f64>; 4],
}

/// Drive `mix` through `session` until `until` says stop; verify every
/// answer and the final link count. `observe(op, done)` runs just before
/// and just after each request, outside its timing.
pub fn drive<C: Connection>(
    session: &mut Session<C>,
    mix: &mut Mix,
    report: &mut Report,
    mut until: impl FnMut(usize) -> bool,
    mut observe: impl FnMut(&Op, bool),
) -> Samples {
    let mut s = Samples::default();
    let mut n = 0;
    while !until(n) {
        let op = mix.next_op();
        observe(&op, false);
        let t = Instant::now();
        let res = session.apply(&op);
        let us = t.elapsed().as_secs_f64() * 1e6;
        observe(&op, true);
        n += 1;
        match (&op, res) {
            (Op::Read(f, k), Ok(Some(rows))) => {
                let (fp, want) = (
                    Fingerprint::of_rows(&rows.rows),
                    mix.model.expected(*f, &[*k]),
                );
                if fp == want {
                    report.op(true);
                } else {
                    report.fail(format!(
                        "read family {f} key {k}: got {fp:?}, model says {want:?}"
                    ));
                }
                s.read_us[*f].push(us);
            }
            (_, Ok(None)) => {
                report.op(true);
                mix.acknowledge(&op);
                s.write_us[op.write_kind().expect("only writes return no rows")].push(us);
            }
            (_, res) => report.fail(format!("{op:?}: {res:?}")),
        }
        s.all_us.push(us);
    }
    match session.count_links() {
        Ok(n) if n == mix.link_count() => report.op(true),
        other => report.fail(format!(
            "r2_s1 holds {other:?} links, {} acknowledged",
            mix.link_count()
        )),
    }
    s
}

/// A running server over the durable database, with one connected client.
pub struct Served {
    pub server: Server,
    pub session: Session<RemoteClient>,
    pub pages: usize,
    pub budget: usize,
}

impl Served {
    pub fn stop(self) {
        let Served {
            mut server,
            session,
            ..
        } = self;
        drop(session);
        server.drain(Duration::from_secs(30));
    }
}

/// Build the base database in `dir`, reopen it with a pool of a quarter of
/// its row pages, serve it on loopback and connect.
pub fn set_up(dir: &Path, seed: u64, n_r: i64) -> Result<(Served, Model), String> {
    let (model, pages) = data::build(dir, seed, n_r)?;
    Ok((serve(dir, pages)?, model))
}

/// Open `dir` with the benchmark's pool budget and serve it.
pub fn serve(dir: &Path, pages: usize) -> Result<Served, String> {
    let budget = budget(pages);
    let db = open(dir, budget)?;
    let server = Server::bind("127.0.0.1:0", db.into_shared(), ServerOptions::default())
        .map_err(|e| format!("bind server: {e}"))?;
    let client = RemoteClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let session = Session::new(client).map_err(|e| format!("prepare: {e}"))?;
    Ok(Served {
        server,
        session,
        pages,
        budget,
    })
}

/// The pool frame budget for data spanning `pages` row pages.
pub fn budget(pages: usize) -> usize {
    (pages / POOL_SHARE).max(2)
}

pub fn open(dir: &Path, budget: usize) -> Result<Database, String> {
    let opts = DurabilityOptions {
        buffer_pool_frames: Some(budget),
        ..Default::default()
    };
    Database::open_with(dir, opts).map_err(|e| format!("open {}: {e}", dir.display()))
}

pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    let mut e2e = EndToEnd {
        tail: util::tail_level(MIN_OPS),
        ..EndToEnd::default()
    };
    let work = WorkDir::new("oltp");
    let mut current: Option<(Served, Model, PathBuf)> = None;
    for rep in 0..SETUPS {
        if let Some((served, _, dir)) = current.take() {
            served.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.join(&format!("db{rep}"));
        let t = Instant::now();
        match set_up(&dir, opts.seed, n_r(opts.scale)) {
            Ok((served, model)) => {
                e2e.setup_s.push(t.elapsed().as_secs_f64());
                current = Some((served, model, dir));
            }
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                e2e.finish(&mut report);
                return report;
            }
        }
    }
    let (mut served, model, _) = current.expect("at least one set-up");
    let mut mix = Mix::new(model, opts.seed);
    crate::start_measuring(&mut report);
    let t0 = Instant::now();
    let s = drive(
        &mut served.session,
        &mut mix,
        &mut report,
        |n| n >= MIN_OPS && t0.elapsed().as_secs_f64() >= opts.seconds,
        |_, _| {},
    );
    report.note(format!(
        "entity-oltp: durable M2, n_r={} seed={}, SyncPolicy::EveryN(32), buffer_pool_frames={} \
         for {} row pages, ERSP loopback, one closed-loop RemoteClient, {} requests \
         ({} writes)",
        n_r(opts.scale),
        opts.seed,
        served.budget,
        served.pages,
        s.all_us.len(),
        s.write_us.iter().map(Vec::len).sum::<usize>()
    ));
    let kinds = crate::FAMILIES
        .iter()
        .zip(&s.read_us)
        .chain(WRITES.iter().zip(&s.write_us));
    for (kind, lat) in kinds {
        let q =
            [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99].map(|q| util::percentile(lat, q).round());
        report.note(format!(
            "  {kind}: n={} us at p10/25/40/50/60/75/90/99 {q:?}",
            lat.len()
        ));
    }
    let q =
        [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99].map(|q| util::percentile(&s.all_us, q).round());
    report.note(format!("  all: us at p10/25/40/50/60/75/90/99 {q:?}"));
    served.stop();
    e2e.units = s.all_us.len() as f64;
    e2e.busy_s = s.all_us.iter().sum::<f64>() / 1e6;
    e2e.latency_us = s.all_us;
    for (f, lat) in s.read_us.iter().enumerate() {
        e2e.family_ms[f] = lat.iter().map(|us| us / 1e3).collect();
    }
    e2e.finish(&mut report);
    report
}
