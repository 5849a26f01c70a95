//! `paper-olap`: the Section-6 suite, E1–E9b over the 25 (experiment,
//! mapping) pairs of `erbium_bench::experiments()`, each mapping an
//! in-memory `Database` after ANALYZE, queried through `Connection` with a
//! warm plan cache.

use crate::util::{self, Fingerprint};
use crate::{EndToEnd, Options, Report, Scale};
use erbiumdb::datagen::{experiment_database, ExperimentConfig};
use erbiumdb::{Connection, Database};
use std::time::Instant;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per run at least, however long they take.
const MIN_PASSES: usize = 4;

pub fn config(scale: Scale, seed: u64) -> ExperimentConfig {
    let n_r = match scale {
        // Half the bench default: a pass takes ~1.5 s instead of ~5 s on
        // two cores, so a run's medians rest on a dozen passes, not five.
        Scale::Full => ExperimentConfig::bench_default().n_r / 2,
        Scale::Tiny => 200,
    };
    ExperimentConfig {
        n_r,
        mv_avg: 3,
        seed,
    }
}

/// Trade-off family of an experiment (index into `crate::FAMILIES`).
pub fn family(exp: &str) -> usize {
    match exp {
        "E1" | "E2" | "E3" | "E4" => 0,
        "E5a" | "E5b" | "E6" => 1,
        "E7" | "E8" => 2,
        _ => 3,
    }
}

pub struct Pair {
    pub exp: &'static str,
    pub family: usize,
    /// Index into `Suite::dbs`.
    pub db: usize,
    pub sql: String,
    /// Closed-form row count, where the generator's shape fixes it.
    pub expected_rows: Option<u64>,
}

pub struct Suite {
    pub dbs: Vec<(&'static str, Database)>,
    pub pairs: Vec<Pair>,
    /// Per-pair result fingerprint from the warm-up pass.
    pub reference: Vec<Fingerprint>,
}

/// Time to generate and load every mapping, and to ANALYZE them.
pub struct BuildTimes {
    pub load_s: f64,
    pub analyze_s: f64,
}

impl Suite {
    pub fn build(cfg: &ExperimentConfig) -> (Suite, BuildTimes) {
        let mut dbs = Vec::new();
        let mut times = BuildTimes {
            load_s: 0.0,
            analyze_s: 0.0,
        };
        for name in erbium_bench::MAPPING_NAMES {
            let t = Instant::now();
            let mut db = experiment_database(&erbium_bench::mapping_by_name(name), cfg)
                .unwrap_or_else(|e| panic!("build the {name} experiment database: {e}"));
            times.load_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            db.analyze();
            times.analyze_s += t.elapsed().as_secs_f64();
            dbs.push((name, db));
        }
        let mut pairs = Vec::new();
        for e in erbium_bench::experiments() {
            let sql = (e.query)(cfg);
            for m in e.mappings {
                let db = dbs
                    .iter()
                    .position(|(n, _)| n == m)
                    .expect("experiment mapping is built");
                pairs.push(Pair {
                    exp: e.id,
                    family: family(e.id),
                    db,
                    sql: sql.clone(),
                    expected_rows: expected_rows(e.id, cfg),
                });
            }
        }
        (
            Suite {
                dbs,
                pairs,
                reference: Vec::new(),
            },
            times,
        )
    }

    /// Run every pair once to fill the plan cache and record the reference
    /// answers, checking logical data independence: every mapping of an
    /// experiment returns the same row multiset, of the expected size.
    pub fn warm(&mut self, report: &mut Report) {
        self.reference.clear();
        for i in 0..self.pairs.len() {
            let fp = match self.execute(i) {
                Ok((_, fp)) => fp,
                Err(e) => {
                    report.fail(format!("{} on {}: {e}", self.pairs[i].exp, self.name(i)));
                    Fingerprint::default()
                }
            };
            self.reference.push(fp);
        }
        for i in 0..self.pairs.len() {
            let p = &self.pairs[i];
            let first = self
                .pairs
                .iter()
                .position(|q| q.exp == p.exp)
                .expect("pair itself");
            let agrees = self.reference[i] == self.reference[first];
            let sized = p.expected_rows.is_none_or(|n| self.reference[i].rows == n);
            if agrees && sized {
                report.op(true);
            } else {
                report.fail(format!(
                    "{} on {}: {} rows {:?}, expected {:?} rows agreeing with {}",
                    p.exp,
                    self.name(i),
                    self.reference[i].rows,
                    self.reference[i],
                    p.expected_rows,
                    self.name(first)
                ));
            }
        }
    }

    pub fn name(&self, pair: usize) -> &'static str {
        self.dbs[self.pairs[pair].db].0
    }

    /// Execute one pair through `Connection`; returns its latency in µs.
    pub fn execute(&mut self, pair: usize) -> Result<(f64, Fingerprint), String> {
        let p = &self.pairs[pair];
        let db = &mut self.dbs[p.db].1;
        let t = Instant::now();
        let rows = Connection::query(db, &p.sql).map_err(|e| e.to_string())?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        Ok((us, Fingerprint::of_rows(&rows.rows)))
    }

    /// One timed pass: every pair once. Returns each pair's latency (µs;
    /// NaN where it failed) and records failures and answer drift.
    pub fn pass(&mut self, report: &mut Report) -> Vec<f64> {
        (0..self.pairs.len())
            .map(|i| match self.execute(i) {
                Ok((us, fp)) if fp == self.reference[i] => {
                    report.op(true);
                    us
                }
                Ok((us, fp)) => {
                    report.fail(format!(
                        "{} on {}: answer {fp:?} differs from warm-up",
                        self.pairs[i].exp,
                        self.name(i)
                    ));
                    us
                }
                Err(e) => {
                    report.fail(format!("{} on {}: {e}", self.pairs[i].exp, self.name(i)));
                    f64::NAN
                }
            })
            .collect()
    }

    /// Per-family sum of one pass's latencies, in ms.
    pub fn family_sums(&self, latencies_us: &[f64]) -> [f64; 4] {
        let mut sums = [0.0; 4];
        for (p, us) in self.pairs.iter().zip(latencies_us) {
            if us.is_finite() {
                sums[p.family] += us / 1e3;
            }
        }
        sums
    }
}

/// Row counts the generator's shape fixes (see `erbium_datagen::experiment`):
/// R-hierarchy types cycle by `r_id % 5`, the R2 subtree links one S1 each
/// plus a second for every sixteenth member, and E7's ids are every
/// eighth S. Queries whose size depends on random values return `None`.
pub fn expected_rows(exp: &str, cfg: &ExperimentConfig) -> Option<u64> {
    let n_r = cfg.n_r as u64;
    let of_type = |t: u64| (0..n_r).filter(|i| i % 5 == t).count() as u64;
    let r2_subtree = of_type(2) + of_type(4);
    match exp {
        "E1" => Some(n_r),
        "E3" => Some(1),
        "E5a" | "E5b" => Some(of_type(3)),
        "E8" | "E9a" => Some(r2_subtree + r2_subtree.div_ceil(16)),
        "E9b" => Some(r2_subtree),
        "E7" => {
            let (n_s, n_s1, n_s2) = (cfg.n_s() as u64, cfg.n_s1() as u64, cfg.n_s2() as u64);
            let rows = (0..(n_s / 8).max(1))
                .map(|k| {
                    let s = k * 8;
                    let s1 = (0..n_s1).filter(|i| i % n_s == s).count() as u64;
                    let s2 = (0..n_s2).filter(|i| (i * 2) % n_s == s).count() as u64;
                    s1 * s2.max(1)
                })
                .sum();
            Some(rows)
        }
        _ => None,
    }
}

pub fn run(opts: &Options) -> Report {
    let cfg = config(opts.scale, opts.seed);
    let mut report = Report::new();
    let mut e2e = EndToEnd::default();
    let mut suite = None;
    for _ in 0..SETUPS {
        drop(suite.take());
        let t = Instant::now();
        let (s, _) = Suite::build(&cfg);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        suite = Some(s);
    }
    let mut suite = suite.expect("at least one set-up");
    e2e.tail = util::tail_level(MIN_PASSES * suite.pairs.len());
    suite.warm(&mut report);

    crate::start_measuring(&mut report);
    let t0 = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || t0.elapsed().as_secs_f64() < opts.seconds {
        let lat = suite.pass(&mut report);
        for (f, ms) in suite.family_sums(&lat).into_iter().enumerate() {
            e2e.family_ms[f].push(ms);
        }
        for us in lat.into_iter().filter(|us| us.is_finite()) {
            e2e.units += 1.0;
            e2e.busy_s += us / 1e6;
            e2e.latency_us.push(us);
        }
        passes += 1;
    }
    report.note(format!(
        "paper-olap: n_r={} mv_avg={} seed={}, {} mappings in memory (unbounded pool, no WAL), \
         {} pairs, {passes} timed passes, one closed-loop client",
        cfg.n_r,
        cfg.mv_avg,
        cfg.seed,
        suite.dbs.len(),
        suite.pairs.len()
    ));
    for (f, samples) in crate::FAMILIES.iter().zip(&e2e.family_ms) {
        let ms: Vec<String> = samples.iter().map(|v| format!("{v:.1}")).collect();
        report.note(format!("  {f} per pass (ms): {}", ms.join(" ")));
    }
    e2e.finish(&mut report);
    report
}
