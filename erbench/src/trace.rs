//! The traced run: every workload once more, with per-layer readings taken
//! around the public calls of each crate and from the product's own
//! telemetry (the metrics registry behind `metrics_text()`, the
//! `ExecMetrics` tree of `query_with`, `plan_cache_stats`). It covers all
//! three workloads in one invocation so that every per-layer metric is
//! measured whichever `--workload` is named. Each workload also runs an
//! untraced stretch first; `trace.overhead_frac.*` compares the two.

use crate::data;
use crate::ingest::{self, Cycle};
use crate::olap::{self, Suite};
use crate::oltp::{self, Mix, Op, Session};
use crate::util::{self, prom_value, WorkDir};
use crate::{Options, Report, Scale, FAMILIES};
use erbiumdb::core::{CheckpointKind, Database};
use erbiumdb::engine::{optimizer, ExecContext, ExecMetrics};
use erbiumdb::mapping::QueryRewriter;
use erbiumdb::query::Statement;
use erbiumdb::Connection;
use std::time::Instant;

/// The registry `metrics_text()` renders: process-wide, so the server's
/// session thread and every database in this process report into it.
fn prom() -> String {
    erbiumdb::core::obs::Registry::global().render()
}

/// Operator classes for self-time attribution.
const CLASSES: [&str; 5] = ["scan", "join", "unnest", "aggregate", "other"];

fn class(op: &str) -> usize {
    let leaf = [
        "Scan",
        "IndexLookup",
        "IndexRange",
        "FactorizedScan",
        "FactorizedCount",
        "Values",
    ];
    if leaf.iter().any(|p| op.starts_with(p)) {
        0
    } else if op.starts_with("Join") {
        1
    } else if op.starts_with("Unnest") {
        2
    } else if op.starts_with("Aggregate") || op.starts_with("Distinct") {
        3
    } else {
        4
    }
}

/// Add each operator's self time (inclusive minus its children's
/// inclusive time) to its class, in ms.
fn self_times(m: &ExecMetrics, acc: &mut [f64; 5]) {
    let children: u64 = m.children.iter().map(|c| c.elapsed_ns).sum();
    acc[class(&m.name)] += (m.elapsed_ns as f64 - children as f64) / 1e6;
    for c in &m.children {
        self_times(c, acc);
    }
}

/// Fresh-planning cost of one statement, split by layer: `[parse, rewrite,
/// optimize]` in µs, each the median of a few repetitions.
fn planning_cost(db: &Database, sql: &str) -> Result<[f64; 3], String> {
    fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
        let mut out = f();
        let mut us = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            out = f();
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        (util::median(&us), out)
    }
    let lw = db.lowering().map_err(|e| e.to_string())?;
    let cat = db.catalog();
    let (parse_us, stmt) = timed(|| erbiumdb::query::parse_single(sql));
    let Ok(Statement::Select(sel)) = stmt else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let rewriter = QueryRewriter::new(lw, cat);
    let (rewrite_us, plan) = timed(|| rewriter.rewrite(&sel));
    let plan = plan.map_err(|e| e.to_string())?;
    let (optimize_us, optimized) = timed(|| optimizer::optimize(plan.clone(), cat));
    optimized.map_err(|e| e.to_string())?;
    Ok([parse_us, rewrite_us, optimize_us])
}

/// Mean planning cost over a workload's statements.
fn mean_cost<'a>(
    statements: impl IntoIterator<Item = (&'a Database, &'a str)>,
) -> Result<[f64; 3], String> {
    let costs = statements
        .into_iter()
        .map(|(db, sql)| planning_cost(db, sql))
        .collect::<Result<Vec<_>, _>>()?;
    let n = costs.len().max(1) as f64;
    Ok([0, 1, 2].map(|k| costs.iter().map(|c| c[k]).sum::<f64>() / n))
}

/// Plan-cache hits and misses in the registry.
fn cache_counts(text: &str) -> (f64, f64) {
    (
        prom_value(text, "erbium_plan_cache_hits_total"),
        prom_value(text, "erbium_plan_cache_misses_total"),
    )
}

/// Report the planning layers of one workload: fresh cost per statement,
/// amortized over the requests by the plan-cache miss share.
fn report_planning(
    report: &mut Report,
    tag: &str,
    cost: Result<[f64; 3], String>,
    hits: f64,
    misses: f64,
) {
    let miss_share = misses / (hits + misses).max(1.0);
    let [parse, rewrite, optimize] = cost.unwrap_or_else(|e| {
        report.fail(format!("{tag} planning: {e}"));
        [f64::NAN; 3]
    });
    report.metric(format!("query.parse_us.{tag}"), parse * miss_share, "us");
    report.metric(
        format!("mapping.rewrite_us.{tag}"),
        rewrite * miss_share,
        "us",
    );
    report.metric(
        format!("engine.optimize_us.{tag}"),
        optimize * miss_share,
        "us",
    );
    report.metric(
        format!("engine.plan_cache_hit_ratio.{tag}"),
        1.0 - miss_share,
        "fraction",
    );
    report.note(format!(
        "  {tag} fresh planning per statement: parse {parse:.1}us rewrite {rewrite:.1}us \
         optimize {optimize:.1}us; plan cache {hits} hits / {misses} misses"
    ));
}

fn olap_layers(opts: &Options, report: &mut Report) {
    let cfg = olap::config(opts.scale, opts.seed);
    let (mut suite, times) = Suite::build(&cfg);
    report.metric("datagen.load_s", times.load_s, "s");
    report.metric("core.analyze_s", times.analyze_s, "s");
    let start = prom();
    suite.warm(report);
    let lat = suite.pass(report);
    let untraced = suite.family_sums(&lat);

    let n = suite.pairs.len();
    let before_traced = prom();
    let mut traced = [0.0; 4];
    let mut self_ms = [[0.0; 5]; 4];
    let mut unattributed_ms = [0.0; 4];
    let mut examined = [0.0; 4];
    let mut returned = [0.0; 4];
    let mut columnar = [0.0; 4];
    let mut fallback = [0.0; 4];
    let ctx = ExecContext::default();
    for i in 0..n {
        let (f, db_ix) = (suite.pairs[i].family, suite.pairs[i].db);
        let text0 = prom();
        let t = Instant::now();
        let res = suite.dbs[db_ix].1.query_with(&suite.pairs[i].sql, &ctx);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let text1 = prom();
        let res = match res {
            Ok(r) if util::Fingerprint::of_rows(&r.rows) == suite.reference[i] => {
                report.op(true);
                r
            }
            other => {
                report.fail(format!(
                    "traced {} on {}: {:?}",
                    suite.pairs[i].exp,
                    suite.name(i),
                    other.err()
                ));
                continue;
            }
        };
        traced[f] += wall_ms;
        let delta = |name: &str| prom_value(&text1, name) - prom_value(&text0, name);
        columnar[f] += delta("engine_columnar_batches_total");
        fallback[f] += delta("engine_fallback_row_batches_total");
        if let Some(tree) = &res.metrics {
            self_times(tree, &mut self_ms[f]);
            unattributed_ms[f] += wall_ms - tree.elapsed_ns as f64 / 1e6;
            examined[f] += tree.leaves().iter().map(|l| l.rows_in as f64).sum::<f64>();
            returned[f] += tree.rows_out as f64;
        }
    }
    let end = prom();
    for (f, fam) in FAMILIES.iter().enumerate() {
        // Self time as a share of the family's traced wall time: a class
        // absent from a family's plans reads 0 without posing as a timing.
        report.metric(format!("engine.execute_ms.{fam}"), traced[f], "ms");
        for (c, cls) in CLASSES.iter().enumerate() {
            report.metric(
                format!("engine.self_share.{cls}.{fam}"),
                self_ms[f][c] / traced[f],
                "fraction",
            );
        }
        report.metric(
            format!("engine.unattributed_ms.{fam}"),
            unattributed_ms[f],
            "ms",
        );
        report.metric(
            format!("engine.rows_examined_per_row.{fam}"),
            examined[f] / returned[f].max(1.0),
            "ratio",
        );
        let batches = columnar[f] + fallback[f];
        report.metric(
            format!("engine.fallback_batch_share.{fam}"),
            fallback[f] / batches.max(1.0),
            "fraction",
        );
        report.metric(format!("engine.batches.{fam}"), batches, "count");
    }
    let delta = |name: &str| prom_value(&end, name) - prom_value(&before_traced, name);
    report.metric(
        "storage.csr_rebuilds",
        delta("erbium_csr_rebuilds_total"),
        "count",
    );
    report.metric(
        "storage.pool_misses.olap",
        delta("erbium_bufferpool_misses_total"),
        "count",
    );
    report.metric(
        "trace.overhead_frac.olap",
        traced.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0,
        "fraction",
    );
    let (h0, m0) = cache_counts(&start);
    let (h1, m1) = cache_counts(&end);
    let cost = mean_cost(
        suite
            .pairs
            .iter()
            .map(|p| (&suite.dbs[p.db].1, p.sql.as_str())),
    );
    report_planning(report, "olap", cost, h1 - h0, m1 - m0);
    drop(suite);

    // Doubling the data should roughly double the time: compare with n_r/2.
    let half = erbiumdb::datagen::ExperimentConfig {
        n_r: cfg.n_r / 2,
        ..cfg
    };
    let (mut small, _) = Suite::build(&half);
    small.warm(report);
    let lat = small.pass(report);
    let halved = small.family_sums(&lat);
    for (f, fam) in FAMILIES.iter().enumerate() {
        report.metric(
            format!("engine.scale_ratio.{fam}"),
            untraced[f] / halved[f],
            "ratio",
        );
    }
}

/// Requests of each traced stretch of `entity-oltp`.
fn oltp_ops(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_000,
        Scale::Tiny => 200,
    }
}

/// User payload bytes a write carries.
fn op_bytes(op: &Op) -> u64 {
    match op {
        Op::Read(..) => 0,
        Op::Insert(e) => e.attrs.iter().map(|(_, v)| util::user_bytes(v)).sum(),
        Op::Update { r_mv1, .. } => 16 + util::user_bytes(r_mv1),
        Op::Link { .. } => 24,
        Op::Delete(_) => 8,
    }
}

/// Buffer-pool hits and misses of single requests, read from the registry
/// just before and just after each: `(hits, misses, requests)` per read
/// family and over all writes.
#[derive(Default)]
struct PoolTraffic {
    read: [(f64, f64, f64); 4],
    writes: (f64, f64, f64),
}

impl PoolTraffic {
    fn add(&mut self, op: &Op, before: &str, after: &str) {
        let d = |name: &str| prom_value(after, name) - prom_value(before, name);
        let slot = match op {
            Op::Read(f, _) => &mut self.read[*f],
            _ => &mut self.writes,
        };
        slot.0 += d("erbium_bufferpool_hits_total");
        slot.1 += d("erbium_bufferpool_misses_total");
        slot.2 += 1.0;
    }

    fn reads(&self) -> (f64, f64, f64) {
        self.read
            .iter()
            .fold((0.0, 0.0, 0.0), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2))
    }

    /// `(hits, misses)` over every request.
    fn total(&self) -> (f64, f64) {
        let r = self.reads();
        (r.0 + self.writes.0, r.1 + self.writes.1)
    }
}

fn oltp_layers(opts: &Options, report: &mut Report) {
    let n_ops = oltp_ops(opts.scale);
    let work = WorkDir::new("trace-oltp");
    let base = work.join("base");
    let t = Instant::now();
    let (model, pages) = match data::build(&base, opts.seed, oltp::n_r(opts.scale)) {
        Ok(x) => x,
        Err(e) => return report.fail(format!("oltp set-up: {e}")),
    };
    report.metric("core.load_s", t.elapsed().as_secs_f64(), "s");
    let pristine = work.join("pristine");
    util::copy_dir(&base, &pristine);

    // Remote: an untraced stretch, then a traced one with registry
    // readings around every request.
    let mut served = match oltp::serve(&base, pages) {
        Ok(x) => x,
        Err(e) => return report.fail(format!("oltp serve: {e}")),
    };
    let mut mix = Mix::new(model.clone(), opts.seed);
    let start = prom();
    let untraced = oltp::drive(
        &mut served.session,
        &mut mix,
        report,
        |n| n >= 2 * n_ops,
        |_, _| {},
    );
    let before = prom();
    let mut pool = PoolTraffic::default();
    let mut user = 0u64;
    let mut last = String::new();
    let traced = oltp::drive(
        &mut served.session,
        &mut mix,
        report,
        |n| n >= n_ops,
        |op, done| {
            let text = prom();
            if done {
                pool.add(op, &last, &text);
                user += op_bytes(op);
            }
            last = text;
        },
    );
    let after = prom();
    let cache = served.session.conn.cache_stats();
    served.stop();
    let d = |name: &str| prom_value(&after, name) - prom_value(&before, name);
    let ops = traced.all_us.len() as f64;
    let (hits, misses) = pool.total();
    report.metric(
        "storage.pool_hit_ratio",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    report.metric("storage.pool_misses_per_op", misses / ops, "count");
    let per_op = |(h, m, n): (f64, f64, f64)| (m / n.max(1.0), h / (h + m).max(1.0));
    let (read_misses, read_hit_ratio) = per_op(pool.reads());
    let (write_misses, write_hit_ratio) = per_op(pool.writes);
    report.metric("storage.pool_misses_per_read", read_misses, "count");
    report.metric("storage.pool_misses_per_write", write_misses, "count");
    report.note(format!(
        "  oltp pool: reads hit {read_hit_ratio:.4} with {read_misses:.2} misses each, \
         writes hit {write_hit_ratio:.4} with {write_misses:.2} misses each"
    ));
    for (f, fam) in FAMILIES.iter().enumerate() {
        let (h, m, n) = pool.read[f];
        report.note(format!(
            "    {fam} reads: {n} requests, {:.1} page hits and {:.2} misses each",
            h / n.max(1.0),
            m / n.max(1.0)
        ));
    }
    report.metric(
        "storage.pool_evictions_per_op",
        d("erbium_bufferpool_evictions_total") / ops,
        "count",
    );
    report.metric(
        "storage.pool_writebacks_per_op",
        d("erbium_bufferpool_dirty_writebacks_total") / ops,
        "count",
    );
    // `erbium_wal_fsync_seconds` buckets grow 4x apart, too coarse for a
    // percentile; its sum and count give the mean exactly.
    let fsyncs = d("erbium_wal_fsync_seconds_count");
    report.metric(
        "storage.wal_fsync_ms.mean",
        d("erbium_wal_fsync_seconds_sum") * 1e3 / fsyncs.max(1.0),
        "ms",
    );
    report.metric(
        "storage.commits_per_fsync",
        d("erbium_wal_commit_groups_total") / fsyncs.max(1.0),
        "ratio",
    );
    report.metric(
        "storage.wal_bytes_per_user_byte.oltp",
        d("erbium_wal_bytes_total") / user.max(1) as f64,
        "ratio",
    );
    let mean = |s: &oltp::Samples| s.all_us.iter().sum::<f64>() / s.all_us.len().max(1) as f64;
    report.metric(
        "trace.overhead_frac.oltp",
        mean(&traced) / mean(&untraced) - 1.0,
        "fraction",
    );
    report.note(format!(
        "  oltp traced stretch: {ops} requests, pool budget {} of {} pages, {fsyncs} fsyncs",
        oltp::budget(pages),
        pages
    ));

    let d_all = |name: &str| prom_value(&after, name) - prom_value(&start, name);
    report.metric(
        "server.overloaded",
        d_all("erbium_server_overloaded_total"),
        "count",
    );
    report.metric(
        "server.frame_errors",
        d_all("erbium_server_frame_errors_total"),
        "count",
    );

    // Embedded: the same requests from the same starting state on a
    // `SharedDatabase` (what the server serves), so each request meets the
    // same data and pool history as its remote twin. The median over
    // requests of remote minus embedded time is the wire's share: for
    // reads on the lightest one, the E3-shaped index lookup, whose µs
    // would drown in the ms of the scanning reads; for writes on all.
    let embedded = match oltp::open(&pristine, oltp::budget(pages)) {
        Ok(db) => db,
        Err(e) => return report.fail(format!("oltp embedded open: {e}")),
    };
    // The server's cache counts from its open: the prepares that planned
    // each template once, then every execution of the session.
    let cost = mean_cost(oltp::READS.iter().map(|sql| (&embedded, *sql)));
    match cache {
        Ok(c) => report_planning(report, "oltp", cost, c.hits as f64, c.misses as f64),
        Err(e) => report_planning(report, "oltp", Err(e.to_string()), 0.0, 0.0),
    }
    let shared = embedded.into_shared();
    let probe = shared.clone();
    let mut local = match Session::new(shared) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("oltp embedded prepare: {e}")),
    };
    let mut mix = Mix::new(model, opts.seed);
    // On a thread of its own, as the server serves each session: on the
    // main thread, which ran the set-up, the same writes measured ~25%
    // slower.
    let replay = std::thread::scope(|sc| {
        sc.spawn(|| oltp::drive(&mut local, &mut mix, report, |n| n >= 2 * n_ops, |_, _| {}))
            .join()
            .expect("replay thread")
    });
    let wire = |r: Vec<f64>, l: Vec<f64>| {
        util::median(&r.iter().zip(&l).map(|(r, l)| r - l).collect::<Vec<_>>())
    };
    let writes = |s: &oltp::Samples| s.write_us.concat();
    report.metric(
        "server.wire_us.read",
        wire(untraced.read_us[0].clone(), replay.read_us[0].clone()),
        "us",
    );
    report.metric(
        "server.wire_us.write",
        wire(writes(&untraced), writes(&replay)),
        "us",
    );
    for (w, kind) in oltp::WRITES.iter().enumerate() {
        report.metric(
            format!("mapping.crud_us.{kind}"),
            util::median(&replay.write_us[w]),
            "us",
        );
    }

    // Then the traced stretch's requests, each read repeated through
    // `query_with` with the key inlined, for the rows its leaves examined.
    let (mut examined, mut returned, mut probe_err) = (0.0, 0.0, None);
    oltp::drive(
        &mut local,
        &mut mix,
        report,
        |n| n >= n_ops,
        |op, done| {
            let (Op::Read(f, k), true) = (op, done) else {
                return;
            };
            let sql = oltp::READS[*f].replace('?', &k.to_string());
            match probe.query_with(&sql, &ExecContext::default()) {
                Ok(r) => {
                    if let Some(tree) = &r.metrics {
                        examined += tree.leaves().iter().map(|l| l.rows_in as f64).sum::<f64>();
                    }
                    returned += r.rows.len() as f64;
                }
                Err(e) => probe_err = Some(format!("{sql}: {e}")),
            }
        },
    );
    if let Some(e) = probe_err {
        report.fail(format!("oltp rows-examined probe {e}"));
    }
    report.metric(
        "engine.rows_examined_per_row.oltp_read",
        examined / returned.max(1.0),
        "ratio",
    );
}

/// Rounds of each traced stretch of `ingest-checkpoint`.
fn ingest_rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Tiny => 6,
    }
}

fn ingest_layers(opts: &Options, report: &mut Report) {
    let sizes = ingest::sizes(opts.scale);
    let rounds = ingest_rounds(opts.scale);
    let work = WorkDir::new("trace-ingest");
    let base = work.join("base");
    let model = match ingest::set_up(&base, opts.seed, sizes) {
        Ok(m) => m,
        Err(e) => return report.fail(format!("ingest set-up: {e}")),
    };
    let untraced = ingest::drive(
        &base,
        &work,
        &model,
        opts.seed,
        sizes,
        report,
        |n| n < rounds,
        |_, _| {},
    );

    // Traced: the same rounds again, with registry readings around each.
    let (mut hits, mut misses, mut wal, mut recoveries, mut groups) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut cost = None;
    let mut last = String::new();
    let traced = ingest::drive(
        &base,
        &work,
        &model,
        opts.seed,
        sizes,
        report,
        |n| n < rounds,
        |cycle: &mut Cycle, done| {
            let text = prom();
            if done {
                let d = |name: &str| prom_value(&text, name) - prom_value(&last, name);
                hits += d("erbium_plan_cache_hits_total");
                misses += d("erbium_plan_cache_misses_total");
                wal += d("erbium_wal_bytes_total");
                recoveries += d("erbium_recoveries_total");
                groups += d("erbium_recovery_replayed_groups_total");
                if cost.is_none() {
                    let probe = *cycle
                        .model
                        .r
                        .keys()
                        .last()
                        .expect("the cycle holds entities");
                    let sqls = cycle.reads(probe, &[0, 1]).map(|(sql, _)| sql);
                    let db = cycle.db();
                    cost = Some(mean_cost(sqls.iter().map(|sql| (&*db, sql.as_str()))));
                }
            }
            last = text;
        },
    );
    let (Some(last), Some(cost)) = (traced.last(), cost) else {
        return report.fail("no traced ingest round");
    };
    report_planning(report, "ingest", cost, hits, misses);
    let med =
        |f: fn(&ingest::Round) -> f64| util::median(&traced.iter().map(f).collect::<Vec<_>>());
    report.metric("mapping.copy_from_ms", med(|r| r.copy_us) / 1e3, "ms");
    report.metric(
        "storage.checkpoint_ms",
        med(|r| r.checkpoint_us) / 1e3,
        "ms",
    );
    report.metric("storage.recovery_ms", med(|r| r.restart_us) / 1e3, "ms");
    report.metric(
        "storage.checkpoint_bytes_written",
        med(|r| r.checkpoint_bytes as f64),
        "bytes",
    );
    let deltas: Vec<f64> = traced
        .iter()
        .filter_map(|r| match r.checkpoint {
            Some(CheckpointKind::Delta { tables, factorized }) => {
                Some((tables + factorized) as f64)
            }
            _ => None,
        })
        .collect();
    report.metric(
        "storage.checkpoint_delta_tables",
        deltas.iter().sum::<f64>() / deltas.len().max(1) as f64,
        "count",
    );
    report.note(format!(
        "  ingest: {} of {} checkpoints were deltas",
        deltas.len(),
        traced.len()
    ));
    report.metric(
        "storage.recovery_replayed_groups",
        groups / recoveries.max(1.0),
        "count",
    );
    let user: u64 = traced.iter().map(|r| r.user_bytes).sum();
    report.metric(
        "storage.wal_bytes_per_user_byte.ingest",
        wal / user.max(1) as f64,
        "ratio",
    );
    report.metric(
        "storage.space_per_user_byte",
        last.dir_bytes as f64 / last.live_user_bytes.max(1) as f64,
        "ratio",
    );
    let mean = |rs: &[ingest::Round]| {
        rs.iter().map(ingest::Round::total_us).sum::<f64>() / rs.len().max(1) as f64
    };
    report.metric(
        "trace.overhead_frac.ingest",
        mean(&traced) / mean(&untraced) - 1.0,
        "fraction",
    );
}

pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    olap_layers(opts, &mut report);
    oltp_layers(opts, &mut report);
    ingest_layers(opts, &mut report);
    report
}
