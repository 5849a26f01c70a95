//! ErbiumDB benchmark: three workloads driven through the public API, each
//! reporting the same end-to-end metrics, plus a separate traced run that
//! breaks the cost down by layer. See `README.md` in this directory for
//! what every metric means on every workload.

pub mod data;
pub mod ingest;
pub mod olap;
pub mod oltp;
pub mod trace;
pub mod util;

use std::fmt::Write as _;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["paper-olap", "entity-oltp", "ingest-checkpoint"];

/// The paper's four trade-off families of Section 6, in report order.
pub const FAMILIES: [&str; 4] = ["mv", "hierarchy", "weak", "colocated"];

/// How big the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own scale.
    Full,
    /// Seconds-long inputs for the benchmark's own test.
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One run's result: the oracle verdict, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context, printed to stderr.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one operation; `ok == false` marks it failed and the run
    /// incorrect.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Record a failed operation with its reason (first few only).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.op(false);
        if self.failed <= 5 {
            self.note(format!("FAILED: {}", why.into()));
        }
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics every timed workload reports. The workload
/// modules fill one of these; `finish` turns it into report metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Units of work completed (queries, requests or ingested rows).
    pub units: f64,
    /// Seconds spent inside the timed calls that did that work.
    pub busy_s: f64,
    /// Latency of each unit operation, in µs.
    pub latency_us: Vec<f64>,
    /// Percentile reported as `latency_tail_us`: fixed per workload, the
    /// highest that leaves ten samples beyond it at the workload's minimum
    /// sample count, so runs of different speed report the same level.
    pub tail: f64,
    /// Per-family read cost samples, in ms.
    pub family_ms: [Vec<f64>; 4],
}

impl EndToEnd {
    pub fn finish(&self, report: &mut Report) {
        let tail = self.tail;
        report.metric("setup_s", util::median(&self.setup_s), "s");
        report.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
        let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
        report.metric("ok_frac", ok, "fraction");
        report.metric("throughput_per_s", self.units / self.busy_s, "1/s");
        report.metric("latency_p50_us", util::median(&self.latency_us), "us");
        report.metric(
            "latency_tail_us",
            util::percentile(&self.latency_us, tail),
            "us",
        );
        for (f, samples) in FAMILIES.iter().zip(&self.family_ms) {
            report.metric(format!("family_ms.{f}"), util::median(samples), "ms");
        }
        report.note(format!(
            "samples: {} unit ops (tail = p{}), {} setups, family samples {:?}",
            self.latency_us.len(),
            tail * 100.0,
            self.setup_s.len(),
            self.family_ms.iter().map(Vec::len).collect::<Vec<_>>()
        ));
    }
}

/// Mark the start of the measured phase: `peak_rss_mb` covers only what
/// follows, not the set-ups before it.
pub fn start_measuring(report: &mut Report) {
    if !util::reset_peak_rss() {
        report.note("peak_rss_mb includes set-up: the peak could not be reset");
    }
}

/// Run one invocation: the timed run of a workload, or the traced run.
pub fn run(opts: &Options) -> Result<Report, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {WORKLOADS:?})",
            opts.workload
        ));
    }
    let mut report = if opts.trace {
        trace::run(opts)
    } else {
        match opts.workload.as_str() {
            "paper-olap" => olap::run(opts),
            "entity-oltp" => oltp::run(opts),
            _ => ingest::run(opts),
        }
    };
    report.note(format!(
        "workload={} seed={} seconds={} trace={} scale={:?} executor_threads={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.scale,
        erbiumdb::engine::default_threads()
    ));
    Ok(report)
}
