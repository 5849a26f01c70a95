//! Measurement helpers shared by the workloads: a seeded generator,
//! order statistics, process and directory probes, result fingerprints and
//! readers for the product's own Prometheus text.

use erbiumdb::storage::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// SplitMix64: small, seedable and identical on every platform, so one
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform index into a slice of length `n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the tail levels that still leaves at least ten samples
/// beyond it at `n` samples.
pub fn tail_level(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (1.0 - q) * n as f64 >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), or NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a new peak-RSS window at the current footprint: hand freed heap
/// back to the OS (glibc keeps it otherwise, so set-up garbage would count)
/// and reset `VmHWM` through `/proc/self/clear_refs`. Returns false where
/// the reset is unavailable; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free memory of the allocator
    // this process already uses; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A scratch directory under `.bench_work/` of the working directory,
/// removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let path = PathBuf::from(".bench_work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create .bench_work scratch directory");
        WorkDir { path }
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty `.bench_work/` behind once the last one goes.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Copy the regular files of a database directory (it has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create database copy directory");
    for entry in std::fs::read_dir(from).expect("read database directory") {
        let entry = entry.expect("database directory entry");
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy database file");
        }
    }
}

/// `(name, size, modified)` of every regular file in a directory.
pub fn dir_listing(dir: &Path) -> Vec<(String, u64, std::time::SystemTime)> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            if let Ok(md) = e.metadata() {
                if md.is_file() {
                    let modified = md.modified().unwrap_or(std::time::UNIX_EPOCH);
                    out.push((
                        e.file_name().to_string_lossy().into_owned(),
                        md.len(),
                        modified,
                    ));
                }
            }
        }
    }
    out
}

/// Bytes in files that are new or changed between two listings.
pub fn bytes_written(
    before: &[(String, u64, std::time::SystemTime)],
    after: &[(String, u64, std::time::SystemTime)],
    only: impl Fn(&str) -> bool,
) -> u64 {
    after
        .iter()
        .filter(|(n, _, _)| only(n))
        .filter(|a| !before.iter().any(|b| b == *a))
        .map(|(_, size, _)| size)
        .sum()
}

pub fn dir_bytes(dir: &Path) -> u64 {
    dir_listing(dir).iter().map(|(_, s, _)| s).sum()
}

/// Payload size of a value as a user counts it: 8 bytes per number,
/// string bytes, and the sum over array or struct members.
pub fn user_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
        Value::Array(a) | Value::Struct(a) => a.iter().map(user_bytes).sum(),
    }
}

/// Canonical text of a value: array members are sorted, since a
/// multi-valued attribute is a set whose member order a mapping is free to
/// change.
fn canon(v: &Value) -> String {
    match v {
        Value::Array(items) => {
            let mut parts: Vec<String> = items.iter().map(canon).collect();
            parts.sort();
            format!("[{}]", parts.join(","))
        }
        Value::Struct(items) => {
            format!(
                "({})",
                items.iter().map(canon).collect::<Vec<_>>().join(",")
            )
        }
        other => format!("{other:?}"),
    }
}

pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in row {
        canon(v).hash(&mut h);
    }
    h.finish()
}

/// Order-insensitive fingerprint of a row multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: u64,
    sum: u64,
    mix: u64,
}

impl Fingerprint {
    pub fn add(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.mix = self.mix.wrapping_add(z ^ (z >> 27));
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Fingerprint {
        let mut f = Fingerprint::default();
        for r in rows {
            f.add(row_hash(r));
        }
        f
    }
}

/// Fingerprint of every row of every plain and factorized table: the
/// physical content a checkpoint and a recovery must carry over exactly.
pub fn catalog_fingerprint(cat: &erbiumdb::storage::Catalog) -> Fingerprint {
    let mut f = Fingerprint::default();
    let mut names = cat.table_names();
    names.sort();
    for name in names {
        let t = cat.table(&name).expect("listed table exists");
        for (rid, row) in t.scan() {
            let mut h = DefaultHasher::new();
            (name.as_str(), rid.0, row_hash(row)).hash(&mut h);
            f.add(h.finish());
        }
    }
    let mut names = cat.factorized_names();
    names.sort();
    for name in names {
        let fz = cat
            .factorized(&name)
            .expect("listed factorized structure exists");
        for row in fz.enumerate_join() {
            let mut h = DefaultHasher::new();
            (name.as_str(), row_hash(&row)).hash(&mut h);
            f.add(h.finish());
        }
    }
    f
}

/// Row pages of every plain and factorized table.
pub fn row_pages(cat: &erbiumdb::storage::Catalog) -> usize {
    let plain: usize = cat
        .table_names()
        .iter()
        .map(|n| cat.table(n).expect("listed table exists").page_count())
        .sum();
    let fact: usize = cat
        .factorized_names()
        .iter()
        .map(|n| {
            let f = cat
                .factorized(n)
                .expect("listed factorized structure exists");
            f.left().page_count() + f.right().page_count()
        })
        .sum();
    plain + fact
}

/// Sum of every sample of a counter or gauge in Prometheus text (labelled
/// series included); 0 when the instrument has not registered yet.
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}
