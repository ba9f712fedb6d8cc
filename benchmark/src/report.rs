//! Result plumbing: metric lists, the run stamp, process readings from
//! `/proc`, summary statistics and the JSON line the benchmark ends with.

use std::fmt::Write;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered metric list with a push helper.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric (non-finite values are recorded as 0 so the JSON
    /// stays valid; the metric lists never produce them in practice).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Output checks and operation counts of one run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records an output check; a failing one is kept with its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted integer samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Resets this process's peak resident set size to its current one, so
/// each round's peak is its own (`/proc/self/clear_refs`, value 5). Where
/// the kernel refuses, peaks stay cumulative over the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux for every architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, every thread) this process has used.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, read from `.git` in the current
/// directory when there is one (the checkout need not be a repository).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Provenance of a run, printed before the result and written beside the
/// trace.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `available_parallelism`.
    pub nproc: usize,
    /// Simulator worker threads of the measured phase (1 where serial).
    pub workers: usize,
    /// Detector shard counts of the measured phase (empty where unused).
    pub shards: Vec<usize>,
    /// Rounds measured (after the warm-up round).
    pub rounds: usize,
}

impl Stamp {
    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(ToString::to_string).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"workers\": {}, \"shards\": [{}], \"rounds\": {}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.nproc,
            env!("BENCH_RUSTC_VERSION"),
            git_rev(),
            self.workers,
            shards.join(", "),
            self.rounds
        )
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, metric) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        m
    )
}

/// FNV-1a fold of one value into a running digest.
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01B3)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
