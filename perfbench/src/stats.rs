//! Sample summaries, the result record, host metadata and JSON output.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place and returns it, for the quantile helpers.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Median over consecutive windows of at least `window` samples (one
/// window when there are fewer) of each window's `q`-quantile, so that a
/// burst of host contention moves few windows, not the figure.
/// `in_order` keeps the samples' time order.
pub fn windowed_quantile(in_order: &[f64], q: f64, window: usize) -> f64 {
    let windows = (in_order.len() / window).max(1);
    let size = in_order.len().div_ceil(windows).max(1);
    median(&in_order.chunks(size).map(|w| quantile(&sorted(w.to_vec()), q)).collect::<Vec<_>>())
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ratio that reads 0 instead of NaN or infinity when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked. `e2e` is filled by untraced
/// runs, `layers` by traced runs; `meta` holds the run's context and the
/// supporting figures (sample counts, ladders, reconciliations).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub meta: Vec<(String, String)>,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_owned(), value.into()));
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta(key, num(value));
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// render as `null` so the output stays valid JSON and fails loudly.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn text(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("{}:{v}", text(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = object(
        metrics
            .iter()
            .map(|m| (m.name.as_str(), object([("value", num(m.value)), ("unit", text(m.unit))]))),
    );
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned()).filter(|s| !s.is_empty())
}

/// CPU quota of this container: cgroup v2 `cpu.max`, else cgroup v1
/// `quota/period`, else "unreadable".
fn cgroup_cpu_quota() -> String {
    if let Some(max) = read_trimmed("/sys/fs/cgroup/cpu.max") {
        return max;
    }
    match (
        read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
    ) {
        (Some(quota), Some(period)) => format!("{quota}/{period}"),
        _ => "unreadable".to_owned(),
    }
}

/// Commit of the checkout when it is a git work tree, read from `.git`
/// in the working directory only.
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read_trimmed(&format!(".git/{reference}")).or_else(|| {
            read_trimmed(".git/packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        }),
        None => head,
    };
    commit.unwrap_or_else(|| "unknown".to_owned())
}

/// File system type holding the working directory, from the longest
/// matching mount point (the journal's fsyncs go to it).
pub fn cwd_filesystem() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".to_owned();
    };
    let Some(mounts) = read_trimmed("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            cwd.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The host's CPU time so far, in ticks, from `/proc/stat`: (stolen by
/// other guests, total).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Host and build context recorded with every result.
pub fn host_meta(out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    out.meta("nproc", nproc.to_string());
    out.meta("cgroup_cpu_quota", text(&cgroup_cpu_quota()));
    out.meta(
        "cpu_governor",
        text(
            &read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(|| "unreadable".to_owned()),
        ),
    );
    out.meta("rustc", text(env!("PERFBENCH_RUSTC_VERSION")));
    out.meta("git_commit", text(&git_commit()));
    out.meta("freeway_threads", text(&std::env::var("FREEWAY_THREADS").unwrap_or_default()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantiles_take_the_median_window() {
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from(i % 10)).collect();
        // One window of ten spoiled by a pause.
        samples[500..510].fill(1e6);
        assert_eq!(windowed_quantile(&samples, 0.99, 10), 9.0);
        assert_eq!(windowed_quantile(&samples, 0.5, 100), 4.0);
        assert_eq!(windowed_quantile(&samples[..7], 0.5, 100), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line =
            result_line(true, 3, 0, &[Metric { name: "setup_s".into(), value: 0.5, unit: "s" }]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
