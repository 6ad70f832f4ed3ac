//! Process-level facts a result is stamped with: memory, configuration,
//! revision, and the scratch directory a run writes its stores into.

use fair_serve::Json;
use std::path::PathBuf;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), in
/// bytes, or 0 when `/proc` does not report it.
pub fn peak_rss_bytes(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Reset this process's peak resident set to its current resident set, so
/// a later [`peak_rss_bytes`] reports the peak of what ran after the reset
/// and not set-up's. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`:
/// the time a hypervisor ran something else on this machine's vCPUs.
fn cpu_ticks() -> (u64, u64) {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host steal share above which a timed stretch (a descent, a job, an
/// audit slice) counts as disturbed. On the 2-vCPU development host a
/// spell of steal of a few seconds slowed fleet descents by half at a 15%
/// share, while undisturbed stretches show 0 to 3%.
pub const STEAL_LIMIT: f64 = 0.05;

/// The host's steal share over a stretch of the run: the part of the CPU
/// ticks since [`StealMeter::start`] that the hypervisor gave to something
/// else. `/proc/stat` counts in 10 ms ticks, so a stretch of a few ticks
/// reads coarsely.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    steal: u64,
    total: u64,
}

impl StealMeter {
    pub fn start() -> Self {
        let (steal, total) = cpu_ticks();
        Self { steal, total }
    }

    pub fn share(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        crate::layers::ratio(
            steal.saturating_sub(self.steal) as f64,
            total.saturating_sub(self.total) as f64,
        )
    }
}

/// The revision of the checkout, read from `.git` when there is one.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The effective configuration a result was measured under. `settings`
/// are the values the workload chose itself (cache budget, shard size, …).
pub fn config_stamp(workload: &str, seed: u64, trace: bool, settings: &[(&str, Json)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernel = match fair_core::kernel::active() {
        fair_core::Kernel::Chunked => "chunked",
        fair_core::Kernel::Scalar => "scalar",
    };
    // Every FAIR_* variable inherited from the caller's environment: the
    // workload sets none of its own in this process, so all of them are
    // outside settings that may change the numbers.
    let mut inherited: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FAIR_"))
        .collect();
    inherited.sort();
    let mut pairs = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::str(seed.to_string())),
        ("trace", Json::Bool(trace)),
        ("pool_workers", Json::num(fair_core::max_workers() as f64)),
        ("nproc", Json::num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        ("revision", Json::str(git_revision())),
        (
            "inherited_env",
            Json::Obj(inherited.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
        (
            "page_cache_note",
            Json::str("store files are read through the OS page cache: latencies are the sandbox's, not a disk's"),
        ),
    ];
    pairs.extend(settings.iter().map(|(k, v)| (*k, v.clone())));
    Json::obj(pairs)
}

/// A fresh directory under `.perfbench/` in the working directory, removed
/// with everything in it when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = PathBuf::from(".perfbench")
            .join("tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
