//! Host fingerprint printed with every result, and the process's peak
//! resident set. Numbers and digests compare only between equal
//! fingerprints.

use std::path::Path;

/// Prints everything that can move a measurement without a code change;
/// `store` is the directory the snapshot store writes to.
pub fn print_fingerprint(seed: u64, workload: &str, store: &Path) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(String::new, |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let cpu_flags: Vec<&str> = ["avx2", "avx512f", "fma"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lines = [
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", field("model name")),
        ("cpu_flags", cpu_flags.join(",")),
        (
            "build_target_features",
            env!("LDBENCH_TARGET_FEATURES").to_string(),
        ),
        ("rustc", env!("LDBENCH_RUSTC").to_string()),
        ("rustflags", env!("LDBENCH_RUSTFLAGS").to_string()),
        ("store_fs", fs_type(store)),
        ("git_commit", git_commit()),
    ];
    for (k, v) in lines {
        println!("host {k} = {v}");
    }
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let fields: Vec<&str> = l.split(' ').collect();
            let mount_point = fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(sep + 1)?;
            abs.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The commit the checkout was built from, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
