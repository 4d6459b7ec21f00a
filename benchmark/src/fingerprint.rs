//! The machine fingerprint stored with every result, so that numbers from
//! different machines or settings are never compared as if alike.

use std::process::Command;

/// `(key, value)` pairs describing the machine and the build.
pub fn collect() -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("cpu_features", vaesa_nn::cpu_features()),
        ("available_parallelism", parallelism.to_string()),
        ("cgroup_cpu_max", cgroup_cpu_max()),
        ("rustc", rustc_version()),
        (
            "vaesa_threads",
            std::env::var("VAESA_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("worker_threads", vaesa_par::num_threads().to_string()),
        (
            "precision",
            vaesa_nn::Precision::active().label().to_string(),
        ),
        ("git_rev", git_rev()),
    ]
}

/// The cgroup v2 CPU quota (`max 100000` means unlimited).
fn cgroup_cpu_max() -> String {
    std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The revision checked out in the working directory, read from its own
/// `.git` only (a plain source tree reports `none`).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}
