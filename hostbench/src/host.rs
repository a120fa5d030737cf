//! Host descriptor printed with every result, so numbers taken on
//! different machines are never compared silently, and the process's
//! peak resident set.

use std::fs;

fn cpuinfo_field<'a>(cpuinfo: &'a str, key: &str) -> Option<&'a str> {
    cpuinfo.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// `cpu=<model>; nproc=<n>; avx512ifma=<bool>; avx2=<bool>; rustc=<version>`.
pub fn describe() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo_field(&cpuinfo, "model name").unwrap_or("unknown");
    let flags: Vec<&str> = cpuinfo_field(&cpuinfo, "flags")
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "cpu={model}; nproc={nproc}; avx512ifma={}; avx2={}; rustc={}",
        flags.contains(&"avx512ifma"),
        flags.contains(&"avx2"),
        env!("HOSTBENCH_RUSTC"),
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
