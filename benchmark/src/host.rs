//! What the host is and how much memory this process holds.

use std::process::Command;

use gcs_scenarios::json::Json;

/// A `kB` field of `/proc/self/status` (`VmHWM` = peak resident set,
/// `VmRSS` = current), in KiB; 0 where `/proc` is not available.
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to tell two result files from different hosts,
/// toolchains or commits apart.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::Obj(vec![
        ("nproc", Json::Int(nproc() as u64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        (
            "profile",
            Json::Str("release lto=true codegen-units=1".to_string()),
        ),
    ])
}
