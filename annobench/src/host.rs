//! Provenance: the host and build every result was measured on.

/// One line naming the host's core count (`available_parallelism`, 0 if
/// unknown), the imgproc kernel tier, the build profile, the OS and the
/// architecture.
pub fn describe() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "cores={cores} kernel_tier={} profile={profile} os={} arch={}",
        annolight_imgproc::kernel_tier().name(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has
/// no `VmHWM` line (non-Linux hosts).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())?;
    Ok(kib / 1024.0)
}
