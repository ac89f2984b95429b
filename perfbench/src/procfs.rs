//! Process resource readings from `/proc/self`.
//!
//! CPU time comes from `/proc/self/stat` (user + system, in clock ticks
//! of `USER_HZ`, which the Linux ABI fixes at 100 on every architecture
//! this benchmark targets); peak resident set size comes from the
//! `VmHWM` line of `/proc/self/status`.

/// Clock ticks per second of the `utime`/`stime` fields.
pub const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) is parenthesised and may itself
/// hold spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: field 3 (state) is index 0, so utime
    // (field 14) is index 11 and stime (field 15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the text of a
/// `/proc/<pid>/status` file (`VmHWM:  123456 kB`).
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kb as f64 / 1024.0),
        _ => None,
    }
}

/// This process's user + system CPU seconds so far.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat holds utime and stime")
}

/// This process's peak resident set size so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status holds VmHWM")
}
