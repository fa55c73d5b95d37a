//! `/proc` readers: process and per-thread CPU time, peak resident
//! set, and the host fingerprint. Parsers are separate from the file
//! reads so they can be tested on fixed text.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. Linux has
/// exported `USER_HZ = 100` to user space on every architecture since
/// 2.6; `getconf CLK_TCK` would need a subprocess or an `unsafe`
/// `sysconf` binding to say the same.
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (ticks) and the thread name from one
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` line.
///
/// The name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_owned();
    // After ") ": state is field 3; utime and stime are fields 14, 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((name, utime + stime))
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system) a process has used, exited threads and
/// reaped children's threads included.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let line = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat(&line).map(|(_, ticks)| ticks as f64 / TICKS_PER_S)
}

/// CPU seconds of this process.
pub fn self_cpu_s() -> f64 {
    process_cpu_s(std::process::id()).unwrap_or(0.0)
}

/// Peak resident set of a process in MB.
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// CPU seconds of a process's live threads, summed by thread-name
/// prefix (a name's trailing `-<digits>` index is dropped, so
/// `sitw-shard-0` and `sitw-shard-1` add up under `sitw-shard`).
pub fn thread_cpu_s(pid: u32) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(line) = fs::read_to_string(entry.path().join("stat")) else {
            continue; // The thread exited between readdir and read.
        };
        if let Some((name, ticks)) = parse_stat(&line) {
            *out.entry(thread_group(&name)).or_insert(0.0) += ticks as f64 / TICKS_PER_S;
        }
    }
    out
}

/// Live threads of a process.
pub fn thread_count(pid: u32) -> usize {
    fs::read_dir(format!("/proc/{pid}/task")).map_or(0, |d| d.count())
}

/// Drops a trailing `-<digits>` from a thread name.
pub fn thread_group(name: &str) -> String {
    match name.rsplit_once('-') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => {
            head.to_owned()
        }
        _ => name.to_owned(),
    }
}

/// What the numbers were measured on: printed with every result.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc={nproc} cpu=\"{model}\" kernel={}", kernel.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (sitw-shard-1) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 269 0 0 20 0 5 0 8675309 123456789 2345 18446744073709551615";

    #[test]
    fn stat_sums_user_and_system_ticks() {
        assert_eq!(parse_stat(STAT), Some(("sitw-shard-1".into(), 1000)));
    }

    #[test]
    fn stat_survives_hostile_thread_names() {
        let line = STAT.replace("(sitw-shard-1)", "(a) b (c))");
        assert_eq!(parse_stat(&line), Some(("a) b (c)".into(), 1000)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tsitw-serve\nVmPeak:\t  999999 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52340));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn thread_names_group_by_prefix() {
        assert_eq!(thread_group("sitw-shard-0"), "sitw-shard");
        assert_eq!(thread_group("sitw-reactor-12"), "sitw-reactor");
        assert_eq!(thread_group("router-conn"), "router-conn");
        assert_eq!(thread_group("sitw-follow-puller"), "sitw-follow-puller");
        assert_eq!(thread_group("odd-"), "odd-");
    }

    #[test]
    fn reads_this_process() {
        assert!(process_peak_rss_mb(std::process::id()).unwrap() > 0.0);
        assert!(thread_count(std::process::id()) >= 1);
        assert!(host_fingerprint().contains("nproc="));
    }
}
