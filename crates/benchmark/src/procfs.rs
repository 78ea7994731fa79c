//! Process- and host-level readings from `/proc`, and the host-speed
//! probe. Everything here answers one question: is a difference between
//! two runs the program or the host?

use std::time::Instant;

/// Kernel clock ticks per second for `/proc` CPU times. Linux has
/// exposed `USER_HZ = 100` to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nonvoluntary_ctxt_switches` of the task whose status text this is.
pub fn parse_invol_switches(status: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.starts_with("nonvoluntary_ctxt_switches:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (field 3) … utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Host-wide steal time in seconds from the text of `/proc/stat`.
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal …
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / CLK_TCK)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

pub fn peak_rss_mb() -> f64 {
    parse_vm_hwm_mb(&read("/proc/self/status")).unwrap_or(0.0)
}

/// CPU seconds consumed so far by this process, all threads.
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_s(&read("/proc/self/stat")).unwrap_or(0.0)
}

/// Involuntary context switches of the calling thread so far.
pub fn thread_invol_switches() -> u64 {
    parse_invol_switches(&read("/proc/thread-self/status")).unwrap_or(0)
}

pub fn host_steal_s() -> f64 {
    parse_steal_s(&read("/proc/stat")).unwrap_or(0.0)
}

/// Spin iterations of the host-speed probe: ~200 ms on the reference
/// host, single thread, integer only, no memory traffic.
const CALIB_ITERS: u64 = 85_000_000;

/// Milliseconds the fixed integer spin takes right now.
pub fn calibrate_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CALIB_ITERS {
        // xorshift-multiply: a serial dependency chain the compiler
        // cannot vectorize or fold.
        x ^= x >> 12;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_and_context_switches() {
        let status = "Name:\tagebo\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t345\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_invol_switches(status), Some(345));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_cpu_time_past_a_hostile_command_name() {
        // comm contains spaces and a ')' — fields must count from the last one.
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn parses_host_steal() {
        let stat = "cpu  100 0 50 1000 5 0 1 700 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_s(stat), Some(7.0));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
