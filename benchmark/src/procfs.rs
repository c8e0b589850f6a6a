//! The two `/proc/self` readings the benchmark takes of its own process:
//! peak resident set (`VmHWM`) and consumed CPU time (`utime + stime`).

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// `USER_HZ` is 100 on every Linux architecture this repo builds on;
/// asking `sysconf` would need a libc binding the container lacks.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The second field (`comm`) is the executable name in parentheses and
/// may itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`: `state` is the first after it, `utime` and `stime` the
/// twelfth and thirteenth.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tengine-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  812340 kB\nVmSize:\t  700000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n";

    #[test]
    fn vm_hwm_is_read_from_its_own_line() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_comm() {
        let plain = "4242 (engine-benchmark) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     321 45 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(plain), Some(366));
        let hostile = "4242 (a b) c) (d) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                       7 5 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(hostile), Some(12));
        assert_eq!(parse_cpu_ticks("4242 (short) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
