//! `/proc/self` readers for peak resident memory and process CPU time.
//!
//! The parsers are pure functions over the file text so they can be tested
//! anywhere; the readers return `None` where `/proc` does not exist, and the
//! report then prints "unavailable" instead of failing.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// User + system CPU ticks from the text of `/proc/self/stat`. The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process in MiB, if the platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tlbchat_e2e\nVmPeak:\t  123456 kB\nVmHWM:\t   37784 kB\nVmRSS:\t   30000 kB\n";

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(37784));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_unavailable() {
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tmany kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // comm = "a) b (c" — spaces and parentheses inside field 2.
        let stat =
            "4242 (a) b (c) R 1 4242 4242 0 -1 4194304 500 0 0 0 731 19 0 0 20 0 1 0 100 1000 200";
        assert_eq!(parse_cpu_ticks(stat), Some(750));
    }

    #[test]
    fn cpu_ticks_malformed_is_unavailable() {
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_cpu_ticks("1 (x) R 1 2 3 4 5 6 7 8 9 10 11 twelve 13"),
            None
        );
    }

    #[test]
    fn readers_agree_with_the_platform() {
        // On Linux both exist and are positive; elsewhere both are None.
        match (peak_rss_mib(), cpu_seconds()) {
            (Some(rss), Some(cpu)) => assert!(rss > 0.0 && cpu >= 0.0),
            (None, None) => {}
            other => panic!("readers disagree about /proc: {other:?}"),
        }
    }
}
