//! Linux `/proc` probe: CPU time from `stat`, peak resident memory
//! (`VmHWM`) from `status`, for this process, this thread or a child.

/// Clock ticks per second of the `utime`/`stime` fields. Linux exports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const TICKS_PER_S: f64 = 100.0;

/// Which `/proc` entry to read.
#[derive(Clone, Copy, Debug)]
pub enum Proc {
    /// This process (all threads).
    Current,
    /// The calling thread only.
    Thread,
    /// Another process, by pid.
    Pid(u32),
}

impl Proc {
    fn dir(self) -> String {
        match self {
            Proc::Current => "/proc/self".to_string(),
            Proc::Thread => "/proc/thread-self".to_string(),
            Proc::Pid(pid) => format!("/proc/{pid}"),
        }
    }

    /// User plus system CPU seconds consumed so far.
    pub fn cpu_s(self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("{}/stat", self.dir())).ok()?;
        let (utime, stime) = parse_cpu_ticks(&stat)?;
        Some((utime + stime) as f64 / TICKS_PER_S)
    }

    /// Peak resident set size in MiB.
    pub fn peak_rss_mb(self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("{}/status", self.dir())).ok()?;
        Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
    }
}

/// `(utime, stime)` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// and `)`, so fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name come field 3 (state) onwards; utime and
    // stime are fields 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `VmHWM` in KiB from a `/proc/<pid>/status` dump.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let plain = "4242 (bap) S 1 4242 4242 0 -1 4194304 811 0 0 0 137 29 0 0 20 0 3 0 \
                     99 1000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(plain), Some((137, 29)));
        // A command name with spaces and a `)` must not shift the fields.
        let tricky = "17 (my (odd) name) R 1 17 17 0 -1 0 5 0 0 0 250 75 0 0 20 0 1 0 7";
        assert_eq!(parse_cpu_ticks(tricky), Some((250, 75)));
        assert_eq!(parse_cpu_ticks("17 (truncated) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbap\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("Name:\tbap\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(Proc::Current.cpu_s().is_some());
        assert!(Proc::Thread.cpu_s().is_some());
        assert!(Proc::Current.peak_rss_mb().unwrap_or(0.0) > 0.0);
    }
}
