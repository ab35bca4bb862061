//! CPU time from `/proc`: the paper's "total work" is user + system time
//! of the whole process; a thread's own share comes from
//! `/proc/thread-self`.

use std::fs;

/// `/proc/*/stat` counts CPU time in `USER_HZ` ticks, which Linux fixes
/// at 100 for user space on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime of the `stat` file at `path`, in seconds.
fn cpu_seconds(path: &str) -> Result<f64, String> {
    let stat = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces and parentheses;
    // the fields after its closing parenthesis are plain.  `state` is
    // field 3, so utime (14) and stime (15) are the 12th and 13th there.
    let (_, rest) = stat
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: no command field"))?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> Option<u64> { fields.next()?.parse().ok() };
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / TICKS_PER_SECOND),
        _ => Err(format!("{path}: utime/stime missing")),
    }
}

/// CPU seconds consumed so far by every thread of this process, living
/// or joined.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_seconds("/proc/thread-self/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = thread_cpu_s().unwrap();
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = thread_cpu_s().unwrap();
        assert!(after > before, "{before} -> {after}");
        assert!(process_cpu_s().unwrap() >= after - before);
    }
}
