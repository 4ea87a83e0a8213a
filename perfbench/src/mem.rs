//! Resident memory of this process, read from `/proc/self`.
//!
//! `peak_rss_mb` is the router's own memory: before a sharded pass the
//! benchmark hands freed heap back to the kernel and resets the process's
//! resident high-water mark ([`reset_peak`]), and once the runtime has
//! finished it reads the mark again ([`peak_mb`]). The difference is what
//! the runtime added on top of the input the benchmark holds.

/// Returns freed heap to the kernel and resets the resident high-water mark
/// to the current resident size, which it returns in MB.
pub fn reset_peak() -> Result<f64, String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the resident high-water mark: {e}"))?;
    status_mb("VmRSS")
}

/// Resident high-water mark since the last [`reset_peak`], MB.
pub fn peak_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Hands the allocator's free memory back to the kernel, so that memory a
/// previous pass freed neither counts as resident nor is reused unseen.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free pages of glibc's own arenas;
    // it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Hands the allocator's free memory back to the kernel (not available on
/// this target: a no-op).
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_kb(&status, field)
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// The value of a `Field:   123 kB` line of `/proc/self/status`, kB.
fn parse_kb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .strip_prefix(':')?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "VmPeak:\t  200 kB\nVmHWM:\t    1536 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_kb(status, "VmHWM"), Some(1536.0));
        assert_eq!(parse_kb(status, "VmRSS"), Some(1024.0));
        assert_eq!(parse_kb(status, "VmSwap"), None);
    }

    #[test]
    fn the_peak_grows_with_memory_touched_after_the_reset() {
        let base = reset_peak().unwrap();
        let held = std::hint::black_box(vec![1u8; 64 << 20]);
        let grown = peak_mb().unwrap() - base;
        assert!(grown > 60.0, "peak grew by only {grown:.1} MB");
        drop(held);
    }
}
