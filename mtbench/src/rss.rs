//! Peak resident-memory growth of one repetition.
//!
//! The kernel's high-water mark (`VmHWM`) is reset to the current RSS by
//! writing `5` to `/proc/self/clear_refs`; the growth of the mark over a
//! repetition is its peak memory beyond what was already resident. Free
//! heap pages are returned to the kernel first, so the repetition's
//! allocations show as growth instead of silently reusing freed pages.

/// A window opened just before a repetition.
pub struct RssWindow {
    base_kb: u64,
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free pages of its own
    // arenas back to the kernel; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

impl RssWindow {
    /// Trim the heap, reset the high-water mark and remember the current
    /// RSS. `None` when the mark cannot be reset (no `/proc`, or a
    /// read-only `clear_refs`): the measurement is then unavailable.
    pub fn open() -> Option<RssWindow> {
        release_free_heap();
        std::fs::write("/proc/self/clear_refs", "5").ok()?;
        Some(RssWindow { base_kb: status_kb("VmRSS:")? })
    }

    /// Peak RSS growth since [`open`](Self::open), MB (1 MB = 2^20 bytes).
    pub fn growth_mb(&self) -> f64 {
        let hwm = status_kb("VmHWM:").unwrap_or(self.base_kb);
        hwm.saturating_sub(self.base_kb) as f64 / 1024.0
    }
}

/// Peak RSS growth since `window` opened, MB; `None` when the window
/// could not be opened.
pub fn growth_mb(window: &Option<RssWindow>) -> Option<f64> {
    window.as_ref().map(RssWindow::growth_mb)
}
