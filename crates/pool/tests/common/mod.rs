//! Helpers shared by the pool integration tests.

use std::path::{Path, PathBuf};

/// A scratch directory unique to this process and thread, removed with
/// everything in it when dropped — also when a failing test unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `$TMPDIR/<prefix>-<pid>-<thread>-<tag>`.
    pub fn new(prefix: &str, tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "{prefix}-{}-{:?}-{tag}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
