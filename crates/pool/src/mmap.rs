//! Read-only memory mapping of a pool file.
//!
//! The only `unsafe` in the crate lives here: a direct binding to the
//! platform's `mmap`/`munmap` (the symbols are always available on Unix
//! because std links the C library), wrapped so the rest of the crate
//! sees nothing but a `&[u8]`. The binding declares the `offset`
//! argument as `i64`, which matches `off_t` only on 64-bit targets (or
//! LFS builds we cannot assume), so the mapped backing is gated on
//! `target_pointer_width = "64"`. Other targets — non-Unix, 32-bit
//! Unix, and zero-length files, which `mmap` rejects — fall back to
//! reading the file into an owned buffer; everything downstream is
//! byte-slice access either way, so the two backings are
//! indistinguishable to the decoder.
//!
//! The map is `PROT_READ`/`MAP_SHARED`: many processes can map the same
//! pool concurrently, and because a pool file is never modified after
//! the rename that installs it (a rewrite renames a new file over the
//! path; the old inode lives on under existing maps), a reader's view is
//! immutable for the life of the map.

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A pool file's bytes: a shared read-only mapping where supported, an
/// owned heap copy otherwise.
pub struct PoolMap {
    backing: Backing,
}

enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ only and never mutated or remapped
// through this handle; sharing immutable bytes across threads is sound.
unsafe impl Send for PoolMap {}
unsafe impl Sync for PoolMap {}

impl PoolMap {
    /// Map (or read) the whole file.
    pub fn open(path: &Path) -> std::io::Result<PoolMap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len_usize = usize::try_from(len)
            .map_err(|_| std::io::Error::other("pool file larger than address space"))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if len_usize > 0 {
                if let Some(ptr) = sys::map_readonly(&file, len_usize) {
                    return Ok(PoolMap { backing: Backing::Mapped { ptr, len: len_usize } });
                }
            }
        }
        let mut buf = Vec::with_capacity(len_usize);
        file.read_to_end(&mut buf)?;
        Ok(PoolMap { backing: Backing::Owned(buf) })
    }

    /// The file contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: ptr/len came from a successful mmap of exactly this
            // length, unmapped only in Drop.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Owned(v) => v,
        }
    }

    /// True when the bytes are served by an actual memory map (false on
    /// the heap fallback) — surfaced in `mobitrace pool verify` output.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }
}

impl Drop for PoolMap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: this is the unique owner of the mapping.
            unsafe { sys::unmap(ptr, len) };
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // std already links libc, so the symbols resolve without a bindings
    // crate (none is vendored offline). `offset: i64` is why the module
    // is gated to 64-bit targets (see the module doc).
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: core::ffi::c_int,
            flags: core::ffi::c_int,
            fd: core::ffi::c_int,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> core::ffi::c_int;
    }

    const PROT_READ: core::ffi::c_int = 1;
    const MAP_SHARED: core::ffi::c_int = 1;

    /// `mmap(NULL, len, PROT_READ, MAP_SHARED, fd, 0)`; `None` on failure
    /// (the caller falls back to a heap read).
    pub fn map_readonly(file: &File, len: usize) -> Option<*const u8> {
        // SAFETY: fd is valid for the duration of the call; a NULL hint
        // with MAP_SHARED|PROT_READ has no further preconditions.
        let p =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0) };
        if p.is_null() || p as isize == -1 {
            None
        } else {
            Some(p as *const u8)
        }
    }

    /// Release a mapping created by [`map_readonly`].
    ///
    /// # Safety
    /// `ptr`/`len` must denote exactly one live mapping returned by
    /// [`map_readonly`], not used after this call.
    pub unsafe fn unmap(ptr: *const u8, len: usize) {
        let _ = munmap(ptr as *mut core::ffi::c_void, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_read_back() {
        let dir = std::env::temp_dir().join(format!(
            "mtpool-mmap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        std::fs::write(&p, [1u8, 2, 3, 4, 5]).unwrap();
        let m = PoolMap::open(&p).unwrap();
        assert_eq!(m.bytes(), &[1, 2, 3, 4, 5]);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(m.is_mapped());
        drop(m);

        // Zero-length files take the owned fallback (mmap rejects them).
        let e = dir.join("empty.bin");
        std::fs::write(&e, []).unwrap();
        let m = PoolMap::open(&e).unwrap();
        assert!(m.bytes().is_empty());
        assert!(!m.is_mapped());
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
