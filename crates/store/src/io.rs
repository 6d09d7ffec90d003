//! Fault-injectable storage: the I/O seam the durability subsystem runs
//! through.
//!
//! Everything the write-ahead log and the checkpoint rotation do to stable
//! storage goes through the [`Storage`] trait — append, whole-file rewrite,
//! rename, truncate, `fsync` of files and of the directory. Two
//! implementations exist:
//!
//! * [`DiskStorage`] — the real thing: one directory on the local
//!   filesystem, with honest `fsync` calls (`File::sync_all` for file
//!   contents, an fsync of the directory fd for entry durability after
//!   renames).
//! * [`MemStorage`] — a deterministic in-memory filesystem model with
//!   scripted failpoints ([`FaultScript`]): fail the Nth I/O, tear a write
//!   after K bytes, or crash at an exact I/O point. It distinguishes
//!   *volatile* state (what a process observes) from *durable* state (what
//!   survives a power loss): file contents become durable on
//!   [`Storage::sync_file`], directory entries (creates, renames, removals)
//!   on [`Storage::sync_dir`]. [`MemStorage::crash_image`] then produces
//!   the post-crash filesystem — durable state plus a deterministic,
//!   possibly torn, prefix of whatever was in flight — which is exactly
//!   what the crash-consistency proptests reopen and verify.
//!
//! The model errs on the side of adversity where it matters: un-synced
//! appended bytes survive a crash only as an arbitrary prefix (so torn WAL
//! tails are exercised), and entry changes that were not followed by a
//! directory sync may or may not have reached disk. A rename is atomic
//! with respect to the crash — both of its entry edits share one survival
//! decision — matching `rename(2)` semantics.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sdq_core::view::AlignedBytes;

/// The abstract flat-directory store the durability layer writes to.
///
/// Names are plain file names (no separators); the directory itself is
/// fixed per store. All mutating operations count as one I/O point each in
/// fault-injecting implementations.
pub trait Storage {
    /// Reads the whole file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Reads the whole file into an owned [`MappedBytes`] buffer a snapshot
    /// can be decoded from in place: the returned bytes start on a 64-byte
    /// boundary and stay valid as long as any clone of the buffer (or a
    /// keepalive derived from it) is alive. Never a live file mapping — a
    /// store rewrites and renames its own files under the engine it serves.
    /// The default copies through [`Storage::read`]; [`DiskStorage`] reads
    /// the file straight into the aligned buffer.
    fn read_aligned(&self, name: &str) -> io::Result<MappedBytes> {
        Ok(MappedBytes::copy_from(&self.read(name)?))
    }
    /// Whether the file currently exists.
    fn exists(&self, name: &str) -> bool;
    /// Current length of the file in bytes.
    fn file_len(&self, name: &str) -> io::Result<u64>;
    /// Creates or truncates the file and writes `bytes`.
    fn write_file(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to the file, creating it when missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Truncates (or extends with zeroes) the file to `len` bytes.
    fn set_len(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;
    /// Removes the file.
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// Makes the file's *contents* durable (`fsync`).
    fn sync_file(&mut self, name: &str) -> io::Result<()>;
    /// Makes the directory's *entries* durable (fsync of the directory):
    /// creates, renames and removals are crash-safe only after this.
    fn sync_dir(&mut self) -> io::Result<()>;
}

/// Fsyncs the directory containing `path` so a just-renamed entry is
/// durable. A no-op on platforms where directories cannot be opened.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    #[cfg(unix)]
    {
        std::fs::File::open(&parent)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = parent;
        Ok(())
    }
}

/// Crash-safe whole-file replacement: write a sibling temp file, `fsync`
/// it, rename it over `path`, then `fsync` the parent directory so the
/// rename itself is durable. The temp name extends the full file name
/// (`x.sdq` → `x.sdq.tmp`) so distinct targets never collide.
pub fn atomic_write_path(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    fsync_parent_dir(path)
}

// ─── MappedBytes ────────────────────────────────────────────────────────────

enum MappedInner {
    /// A read-only private file mapping (page-aligned, so 64-aligned).
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    /// Owned 64-aligned heap storage.
    Owned(AlignedBytes),
}

// Safety: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its whole
// lifetime and the owned variant is never written after construction.
unsafe impl Send for MappedInner {}
unsafe impl Sync for MappedInner {}

impl Drop for MappedInner {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MappedInner::Mapped { ptr, len } = *self {
            // Safety: `ptr`/`len` are exactly what mmap returned.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(unix)]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

/// A read-only, 64-byte-aligned byte buffer backing a zero-copy snapshot:
/// either a private file mapping (Unix) or an owned aligned copy. Cheap to
/// clone; the underlying memory lives until the last clone (or derived
/// keepalive) drops.
#[derive(Clone)]
pub struct MappedBytes {
    inner: Arc<MappedInner>,
}

impl std::fmt::Debug for MappedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl MappedBytes {
    fn owned(bytes: AlignedBytes) -> Self {
        MappedBytes {
            inner: Arc::new(MappedInner::Owned(bytes)),
        }
    }

    /// An owned, 64-aligned copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        Self::owned(AlignedBytes::copy_from(bytes))
    }

    /// Reads the file at `path` into owned, 64-aligned storage: one pass
    /// straight into the buffer. A file that shrinks between the length
    /// query and the read is an [`io::ErrorKind::UnexpectedEof`] error; one
    /// that grows is cut at the length first seen (and then refused by the
    /// snapshot parser, whose section table accounts for every byte).
    pub fn read_file(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::other("file too large to read"))?;
        Ok(Self::owned(AlignedBytes::read_from(file, len)?))
    }

    /// Maps the file at `path` read-only. Falls back to
    /// [`MappedBytes::read_file`] when mapping is unavailable (non-Unix
    /// platforms, empty files, or a failed `mmap`).
    pub fn map_file(path: &Path) -> io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            let len =
                usize::try_from(len).map_err(|_| io::Error::other("file too large to map"))?;
            if len > 0 {
                // Safety: mapping a readable fd PROT_READ/MAP_PRIVATE; the
                // result (when not MAP_FAILED) is `len` valid bytes that
                // stay valid until munmap — the fd may close immediately.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 {
                    return Ok(MappedBytes {
                        inner: Arc::new(MappedInner::Mapped { ptr, len }),
                    });
                }
            }
        }
        Self::read_file(path)
    }

    /// `true` when backed by a real file mapping (RSS scales with touched
    /// pages, not file size).
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(*self.inner, MappedInner::Mapped { .. })
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    /// The bytes. The slice start is 64-byte aligned.
    pub fn as_slice(&self) -> &[u8] {
        match &*self.inner {
            #[cfg(unix)]
            MappedInner::Mapped { ptr, len } => {
                // Safety: the mapping is alive as long as `self.inner` is.
                unsafe { std::slice::from_raw_parts(ptr.cast::<u8>().cast_const(), *len) }
            }
            MappedInner::Owned(bytes) => bytes.as_slice(),
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        match &*self.inner {
            #[cfg(unix)]
            MappedInner::Mapped { len, .. } => *len,
            MappedInner::Owned(bytes) => bytes.as_slice().len(),
        }
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A type-erased keepalive handle pinning the buffer's memory — what
    /// mapped [`sdq_core::ColumnarView`]s hold to outlive this value.
    pub fn keep(&self) -> Arc<dyn std::any::Any + Send + Sync> {
        self.inner.clone()
    }
}

impl std::ops::Deref for MappedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

// ─── DiskStorage ────────────────────────────────────────────────────────────

/// [`Storage`] over one real directory, with honest fsyncs.
#[derive(Debug, Clone)]
pub struct DiskStorage {
    dir: PathBuf,
}

impl DiskStorage {
    /// A store rooted at `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        let dir = if dir.as_os_str().is_empty() {
            PathBuf::from(".")
        } else {
            dir
        };
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStorage { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Storage for DiskStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn read_aligned(&self, name: &str) -> io::Result<MappedBytes> {
        MappedBytes::read_file(&self.path(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }

    fn file_len(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }

    fn write_file(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(self.path(name), bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)
    }

    fn set_len(&mut self, name: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        f.set_len(len)
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        // fsync through a read handle: contents only, no O_APPEND games.
        std::fs::File::open(self.path(name))?.sync_all()
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(&self.dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            Ok(())
        }
    }
}

// ─── fault scripting ────────────────────────────────────────────────────────

/// One scripted failpoint, matched against the 0-based index of the
/// mutating I/O operation it should hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The I/O at this point fails with an injected error and has no
    /// effect (a transient write or fsync failure).
    Fail { at: u64 },
    /// An append/rewrite at this point persists only the first `keep`
    /// bytes of its payload, then fails — a torn write.
    Torn { at: u64, keep: usize },
    /// The process (and machine) dies at this point: the I/O fails, every
    /// later operation fails, and [`MemStorage::crash_image`] yields what
    /// survived.
    Crash { at: u64 },
    /// I/O points `at..at + times` fail with a *transient* error
    /// ([`io::ErrorKind::Interrupted`], the EINTR shape) and have no
    /// effect; the next attempt succeeds. Because every attempt consumes
    /// one I/O point, this models "op N fails its first M attempts, then
    /// succeeds" — the deterministic test bed for retry-with-backoff.
    Transient { at: u64, times: u32 },
    /// The I/O at this point fails with `io::Error::from_raw_os_error`
    /// (e.g. 28 = ENOSPC, 5 = EIO) and has no effect — a *permanent*
    /// environment failure the durable layer must not retry through.
    Errno { at: u64, errno: i32 },
}

impl Fault {
    /// Whether this failpoint fires at I/O point `point`.
    fn hits(&self, point: u64) -> bool {
        match *self {
            Fault::Fail { at } | Fault::Torn { at, .. } | Fault::Crash { at } => at == point,
            Fault::Transient { at, times } => point >= at && point - at < u64::from(times),
            Fault::Errno { at, .. } => at == point,
        }
    }
}

/// A deterministic list of failpoints driving a [`MemStorage`].
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    faults: Vec<Fault>,
}

impl FaultScript {
    /// No faults.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// A script with exactly one crash at I/O point `at`.
    pub fn crash_at(at: u64) -> Self {
        FaultScript {
            faults: vec![Fault::Crash { at }],
        }
    }

    /// A script where the op at point `at` fails transiently for its first
    /// `times` attempts (each retry consumes one point), then succeeds.
    pub fn transient_at(at: u64, times: u32) -> Self {
        FaultScript {
            faults: vec![Fault::Transient { at, times }],
        }
    }

    /// A script with exactly one permanent-errno failure (`ENOSPC` = 28,
    /// `EIO` = 5, …) at I/O point `at`.
    pub fn errno_at(at: u64, errno: i32) -> Self {
        FaultScript {
            faults: vec![Fault::Errno { at, errno }],
        }
    }

    /// Adds a failpoint.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    fn fault_at(&self, point: u64) -> Option<Fault> {
        self.faults.iter().copied().find(|f| f.hits(point))
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// SplitMix64 — the deterministic per-(crash point, tag) coin the crash
/// image flips for "did this un-synced change reach disk?", and the seeded
/// stream behind the CLI's probe and stress workloads.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ─── MemStorage ─────────────────────────────────────────────────────────────

#[derive(Debug, Clone, Default)]
struct FileData {
    /// Contents guaranteed to survive a crash (last `sync_file`).
    durable: Vec<u8>,
    /// Contents the process observes.
    volatile: Vec<u8>,
}

/// The in-memory fault-injection filesystem. See the module docs for the
/// crash model.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: BTreeMap<u64, FileData>,
    /// Directory as the process observes it.
    entries: BTreeMap<String, u64>,
    /// Directory as it would survive a crash (last `sync_dir`).
    durable_entries: BTreeMap<String, u64>,
    /// Entry-dirtying I/O point per name since the last `sync_dir`; a
    /// rename stamps both of its names with one point, so the crash image
    /// keeps or drops the pair atomically.
    dirty_entries: BTreeMap<String, u64>,
    next_id: u64,
    ops: u64,
    /// Mutating operations *attempted*, including ones refused because the
    /// store had already crashed (unlike `ops`, the failpoint clock, which
    /// only advances while alive). Retry tests assert against this.
    attempted: u64,
    script: FaultScript,
    crashed_at: Option<u64>,
}

impl MemStorage {
    /// An empty, fault-free store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Installs the failpoint script for subsequent operations.
    pub fn set_script(&mut self, script: FaultScript) {
        self.script = script;
    }

    /// Mutating I/O operations performed so far (the failpoint clock).
    pub fn io_points(&self) -> u64 {
        self.ops
    }

    /// Mutating I/O operations *attempted* so far, retries and post-crash
    /// refusals included — the counter retry logic is asserted against.
    pub fn ops_attempted(&self) -> u64 {
        self.attempted
    }

    /// Whether a scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed_at.is_some()
    }

    /// The filesystem as found after the scripted crash and a reboot:
    /// durable state plus a deterministic, possibly torn, prefix of the
    /// in-flight changes. Panics if no crash was scripted and hit.
    pub fn crash_image(&self) -> MemStorage {
        let point = self.crashed_at.expect("crash_image without a crash");
        let mut names: Vec<&String> = self.durable_entries.keys().collect();
        for name in self.entries.keys() {
            if !self.durable_entries.contains_key(name) {
                names.push(name);
            }
        }
        let mut out = MemStorage::new();
        for name in names {
            let durable_id = self.durable_entries.get(name);
            let volatile_id = self.entries.get(name);
            let survivor = if durable_id == volatile_id {
                durable_id
            } else {
                // Entry changed since the last sync_dir: the change may or
                // may not have hit disk. One coin per dirtying operation,
                // so renames stay atomic.
                let change = self.dirty_entries.get(name).copied().unwrap_or(0);
                if splitmix64(point ^ splitmix64(change)) & 1 == 1 {
                    volatile_id
                } else {
                    durable_id
                }
            };
            let Some(&id) = survivor else { continue };
            let Some(f) = self.files.get(&id) else {
                continue;
            };
            let content = if f.volatile.len() >= f.durable.len()
                && f.volatile[..f.durable.len()] == f.durable[..]
            {
                // Pure append since the last sync: an arbitrary prefix of
                // the un-synced suffix survives — the torn-tail generator.
                let suffix = f.volatile.len() - f.durable.len();
                let keep = (splitmix64(point ^ fnv1a(name.as_bytes())) as usize) % (suffix + 1);
                f.volatile[..f.durable.len() + keep].to_vec()
            } else if splitmix64(point ^ fnv1a(name.as_bytes()) ^ 0x5eed) & 1 == 1 {
                f.volatile.clone()
            } else {
                f.durable.clone()
            };
            let id = out.next_id;
            out.next_id += 1;
            out.files.insert(
                id,
                FileData {
                    durable: content.clone(),
                    volatile: content,
                },
            );
            out.entries.insert(name.clone(), id);
            out.durable_entries.insert(name.clone(), id);
        }
        out
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed_at.is_some() {
            return Err(io::Error::other("storage crashed"));
        }
        Ok(())
    }

    /// Consumes one I/O point; returns the fault scheduled for it, if any,
    /// with `Crash` already latched.
    fn step(&mut self) -> io::Result<Option<Fault>> {
        self.attempted += 1;
        self.check_alive()?;
        let point = self.ops;
        self.ops += 1;
        match self.script.fault_at(point) {
            Some(Fault::Crash { .. }) => {
                self.crashed_at = Some(point);
                Err(injected("crash"))
            }
            Some(Fault::Transient { .. }) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient fault",
            )),
            Some(Fault::Errno { errno, .. }) => Err(io::Error::from_raw_os_error(errno)),
            other => Ok(other),
        }
    }

    fn file_id(&mut self, name: &str, create: bool) -> io::Result<u64> {
        if let Some(&id) = self.entries.get(name) {
            return Ok(id);
        }
        if !create {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{name}: not found"),
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(id, FileData::default());
        self.entries.insert(name.to_string(), id);
        // Creation dirties the entry at the point the caller just consumed.
        self.dirty_entries
            .insert(name.to_string(), self.ops.saturating_sub(1));
        Ok(id)
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        let id = self
            .entries
            .get(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{name}: not found")))?;
        Ok(self.files[id].volatile.clone())
    }

    fn exists(&self, name: &str) -> bool {
        self.crashed_at.is_none() && self.entries.contains_key(name)
    }

    fn file_len(&self, name: &str) -> io::Result<u64> {
        self.read(name).map(|b| b.len() as u64)
    }

    fn write_file(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.step()?;
        let id = self.file_id(name, true)?;
        let f = self.files.get_mut(&id).expect("file exists");
        match fault {
            Some(Fault::Fail { .. }) => Err(injected("write failed")),
            Some(Fault::Torn { keep, .. }) => {
                f.volatile = bytes[..keep.min(bytes.len())].to_vec();
                Err(injected("torn write"))
            }
            _ => {
                f.volatile = bytes.to_vec();
                Ok(())
            }
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.step()?;
        let id = self.file_id(name, true)?;
        let f = self.files.get_mut(&id).expect("file exists");
        match fault {
            Some(Fault::Fail { .. }) => Err(injected("append failed")),
            Some(Fault::Torn { keep, .. }) => {
                f.volatile
                    .extend_from_slice(&bytes[..keep.min(bytes.len())]);
                Err(injected("torn append"))
            }
            _ => {
                f.volatile.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn set_len(&mut self, name: &str, len: u64) -> io::Result<()> {
        let fault = self.step()?;
        if matches!(fault, Some(Fault::Fail { .. } | Fault::Torn { .. })) {
            return Err(injected("set_len failed"));
        }
        let id = self.file_id(name, false)?;
        let f = self.files.get_mut(&id).expect("file exists");
        f.volatile.resize(len as usize, 0);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        let fault = self.step()?;
        if matches!(fault, Some(Fault::Fail { .. } | Fault::Torn { .. })) {
            return Err(injected("rename failed"));
        }
        let point = self.ops - 1;
        let id = self
            .entries
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{from}: not found")))?;
        self.entries.insert(to.to_string(), id);
        self.dirty_entries.insert(from.to_string(), point);
        self.dirty_entries.insert(to.to_string(), point);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        let fault = self.step()?;
        if matches!(fault, Some(Fault::Fail { .. } | Fault::Torn { .. })) {
            return Err(injected("remove failed"));
        }
        let point = self.ops - 1;
        self.entries
            .remove(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{name}: not found")))?;
        self.dirty_entries.insert(name.to_string(), point);
        Ok(())
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        let fault = self.step()?;
        if matches!(fault, Some(Fault::Fail { .. } | Fault::Torn { .. })) {
            return Err(injected("fsync failed"));
        }
        let id = self.file_id(name, false)?;
        let f = self.files.get_mut(&id).expect("file exists");
        f.durable = f.volatile.clone();
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        let fault = self.step()?;
        if matches!(fault, Some(Fault::Fail { .. } | Fault::Torn { .. })) {
            return Err(injected("directory fsync failed"));
        }
        self.durable_entries = self.entries.clone();
        self.dirty_entries.clear();
        // A directory sync does not sync file *contents*; durable bytes
        // still track sync_file only.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_roundtrips() {
        let mut s = MemStorage::new();
        s.write_file("a", b"hello").unwrap();
        s.append("a", b" world").unwrap();
        assert_eq!(s.read("a").unwrap(), b"hello world");
        assert_eq!(s.file_len("a").unwrap(), 11);
        s.rename("a", "b").unwrap();
        assert!(!s.exists("a"));
        assert_eq!(s.read("b").unwrap(), b"hello world");
        s.set_len("b", 5).unwrap();
        assert_eq!(s.read("b").unwrap(), b"hello");
        s.remove("b").unwrap();
        assert!(!s.exists("b"));
    }

    #[test]
    fn fail_fault_has_no_effect() {
        let mut s = MemStorage::new();
        s.write_file("a", b"base").unwrap(); // point 0
        let mut script = FaultScript::none();
        script.push(Fault::Fail { at: 1 });
        s.set_script(script);
        assert!(s.append("a", b"more").is_err()); // point 1 fails
        assert_eq!(s.read("a").unwrap(), b"base");
        s.append("a", b"more").unwrap(); // point 2 fine
        assert_eq!(s.read("a").unwrap(), b"basemore");
    }

    #[test]
    fn torn_fault_keeps_a_prefix() {
        let mut s = MemStorage::new();
        s.write_file("a", b"base").unwrap();
        let mut script = FaultScript::none();
        script.push(Fault::Torn { at: 1, keep: 2 });
        s.set_script(script);
        assert!(s.append("a", b"wxyz").is_err());
        assert_eq!(s.read("a").unwrap(), b"basewx");
    }

    #[test]
    fn transient_fault_fails_then_succeeds() {
        let mut s = MemStorage::new();
        s.write_file("a", b"base").unwrap(); // point 0
        s.set_script(FaultScript::transient_at(1, 2));
        for _ in 0..2 {
            let err = s.append("a", b"x").unwrap_err(); // points 1, 2
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        s.append("a", b"x").unwrap(); // point 3
        assert_eq!(s.read("a").unwrap(), b"basex");
        assert_eq!(s.ops_attempted(), 4);
    }

    #[test]
    fn errno_fault_surfaces_raw_os_error() {
        let mut s = MemStorage::new();
        s.set_script(FaultScript::errno_at(0, 28)); // ENOSPC
        let err = s.write_file("a", b"x").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(!s.exists("a"));
        s.write_file("a", b"x").unwrap(); // point 1 is clean
    }

    #[test]
    fn crash_drops_unsynced_suffix_deterministically() {
        let build = |crash_at: u64| {
            let mut s = MemStorage::new();
            s.write_file("wal", b"AAAA").unwrap(); // 0
            s.sync_file("wal").unwrap(); // 1
            s.sync_dir().unwrap(); // 2
            s.append("wal", b"BBBBBBBB").unwrap(); // 3 — never synced
            s.set_script(FaultScript::crash_at(crash_at));
            let _ = s.append("wal", b"CC"); // 4 — crashes
            s.crash_image()
        };
        let img1 = build(4);
        let img2 = build(4);
        let a = img1.read("wal").unwrap();
        let b = img2.read("wal").unwrap();
        assert_eq!(a, b, "crash image must be deterministic");
        // The synced prefix always survives; the un-synced suffix is a
        // prefix of what was appended.
        assert!(a.len() >= 4 && a.len() <= 12);
        assert_eq!(&a[..4], b"AAAA");
        assert!(a[4..].iter().all(|&c| c == b'B'));
    }

    #[test]
    fn crash_keeps_rename_atomic() {
        // Renames survive or vanish as a unit: the crash image never loses
        // the file by keeping only half of the entry pair.
        for crash_at in 4..7 {
            let mut s = MemStorage::new();
            s.set_script(FaultScript::crash_at(crash_at));
            s.write_file("data", b"old").unwrap(); // 0
            s.sync_file("data").unwrap(); // 1
            s.sync_dir().unwrap(); // 2
            s.write_file("data.tmp", b"new").unwrap(); // 3
            let _ = s.sync_file("data.tmp"); // 4 (crash candidate)
            let _ = s.rename("data.tmp", "data"); // 5 (crash candidate)
            let _ = s.sync_dir(); // 6 (crash candidate)
            assert!(s.crashed(), "crash point {crash_at} never reached");
            let img = s.crash_image();
            let data = img.read("data").expect("data must always exist");
            assert!(data == b"old" || data == b"new", "got {data:?}");
        }
    }

    #[test]
    fn after_crash_every_operation_fails() {
        let mut s = MemStorage::new();
        s.set_script(FaultScript::crash_at(0));
        assert!(s.write_file("a", b"x").is_err());
        assert!(s.append("a", b"x").is_err());
        assert!(s.read("a").is_err());
        assert!(s.sync_dir().is_err());
        assert!(!s.exists("a"));
    }

    #[test]
    fn disk_storage_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sdq-io-test-{}", std::process::id()));
        let mut s = DiskStorage::new(&dir).unwrap();
        s.write_file("a", b"hel").unwrap();
        s.append("a", b"lo").unwrap();
        s.sync_file("a").unwrap();
        assert_eq!(s.read("a").unwrap(), b"hello");
        s.rename("a", "b").unwrap();
        s.sync_dir().unwrap();
        assert!(s.exists("b") && !s.exists("a"));
        s.set_len("b", 2).unwrap();
        assert_eq!(s.read("b").unwrap(), b"he");
        s.remove("b").unwrap();
        assert!(!s.exists("b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
