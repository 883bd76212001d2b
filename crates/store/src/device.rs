//! Storage devices with failure injection, backed by pluggable
//! [`BlockBackend`]s.
//!
//! Each device stores named blocks and keeps access counters. Interior
//! mutability (a `std::sync::RwLock` per device) lets many readers hit
//! different devices concurrently — the access pattern the guided
//! retrieval planner optimises — while failure injection flips a device
//! offline atomically. `Device::new` keeps the original volatile
//! in-memory backend (the simulation default); durable stores attach
//! file or segment backends via [`Device::with_backend`] (see
//! [`crate::durable`]).
//!
//! Backend I/O failures (a read error, a failed fsync) are counted in
//! [`DeviceStats::io_errors`] — distinct from the offline-rejection
//! counters — and the affected block is reported absent, so the coding
//! layer treats real storage trouble exactly like an erasure.

use crate::backend::{BlockBackend, MemoryBackend};
use std::sync::RwLock;

pub use crate::backend::BlockKey;

/// Outcome of a zero-copy checksum probe ([`Device::verify_block`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockProbe {
    /// The block is present and its checksum matches.
    Ok,
    /// The device is offline or the block is absent — an erasure.
    Missing,
    /// The block is present but its bytes no longer hash to the expected
    /// digest: silent bit rot, treated as an erasure by the coding layer.
    Corrupt,
}

/// Why a block is being read — the attribution axis of the repair-cost
/// accounting layer. Devices tally bytes separately per class so "how much
/// of this disk's traffic is repair?" is answerable without sampling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadClass {
    /// A read serving user data directly (a data block fetched for a GET).
    #[default]
    Payload,
    /// A read feeding reconstruction: check blocks for a degraded GET,
    /// scrub tier-3 stripe reads, federation cross-site fetches.
    Repair,
}

/// Access/health counters for a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Successful block reads served.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Reads rejected because the device was offline.
    pub failed_reads: u64,
    /// Writes rejected because the device was offline.
    pub failed_writes: u64,
    /// In-place checksum probes served ([`Device::verify_block`]) — the
    /// scrub verify tier's accesses, counted separately from `reads`
    /// because no block bytes leave the device.
    pub verifies: u64,
    /// Total bytes served by successful reads (all classes).
    pub bytes_read: u64,
    /// Subset of [`DeviceStats::bytes_read`] served to
    /// [`ReadClass::Repair`] readers.
    pub bytes_repair_read: u64,
    /// Backend I/O failures (read/write/fsync errors from the storage
    /// layer itself) — distinct from `failed_reads`/`failed_writes`,
    /// which count offline rejections of a healthy backend. Non-zero
    /// here means the *media* is misbehaving.
    pub io_errors: u64,
}

impl DeviceStats {
    fn record_read(&mut self, len: usize, class: ReadClass) {
        self.reads += 1;
        self.bytes_read += len as u64;
        if class == ReadClass::Repair {
            self.bytes_repair_read += len as u64;
        }
    }
}

#[derive(Debug)]
struct DeviceState {
    online: bool,
    backend: Box<dyn BlockBackend>,
    stats: DeviceStats,
}

/// One storage device.
#[derive(Debug)]
pub struct Device {
    id: usize,
    state: RwLock<DeviceState>,
}

impl Device {
    /// A fresh, online, empty device on the volatile in-memory backend.
    pub fn new(id: usize) -> Self {
        Self::with_backend(id, Box::new(MemoryBackend::new()))
    }

    /// A fresh, online device over an explicit backend (which may
    /// already hold blocks — reopening a durable store reattaches its
    /// devices this way).
    pub fn with_backend(id: usize, backend: Box<dyn BlockBackend>) -> Self {
        Self {
            id,
            state: RwLock::new(DeviceState {
                online: true,
                backend,
                stats: DeviceStats::default(),
            }),
        }
    }

    /// The device's pool index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The backend label (`"memory"`, `"file"`, `"segment"`).
    pub fn backend_kind(&self) -> &'static str {
        self.state.read().expect("device lock").backend.kind()
    }

    /// Whether the device is serving requests.
    pub fn is_online(&self) -> bool {
        self.state.read().expect("device lock").online
    }

    /// Takes the device offline, **destroying its contents** (the paper's
    /// no-repair model treats a failed drive's data as gone). On durable
    /// backends the backing files really are deleted; if even that fails
    /// the device still goes offline (and the error is counted), and the
    /// incarnation scheme in [`crate::durable`] guarantees a later
    /// replacement can never resurrect the stale files.
    pub fn fail(&self) {
        let mut s = self.state.write().expect("device lock");
        s.online = false;
        if s.backend.destroy().is_err() {
            s.stats.io_errors += 1;
        }
    }

    /// Brings the device back online (empty — a replacement drive).
    /// Durable stores route replacement through
    /// `ArchivalStore::replace_device`, which installs a fresh backend
    /// at a new incarnation path instead.
    pub fn replace(&self) {
        let mut s = self.state.write().expect("device lock");
        s.online = true;
        if s.backend.destroy().is_err() {
            s.stats.io_errors += 1;
        }
    }

    /// Installs a brand-new backend (a fresh incarnation directory) and
    /// brings the device online — the durable form of [`Device::replace`].
    pub(crate) fn install_replacement(&self, backend: Box<dyn BlockBackend>) {
        let mut s = self.state.write().expect("device lock");
        s.online = true;
        s.backend = backend;
    }

    /// Writes a block. Rejected when offline (a real controller would
    /// error); the rejection is counted in
    /// [`DeviceStats::failed_writes`] so degraded-mode ingest is visible
    /// to operators instead of vanishing silently. A backend I/O error
    /// also fails the write, counted in [`DeviceStats::io_errors`].
    pub fn write_block(&self, key: BlockKey, data: Vec<u8>) -> bool {
        let mut s = self.state.write().expect("device lock");
        if !s.online {
            s.stats.failed_writes += 1;
            return false;
        }
        match s.backend.put(key, data) {
            Ok(()) => {
                s.stats.writes += 1;
                true
            }
            Err(_) => {
                s.stats.io_errors += 1;
                false
            }
        }
    }

    /// Flushes the backend to stable storage (fsync). Returns `false` —
    /// and counts an I/O error — if the sync failed.
    pub fn flush(&self) -> bool {
        let mut s = self.state.write().expect("device lock");
        match s.backend.flush() {
            Ok(()) => true,
            Err(_) => {
                s.stats.io_errors += 1;
                false
            }
        }
    }

    /// Reads a block into a buffer recycled from `pool`, attributing the
    /// bytes to `class`; `None` when offline, absent, or failing at the
    /// I/O layer.
    pub fn read_block(
        &self,
        key: &BlockKey,
        pool: &mut tornado_codec::BlockPool,
        class: ReadClass,
    ) -> Option<Vec<u8>> {
        let mut s = self.state.write().expect("device lock");
        if !s.online {
            s.stats.failed_reads += 1;
            return None;
        }
        match s.backend.get(key, pool) {
            Ok(block) => {
                if let Some(b) = &block {
                    s.stats.record_read(b.len(), class);
                }
                block
            }
            Err(_) => {
                s.stats.io_errors += 1;
                None
            }
        }
    }

    /// Checksums a block in place against `expected` — the scrub verify
    /// tier's primitive. On the memory backend no bytes are copied: the
    /// word-wide checksum kernel runs over the device-resident buffer
    /// under the device lock. Durable backends hash through a reused
    /// scratch buffer without handing bytes upward. An I/O error reads
    /// as [`BlockProbe::Missing`] (an erasure) and is counted.
    pub fn verify_block(&self, key: &BlockKey, expected: u64) -> BlockProbe {
        let mut s = self.state.write().expect("device lock");
        if !s.online {
            s.stats.failed_reads += 1;
            return BlockProbe::Missing;
        }
        match s.backend.checksum(key) {
            Ok(None) => BlockProbe::Missing,
            Ok(Some(sum)) => {
                s.stats.verifies += 1;
                if sum == expected {
                    BlockProbe::Ok
                } else {
                    BlockProbe::Corrupt
                }
            }
            Err(_) => {
                s.stats.io_errors += 1;
                BlockProbe::Missing
            }
        }
    }

    /// Whether a block exists (does not count as an access).
    pub fn has_block(&self, key: &BlockKey) -> bool {
        let s = self.state.read().expect("device lock");
        s.online && s.backend.contains(key)
    }

    /// Removes a block; returns whether it existed (false also on an
    /// I/O error, which is counted).
    pub fn delete_block(&self, key: &BlockKey) -> bool {
        let mut s = self.state.write().expect("device lock");
        match s.backend.delete(key) {
            Ok(existed) => existed,
            Err(_) => {
                s.stats.io_errors += 1;
                false
            }
        }
    }

    /// Silently corrupts a stored block (failure-injection helper for
    /// integrity testing): XORs `mask` into the first byte. Returns whether
    /// the block existed.
    pub fn corrupt_block(&self, key: &BlockKey, mask: u8) -> bool {
        let mut s = self.state.write().expect("device lock");
        s.backend.corrupt(key, mask).unwrap_or(false)
    }

    /// Access counters snapshot.
    pub fn stats(&self) -> DeviceStats {
        self.state.read().expect("device lock").stats
    }

    /// Number of blocks held.
    pub fn block_count(&self) -> usize {
        self.state.read().expect("device lock").backend.block_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_codec::BlockPool;

    /// A payload-class read through a throwaway pool.
    fn read(d: &Device, key: &BlockKey) -> Option<Vec<u8>> {
        d.read_block(key, &mut BlockPool::default(), ReadClass::Payload)
    }

    #[test]
    fn write_read_roundtrip() {
        let d = Device::new(3);
        assert!(d.write_block((1, 0), vec![1, 2, 3]));
        assert_eq!(read(&d, &(1, 0)), Some(vec![1, 2, 3]));
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.block_count(), 1);
        assert_eq!(d.backend_kind(), "memory");
    }

    #[test]
    fn failure_destroys_contents() {
        let d = Device::new(0);
        d.write_block((1, 0), vec![9]);
        d.fail();
        assert!(!d.is_online());
        assert_eq!(read(&d, &(1, 0)), None);
        assert_eq!(d.stats().failed_reads, 1);
        d.replace();
        assert!(d.is_online());
        assert_eq!(read(&d, &(1, 0)), None, "replacement is empty");
        assert_eq!(d.block_count(), 0);
    }

    #[test]
    fn offline_writes_are_rejected_and_counted() {
        let d = Device::new(0);
        d.fail();
        assert!(!d.write_block((1, 0), vec![1]));
        assert!(!d.write_block((1, 1), vec![2]));
        assert_eq!(d.stats().failed_writes, 2);
        assert_eq!(d.stats().writes, 0);
        d.replace();
        assert!(d.write_block((1, 0), vec![1]));
        assert_eq!(d.stats().failed_writes, 2, "successful write leaves the failure count");
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().io_errors, 0, "offline rejections are not I/O errors");
    }

    #[test]
    fn verify_block_probes_without_copying() {
        let d = Device::new(0);
        let data = vec![5u8; 100];
        let sum = tornado_codec::kernels::checksum(&data);
        d.write_block((1, 0), data);
        assert_eq!(d.verify_block(&(1, 0), sum), BlockProbe::Ok);
        assert_eq!(d.verify_block(&(1, 1), sum), BlockProbe::Missing);
        assert!(d.corrupt_block(&(1, 0), 0x01));
        assert_eq!(d.verify_block(&(1, 0), sum), BlockProbe::Corrupt);
        assert_eq!(d.stats().verifies, 2, "present-block probes are counted, including mismatches");
        assert_eq!(d.stats().reads, 0, "no block bytes were served");
        d.fail();
        assert_eq!(d.verify_block(&(1, 0), sum), BlockProbe::Missing);
        assert_eq!(d.stats().failed_reads, 1);
    }

    #[test]
    fn read_bytes_are_attributed_per_class() {
        let d = Device::new(0);
        d.write_block((1, 0), vec![7u8; 64]);
        let mut pool = BlockPool::default();
        assert!(d.read_block(&(1, 0), &mut pool, ReadClass::Payload).is_some());
        assert!(d.read_block(&(1, 0), &mut pool, ReadClass::Repair).is_some());
        assert!(d.read_block(&(1, 0), &mut pool, ReadClass::Repair).is_some());
        assert!(d.read_block(&(1, 0), &mut pool, ReadClass::Payload).is_some());
        let s = d.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.bytes_read, 4 * 64);
        assert_eq!(s.bytes_repair_read, 2 * 64);
        assert!(d.read_block(&(9, 9), &mut pool, ReadClass::Repair).is_none());
        assert_eq!(d.stats().bytes_read, 4 * 64, "misses serve no bytes");
    }

    #[test]
    fn delete_and_has() {
        let d = Device::new(0);
        d.write_block((2, 5), vec![0]);
        assert!(d.has_block(&(2, 5)));
        assert!(d.delete_block(&(2, 5)));
        assert!(!d.delete_block(&(2, 5)));
        assert!(!d.has_block(&(2, 5)));
    }

    #[test]
    fn concurrent_reads_from_many_threads() {
        use std::sync::Arc;
        let d = Arc::new(Device::new(0));
        d.write_block((1, 1), vec![42; 128]);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(read(&d, &(1, 1)).unwrap()[0], 42);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.stats().reads, 800);
    }

    #[test]
    fn file_backed_device_counts_io_errors_as_erasures() {
        // Point a file backend at a directory, then make a block's path
        // unreadable by replacing the file with a directory — a read
        // error that is not an offline rejection.
        use crate::backend_file::FileBackend;
        let dir = std::env::temp_dir().join(format!(
            "tornado-device-ioerr-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::open(&dir, false).unwrap();
        let d = Device::with_backend(0, Box::new(backend));
        assert_eq!(d.backend_kind(), "file");
        assert!(d.write_block((1, 2), vec![3; 16]));
        // Sabotage: swap the block file for a directory of the same name.
        let path = dir.join("0000000000000001.00000002.blk");
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(d.has_block(&(1, 2)), "index still lists it");
        assert_eq!(read(&d, &(1, 2)), None, "read error reads as erasure");
        assert_eq!(d.verify_block(&(1, 2), 0), BlockProbe::Missing);
        let s = d.stats();
        assert_eq!(s.io_errors, 2);
        assert_eq!(s.failed_reads, 0, "device was online throughout");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
