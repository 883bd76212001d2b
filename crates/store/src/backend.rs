//! Pluggable block persistence behind [`Device`](crate::Device).
//!
//! A [`BlockBackend`] stores the encoded blocks of one device. The store
//! layer above it (rotation, planning, scrubbing, repair accounting) is
//! backend-agnostic: a device backed by a `HashMap`, a directory of
//! block files, or a single append-only segment behaves identically
//! except for durability. Three implementations ship:
//!
//! * [`MemoryBackend`] (here) — the original in-memory map; nothing
//!   survives process exit. The default for `Device::new`, so every
//!   existing simulation and test is unchanged.
//! * [`FileBackend`](crate::backend_file::FileBackend) — one file per
//!   block in a per-device directory.
//! * [`SegmentBackend`](crate::backend_segment::SegmentBackend) — one
//!   append-only segment file per device with an in-memory index
//!   rebuilt by scan on open.
//!
//! Backends report failures as `io::Error`; the device layer translates
//! those into [`DeviceStats::io_errors`](crate::DeviceStats::io_errors)
//! and degrades exactly as if the block were an erasure, so upstream
//! recovery (planner replans, scrubber repairs) applies unchanged.
//!
//! Process-wide persistence counters live in [`BackendMetrics`]
//! (`backend.*` in METRICS snapshots), following the same static-counter
//! idiom as `tornado_codec::kernels::metrics`.

use std::collections::HashMap;
use std::io;
use tornado_codec::kernels;
use tornado_codec::BlockPool;
use tornado_obs::Counter;

/// Identifies a block on a device: `(object id, graph node index)`.
pub type BlockKey = (u64, u32);

/// Block persistence for one device.
///
/// All methods take `&mut self`: every `Device` access already goes
/// through a per-device write lock, so backends need no internal
/// synchronisation and may keep scratch state (open file handles,
/// reusable read buffers) without interior mutability.
pub trait BlockBackend: Send + Sync + std::fmt::Debug {
    /// Stores a block, overwriting any previous content under `key`. The
    /// backend takes ownership: [`MemoryBackend`] moves the buffer in
    /// without a copy, preserving the zero-clone ingest path the
    /// data-plane work established.
    fn put(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()>;

    /// Reads a block into a buffer drawn from `pool` (see
    /// `tornado_codec::pool`); `Ok(None)` when absent.
    fn get(&mut self, key: &BlockKey, pool: &mut BlockPool) -> io::Result<Option<Vec<u8>>>;

    /// Word-wide FNV checksum (`tornado_codec::kernels::checksum`) of
    /// the stored bytes, without handing out a copy — the scrub verify
    /// tier's read path. `Ok(None)` when absent.
    fn checksum(&mut self, key: &BlockKey) -> io::Result<Option<u64>>;

    /// Whether a block is present (index lookup only; no data read).
    fn contains(&self, key: &BlockKey) -> bool;

    /// Removes a block; returns whether it was present.
    fn delete(&mut self, key: &BlockKey) -> io::Result<bool>;

    /// Number of blocks currently stored.
    fn block_count(&self) -> usize;

    /// Durability point: flush outstanding writes to stable storage.
    /// A no-op for memory; fsync for the durable backends.
    fn flush(&mut self) -> io::Result<()>;

    /// Destroys all contents (device failure / replacement). The
    /// backend stays usable and empty afterwards.
    fn destroy(&mut self) -> io::Result<()>;

    /// Failure-injection hook: XORs `mask` into the first byte of the
    /// stored block, bypassing every integrity layer — the simulated
    /// form of bit rot. Returns whether the block existed. (Real rot on
    /// durable backends is injected by writing garbage into the backing
    /// files out-of-band; see `tests/bitrot_scrub.rs`.)
    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool>;

    /// Human-readable backend label (`"memory"`, `"file"`, `"segment"`).
    fn kind(&self) -> &'static str;
}

/// The original in-memory map backend: fast, infallible, volatile.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    blocks: HashMap<BlockKey, Vec<u8>>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockBackend for MemoryBackend {
    fn put(&mut self, key: BlockKey, mut data: Vec<u8>) -> io::Result<()> {
        // A block from a pooled buffer may sit in a much larger allocation;
        // keep only what it needs for as long as it is resident.
        data.shrink_to_fit();
        self.blocks.insert(key, data);
        Ok(())
    }

    fn get(&mut self, key: &BlockKey, pool: &mut BlockPool) -> io::Result<Option<Vec<u8>>> {
        Ok(self.blocks.get(key).map(|b| pool.take_copy(b)))
    }

    fn checksum(&mut self, key: &BlockKey) -> io::Result<Option<u64>> {
        Ok(self.blocks.get(key).map(|b| kernels::checksum(b)))
    }

    fn contains(&self, key: &BlockKey) -> bool {
        self.blocks.contains_key(key)
    }

    fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
        Ok(self.blocks.remove(key).is_some())
    }

    fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn destroy(&mut self) -> io::Result<()> {
        self.blocks.clear();
        Ok(())
    }

    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool> {
        match self.blocks.get_mut(key) {
            Some(b) if !b.is_empty() => {
                b[0] ^= mask;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

/// Process-wide persistence counters, surfaced as `backend.*` in METRICS
/// snapshots (see `StoreObserver::fill_snapshot`).
#[derive(Debug)]
pub struct BackendMetrics {
    /// Intent-journal records appended (intents + commits + deletes).
    pub journal_appends: Counter,
    /// Journal records replayed during recovery-on-open.
    pub journal_replays: Counter,
    /// Torn (intent-without-commit) puts rolled back during recovery.
    pub journal_rollbacks: Counter,
    /// fsync / fdatasync calls issued by journals, sidecars, and
    /// durable backends, cumulative.
    pub fsyncs: Counter,
    /// Recovery-on-open passes completed.
    pub recoveries: Counter,
    /// Cumulative wall time spent in recovery-on-open, microseconds.
    pub recovery_us: Counter,
    /// Bytes scanned rebuilding segment indexes and replaying journals.
    pub scan_bytes: Counter,
}

static METRICS: BackendMetrics = BackendMetrics {
    journal_appends: Counter::new(),
    journal_replays: Counter::new(),
    journal_rollbacks: Counter::new(),
    fsyncs: Counter::new(),
    recoveries: Counter::new(),
    recovery_us: Counter::new(),
    scan_bytes: Counter::new(),
};

/// The process-wide persistence counters.
pub fn metrics() -> &'static BackendMetrics {
    &METRICS
}

/// Fsync helper used by every durable-path sync so the `backend.fsyncs`
/// counter can't drift from reality.
pub(crate) fn sync_file(f: &std::fs::File) -> io::Result<()> {
    f.sync_data()?;
    METRICS.fsyncs.add(1);
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend_file::FileBackend;
    use crate::backend_segment::SegmentBackend;

    /// Reads a block through the one pooled read, as the device layer does.
    pub(crate) fn read(b: &mut dyn BlockBackend, key: &BlockKey) -> Option<Vec<u8>> {
        b.get(key, &mut BlockPool::default()).unwrap()
    }

    #[test]
    fn memory_backend_keeps_no_spare_capacity() {
        let mut b = MemoryBackend::new();
        let mut block = Vec::with_capacity(64 * 1024);
        block.extend_from_slice(&[5u8; 10]);
        b.put((1, 0), block).unwrap();
        assert_eq!(b.blocks[&(1, 0)].capacity(), 10);
    }

    #[test]
    fn every_backend_roundtrips_checksums_corrupts_and_deletes() {
        let tag = format!("tornado-backend-seq-{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let seg = std::env::temp_dir().join(format!("{tag}.seg"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&seg);
        let backends: Vec<Box<dyn BlockBackend>> = vec![
            Box::new(MemoryBackend::new()),
            Box::new(FileBackend::open(&dir, false).unwrap()),
            Box::new(SegmentBackend::open(&seg, false).unwrap()),
        ];
        let kinds: Vec<&str> = backends.iter().map(|b| b.kind()).collect();
        assert_eq!(kinds, ["memory", "file", "segment"]);
        for mut b in backends {
            let kind = b.kind();
            b.put((1, 2), vec![9, 8, 7]).unwrap();
            assert!(b.contains(&(1, 2)), "{kind}");
            assert_eq!(read(b.as_mut(), &(1, 2)), Some(vec![9, 8, 7]), "{kind}");
            let sum = b.checksum(&(1, 2)).unwrap().unwrap();
            assert_eq!(sum, kernels::checksum(&[9, 8, 7]), "{kind}");
            assert!(b.corrupt(&(1, 2), 0xff).unwrap(), "{kind}");
            assert_ne!(b.checksum(&(1, 2)).unwrap().unwrap(), sum, "{kind}");
            assert!(b.delete(&(1, 2)).unwrap(), "{kind}");
            assert!(!b.delete(&(1, 2)).unwrap(), "{kind}");
            assert_eq!(b.block_count(), 0, "{kind}");
            assert_eq!(read(b.as_mut(), &(1, 2)), None, "{kind}");
            assert_eq!(b.checksum(&(1, 2)).unwrap(), None, "{kind}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&seg);
    }

    #[test]
    fn destroy_empties() {
        let mut b = MemoryBackend::new();
        for i in 0..4 {
            b.put((i, 0), vec![i as u8]).unwrap();
        }
        b.destroy().unwrap();
        assert_eq!(b.block_count(), 0);
        b.put((9, 9), vec![1]).unwrap();
        assert_eq!(b.block_count(), 1);
    }
}
