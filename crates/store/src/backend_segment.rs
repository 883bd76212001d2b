//! Single-file append-only segment backend.
//!
//! All blocks of one device live in one segment file; an in-memory
//! `key -> (offset, len)` index is rebuilt by scanning the segment on
//! open. Puts and deletes append records; a put of an existing key
//! shadows the old record (last writer wins on scan), a delete appends
//! a tombstone. Nothing is ever updated in place, matching the
//! archival write-once model.
//!
//! Record wire format (all integers little-endian):
//!
//! ```text
//! [kind u8][id u64][node u32][len u32][payload len bytes][fnv u64]
//! ```
//!
//! `kind` is 1 (put) or 2 (tombstone, `len == 0`); the trailing FNV-1a
//! checksum (`tornado_codec::kernels::checksum`) covers header and
//! payload. The scan stops at the first short or checksum-failing
//! record and truncates the file there: a torn append can only be the
//! tail, so everything before it is intact by construction.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tornado_codec::kernels;
use tornado_codec::BlockPool;

use crate::backend::{metrics, sync_file, BlockBackend, BlockKey};

const KIND_PUT: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;
const HEADER_LEN: usize = 1 + 8 + 4 + 4;
const TRAILER_LEN: usize = 8;

/// Append-only single-file store; see the module docs for the format.
#[derive(Debug)]
pub struct SegmentBackend {
    path: PathBuf,
    file: File,
    /// Offset one past the last valid record — the append point.
    end: u64,
    /// `key -> (payload offset, payload len)` of the live record.
    index: HashMap<BlockKey, (u64, u32)>,
    fsync: bool,
    scratch: Vec<u8>,
}

impl SegmentBackend {
    /// Opens (creating if needed) the segment at `path`, rebuilding the
    /// index by a full scan. A torn or corrupt tail is truncated away.
    pub fn open(path: &Path, fsync: bool) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut index = HashMap::new();
        let mut pos = 0u64;
        file.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN];
        let mut record = Vec::new();
        while pos < file_len {
            if file_len - pos < (HEADER_LEN + TRAILER_LEN) as u64 {
                break; // torn tail: not even a header + trailer
            }
            file.read_exact(&mut header)?;
            let kind = header[0];
            let id = u64::from_le_bytes(header[1..9].try_into().unwrap());
            let node = u32::from_le_bytes(header[9..13].try_into().unwrap());
            let len = u32::from_le_bytes(header[13..17].try_into().unwrap());
            let body = len as u64 + TRAILER_LEN as u64;
            let valid_kind = kind == KIND_PUT || kind == KIND_TOMBSTONE;
            if !valid_kind || file_len - pos - (HEADER_LEN as u64) < body {
                break; // garbage kind or torn payload
            }
            record.resize(len as usize + TRAILER_LEN, 0);
            file.read_exact(&mut record)?;
            let stored_sum =
                u64::from_le_bytes(record[len as usize..].try_into().unwrap());
            let mut hasher_input = Vec::with_capacity(HEADER_LEN + len as usize);
            hasher_input.extend_from_slice(&header);
            hasher_input.extend_from_slice(&record[..len as usize]);
            if kernels::checksum(&hasher_input) != stored_sum {
                break; // torn or rotted record: stop, truncate
            }
            let payload_off = pos + HEADER_LEN as u64;
            match kind {
                KIND_PUT => {
                    index.insert((id, node), (payload_off, len));
                }
                _ => {
                    index.remove(&(id, node));
                }
            }
            pos += HEADER_LEN as u64 + body;
        }
        metrics().scan_bytes.add(pos);
        if pos < file_len {
            file.set_len(pos)?;
            sync_file(&file)?;
        }
        file.seek(SeekFrom::Start(pos))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            end: pos,
            index,
            fsync,
            scratch: Vec::new(),
        })
    }

    /// The segment file path (tests poke bytes into it directly).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, kind: u8, key: BlockKey, payload: &[u8]) -> io::Result<u64> {
        let mut rec = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        rec.push(kind);
        rec.extend_from_slice(&key.0.to_le_bytes());
        rec.extend_from_slice(&key.1.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let sum = kernels::checksum(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&rec)?;
        let payload_off = self.end + HEADER_LEN as u64;
        self.end += rec.len() as u64;
        if self.fsync {
            sync_file(&self.file)?;
        }
        Ok(payload_off)
    }

    /// Reads the live payload for `key` into `self.scratch`.
    fn read_into_scratch(&mut self, key: &BlockKey) -> io::Result<bool> {
        let Some(&(off, len)) = self.index.get(key) else {
            return Ok(false);
        };
        self.scratch.resize(len as usize, 0);
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut self.scratch)?;
        Ok(true)
    }
}

impl BlockBackend for SegmentBackend {
    fn put(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()> {
        let off = self.append(KIND_PUT, key, &data)?;
        self.index.insert(key, (off, data.len() as u32));
        Ok(())
    }

    fn get(&mut self, key: &BlockKey, pool: &mut BlockPool) -> io::Result<Option<Vec<u8>>> {
        if !self.read_into_scratch(key)? {
            return Ok(None);
        }
        Ok(Some(pool.take_copy(&self.scratch)))
    }

    fn checksum(&mut self, key: &BlockKey) -> io::Result<Option<u64>> {
        if !self.read_into_scratch(key)? {
            return Ok(None);
        }
        Ok(Some(kernels::checksum(&self.scratch)))
    }

    fn contains(&self, key: &BlockKey) -> bool {
        self.index.contains_key(key)
    }

    fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        self.append(KIND_TOMBSTONE, *key, &[])?;
        self.index.remove(key);
        Ok(true)
    }

    fn block_count(&self) -> usize {
        self.index.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        sync_file(&self.file)
    }

    fn destroy(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.end = 0;
        self.index.clear();
        sync_file(&self.file)
    }

    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool> {
        let Some(&(off, len)) = self.index.get(key) else {
            return Ok(false);
        };
        if len == 0 {
            return Ok(true);
        }
        let mut byte = [0u8; 1];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut byte)?;
        byte[0] ^= mask;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&byte)?;
        Ok(true)
    }

    fn kind(&self) -> &'static str {
        "segment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::read;

    fn tmpseg(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "tornado-segbackend-{tag}-{}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_shadow_delete_reopen() {
        let path = tmpseg("roundtrip");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), vec![1, 2, 3]).unwrap();
            b.put((1, 0), vec![9, 9]).unwrap(); // shadows
            b.put((2, 4), vec![7; 64]).unwrap();
            b.put((3, 1), vec![5]).unwrap();
            b.delete(&(3, 1)).unwrap();
            assert_eq!(read(&mut b, &(1, 0)).unwrap(), vec![9, 9]);
        }
        let mut b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(read(&mut b, &(1, 0)).unwrap(), vec![9, 9]);
        assert_eq!(read(&mut b, &(2, 4)).unwrap(), vec![7; 64]);
        assert_eq!(read(&mut b, &(3, 1)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_earlier_records_survive() {
        let path = tmpseg("torn");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), vec![1, 2, 3, 4]).unwrap();
            b.put((2, 0), vec![5, 6, 7, 8]).unwrap();
        }
        // Tear the file mid-way through the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let mut b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 1);
        assert_eq!(read(&mut b, &(1, 0)).unwrap(), vec![1, 2, 3, 4]);
        // The torn tail was truncated: appends land on a clean boundary.
        b.put((2, 0), vec![5, 6, 7, 8]).unwrap();
        drop(b);
        let mut b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(read(&mut b, &(2, 0)).unwrap(), vec![5, 6, 7, 8]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_bit_in_tail_record_is_dropped() {
        let path = tmpseg("rot");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), vec![1; 32]).unwrap();
            b.put((2, 0), vec![2; 32]).unwrap();
        }
        // Flip one payload byte of the *last* record on disk.
        let len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().read(true).write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(len - 20)).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).unwrap();
        byte[0] ^= 0x40;
        f.seek(SeekFrom::Start(len - 20)).unwrap();
        f.write_all(&byte).unwrap();
        drop(f);
        let b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 1);
        assert!(b.contains(&(1, 0)));
        assert!(!b.contains(&(2, 0)));
        let _ = std::fs::remove_file(&path);
    }
}
