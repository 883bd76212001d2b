//! File-per-block backend: one file per encoded block in a per-device
//! directory.
//!
//! Layout: `<dir>/<id:016x>.<node:08x>.blk`. The in-memory index (a key
//! set) is rebuilt by a directory scan on open, so the backend carries
//! no index file to corrupt — the directory *is* the index. Writes go
//! through a `.tmp` sibling and an atomic rename, so a block file is
//! never observable half-written; a crash mid-put leaves at most a
//! `.tmp` orphan, which the next open sweeps away.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use tornado_codec::kernels;
use tornado_codec::BlockPool;

use crate::backend::{sync_file, BlockBackend, BlockKey};

/// One file per block in a directory; see the module docs for layout.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    index: HashSet<BlockKey>,
    fsync: bool,
    scratch: Vec<u8>,
}

fn block_file_name(key: &BlockKey) -> String {
    format!("{:016x}.{:08x}.blk", key.0, key.1)
}

fn parse_block_file_name(name: &str) -> Option<BlockKey> {
    let rest = name.strip_suffix(".blk")?;
    let (id_hex, node_hex) = rest.split_once('.')?;
    if id_hex.len() != 16 || node_hex.len() != 8 {
        return None;
    }
    let id = u64::from_str_radix(id_hex, 16).ok()?;
    let node = u32::from_str_radix(node_hex, 16).ok()?;
    Some((id, node))
}

impl FileBackend {
    /// Opens (creating if needed) a file backend rooted at `dir`,
    /// rebuilding the index by directory scan. Stray `.tmp` files from
    /// an interrupted write are removed.
    pub fn open(dir: &Path, fsync: bool) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut index = HashSet::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(key) = parse_block_file_name(&name) {
                index.insert(key);
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            index,
            fsync,
            scratch: Vec::new(),
        })
    }

    fn path_of(&self, key: &BlockKey) -> PathBuf {
        self.dir.join(block_file_name(key))
    }

    /// Reads the block into `self.scratch`; `Ok(false)` when absent.
    fn read_into_scratch(&mut self, key: &BlockKey) -> io::Result<bool> {
        if !self.index.contains(key) {
            return Ok(false);
        }
        let mut f = File::open(self.path_of(key))?;
        self.scratch.clear();
        f.read_to_end(&mut self.scratch)?;
        Ok(true)
    }
}

impl BlockBackend for FileBackend {
    fn put(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()> {
        let path = self.path_of(&key);
        let tmp = self.dir.join(format!("{}.tmp", block_file_name(&key)));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&data)?;
            if self.fsync {
                sync_file(&f)?;
            }
        }
        fs::rename(&tmp, &path)?;
        self.index.insert(key);
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
        self.index.contains(key)
    }

    fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
        if !self.index.remove(key) {
            return Ok(false);
        }
        match fs::remove_file(self.path_of(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(true),
            Err(e) => Err(e),
        }
    }

    fn block_count(&self) -> usize {
        self.index.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        // Individual block files are synced at write time (when fsync is
        // on); here we sync the directory so creations/renames are
        // durable too. Directory fsync is best-effort by platform.
        if self.fsync {
            if let Ok(d) = File::open(&self.dir) {
                sync_file(&d)?;
            }
        }
        Ok(())
    }

    fn destroy(&mut self) -> io::Result<()> {
        for key in std::mem::take(&mut self.index) {
            let _ = fs::remove_file(self.path_of(&key));
        }
        Ok(())
    }

    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool> {
        if !self.read_into_scratch(key)? {
            return Ok(false);
        }
        if !self.scratch.is_empty() {
            self.scratch[0] ^= mask;
        }
        let data = std::mem::take(&mut self.scratch);
        fs::write(self.path_of(key), &data)?;
        self.scratch = data;
        Ok(true)
    }

    fn kind(&self) -> &'static str {
        "file"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::read;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tornado-filebackend-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn name_parse_roundtrip() {
        let key = (0xdead_beef_u64, 77_u32);
        assert_eq!(parse_block_file_name(&block_file_name(&key)), Some(key));
        assert_eq!(parse_block_file_name("junk.blk"), None);
        assert_eq!(parse_block_file_name("0000000000000001.00000002.tmp"), None);
    }

    #[test]
    fn reopen_rebuilds_index_and_sweeps_tmp() {
        let dir = tmpdir("reopen");
        {
            let mut b = FileBackend::open(&dir, false).unwrap();
            b.put((1, 0), vec![1, 2, 3]).unwrap();
            b.put((2, 5), vec![4; 100]).unwrap();
        }
        // Plant a torn temp file from a hypothetical crash.
        fs::write(dir.join("00000000000000ff.00000001.blk.tmp"), b"torn").unwrap();
        let mut b = FileBackend::open(&dir, false).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(read(&mut b, &(1, 0)), Some(vec![1, 2, 3]));
        assert_eq!(read(&mut b, &(2, 5)), Some(vec![4; 100]));
        assert!(!dir.join("00000000000000ff.00000001.blk.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroy_removes_files() {
        let dir = tmpdir("destroy");
        let mut b = FileBackend::open(&dir, false).unwrap();
        b.put((1, 0), vec![1]).unwrap();
        b.put((1, 1), vec![2]).unwrap();
        b.destroy().unwrap();
        assert_eq!(b.block_count(), 0);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
