//! The archival store: transactional object put/get over a device pool.

use crate::device::{Device, ReadClass};
use crate::durable::{self, BackendKind, DurableConfig, Durability, RecoveryReport};
use crate::error::StoreError;
use crate::journal::{CrashInjector, JournalRecord};
use crate::obs::StoreObserver;
use crate::retrieval::{plan_retrieval, RepairCost};
use std::sync::RwLock;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tornado_codec::{pool, xor_into, Codec, EncodedStripe, RecoveryStep};
use tornado_graph::{Graph, NodeId};

/// Opaque object identifier.
pub type ObjectId = u64;

/// Metadata tracked per stored object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object id.
    pub id: ObjectId,
    /// User-visible name.
    pub name: String,
    /// Payload size in bytes.
    pub size: usize,
    /// Per-block size after framing/padding.
    pub block_len: usize,
    /// Device rotation offset: block `i` lives on device
    /// `(i + rotation) % devices`.
    pub rotation: usize,
    /// FNV-1a checksum per block (indexed by graph node), so silent
    /// corruption on a device is detected at read time and handled as an
    /// erasure.
    pub checksums: Vec<u64>,
}

/// Retrieval-path statistics for one [`ArchivalStore::get_detailed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GetStats {
    /// Blocks fetched from devices (the guided-retrieval metric).
    pub blocks_fetched: usize,
    /// Blocks reconstructed by the decoder instead of read — non-zero
    /// exactly when the read took the degraded path.
    pub blocks_recovered: usize,
    /// Times the plan had to be recomputed because a planned block turned
    /// out corrupt or racily lost.
    pub replans: usize,
    /// Wall time spent planning the retrieval (all attempts), µs.
    pub plan_us: u64,
    /// Wall time spent fetching and checksum-verifying blocks, µs.
    pub fetch_us: u64,
    /// Wall time spent in erasure decode (schedule application) and
    /// payload reassembly, µs — the per-read repair cost a degraded GET
    /// pays.
    pub decode_us: u64,
    /// What this retrieval cost in bytes/blocks/devices/depth, across all
    /// plan attempts (reads made before a replan aborted an attempt are
    /// still counted — those bytes really moved).
    pub cost: RepairCost,
    /// Subset of `cost.bytes_read` attributed to repair: check-block
    /// fetches, which a healthy stripe never needs.
    pub repair_bytes_read: u64,
}

impl GetStats {
    /// Whether any block had to be reconstructed (a degraded read).
    pub fn degraded(&self) -> bool {
        self.blocks_recovered > 0 || self.replans > 0
    }
}

/// Block digest: the word-wide 8-lane FNV checksum kernel (scrub's verify
/// tier hashes device-resident bytes with the same function the put path
/// recorded, so put/get/verify always agree).
pub(crate) fn block_checksum(data: &[u8]) -> u64 {
    tornado_codec::kernels::checksum(data)
}

/// A single-site archival store: one device per graph node, objects encoded
/// into one block per device.
///
/// The interface is transactional at object granularity (§2.2: "archival
/// systems function using a transactional interface where complete files or
/// objects are uploaded or downloaded"), which is what makes Tornado Codes
/// applicable — the object size is known at encode time and blocks are
/// never updated in place.
pub struct ArchivalStore {
    graph: Graph,
    devices: Vec<Device>,
    objects: RwLock<HashMap<ObjectId, ObjectMeta>>,
    next_id: AtomicU64,
    put_count: AtomicU64,
    /// Per-stripe dirty generations: bumped on every API-visible mutation
    /// of a stripe's blocks (put, delete, repair/federation writes). The
    /// incremental scrub tier skips a stripe whose generation — and the
    /// pool epoch — are unchanged since it was last seen fully clean.
    generations: RwLock<HashMap<ObjectId, u64>>,
    /// Source of generation numbers (store-wide, strictly increasing).
    generation_counter: AtomicU64,
    /// Device-pool epoch: bumped whenever a device fails or is replaced.
    /// Device-level events destroy blocks without touching any stripe's
    /// generation, so clean marks are additionally keyed by this epoch.
    pool_epoch: AtomicU64,
    /// Present on stores opened with [`ArchivalStore::open`]: journal,
    /// sidecar paths, fsync policy, crash injector. `None` keeps the
    /// volatile in-memory store on the exact pre-persistence code path.
    durability: Option<Durability>,
    /// The store's one observer (disabled until [`ArchivalStore::set_observer`]).
    /// Scrubs record into it, and device gauges are refreshed on the
    /// fail/replace transitions themselves, so a health scrape between
    /// scrub cycles never sees a stale fleet.
    observer: RwLock<Arc<StoreObserver>>,
}

impl ArchivalStore {
    /// Creates a volatile store with one in-memory device per node of
    /// `graph` (the simulation default; nothing survives process exit).
    pub fn new(graph: Graph) -> Self {
        let devices = (0..graph.num_nodes()).map(Device::new).collect();
        Self::assemble(graph, devices, HashMap::new(), 1, 0, None)
    }

    /// Opens (creating if empty) a durable store rooted at `cfg.dir`,
    /// running recovery: torn puts from a previous crash are rolled
    /// back, deletes replayed, and the object map rebuilt from metadata
    /// sidecars. See the [`crate::durable`] module docs for the on-disk
    /// layout and the recovery state machine.
    pub fn open(graph: Graph, cfg: DurableConfig) -> Result<(Self, RecoveryReport), StoreError> {
        durable::open(graph, cfg)
    }

    /// Internal constructor shared by [`ArchivalStore::new`] and
    /// recovery-on-open.
    pub(crate) fn assemble(
        graph: Graph,
        devices: Vec<Device>,
        objects: HashMap<ObjectId, ObjectMeta>,
        next_id: u64,
        put_count: u64,
        durability: Option<Durability>,
    ) -> Self {
        Self {
            graph,
            devices,
            objects: RwLock::new(objects),
            next_id: AtomicU64::new(next_id),
            put_count: AtomicU64::new(put_count),
            generations: RwLock::new(HashMap::new()),
            generation_counter: AtomicU64::new(0),
            pool_epoch: AtomicU64::new(0),
            durability,
            observer: RwLock::new(Arc::new(StoreObserver::disabled())),
        }
    }

    /// Replaces the store's [`StoreObserver`]. Scrub passes record into
    /// it, and its device gauges are refreshed on every fail/replace
    /// transition (not just on scrub cycles).
    pub fn set_observer(&self, obs: Arc<StoreObserver>) {
        *self.observer.write().expect("observer lock") = obs;
    }

    /// The store's observer.
    pub(crate) fn observer(&self) -> Arc<StoreObserver> {
        Arc::clone(&self.observer.read().expect("observer lock"))
    }

    /// Refreshes the observer's device gauges.
    fn notify_device_health(&self) {
        self.observer().record_device_health(self);
    }

    /// The backend kind devices run on (`Memory` for volatile stores).
    pub fn backend_kind(&self) -> BackendKind {
        self.durability
            .as_ref()
            .map_or(BackendKind::Memory, |d| d.kind)
    }

    /// The durable root directory, if this store was [`ArchivalStore::open`]ed.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The crash injector of a durable store — the recovery test suite's
    /// way of dying at an exact durability step. `None` on volatile
    /// stores.
    pub fn crash_injector(&self) -> Option<&CrashInjector> {
        self.durability.as_ref().map(|d| &d.crash)
    }

    /// The erasure graph in use.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of devices in the pool.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to a device (stats, health).
    pub fn device(&self, index: usize) -> Result<&Device, StoreError> {
        self.devices.get(index).ok_or(StoreError::NoSuchDevice {
            device: index,
            pool_size: self.devices.len(),
        })
    }

    /// Injects a device failure (contents destroyed — the paper's
    /// no-repair model; on a durable backend the backing files are
    /// really deleted).
    pub fn fail_device(&self, index: usize) -> Result<(), StoreError> {
        self.device(index)?.fail();
        self.pool_epoch.fetch_add(1, Ordering::Release);
        self.notify_device_health();
        Ok(())
    }

    /// Replaces a failed device with an empty one.
    ///
    /// On a durable store the replacement is a fresh *incarnation*: the
    /// device's incarnation number is bumped and persisted first, then a
    /// brand-new backend is opened at the new (empty) incarnation path.
    /// Files from the old incarnation are removed best-effort, but even
    /// if removal fails they can never be read again — no code path
    /// ever opens a non-current incarnation path.
    pub fn replace_device(&self, index: usize) -> Result<(), StoreError> {
        let device = self.device(index)?;
        if let Some(d) = &self.durability {
            let old_gen = durable::read_gen(&d.dir, index)
                .map_err(|e| StoreError::io("device incarnation", &e))?;
            let gen = old_gen + 1;
            durable::write_gen(&d.dir, index, gen, d.fsync)
                .map_err(|e| StoreError::io("device incarnation", &e))?;
            let backend = durable::make_backend(&d.dir, d.kind, index, gen, d.fsync)
                .map_err(|e| StoreError::io("backend open", &e))?;
            device.install_replacement(backend);
            durable::remove_incarnation(&d.dir, d.kind, index, old_gen);
        } else {
            device.replace();
        }
        self.pool_epoch.fetch_add(1, Ordering::Release);
        self.notify_device_health();
        Ok(())
    }

    /// The current device-pool epoch (bumped on every fail/replace).
    pub fn pool_epoch(&self) -> u64 {
        self.pool_epoch.load(Ordering::Acquire)
    }

    /// The stripe's current dirty generation (`0` before its first write).
    pub fn stripe_generation(&self, id: ObjectId) -> u64 {
        self.generations.read().expect("generation lock").get(&id).copied().unwrap_or(0)
    }

    /// Marks a stripe dirty: assigns it a fresh store-wide generation.
    fn bump_generation(&self, id: ObjectId) {
        let g = self.generation_counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.generations.write().expect("generation lock").insert(id, g);
    }

    /// Indices of currently offline devices.
    pub fn offline_devices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|d| !d.is_online())
            .map(|d| d.id())
            .collect()
    }

    /// Device index of an object's block for graph node `node`.
    pub fn device_of_block(&self, meta: &ObjectMeta, node: NodeId) -> usize {
        (node as usize + meta.rotation) % self.devices.len()
    }

    /// Stores an object; returns its id. Blocks whose target device is
    /// offline are simply not stored (their redundancy covers the gap until
    /// the scrubber repairs them).
    ///
    /// On a durable store the put is atomic across devices: intent is
    /// journaled before any block lands, the blocks and metadata sidecar
    /// are flushed, and only then is the commit journaled — so a crash
    /// anywhere in between is rolled back on the next open and an
    /// acknowledged put is durable. An `Err` on the durable path means
    /// the object was **not** stored (it is absent from the in-memory
    /// map and any partial on-disk state is rolled back at next open).
    pub fn put(&self, name: &str, payload: &[u8]) -> Result<ObjectId, StoreError> {
        let codec = Codec::new(&self.graph);
        let stripe = EncodedStripe::from_object(&codec, payload)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let rotation =
            self.put_count.fetch_add(1, Ordering::Relaxed) as usize % self.devices.len();
        let block_len = stripe.block_len();
        let blocks = stripe.into_blocks();
        let meta = ObjectMeta {
            id,
            name: name.to_string(),
            size: payload.len(),
            block_len,
            rotation,
            checksums: blocks.iter().map(|b| block_checksum(b)).collect(),
        };
        if let Some(d) = &self.durability {
            d.journal_append(&JournalRecord::PutIntent {
                id,
                rotation: rotation as u32,
                nodes: self.graph.num_nodes() as u32,
            })?;
        }
        // Blocks are moved into the devices — the encode output is the
        // stored representation, no per-block clone on the ingest path.
        let mut touched: Vec<usize> = Vec::new();
        for (node, block) in blocks.into_iter().enumerate() {
            if let Some(d) = &self.durability {
                d.crash.step().map_err(|e| StoreError::io("block write", &e))?;
            }
            let dev = self.device_of_block(&meta, node as NodeId);
            if self.devices[dev].write_block((id, node as u32), block) {
                touched.push(dev);
            }
        }
        if let Some(d) = &self.durability {
            // Durability points, in order: block data, sidecar, commit.
            // The device-level flush is what makes "commit" meaningful.
            if d.fsync {
                touched.dedup();
                for &dev in &touched {
                    self.devices[dev].flush();
                }
            }
            d.write_sidecar(&meta)?;
            d.journal_append(&JournalRecord::PutCommit { id })?;
        }
        self.objects.write().expect("catalog lock").insert(id, meta);
        self.bump_generation(id);
        Ok(id)
    }

    /// Object metadata, if present.
    pub fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.objects.read().expect("catalog lock").get(&id).cloned()
    }

    /// All stored objects, ascending by id.
    pub fn list(&self) -> Vec<ObjectMeta> {
        let mut v: Vec<ObjectMeta> = self.objects.read().expect("catalog lock").values().cloned().collect();
        v.sort_by_key(|m| m.id);
        v
    }

    /// Which graph nodes of `meta` have their block currently readable.
    fn available_nodes(&self, meta: &ObjectMeta) -> Vec<NodeId> {
        (0..self.graph.num_nodes() as NodeId)
            .filter(|&node| {
                let dev = self.device_of_block(meta, node);
                self.devices[dev].has_block(&(meta.id, node))
            })
            .collect()
    }

    /// Retrieves an object, reading as few devices as the guided retrieval
    /// planner allows and decoding through the pruned schedule.
    pub fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        let (payload, _) = self.get_detailed(id)?;
        Ok(payload)
    }

    /// Like [`ArchivalStore::get`], additionally reporting retrieval-path
    /// statistics (the serving layer's degraded-read signal).
    ///
    /// Fetched blocks are checksum-verified; a corrupt (or racily lost)
    /// block is excluded and the retrieval re-planned, so silent corruption
    /// degrades into an ordinary erasure.
    pub fn get_detailed(&self, id: ObjectId) -> Result<(Vec<u8>, GetStats), StoreError> {
        let meta = self.meta(id).ok_or(StoreError::UnknownObject { id })?;
        let mut excluded: Vec<NodeId> = Vec::new();
        let mut replans = 0usize;
        let mut plan_us = 0u64;
        let mut fetch_us = 0u64;
        // Cost accounting across every attempt: a replan discards buffers
        // but not the fact that devices already served those bytes.
        let mut bytes_read = 0u64;
        let mut blocks_read = 0u64;
        let mut repair_bytes = 0u64;
        let mut devices_contacted: BTreeSet<usize> = BTreeSet::new();
        let n = self.graph.num_nodes();
        let k = self.graph.num_data();
        let (blocks, stats) = 'plan: loop {
            let plan_start = std::time::Instant::now();
            let available: Vec<NodeId> = self
                .available_nodes(&meta)
                .into_iter()
                .filter(|node| !excluded.contains(node))
                .collect();
            let planned = plan_retrieval(&self.graph, &available);
            plan_us += plan_start.elapsed().as_micros() as u64;
            let Some(plan) = planned else {
                // Identify which data blocks are genuinely gone.
                let missing: Vec<usize> = (0..n as NodeId)
                    .filter(|v| !available.contains(v))
                    .map(|v| v as usize)
                    .collect();
                let mut dec = tornado_codec::ErasureDecoder::new(&self.graph);
                let detail = dec.decode_detailed(&missing);
                return Err(StoreError::Unrecoverable {
                    id,
                    lost_blocks: detail.lost_data,
                });
            };
            // Fetch exactly the planned blocks, verifying each. Buffers
            // come from this thread's block pool and are recycled once the
            // payload is reassembled, so a warm worker serves steady-state
            // GETs without block mallocs.
            let fetch_start = std::time::Instant::now();
            let mut blocks: Vec<Option<Vec<u8>>> = vec![None; n];
            for &node in &plan.fetch {
                // A data block is the payload itself; a check block is only
                // ever fetched to feed reconstruction — repair traffic.
                let class = if (node as usize) < k {
                    ReadClass::Payload
                } else {
                    ReadClass::Repair
                };
                match self.read_raw_block(&meta, node, class) {
                    Some(b) => {
                        bytes_read += b.len() as u64;
                        blocks_read += 1;
                        if class == ReadClass::Repair {
                            repair_bytes += b.len() as u64;
                        }
                        devices_contacted.insert(self.device_of_block(&meta, node));
                        blocks[node as usize] = Some(b)
                    }
                    None => {
                        // Corrupt or lost after planning: exclude, replan.
                        excluded.push(node);
                        replans += 1;
                        fetch_us += fetch_start.elapsed().as_micros() as u64;
                        pool::with_thread_pool(|p| p.recycle_stripe(&mut blocks));
                        continue 'plan;
                    }
                }
            }
            fetch_us += fetch_start.elapsed().as_micros() as u64;
            let decode_start = std::time::Instant::now();
            let decoded = apply_schedule(&self.graph, blocks, &plan, meta.block_len);
            let stats = GetStats {
                blocks_fetched: plan.fetch.len(),
                blocks_recovered: plan.schedule.len(),
                replans,
                plan_us,
                fetch_us,
                decode_us: decode_start.elapsed().as_micros() as u64,
                cost: RepairCost {
                    bytes_read,
                    blocks_fetched: blocks_read,
                    devices_contacted: devices_contacted.len() as u64,
                    recovery_depth: plan.recovery_depth(&self.graph),
                },
                repair_bytes_read: repair_bytes,
            };
            break (decoded, stats);
        };

        // Reassemble the framed payload from the data blocks, then hand
        // every scratch buffer back to the pool.
        let reassemble_start = std::time::Instant::now();
        let mut blocks = blocks;
        let k = self.graph.num_data();
        let mut framed = pool::with_thread_pool(|p| p.take_zeroed(0));
        framed.reserve(k * meta.block_len);
        for block in blocks.iter().take(k) {
            framed.extend_from_slice(block.as_ref().expect("all data planned or recovered"));
        }
        let len = u64::from_le_bytes(framed[..8].try_into().expect("length header")) as usize;
        debug_assert_eq!(len, meta.size);
        let payload = framed[8..8 + len].to_vec();
        pool::with_thread_pool(|p| {
            p.recycle(framed);
            p.recycle_stripe(&mut blocks);
        });
        let mut stats = stats;
        stats.decode_us += reassemble_start.elapsed().as_micros() as u64;
        Ok((payload, stats))
    }

    /// Deletes an object from all devices. On a durable store the delete
    /// is journaled first, so a crash mid-delete is replayed (to
    /// completion, idempotently) on the next open.
    pub fn delete(&self, id: ObjectId) -> Result<(), StoreError> {
        if let Some(d) = &self.durability {
            let meta = self.meta(id).ok_or(StoreError::UnknownObject { id })?;
            d.journal_append(&JournalRecord::Delete {
                id,
                rotation: meta.rotation as u32,
                nodes: self.graph.num_nodes() as u32,
            })?;
            d.remove_sidecar(id)?;
        }
        let meta = self
            .objects
            .write()
            .expect("catalog lock")
            .remove(&id)
            .ok_or(StoreError::UnknownObject { id })?;
        for node in 0..self.graph.num_nodes() as u32 {
            let dev = self.device_of_block(&meta, node);
            self.devices[dev].delete_block(&(id, node));
        }
        self.generations.write().expect("generation lock").remove(&id);
        Ok(())
    }

    /// Reads one stored block, attributed to `class`, verifying its
    /// checksum: a corrupt block is reported as absent (an erasure), which
    /// is exactly how the coding layer can repair it. The GET path passes
    /// the class per node; scrub tier 3 and federation read as
    /// [`ReadClass::Repair`]. The copy is made into a buffer recycled from
    /// the calling thread's block pool.
    pub(crate) fn read_raw_block(
        &self,
        meta: &ObjectMeta,
        node: NodeId,
        class: ReadClass,
    ) -> Option<Vec<u8>> {
        let dev = self.device_of_block(meta, node);
        let block = pool::with_thread_pool(|p| {
            self.devices[dev].read_block(&(meta.id, node), p, class)
        })?;
        if block_checksum(&block) != meta.checksums[node as usize] {
            pool::with_thread_pool(|p| p.recycle(block));
            return None;
        }
        Some(block)
    }

    /// Writes a (re-encoded) block back to its home device. Repair
    /// writes are not journaled — the block's content is pinned by the
    /// checksum in the (already-durable) sidecar, so a torn repair write
    /// is just a still-missing block the next scrub repairs again; on a
    /// durable store the write is flushed per the fsync policy.
    pub(crate) fn write_raw_block(&self, meta: &ObjectMeta, node: NodeId, data: Vec<u8>) -> bool {
        let dev = self.device_of_block(meta, node);
        let written = self.devices[dev].write_block((meta.id, node), data);
        if written {
            if let Some(d) = &self.durability {
                if d.fsync {
                    self.devices[dev].flush();
                }
            }
            self.bump_generation(meta.id);
        }
        written
    }

    /// Hash-verifies a block **in place** on its home device — the scrub
    /// verify tier's probe. No bytes are copied and nothing is allocated;
    /// the expected digest comes from the stripe metadata written at put
    /// time.
    pub(crate) fn probe_block(&self, meta: &ObjectMeta, node: NodeId) -> crate::device::BlockProbe {
        let dev = self.device_of_block(meta, node);
        self.devices[dev].verify_block(&(meta.id, node), meta.checksums[node as usize])
    }
}

/// Replays a retrieval plan's pruned recovery schedule with real XOR over
/// the fetched blocks (the word-wide kernel; accumulators come from the
/// calling thread's block pool).
fn apply_schedule(
    graph: &Graph,
    mut blocks: Vec<Option<Vec<u8>>>,
    plan: &crate::retrieval::RetrievalPlan,
    block_len: usize,
) -> Vec<Option<Vec<u8>>> {
    for step in &plan.schedule {
        match *step {
            RecoveryStep::Peel { node, via } => {
                let via_block = blocks[via as usize].as_deref().expect("planned");
                let mut acc = pool::with_thread_pool(|p| p.take_copy(via_block));
                for &nbr in graph.check_neighbors(via) {
                    if nbr != node {
                        let b = blocks[nbr as usize].as_ref().expect("planned");
                        xor_into(&mut acc, b);
                    }
                }
                blocks[node as usize] = Some(acc);
            }
            RecoveryStep::Reencode { node } => {
                let mut acc = pool::with_thread_pool(|p| p.take_zeroed(block_len));
                for &nbr in graph.check_neighbors(node) {
                    let b = blocks[nbr as usize].as_ref().expect("planned");
                    xor_into(&mut acc, b);
                }
                blocks[node as usize] = Some(acc);
            }
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::{TornadoGenerator, TornadoParams};
    use tornado_graph::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("greeting", b"hello world").unwrap();
        assert_eq!(store.get(id).unwrap(), b"hello world");
        let meta = store.meta(id).unwrap();
        assert_eq!(meta.name, "greeting");
        assert_eq!(meta.size, 11);
    }

    #[test]
    fn get_unknown_object_errors() {
        let store = ArchivalStore::new(small_graph());
        assert!(matches!(
            store.get(42),
            Err(StoreError::UnknownObject { id: 42 })
        ));
    }

    #[test]
    fn attached_observer_sees_transitions_without_a_scrub() {
        let store = ArchivalStore::new(small_graph());
        let obs = Arc::new(StoreObserver::disabled());
        store.set_observer(Arc::clone(&obs));
        store.fail_device(1).unwrap();
        store.fail_device(3).unwrap();
        // The gauges refreshed on the transition itself — no scrub cycle,
        // no metrics snapshot in between.
        assert_eq!(obs.devices_offline.get(), 2);
        store.replace_device(1).unwrap();
        assert_eq!(obs.devices_offline.get(), 1);
    }

    #[test]
    fn survives_tolerable_device_failures() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"important archival data").unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(4).unwrap();
        assert_eq!(store.get(id).unwrap(), b"important archival data");
        assert_eq!(store.offline_devices(), vec![0, 4]);
    }

    #[test]
    fn reports_unrecoverable_losses() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"doomed").unwrap();
        // Blocks 0 and 1 form a closed pair under check 4 with check 6
        // unable to help after 4's inputs are gone? (4 = 0^1; 0,1 lost
        // means 4 is blocked; rotation 0 so nodes map to devices directly.)
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        match store.get(id) {
            Err(StoreError::Unrecoverable { lost_blocks, .. }) => {
                assert_eq!(lost_blocks, vec![0, 1]);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn rotation_spreads_blocks_across_devices() {
        let store = ArchivalStore::new(small_graph());
        let a = store.put("a", b"aaaa").unwrap();
        let b = store.put("b", b"bbbb").unwrap();
        let ma = store.meta(a).unwrap();
        let mb = store.meta(b).unwrap();
        assert_ne!(ma.rotation, mb.rotation);
        assert_eq!(store.device_of_block(&ma, 0), 0);
        assert_eq!(store.device_of_block(&mb, 0), 1);
        // Both still read back correctly.
        assert_eq!(store.get(a).unwrap(), b"aaaa");
        assert_eq!(store.get(b).unwrap(), b"bbbb");
    }

    #[test]
    fn guided_retrieval_touches_few_devices() {
        let graph = TornadoGenerator::new(TornadoParams::paper_96())
            .generate(4)
            .unwrap();
        let store = ArchivalStore::new(graph);
        let id = store.put("big", &vec![7u8; 4096]).unwrap();
        let (_, healthy) = store.get_detailed(id).unwrap();
        assert_eq!(healthy.blocks_fetched, 48, "healthy stripe reads only data blocks");
        store.fail_device(3).unwrap();
        let (payload, degraded) = store.get_detailed(id).unwrap();
        assert_eq!(payload.len(), 4096);
        assert!(
            degraded.blocks_fetched < 96,
            "degraded read must not touch the whole stripe"
        );
    }

    #[test]
    fn get_cost_matches_device_byte_deltas() {
        use crate::device::DeviceStats;
        let graph = TornadoGenerator::new(TornadoParams::paper_96())
            .generate(4)
            .unwrap();
        let store = ArchivalStore::new(graph);
        let id = store.put("big", &vec![7u8; 4096]).unwrap();
        let meta = store.meta(id).unwrap();
        let snap = |s: &ArchivalStore| -> Vec<DeviceStats> {
            (0..s.num_devices()).map(|d| s.device(d).unwrap().stats()).collect()
        };

        let before = snap(&store);
        let (_, healthy) = store.get_detailed(id).unwrap();
        let after = snap(&store);
        let bytes: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_read - b.bytes_read)
            .sum();
        let repair: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_repair_read - b.bytes_repair_read)
            .sum();
        assert_eq!(healthy.cost.bytes_read, bytes, "GET cost == device deltas");
        assert_eq!(healthy.cost.bytes_read, 48 * meta.block_len as u64);
        assert_eq!(healthy.cost.blocks_fetched, 48);
        assert_eq!(healthy.cost.devices_contacted, 48);
        assert_eq!(healthy.cost.recovery_depth, 0);
        assert_eq!(healthy.repair_bytes_read, 0, "healthy read is all payload");
        assert_eq!(repair, 0);

        store
            .fail_device(store.device_of_block(&meta, 3))
            .unwrap();
        let before = snap(&store);
        let (_, degraded) = store.get_detailed(id).unwrap();
        let after = snap(&store);
        let bytes: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_read - b.bytes_read)
            .sum();
        let repair: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_repair_read - b.bytes_repair_read)
            .sum();
        assert!(degraded.degraded());
        assert_eq!(degraded.cost.bytes_read, bytes);
        assert_eq!(degraded.repair_bytes_read, repair);
        assert!(degraded.repair_bytes_read > 0, "check blocks were fetched");
        assert!(degraded.cost.recovery_depth >= 1);
        assert!((degraded.cost.devices_contacted as usize) < store.num_devices());
    }

    #[test]
    fn delete_removes_blocks() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"bye").unwrap();
        store.delete(id).unwrap();
        assert!(matches!(store.get(id), Err(StoreError::UnknownObject { .. })));
        assert!(store.list().is_empty());
        let total: usize = (0..store.num_devices())
            .map(|d| store.device(d).unwrap().block_count())
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn put_to_partially_failed_pool_still_recovers() {
        let store = ArchivalStore::new(small_graph());
        store.fail_device(5).unwrap();
        let id = store.put("x", b"written degraded").unwrap();
        assert_eq!(store.get(id).unwrap(), b"written degraded");
    }

    #[test]
    fn no_such_device_error() {
        let store = ArchivalStore::new(small_graph());
        assert!(matches!(
            store.fail_device(99),
            Err(StoreError::NoSuchDevice { device: 99, .. })
        ));
    }

    #[test]
    fn silent_corruption_is_detected_and_decoded_around() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"integrity matters").unwrap();
        // Corrupt data block 0 in place (device 0, rotation 0).
        assert!(store.device(0).unwrap().corrupt_block(&(id, 0), 0xFF));
        let (payload, stats) = store.get_detailed(id).unwrap();
        assert_eq!(payload, b"integrity matters");
        assert!(stats.blocks_fetched >= 4, "had to fetch extra blocks to route around corruption");
    }

    #[test]
    fn corruption_of_a_check_block_is_harmless_for_reads() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"payload").unwrap();
        store.device(6).unwrap().corrupt_block(&(id, 6), 0x01);
        assert_eq!(store.get(id).unwrap(), b"payload");
    }

    #[test]
    fn corruption_beyond_tolerance_is_reported() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"doomed data").unwrap();
        // Corrupt the closed pair {0, 1} under check 4.
        store.device(0).unwrap().corrupt_block(&(id, 0), 0xAA);
        store.device(1).unwrap().corrupt_block(&(id, 1), 0xAA);
        assert!(matches!(
            store.get(id),
            Err(StoreError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("empty", b"").unwrap();
        assert_eq!(store.get(id).unwrap(), b"");
    }
}
