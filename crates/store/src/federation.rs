//! Two-site federated archival storage (paper §5.3).
//!
//! "We propose constructing federated archival storage systems using
//! replication among sites, just as is done with many data grids at the
//! present time, but with each site using Tornado Codes internally instead
//! of replication. By using complimentary Tornado Code graphs, the
//! distributed systems can achieve fault tolerance in excess of that of
//! the individual member sites."
//!
//! [`FederatedStore`] keeps every object at both sites (each under its own
//! graph). `get` first tries the local site, then the remote site, and
//! finally performs a *joint* decode over the combined federation graph —
//! the paper's cross-site block exchange: "restoring just one critical
//! data node allows the data graph to be reconstructed even when both
//! graphs cannot independently perform the reconstruction."

use crate::device::ReadClass;
use crate::error::StoreError;
use crate::store::{ArchivalStore, ObjectId, ObjectMeta};
use tornado_codec::Codec;
use tornado_graph::{Graph, NodeId};
use tornado_sim::multi::FederatedSystem;

/// How a federated `get` was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchPath {
    /// Site A reconstructed alone.
    SiteA,
    /// Site B reconstructed alone.
    SiteB,
    /// Only the joint cross-site decode succeeded. Carries the number of
    /// site-B blocks pulled across the wire into the joint stripe — the
    /// traffic a single-site read never pays.
    CrossSite {
        /// Remote (site B) blocks read for the joint decode.
        blocks_crossed: usize,
    },
}

/// What a [`FederatedStore::exchange_repair`] moved and restored — the
/// exchange's cross-site traffic, returned to the caller rather than
/// counted in an observer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeReport {
    /// Blocks rewritten at either site.
    pub blocks_restored: usize,
    /// Blocks that moved between sites: remote blocks fetched for a joint
    /// decode, plus blocks restored at the site that did *not* materialise
    /// the payload.
    pub blocks_crossed: usize,
    /// Bytes those crossed blocks amount to.
    pub bytes_crossed: u64,
}

/// Two sites storing the same objects under different Tornado graphs.
pub struct FederatedStore {
    site_a: ArchivalStore,
    site_b: ArchivalStore,
    federation: FederatedSystem,
}

impl FederatedStore {
    /// Builds a federation of two sites. The graphs must protect the same
    /// number of data blocks.
    pub fn new(graph_a: Graph, graph_b: Graph) -> Self {
        let federation = FederatedSystem::new(&graph_a, &graph_b);
        Self {
            site_a: ArchivalStore::new(graph_a),
            site_b: ArchivalStore::new(graph_b),
            federation,
        }
    }

    /// Site A.
    pub fn site_a(&self) -> &ArchivalStore {
        &self.site_a
    }

    /// Site B.
    pub fn site_b(&self) -> &ArchivalStore {
        &self.site_b
    }

    /// The combined decode system.
    pub fn federation(&self) -> &FederatedSystem {
        &self.federation
    }

    /// Stores the object at both sites. Returns the (shared) object id.
    ///
    /// Object ids are kept in lockstep: both sites assign ids from the same
    /// monotone counter because every put goes through this method.
    pub fn put(&self, name: &str, payload: &[u8]) -> Result<ObjectId, StoreError> {
        let id_a = self.site_a.put(name, payload)?;
        let id_b = self.site_b.put(name, payload)?;
        debug_assert_eq!(id_a, id_b, "sites assign ids in lockstep");
        Ok(id_a)
    }

    /// Retrieves an object, escalating from single-site reads to the joint
    /// cross-site decode. Reports which path succeeded.
    pub fn get(&self, id: ObjectId) -> Result<(Vec<u8>, FetchPath), StoreError> {
        match self.site_a.get(id) {
            Ok(p) => return Ok((p, FetchPath::SiteA)),
            Err(StoreError::Unrecoverable { .. }) => {}
            Err(e) => return Err(e),
        }
        match self.site_b.get(id) {
            Ok(p) => return Ok((p, FetchPath::SiteB)),
            Err(StoreError::Unrecoverable { .. }) => {}
            Err(e) => return Err(e),
        }
        self.get_cross_site(id)
            .map(|(p, blocks_crossed)| (p, FetchPath::CrossSite { blocks_crossed }))
    }

    /// Joint decode over both sites' surviving blocks. Also reports how
    /// many site-B blocks were pulled into the joint stripe.
    fn get_cross_site(&self, id: ObjectId) -> Result<(Vec<u8>, usize), StoreError> {
        let meta_a = self
            .site_a
            .meta(id)
            .ok_or(StoreError::UnknownObject { id })?;
        let meta_b = self
            .site_b
            .meta(id)
            .ok_or(StoreError::UnknownObject { id })?;
        let fed_graph = self.federation.graph();
        let k = self.federation.num_data();
        let n_a = self.site_a.graph().num_nodes();

        // Assemble the federated stripe: site A nodes verbatim, then site
        // B's nodes (its data copies become the replica slots).
        let mut stored: Vec<Option<Vec<u8>>> = Vec::with_capacity(fed_graph.num_nodes());
        for node in 0..n_a as NodeId {
            stored.push(self.site_a.read_raw_block(&meta_a, node, ReadClass::Repair));
        }
        let mut blocks_crossed = 0usize;
        for node in 0..self.site_b.graph().num_nodes() as NodeId {
            let block = self.site_b.read_raw_block(&meta_b, node, ReadClass::Repair);
            blocks_crossed += usize::from(block.is_some());
            stored.push(block);
        }

        let codec = Codec::new(fed_graph);
        let report = codec.decode(&mut stored)?;
        if !report.complete() {
            return Err(StoreError::Unrecoverable {
                id,
                lost_blocks: report.lost_data,
            });
        }
        // Reassemble from the shared data nodes.
        let mut framed = Vec::with_capacity(k * meta_a.block_len);
        for block in stored.iter().take(k) {
            framed.extend_from_slice(block.as_ref().expect("decode complete"));
        }
        let len = u64::from_le_bytes(framed[..8].try_into().expect("length header")) as usize;
        Ok((framed[8..8 + len].to_vec(), blocks_crossed))
    }

    /// Anti-entropy: copies blocks between sites so that each site's stripe
    /// for `id` is fully populated again where devices allow. This is the
    /// explicit "exchange a small number of blocks" repair of §1/§5.3.
    /// Reports blocks restored and the cross-site traffic the exchange
    /// moved (ROADMAP item 3's "count cross-site bytes moved").
    pub fn exchange_repair(&self, id: ObjectId) -> Result<ExchangeReport, StoreError> {
        let meta_a = self
            .site_a
            .meta(id)
            .ok_or(StoreError::UnknownObject { id })?;
        let meta_b = self
            .site_b
            .meta(id)
            .ok_or(StoreError::UnknownObject { id })?;
        let (payload, path) = self.get(id)?;
        // Re-encode per site and fill any readable-home gaps.
        let restored_a = refill_site(&self.site_a, &meta_a, &payload)?;
        let restored_b = refill_site(&self.site_b, &meta_b, &payload)?;
        // The payload was materialised at one site (A for the joint decode,
        // which assembles the federated stripe locally); refills at the
        // *other* site are blocks pushed over the wire. Joint-decode pulls
        // are crossed traffic on top.
        let (joint_pulls, source_is_a) = match path {
            FetchPath::SiteA => (0, true),
            FetchPath::SiteB => (0, false),
            FetchPath::CrossSite { blocks_crossed } => (blocks_crossed, true),
        };
        let pushed = if source_is_a { restored_b } else { restored_a };
        let pushed_len = if source_is_a {
            meta_b.block_len
        } else {
            meta_a.block_len
        };
        Ok(ExchangeReport {
            blocks_restored: restored_a + restored_b,
            blocks_crossed: joint_pulls + pushed,
            bytes_crossed: joint_pulls as u64 * meta_b.block_len as u64
                + pushed as u64 * pushed_len as u64,
        })
    }
}

/// Re-encodes `payload` under `site`'s graph and writes any missing blocks
/// whose home device is online.
fn refill_site(
    site: &ArchivalStore,
    meta: &ObjectMeta,
    payload: &[u8],
) -> Result<usize, StoreError> {
    let codec = Codec::new(site.graph());
    let stripe = tornado_codec::EncodedStripe::from_object(&codec, payload)?;
    let mut restored = 0usize;
    for (node, block) in stripe.blocks().iter().enumerate() {
        let node = node as NodeId;
        if site.read_raw_block(meta, node, ReadClass::Repair).is_none()
            && site.write_raw_block(meta, node, block.clone())
        {
            restored += 1;
        }
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::regular::generate_regular;

    fn two_mirror_sites() -> FederatedStore {
        FederatedStore::new(generate_mirror(4).unwrap(), generate_mirror(4).unwrap())
    }

    #[test]
    fn put_get_prefers_site_a() {
        let fed = two_mirror_sites();
        let id = fed.put("x", b"federated object").unwrap();
        let (payload, path) = fed.get(id).unwrap();
        assert_eq!(payload, b"federated object");
        assert_eq!(path, FetchPath::SiteA);
    }

    #[test]
    fn falls_over_to_site_b() {
        let fed = two_mirror_sites();
        let id = fed.put("x", b"hello").unwrap();
        // Kill data 0 and its mirror at site A (site A unrecoverable).
        fed.site_a().fail_device(0).unwrap();
        fed.site_a().fail_device(4).unwrap();
        let (payload, path) = fed.get(id).unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(path, FetchPath::SiteB);
    }

    #[test]
    fn cross_site_exchange_saves_the_day() {
        // Fail block 0's pair at site A and block *1*'s pair at site B:
        // neither site alone reconstructs, together they do.
        let fed = two_mirror_sites();
        let id = fed.put("x", b"only together").unwrap();
        fed.site_a().fail_device(0).unwrap();
        fed.site_a().fail_device(4).unwrap();
        fed.site_b().fail_device(1).unwrap();
        fed.site_b().fail_device(5).unwrap();
        assert!(matches!(
            fed.site_a().get(id),
            Err(StoreError::Unrecoverable { .. })
        ));
        assert!(matches!(
            fed.site_b().get(id),
            Err(StoreError::Unrecoverable { .. })
        ));
        let (payload, path) = fed.get(id).unwrap();
        assert_eq!(payload, b"only together");
        match path {
            FetchPath::CrossSite { blocks_crossed } => {
                assert_eq!(blocks_crossed, 6, "site B's six surviving blocks crossed");
            }
            other => panic!("expected CrossSite, got {other:?}"),
        }
    }

    #[test]
    fn joint_loss_of_the_same_block_everywhere_is_fatal() {
        let fed = two_mirror_sites();
        let id = fed.put("x", b"gone").unwrap();
        // All four copies of block 0: A data, A mirror, B data, B mirror.
        fed.site_a().fail_device(0).unwrap();
        fed.site_a().fail_device(4).unwrap();
        fed.site_b().fail_device(0).unwrap();
        fed.site_b().fail_device(4).unwrap();
        assert!(matches!(fed.get(id), Err(StoreError::Unrecoverable { .. })));
    }

    #[test]
    fn heterogeneous_graphs_federate() {
        let fed = FederatedStore::new(
            generate_mirror(6).unwrap(),
            generate_regular(6, 3, 2).unwrap(),
        );
        let id = fed.put("x", b"mixed federation").unwrap();
        fed.site_a().fail_device(2).unwrap();
        fed.site_a().fail_device(8).unwrap(); // 2's mirror
        let (payload, path) = fed.get(id).unwrap();
        assert_eq!(payload, b"mixed federation");
        assert_ne!(path, FetchPath::SiteA);
    }

    #[test]
    fn exchange_repair_refills_replaced_devices() {
        let fed = two_mirror_sites();
        let id = fed.put("x", b"repair me").unwrap();
        fed.site_a().fail_device(0).unwrap();
        fed.site_a().replace_device(0).unwrap();
        let report = fed.exchange_repair(id).unwrap();
        assert_eq!(report.blocks_restored, 1);
        assert_eq!(report.blocks_crossed, 0, "site A repaired itself locally");
        assert_eq!(report.bytes_crossed, 0);
        // Site A is self-sufficient again even if B goes dark.
        for d in 0..8 {
            fed.site_b().fail_device(d).unwrap();
        }
        let (payload, path) = fed.get(id).unwrap();
        assert_eq!(payload, b"repair me");
        assert_eq!(path, FetchPath::SiteA);
    }

    #[test]
    fn exchange_repair_counts_cross_site_traffic() {
        // Site A healthy, site B loses block 1's pair and gets replacement
        // drives: the payload comes from A and both of B's refilled blocks
        // cross the wire.
        let fed = two_mirror_sites();
        let id = fed.put("x", b"cross-site bytes move").unwrap();
        let block_len = fed.site_b().meta(id).unwrap().block_len;
        fed.site_b().fail_device(1).unwrap();
        fed.site_b().fail_device(5).unwrap();
        fed.site_b().replace_device(1).unwrap();
        fed.site_b().replace_device(5).unwrap();
        let report = fed.exchange_repair(id).unwrap();
        assert_eq!(report.blocks_restored, 2);
        assert_eq!(report.blocks_crossed, 2);
        assert_eq!(report.bytes_crossed, 2 * block_len as u64);
    }
}
