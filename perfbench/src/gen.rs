//! Seeded inputs: payloads, the failed-device set and per-connection op
//! streams. Everything here is a pure function of the workload seed, so
//! the TCP run and the in-process replay see identical operations.

use std::collections::VecDeque;
use std::sync::Arc;

/// Payload sizes are log-uniform over 4–256 KiB.
const MIN_PAYLOAD: f64 = (4 << 10) as f64;
const MAX_PAYLOAD: f64 = (256 << 10) as f64;

/// Objects stored before the clock starts on `degraded_read`.
pub const PREFILL: usize = 512;
/// Devices failed before the clock starts on `degraded_read`.
pub const FAILED_DEVICES: usize = 4;
/// Zipf skew of `degraded_read` GET keys.
const ZIPF_THETA: f64 = 0.99;

/// Domain tags that keep the seeded streams independent.
const TAG_FAIL: u64 = 1;
const TAG_CONN: u64 = 3;
const TAG_PAYLOAD: u64 = 4;
const TAG_PERM: u64 = 5;
const TAG_SIZES: u64 = 6;

/// SplitMix64 finaliser.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a tuple of words into one seed.
pub fn seed_of(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x7442_656E_6368_u64, |h, &p| mix64(h ^ p))
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Successive points of the golden-ratio sequence are evenly spread over
/// `[0, 1)`, so any run of sizes drawn from it covers the distribution
/// evenly: the bytes moved per operation then vary little from seed to
/// seed, while each seed still gets its own sizes.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// The log-uniform payload size at quantile `u`.
fn size_at(u: f64) -> usize {
    let (lo, hi) = (MIN_PAYLOAD.ln(), MAX_PAYLOAD.ln());
    ((lo + u * (hi - lo)).exp() as usize).clamp(MIN_PAYLOAD as usize, MAX_PAYLOAD as usize)
}

/// Log-uniform payload sizes along a golden-ratio sequence.
struct Sizes(f64);

impl Sizes {
    /// A sequence from a seeded start.
    fn seeded(seed: u64) -> Self {
        Sizes(Rng::new(seed).unit())
    }

    fn next_len(&mut self) -> usize {
        self.0 = (self.0 + GOLDEN).fract();
        size_at(self.0)
    }
}

/// Incompressible bytes determined by `seed`.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Prefill objects by popularity: `hot_order(seed)[r]` is the put index
/// of the object of Zipf rank `r`. Spreading the hot objects over put
/// order spreads them over stripe rotations.
fn hot_order(seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..PREFILL).collect();
    let mut rng = Rng::new(seed_of(&[seed, TAG_PERM]));
    for i in (1..PREFILL).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

/// The objects stored before the clock starts on `degraded_read`, in
/// put order. Sizes follow popularity rank along the golden-ratio
/// sequence from a fixed start: the few hottest objects carry most GETs,
/// so a seeded start would let one seed's hot set be all small objects
/// and another's all large. The seed still picks which objects are hot,
/// their bytes, the failed devices and every key drawn.
pub fn prefill(seed: u64) -> Vec<Vec<u8>> {
    let mut lens = vec![0; PREFILL];
    let mut sizes = Sizes(0.0);
    for &i in &hot_order(seed) {
        lens[i] = sizes.next_len();
    }
    lens.iter()
        .enumerate()
        .map(|(i, &len)| payload(seed_of(&[seed, TAG_PAYLOAD, u64::MAX, i as u64]), len))
        .collect()
}

/// The devices failed on `degraded_read`, distinct and in fail order.
pub fn failed_devices(seed: u64, devices: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed_of(&[seed, TAG_FAIL]));
    let mut out = Vec::new();
    while out.len() < FAILED_DEVICES {
        let d = rng.below(devices as u64) as u32;
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// Which object an operation names: a prefilled object by its put index,
/// or one of a connection's own puts by its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Key {
    Prefill(usize),
    Own { conn: u32, seq: u64 },
}

pub enum Op {
    Put { key: Key, payload: Vec<u8> },
    Get(Key),
    Delete(Key),
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Put { .. } => Kind::Put,
            Op::Get(_) => Kind::Get,
            Op::Delete(_) => Kind::Delete,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Delete,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// PUT 75 / GET 10 / DELETE 15; GETs read the connection's own live
    /// objects, DELETEs remove its oldest.
    Ingest,
    /// GET 95 (Zipf over the prefill) / PUT 5.
    Degraded,
}

/// Zipf(θ) over the prefill's popularity ranks, mapped onto prefill keys
/// by [`hot_order`].
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(PREFILL);
        let mut acc = 0.0;
        for r in 1..=PREFILL {
            acc += 1.0 / (r as f64).powf(ZIPF_THETA);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self {
            cdf,
            perm: hot_order(seed),
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// One connection's operation stream. It assumes every operation it has
/// issued succeeded; a failure fails the run, so the assumption holds on
/// every run that is reported as correct.
pub struct Stream {
    mix: Mix,
    seed: u64,
    conn: u32,
    rng: Rng,
    sizes: Sizes,
    next_seq: u64,
    /// `Ingest`: the connection's live objects, oldest first.
    live: VecDeque<Key>,
    zipf: Option<Arc<Zipf>>,
}

impl Stream {
    pub fn new(mix: Mix, seed: u64, conn: u32, zipf: Option<Arc<Zipf>>) -> Self {
        Self {
            mix,
            seed,
            conn,
            rng: Rng::new(seed_of(&[seed, TAG_CONN, conn as u64])),
            sizes: Sizes::seeded(seed_of(&[seed, TAG_SIZES, conn as u64])),
            next_seq: 0,
            live: VecDeque::new(),
            zipf,
        }
    }

    fn put(&mut self) -> Op {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = Key::Own {
            conn: self.conn,
            seq,
        };
        let len = self.sizes.next_len();
        let payload = payload(
            seed_of(&[self.seed, TAG_PAYLOAD, self.conn as u64, seq]),
            len,
        );
        if self.mix == Mix::Ingest {
            self.live.push_back(key);
        }
        Op::Put { key, payload }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        match self.mix {
            Mix::Ingest if roll < 75 || self.live.is_empty() => self.put(),
            Mix::Ingest if roll < 85 => {
                let i = self.rng.below(self.live.len() as u64) as usize;
                Op::Get(self.live[i])
            }
            Mix::Ingest => Op::Delete(self.live.pop_front().expect("live is non-empty")),
            Mix::Degraded if roll < 95 => {
                let zipf = self
                    .zipf
                    .as_ref()
                    .expect("degraded streams carry a Zipf table");
                Op::Get(Key::Prefill(zipf.sample(&mut self.rng)))
            }
            Mix::Degraded => self.put(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let ops = |seed| {
            let mut s = Stream::new(Mix::Ingest, seed, 0, None);
            (0..200)
                .map(|_| match s.next_op() {
                    Op::Put { key, payload } => (0, key, payload.len()),
                    Op::Get(key) => (1, key, 0),
                    Op::Delete(key) => (2, key, 0),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn payload_sizes_stay_in_range() {
        let mut sizes = Sizes::seeded(1);
        for _ in 0..10_000 {
            let n = sizes.next_len();
            assert!((4 << 10..=256 << 10).contains(&n));
        }
        assert_eq!(failed_devices(3, 96).len(), FAILED_DEVICES);
    }
}
