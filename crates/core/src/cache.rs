//! An LRU cache of execution plans.
//!
//! Planning is a pure function of (topology, accelerator configuration,
//! objective, scheme, prefetch/inter-layer flags): the same inputs
//! always produce the same [`ExecutionPlan`]. A serving layer that
//! answers many requests for the handful of popular models therefore
//! wants to pay Algorithm 1 once per distinct input and answer every
//! repeat from memory.
//!
//! [`PlanKey`] canonicalizes the full planning input into a byte
//! encoding (plus a precomputed FNV-1a hash for cheap map operations):
//! two requests that parse to the same network and configuration —
//! regardless of how the flags were spelled or the topology file was
//! formatted — produce identical keys, while any change to a layer
//! dimension, the accelerator, or a flag produces a different one.
//! Lookups compare the full encoding, so a hash collision can never
//! return the wrong plan.
//!
//! [`PlanCache`] is an LRU map behind a `parking_lot` mutex, safe to
//! share across worker threads. Hits, misses, and evictions are counted
//! locally (always) and in the `smm-obs` registry (when collection is
//! enabled).
//!
//! [`KeyMemo`] sits in front of the cache: a bounded map from a
//! [`PlanSpec`] to its key, so a repeat request finds its cache entry
//! without resolving the network or encoding the key again.

use crate::{ExecutionPlan, ManagerConfig, NetworkRef, Objective, PlanError, PlanSpec};
use parking_lot::Mutex;
use smm_arch::AcceleratorConfig;
use smm_model::Network;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether a request asks for the heterogeneous or best-homogeneous
/// scheme — part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanScheme {
    /// Algorithm 1 per layer (`Het`).
    Heterogeneous,
    /// Best single policy for the whole network (`Hom`).
    BestHomogeneous,
}

/// Version tag of the [`PlanKey::stable_bytes`] wire encoding.
///
/// The in-process FNV hash in [`PlanKey::hash64`] is an implementation
/// detail that may change between builds; anything that crosses a
/// process boundary — the consistent-hash ring in `smm-fleet`, the
/// `migrate`/`dump` protocol verbs — must use the *stable* encoding,
/// which is pinned by this version number and by golden-vector tests.
/// Bump the version whenever the byte layout changes so a router and a
/// node built from different revisions can never silently disagree
/// about shard ownership.
pub const KEY_HASH_VERSION: u32 = 1;

/// Canonical cache key for one planning input. The encoding is shared,
/// so cloning a key (into the cache, out of the [`KeyMemo`]) copies no
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    encoding: Arc<[u8]>,
    hash: u64,
}

impl PlanKey {
    /// Canonicalize a complete planning input.
    pub fn new(
        net: &Network,
        acc: &AcceleratorConfig,
        cfg: &ManagerConfig,
        scheme: PlanScheme,
    ) -> Self {
        Self::encode(net, acc, *cfg, scheme).finish()
    }

    /// Canonicalize a [`PlanSpec`] against its resolved network: the
    /// [`new`](Self::new) encoding extended with the spec's batch knob,
    /// so every field of the spec participates in the key. `net` must be
    /// `spec.resolve()`'s result (resolution is kept separate so callers
    /// that already hold the network don't re-parse it).
    pub fn from_spec(spec: &PlanSpec, net: &Network) -> Self {
        let mut enc = Self::encode(net, &spec.accelerator, spec.config, spec.scheme);
        enc.u64(spec.batch);
        enc.finish()
    }

    fn encode(
        net: &Network,
        acc: &AcceleratorConfig,
        cfg: ManagerConfig,
        scheme: PlanScheme,
    ) -> Encoder {
        let mut enc = Encoder::default();
        enc.str_field(&net.name);
        enc.u64(net.layers.len() as u64);
        for l in &net.layers {
            enc.str_field(&l.name);
            enc.str_field(l.kind.code());
            let s = &l.shape;
            for v in [
                s.ifmap_h,
                s.ifmap_w,
                s.in_channels,
                s.filter_h,
                s.filter_w,
                s.num_filters,
                s.stride,
                s.padding,
                s.depthwise as u32,
            ] {
                enc.u64(v as u64);
            }
        }
        for v in [
            acc.pe_rows as u64,
            acc.pe_cols as u64,
            acc.ops_per_cycle,
            acc.data_width.bits(),
            acc.glb.bytes(),
            acc.dram_bytes_per_cycle,
        ] {
            enc.u64(v);
        }
        enc.u64(match cfg.objective {
            Objective::Accesses => 0,
            Objective::Latency => 1,
        });
        enc.u64(cfg.allow_prefetch as u64);
        enc.u64(cfg.inter_layer_reuse as u64);
        enc.u64(match cfg.scheduler {
            crate::SchedulerKind::Greedy => 0,
            crate::SchedulerKind::Global => 1,
        });
        enc.u64(match scheme {
            PlanScheme::Heterogeneous => 0,
            PlanScheme::BestHomogeneous => 1,
        });
        enc
    }

    /// The canonical 64-bit hash (FNV-1a over the encoding).
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// The versioned wire encoding of this key: [`KEY_HASH_VERSION`] as
    /// a little-endian `u32`, followed by the canonical field encoding
    /// (every integer little-endian, every string length-prefixed).
    ///
    /// This is the byte string the `migrate`/`dump` protocol verbs ship
    /// between fleet nodes, and the input to
    /// [`stable_hash64`](Self::stable_hash64), so its layout is part of the wire
    /// protocol — see [`KEY_HASH_VERSION`].
    pub fn stable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.encoding.len());
        out.extend_from_slice(&KEY_HASH_VERSION.to_le_bytes());
        out.extend_from_slice(&self.encoding);
        out
    }

    /// The stable shard-ownership hash: FNV-1a 64 over
    /// [`stable_bytes`](Self::stable_bytes). Every node and router in a
    /// fleet computes ring placement from this value, so it is pinned
    /// by golden-vector tests and versioned via [`KEY_HASH_VERSION`].
    /// Hashes the version prefix and the encoding in place, without
    /// building the byte string.
    pub fn stable_hash64(&self) -> u64 {
        fnv1a(
            fnv1a(FNV_OFFSET, &KEY_HASH_VERSION.to_le_bytes()),
            &self.encoding,
        )
    }

    /// [`stable_bytes`](Self::stable_bytes) as lowercase hex, the form
    /// used in the JSON protocol (`"key"` fields of `migrate`/`dump`).
    pub fn stable_hex(&self) -> String {
        let bytes = self.stable_bytes();
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    /// Reconstruct a key from its [`stable_bytes`](Self::stable_bytes)
    /// form, rejecting unknown encoding versions.
    pub fn from_stable_bytes(bytes: &[u8]) -> Result<PlanKey, String> {
        if bytes.len() < 4 {
            return Err("stable key too short for a version prefix".into());
        }
        let version = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if version != KEY_HASH_VERSION {
            return Err(format!(
                "unsupported key encoding version {version} (this build speaks {KEY_HASH_VERSION})"
            ));
        }
        let encoding: Arc<[u8]> = bytes[4..].into();
        let hash = fnv1a(FNV_OFFSET, &encoding);
        Ok(PlanKey { encoding, hash })
    }

    /// Reconstruct a key from [`stable_hex`](Self::stable_hex).
    pub fn from_stable_hex(hex: &str) -> Result<PlanKey, String> {
        if !hex.len().is_multiple_of(2) {
            return Err("stable key hex must have even length".into());
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            let pair = hex
                .get(i..i + 2)
                .ok_or_else(|| "stable key hex is not ASCII".to_string())?;
            bytes.push(
                u8::from_str_radix(pair, 16)
                    .map_err(|_| format!("stable key hex has a non-hex pair {pair:?}"))?,
            );
        }
        Self::from_stable_bytes(&bytes)
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte slice, continuing from `hash` (start from
/// [`FNV_OFFSET`]) — the same step the [`Encoder`] applies
/// incrementally.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// FNV-1a accumulator that also keeps the canonical byte encoding so
/// key equality can be exact.
#[derive(Debug)]
struct Encoder {
    bytes: Vec<u8>,
    hash: u64,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder {
            bytes: Vec::with_capacity(256),
            hash: FNV_OFFSET,
        }
    }
}

impl Encoder {
    fn finish(self) -> PlanKey {
        PlanKey {
            encoding: self.bytes.into(),
            hash: self.hash,
        }
    }

    fn push(&mut self, b: u8) {
        self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        self.bytes.push(b);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.push(b);
        }
    }

    /// Length-prefixed string, so `("ab", "c")` and `("a", "bc")` cannot
    /// collide.
    fn str_field(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.push(b);
        }
    }
}

/// Pass-through hasher: [`PlanKey`] already carries a strong 64-bit
/// hash, so the map must not re-hash it through SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PlanKey hashes via write_u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate over all lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<PlanKey, Entry<V>, BuildHasherDefault<IdentityHasher>>,
    tick: u64,
}

/// A bounded, thread-safe, least-recently-used plan cache.
///
/// Generic over the cached value: the planner-facing default caches
/// whole [`ExecutionPlan`]s, while the serving layer caches the
/// *rendered plan JSON* (`Arc<String>`) so cached responses — including
/// plans migrated in from another fleet node — are byte-identical to
/// freshly planned ones.
pub struct PlanCache<V = Arc<ExecutionPlan>> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    // Statistics use Relaxed ordering throughout: they are monotone
    // counters read only for reporting, never used to publish data or
    // establish happens-before; the map itself is protected by `inner`.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> std::fmt::Debug for PlanCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl<V: Clone> PlanCache<V> {
    /// A cache holding at most `capacity` plans. Capacity 0 disables
    /// caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::default(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look a plan up, refreshing its LRU position on a hit.
    pub fn get(&self, key: &PlanKey) -> Option<V> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            smm_obs::add(smm_obs::Counter::PlanCacheMisses, 1);
        }
        hit
    }

    /// [`get`](Self::get) that counts a hit but leaves a miss uncounted:
    /// the first look of a request whose miss is counted later, by the
    /// [`get`](Self::get) of the path that goes on to plan. A request
    /// then counts at most one miss however many times it looks.
    pub fn probe(&self, key: &PlanKey) -> Option<V> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.map.get_mut(key)?;
        e.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        smm_obs::add(smm_obs::Counter::PlanCacheHits, 1);
        Some(e.value.clone())
    }

    /// Whether `key` is cached, without promoting it or touching the
    /// hit/miss statistics. The pre-warm controller probes with this so
    /// its background checks neither distort [`CacheStats`] nor keep
    /// cold entries artificially warm.
    pub fn peek(&self, key: &PlanKey) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Insert a plan, evicting the least-recently-used entry if the
    /// cache is full. Re-inserting an existing key refreshes its value
    /// and LRU position without evicting.
    pub fn insert(&self, key: PlanKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                smm_obs::add(smm_obs::Counter::PlanCacheEvictions, 1);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// The `n` most-recently-used entries, hottest first, without
    /// touching LRU positions or hit/miss statistics. This is the
    /// export side of warm-cache handoff: a node losing ring ownership
    /// dumps its hottest plans so the new owner starts warm.
    pub fn hottest(&self, n: usize) -> Vec<(PlanKey, V)> {
        let inner = self.inner.lock();
        let mut entries: Vec<(&PlanKey, &Entry<V>)> = inner.map.iter().collect();
        entries.sort_by_key(|(_, e)| std::cmp::Reverse(e.last_used));
        entries
            .into_iter()
            .take(n)
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

/// A bounded memo from a [`PlanSpec`] to its [`PlanKey`] and the key's
/// [`stable_hash64`](PlanKey::stable_hash64).
///
/// A plan key is a pure function of its spec, so a repeat request only
/// needs a lookup: [`key`](Self::key) resolves the network and encodes
/// the key the first time it sees a spec and answers every repeat from
/// memory. Equality is exact (inline topologies compare by their full
/// text), so the memo can never hand out a wrong key, and a spec that
/// fails to resolve is never memoized.
///
/// The memo is bounded by entry count and by bytes: each entry costs
/// its network name, its inline topology text and its key encoding.
/// When an insert would cross either bound the memo is cleared
/// wholesale; an entry larger than the whole byte budget is never
/// stored. Hostile inline topologies can therefore churn the memo but
/// never grow it.
pub struct KeyMemo {
    inner: Mutex<MemoInner>,
    max_entries: usize,
    max_bytes: usize,
}

#[derive(Default)]
struct MemoInner {
    map: HashMap<PlanSpec, (PlanKey, u64)>,
    bytes: usize,
}

impl std::fmt::Debug for KeyMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyMemo")
            .field("len", &self.len())
            .field("bytes", &self.bytes())
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

impl KeyMemo {
    /// A memo holding at most `max_entries` specs and `max_bytes` bytes
    /// of names, inline topology text and key encodings.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        KeyMemo {
            inner: Mutex::new(MemoInner::default()),
            max_entries,
            max_bytes,
        }
    }

    /// The plan key of `spec` and its stable hash: from the memo, or by
    /// resolving the network and encoding the key (then memoized).
    ///
    /// # Errors
    ///
    /// The spec's resolution error (unknown model, bad topology),
    /// exactly as [`PlanSpec::resolve`] reports it.
    pub fn key(&self, spec: &PlanSpec) -> Result<(PlanKey, u64), PlanError> {
        if let Some((key, hash)) = self.inner.lock().map.get(spec) {
            return Ok((key.clone(), *hash));
        }
        let key = spec.cache_key(&spec.resolve()?);
        let hash = key.stable_hash64();
        let cost = match &spec.network {
            NetworkRef::Zoo(name) => name.len(),
            NetworkRef::Inline { name, topology } => name.len() + topology.len(),
        } + key.encoding.len();
        if cost <= self.max_bytes && self.max_entries > 0 {
            let mut inner = self.inner.lock();
            if inner.map.len() >= self.max_entries || inner.bytes + cost > self.max_bytes {
                inner.map.clear();
                inner.bytes = 0;
            }
            // Another thread may have memoized the spec meanwhile; its
            // cost is already counted then.
            if inner
                .map
                .insert(spec.clone(), (key.clone(), hash))
                .is_none()
            {
                inner.bytes += cost;
            }
        }
        Ok((key, hash))
    }

    /// Specs currently memoized.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the memo holds no spec.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the byte bound.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manager, ManagerConfig};
    use proptest::prelude::*;
    use smm_arch::ByteSize;
    use smm_model::{topology, zoo};

    fn acc(kb: u64) -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(kb))
    }

    fn key(net: &Network, kb: u64) -> PlanKey {
        PlanKey::new(
            net,
            &acc(kb),
            &ManagerConfig::new(Objective::Accesses),
            PlanScheme::Heterogeneous,
        )
    }

    #[test]
    fn reparsed_topology_keys_equal() {
        let net = zoo::resnet18();
        let reparsed = topology::parse(net.name.clone(), &topology::write(&net)).unwrap();
        assert_eq!(key(&net, 256), key(&reparsed, 256));
    }

    #[test]
    fn every_input_component_changes_the_key() {
        let net = zoo::mobilenet();
        let base = key(&net, 256);
        assert_ne!(base, key(&net, 512), "GLB size must be in the key");
        assert_ne!(base, key(&zoo::mobilenetv2(), 256));
        let cfg = ManagerConfig::new(Objective::Accesses);
        let a = acc(256);
        assert_ne!(
            base,
            PlanKey::new(&net, &a, &cfg, PlanScheme::BestHomogeneous)
        );
        assert_ne!(
            base,
            PlanKey::new(
                &net,
                &a,
                &ManagerConfig::new(Objective::Latency),
                PlanScheme::Heterogeneous
            )
        );
        assert_ne!(
            base,
            PlanKey::new(
                &net,
                &a,
                &cfg.with_prefetch(false),
                PlanScheme::Heterogeneous
            )
        );
        assert_ne!(
            base,
            PlanKey::new(
                &net,
                &a,
                &cfg.with_inter_layer_reuse(true),
                PlanScheme::Heterogeneous
            )
        );
        assert_ne!(
            base,
            PlanKey::new(
                &net,
                &a,
                &cfg.with_scheduler(crate::SchedulerKind::Global),
                PlanScheme::Heterogeneous
            ),
            "scheduler choice must be in the key"
        );
        assert_ne!(
            base,
            PlanKey::new(
                &net,
                &a.with_data_width(smm_arch::DataWidth::W16),
                &cfg,
                PlanScheme::Heterogeneous
            )
        );
    }

    #[test]
    fn stable_bytes_round_trips_and_rejects_bad_versions() {
        let net = zoo::resnet18();
        let k = key(&net, 256);
        let bytes = k.stable_bytes();
        assert_eq!(&bytes[..4], &KEY_HASH_VERSION.to_le_bytes());
        let back = PlanKey::from_stable_bytes(&bytes).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.hash64(), k.hash64());
        assert_eq!(back.stable_hash64(), k.stable_hash64());
        assert_eq!(PlanKey::from_stable_hex(&k.stable_hex()).unwrap(), k);

        // Unknown version, truncated input, and garbage hex all error.
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert!(PlanKey::from_stable_bytes(&wrong).is_err());
        assert!(PlanKey::from_stable_bytes(&bytes[..3]).is_err());
        assert!(PlanKey::from_stable_hex("zz").is_err());
        assert!(PlanKey::from_stable_hex("abc").is_err());
    }

    /// Golden vectors for the versioned wire encoding. These constants
    /// pin the byte layout across builds: a router and a node that
    /// disagree on any of them would silently disagree on shard
    /// ownership, so a failure here means [`KEY_HASH_VERSION`] must be
    /// bumped and every fleet component rebuilt together.
    #[test]
    fn stable_encoding_golden_vectors() {
        // A minimal hand-built network, so the expected bytes can be
        // derived from the documented encoding by hand.
        let layer = smm_model::Layer::new(
            "l0".to_string(),
            smm_model::LayerKind::Conv,
            smm_model::LayerShape {
                ifmap_h: 8,
                ifmap_w: 8,
                in_channels: 3,
                filter_h: 3,
                filter_w: 3,
                num_filters: 4,
                stride: 1,
                padding: 0,
                depthwise: false,
            },
        )
        .unwrap();
        let net = Network::new("t", vec![layer]).unwrap();
        let k = key(&net, 64);
        let hex = k.stable_hex();
        // version 1 LE · len("t")=1 LE · "t" · layer count 1 LE ·
        // len("l0")=2 LE · "l0" — every integer little-endian u64,
        // every string length-prefixed.
        assert!(
            hex.starts_with("01000000010000000000000074010000000000000002000000000000006c30"),
            "prefix changed: {hex}"
        );
        assert_eq!(k.stable_hash64(), GOLDEN_TINY_HASH, "hash: {hex}");

        // Two full-zoo keys, pinning the network/accelerator encoding.
        assert_eq!(
            key(&zoo::resnet18(), 64).stable_hash64(),
            GOLDEN_RESNET18_64_HASH
        );
        assert_eq!(
            key(&zoo::mobilenetv2(), 256).stable_hash64(),
            GOLDEN_MOBILENETV2_256_HASH
        );
    }

    const GOLDEN_TINY_HASH: u64 = 0x7a4a_a8ed_e812_1d1f;
    const GOLDEN_RESNET18_64_HASH: u64 = 0xdecf_f1e2_ad01_b666;
    const GOLDEN_MOBILENETV2_256_HASH: u64 = 0x1d60_71bd_ec8f_fc49;

    #[test]
    fn hottest_returns_most_recent_first_without_touching_stats() {
        let cache: PlanCache<Arc<String>> = PlanCache::new(8);
        let nets = [zoo::resnet18(), zoo::mobilenet(), zoo::mobilenetv2()];
        for (i, n) in nets.iter().enumerate() {
            cache.insert(key(n, 256), Arc::new(format!("plan-{i}")));
        }
        // Touch the oldest so it becomes hottest.
        assert!(cache.get(&key(&nets[0], 256)).is_some());
        let before = cache.stats();
        let hot = cache.hottest(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, key(&nets[0], 256));
        assert_eq!(*hot[0].1, "plan-0");
        assert_eq!(hot[1].0, key(&nets[2], 256));
        let after = cache.stats();
        assert_eq!(before, after, "hottest must not perturb statistics");
        assert_eq!(cache.hottest(100).len(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let nets = [zoo::resnet18(), zoo::mobilenet(), zoo::mobilenetv2()];
        let m = Manager::new(acc(256), ManagerConfig::new(Objective::Accesses));
        let plans: Vec<Arc<ExecutionPlan>> = nets
            .iter()
            .map(|n| Arc::new(m.heterogeneous(n).unwrap()))
            .collect();
        let keys: Vec<PlanKey> = nets.iter().map(|n| key(n, 256)).collect();

        cache.insert(keys[0].clone(), plans[0].clone());
        cache.insert(keys[1].clone(), plans[1].clone());
        // Touch key 0 so key 1 becomes the LRU entry.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[2].clone(), plans[2].clone());
        assert!(cache.get(&keys[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[2]).is_some());

        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let cache = PlanCache::new(1);
        let net = zoo::resnet18();
        let m = Manager::new(acc(256), ManagerConfig::new(Objective::Accesses));
        let plan = Arc::new(m.heterogeneous(&net).unwrap());
        cache.insert(key(&net, 256), plan.clone());
        cache.insert(key(&net, 256), plan);
        let s = cache.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.len, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let net = zoo::resnet18();
        let m = Manager::new(acc(256), ManagerConfig::new(Objective::Accesses));
        cache.insert(key(&net, 256), Arc::new(m.heterogeneous(&net).unwrap()));
        assert!(cache.get(&key(&net, 256)).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    fn spec(network: NetworkRef, kb: u64) -> PlanSpec {
        PlanSpec::new(
            network,
            acc(kb),
            ManagerConfig::new(Objective::Accesses),
            PlanScheme::Heterogeneous,
        )
    }

    /// What the memo must reproduce: the key of the resolved spec.
    fn direct(spec: &PlanSpec) -> (PlanKey, u64) {
        let key = spec.cache_key(&spec.resolve().unwrap());
        let hash = key.stable_hash64();
        (key, hash)
    }

    #[test]
    fn stable_hash_is_fnv_over_the_stable_bytes() {
        let k = key(&zoo::googlenet(), 128);
        assert_eq!(
            k.stable_hash64(),
            fnv1a(FNV_OFFSET, &k.stable_bytes()),
            "in-place hashing must match the wire bytes"
        );
    }

    #[test]
    fn probe_counts_hits_but_not_misses() {
        let cache: PlanCache<Arc<String>> = PlanCache::new(4);
        let k = key(&zoo::resnet18(), 64);
        assert!(cache.probe(&k).is_none());
        assert_eq!(cache.stats().misses, 0, "a probe miss is not counted");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), Arc::new("plan".into()));
        assert!(cache.probe(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn memo_serves_repeats_and_inline_zoo_csv_shares_the_zoo_key() {
        let memo = KeyMemo::new(16, 1 << 20);
        let zoo_spec = spec(NetworkRef::Zoo("resnet18".into()), 64);
        let first = memo.key(&zoo_spec).unwrap();
        assert_eq!(first, direct(&zoo_spec));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.key(&zoo_spec).unwrap(), first, "repeat is a lookup");
        assert_eq!(memo.len(), 1);

        // The zoo model's CSV under its own name: another spec, the
        // same key (so the same cache entry and the same ring owner).
        let inline = spec(NetworkRef::from_network(&zoo::resnet18()), 64);
        assert_eq!(memo.key(&inline).unwrap(), first);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_case_variants_share_a_key() {
        let memo = KeyMemo::new(16, 1 << 20);
        let keys: Vec<(PlanKey, u64)> = ["mobilenet", "MobileNet", "MOBILENET", "mobilenetv1"]
            .into_iter()
            .map(|name| memo.key(&spec(NetworkRef::Zoo(name.into()), 128)).unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "{keys:?}");
        assert_eq!(memo.len(), 4, "each spelling is its own exact spec");
    }

    #[test]
    fn memo_never_stores_unknown_models_or_bad_topologies() {
        let memo = KeyMemo::new(16, 1 << 20);
        for network in [
            NetworkRef::Zoo("no-such-model".into()),
            NetworkRef::Inline {
                name: "bad".into(),
                topology: "x, 1, 2,".into(),
            },
        ] {
            let s = spec(network, 64);
            let expected = s.resolve().unwrap_err();
            for _ in 0..2 {
                assert_eq!(memo.key(&s).unwrap_err(), expected);
            }
        }
        assert!(memo.is_empty());
        assert_eq!(memo.bytes(), 0);
    }

    #[test]
    fn memo_stays_within_its_budgets_under_distinct_inline_topologies() {
        // One memo bound by entries, one by bytes: each bound must hold
        // on its own.
        for (max_entries, max_bytes) in [(64, 1 << 30), (1 << 20, 8 * 1024)] {
            let memo = KeyMemo::new(max_entries, max_bytes);
            let mut peak = 0;
            for i in 0..10_000u32 {
                let topology = format!("l, {}, 8, 3, 3, {}, 8, 1,", 8 + i % 97, 1 + i / 97);
                let s = spec(
                    NetworkRef::Inline {
                        name: format!("t{i}"),
                        topology,
                    },
                    64,
                );
                assert_eq!(memo.key(&s).unwrap(), direct(&s));
                assert!(memo.len() <= max_entries, "{memo:?}");
                assert!(memo.bytes() <= max_bytes, "{memo:?}");
                peak = peak.max(memo.len());
            }
            assert!(peak > 1, "the memo must hold entries between clears");
        }

        // An entry larger than the whole byte budget is answered but
        // never stored.
        let tiny = KeyMemo::new(64, 16);
        let s = spec(NetworkRef::Zoo("resnet18".into()), 64);
        assert_eq!(tiny.key(&s).unwrap(), direct(&s));
        assert!(tiny.is_empty());
    }

    proptest! {
        /// The memoized key and stable hash equal the directly derived
        /// ones for random zoo and inline-CSV requests, on the first
        /// look and on the repeat.
        #[test]
        fn memoized_key_equals_the_resolved_key(
            model in 0usize..12,
            glb_kb in 1u64..2048,
            knobs in 0u8..32,
            inline in any::<bool>(),
        ) {
            const MODELS: [&str; 12] = [
                "efficientnetb0", "googlenet", "mnasnet", "mobilenet", "mobilenetv2",
                "resnet18", "resnet34", "vgg16", "alexnet", "squeezenet", "bert-tiny",
                "gemm-bench",
            ];
            let objective = if knobs & 1 == 0 { Objective::Accesses } else { Objective::Latency };
            let scheduler = if knobs & 16 == 0 {
                crate::SchedulerKind::Greedy
            } else {
                crate::SchedulerKind::Global
            };
            let network = if inline {
                NetworkRef::from_network(&zoo::by_name(MODELS[model]).unwrap())
            } else {
                NetworkRef::Zoo(MODELS[model].into())
            };
            let s = PlanSpec::new(
                network,
                acc(glb_kb),
                ManagerConfig::new(objective)
                    .with_prefetch(knobs & 2 == 0)
                    .with_inter_layer_reuse(knobs & 4 != 0)
                    .with_scheduler(scheduler),
                if knobs & 8 == 0 { PlanScheme::Heterogeneous } else { PlanScheme::BestHomogeneous },
            );
            let memo = KeyMemo::new(4, 1 << 20);
            let expected = direct(&s);
            prop_assert_eq!(memo.key(&s).unwrap(), expected.clone());
            prop_assert_eq!(memo.key(&s).unwrap(), expected);
        }
    }

    proptest! {
        /// Round-tripping any topology through the CSV format preserves
        /// the cache key, and mutating any single layer dimension
        /// changes it.
        #[test]
        fn key_canonicalization_roundtrip_and_mutation(
            layer_count in 1usize..5,
            seed in 0u64..1000,
            bump_field in 0usize..6,
        ) {
            // Build a small deterministic network from the seed.
            let mut layers = Vec::new();
            for i in 0..layer_count {
                let r = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
                let shape = smm_model::LayerShape {
                    ifmap_h: 4 + (r % 29) as u32,
                    ifmap_w: 4 + ((r >> 8) % 29) as u32,
                    in_channels: 1 + ((r >> 16) % 16) as u32,
                    filter_h: 1 + ((r >> 24) % 3) as u32,
                    filter_w: 1 + ((r >> 32) % 3) as u32,
                    num_filters: 1 + ((r >> 40) % 16) as u32,
                    stride: 1 + ((r >> 48) % 2) as u32,
                    padding: ((r >> 52) % 2) as u32,
                    depthwise: false,
                };
                prop_assume!(shape.validate().is_ok());
                layers.push(
                    smm_model::Layer::new(format!("l{i}"), smm_model::LayerKind::Conv, shape)
                        .unwrap(),
                );
            }
            let net = Network::new("prop", layers).unwrap();

            // Same topology re-parsed from its CSV form: identical key.
            let reparsed = topology::parse("prop", &topology::write(&net)).unwrap();
            prop_assert_eq!(key(&net, 256), key(&reparsed, 256));

            // Any mutation of one layer dimension: different key.
            let mut mutated = net.clone();
            let shape = &mut mutated.layers[0].shape;
            match bump_field {
                0 => shape.ifmap_h += 1,
                1 => shape.ifmap_w += 1,
                2 => shape.in_channels += 1,
                3 => shape.num_filters += 1,
                4 => shape.stride += 1,
                _ => shape.padding += 1,
            }
            prop_assert!(key(&net, 256) != key(&mutated, 256));
        }
    }
}
