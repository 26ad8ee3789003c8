//! Stream events and the cell registry.
//!
//! Every request the serving layer classifies becomes exactly one
//! [`StreamEvent`]: a timestamp, an outcome [`EventKind`], the observed
//! service latency, and a compact **cell** id. A cell is the unit the
//! windows aggregate over — one (model, GLB size, tenant) combination —
//! interned once into a `u32` by the [`CellRegistry`] so the event
//! itself is a small `Copy` struct that travels through the serve tap's
//! lanes without allocation.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// How a request was ultimately classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Cache hit answered inline on the reactor shard.
    HitInline,
    /// Cache hit discovered by a worker after the queue hop.
    HitWorker,
    /// Cache miss planned from scratch (the expensive path).
    Miss,
    /// Shed by the static queue-capacity bound.
    ShedStatic,
    /// Shed by the EWMA adaptive admission controller.
    ShedAdaptive,
    /// Shed because the predicted miss cost could not meet the
    /// request's deadline (the stream-fed admission decision).
    ShedPredicted,
    /// Deadline expired before or during planning.
    Deadline,
    /// Parse, resolve, planning, or verification error.
    Error,
}

impl EventKind {
    /// All kinds, in rendering order.
    pub const ALL: [EventKind; 8] = [
        EventKind::HitInline,
        EventKind::HitWorker,
        EventKind::Miss,
        EventKind::ShedStatic,
        EventKind::ShedAdaptive,
        EventKind::ShedPredicted,
        EventKind::Deadline,
        EventKind::Error,
    ];

    /// Stable lowercase name (used in JSON views and tests).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HitInline => "hit_inline",
            EventKind::HitWorker => "hit_worker",
            EventKind::Miss => "miss",
            EventKind::ShedStatic => "shed_static",
            EventKind::ShedAdaptive => "shed_adaptive",
            EventKind::ShedPredicted => "shed_predicted",
            EventKind::Deadline => "deadline",
            EventKind::Error => "error",
        }
    }
}

/// One classified request, as it travels shard → collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Event time in microseconds since the tap's epoch.
    pub ts_us: u64,
    /// Interned cell id; see [`CellRegistry`].
    pub cell: u32,
    /// Outcome classification.
    pub kind: EventKind,
    /// Observed service latency in microseconds (0 when the outcome
    /// has no meaningful latency, e.g. sheds).
    pub service_us: u32,
}

/// The identity of one traffic cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMeta {
    /// Model (zoo name) or topology label.
    pub model: String,
    /// Requested GLB size in kB.
    pub glb_kb: u64,
    /// Tenant label; `"-"` when the request carried none.
    pub tenant: String,
}

impl CellMeta {
    /// The `model@glb` (or `model@glb/tenant`) display key used in
    /// reports and `smm top`.
    pub fn display_key(&self) -> String {
        if self.tenant == "-" {
            format!("{}@{}", self.model, self.glb_kb)
        } else {
            format!("{}@{}/{}", self.model, self.glb_kb, self.tenant)
        }
    }
}

/// FNV-1a 64 over the cell identity, for the read-mostly intern map.
fn cell_hash(model: &str, glb_kb: u64, tenant: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(model.as_bytes());
    eat(&[0xff]);
    eat(&glb_kb.to_le_bytes());
    eat(&[0xff]);
    eat(tenant.as_bytes());
    hash
}

#[derive(Default)]
struct RegistryInner {
    /// hash → candidate cell ids (a Vec to survive the astronomically
    /// unlikely 64-bit collision; candidates are verified by string
    /// comparison against `cells`).
    by_hash: HashMap<u64, Vec<u32>>,
    cells: Vec<Arc<CellMeta>>,
}

/// Interns (model, GLB, tenant) triples into dense `u32` cell ids.
///
/// `intern` is called on the serve hot path, so the common case — the
/// cell already exists — takes one read lock and one hash lookup; only
/// the first request of a never-seen cell takes the write lock.
#[derive(Default)]
pub struct CellRegistry {
    inner: RwLock<RegistryInner>,
}

impl CellRegistry {
    /// Intern a cell, returning its id (stable for the registry's
    /// lifetime).
    pub fn intern(&self, model: &str, glb_kb: u64, tenant: &str) -> u32 {
        let hash = cell_hash(model, glb_kb, tenant);
        let matches =
            |meta: &CellMeta| meta.glb_kb == glb_kb && meta.model == model && meta.tenant == tenant;
        {
            let inner = self.inner.read();
            if let Some(ids) = inner.by_hash.get(&hash) {
                for &id in ids {
                    if matches(&inner.cells[id as usize]) {
                        return id;
                    }
                }
            }
        }
        let mut inner = self.inner.write();
        // Re-check under the write lock: another thread may have
        // interned the same cell between the two lock acquisitions.
        if let Some(ids) = inner.by_hash.get(&hash) {
            for &id in ids {
                if matches(&inner.cells[id as usize]) {
                    return id;
                }
            }
        }
        let id = inner.cells.len() as u32;
        inner.cells.push(Arc::new(CellMeta {
            model: model.to_string(),
            glb_kb,
            tenant: tenant.to_string(),
        }));
        inner.by_hash.entry(hash).or_default().push(id);
        id
    }

    /// The identity behind a cell id, if it was ever interned.
    pub fn meta(&self, id: u32) -> Option<Arc<CellMeta>> {
        self.inner.read().cells.get(id as usize).cloned()
    }

    /// Number of distinct cells seen.
    pub fn len(&self) -> usize {
        self.inner.read().cells.len()
    }

    /// Whether no cell was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_distinguishes_every_component() {
        let reg = CellRegistry::default();
        let a = reg.intern("resnet18", 64, "-");
        assert_eq!(reg.intern("resnet18", 64, "-"), a);
        let b = reg.intern("resnet18", 128, "-");
        let c = reg.intern("mobilenet", 64, "-");
        let d = reg.intern("resnet18", 64, "acme");
        assert_eq!(
            [a, b, c, d]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            4
        );
        assert_eq!(reg.len(), 4);
        let meta = reg.meta(d).unwrap();
        assert_eq!(meta.display_key(), "resnet18@64/acme");
        assert_eq!(reg.meta(a).unwrap().display_key(), "resnet18@64");
        assert!(reg.meta(99).is_none());
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let reg = Arc::new(CellRegistry::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| reg.intern("m", i % 8, "-"))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(reg.len(), 8);
    }
}
