//! The replay engine: a unified scratchpad with per-operand traffic
//! attribution and peak-residency tracking.

use crate::program::{Command, CommandMeta};
use crate::resolver::{AddressResolver, ResolvedCommand};
use smm_model::LayerShape;
use smm_policy::{AccessCounts, PolicyEstimate};
use smm_trace::Scratchpad;
use std::fmt;
use std::ops::Range;

/// Replay failure: the schedule needed more scratchpad than the
/// estimator's memory requirement — a bug in one of the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule replay failed: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// Observed traffic and residency of one replayed layer schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Replay {
    /// Ifmap elements read from DRAM.
    pub ifmap_loads: u64,
    /// Filter elements read from DRAM.
    pub filter_loads: u64,
    /// Ofmap elements written to DRAM (final stores *and* partial-sum
    /// spills — the replay cannot distinguish them, the estimator can).
    pub ofmap_writes: u64,
    /// Ofmap elements read back from DRAM (partial-sum spill re-loads).
    pub ofmap_reads: u64,
    /// Peak simultaneously-resident elements.
    pub peak_resident: u64,
}

impl Replay {
    /// Total elements moved.
    pub fn total(&self) -> u64 {
        self.ifmap_loads + self.filter_loads + self.ofmap_writes + self.ofmap_reads
    }

    /// Does the replay agree with the estimator, both on traffic and on
    /// the capacity bound?
    pub fn matches(&self, est: &PolicyEstimate) -> bool {
        self.ifmap_loads == est.accesses.ifmap_loads
            && self.filter_loads == est.accesses.filter_loads
            && self.ofmap_writes == est.accesses.ofmap_stores + est.accesses.psum_spill_stores
            && self.ofmap_reads == est.accesses.psum_spill_loads
            && self.peak_resident <= est.resident.total()
    }

    /// The replayed traffic as estimator-shaped counts (spill stores are
    /// folded into `ofmap_stores`).
    pub fn as_access_counts(&self) -> AccessCounts {
        AccessCounts {
            ifmap_loads: self.ifmap_loads,
            filter_loads: self.filter_loads,
            ofmap_stores: self.ofmap_writes,
            psum_spill_stores: 0,
            psum_spill_loads: self.ofmap_reads,
        }
    }
}

/// The scheduling engine: one unified scratchpad (the GLB), a checked
/// address resolver, and traffic attribution per operand.
pub struct Engine {
    map: AddressResolver,
    sp: Scratchpad,
    shape: LayerShape,
    pub replay: Replay,
    record: Option<Vec<Command>>,
    meta: Option<Vec<CommandMeta>>,
}

impl Engine {
    /// Build an engine with a scratchpad of exactly `capacity` elements
    /// (the estimator's single-copy footprint).
    ///
    /// # Panics
    /// If the layer's address space overflows `u64` — impossible for
    /// shapes accepted by `LayerShape::validate`.
    pub fn new(shape: &LayerShape, capacity: u64) -> Self {
        let map = AddressResolver::new(shape).expect("layer address space fits in u64");
        Engine {
            map,
            sp: Scratchpad::new(capacity),
            shape: *shape,
            replay: Replay::default(),
            record: None,
            meta: None,
        }
    }

    /// Same engine, but recording every command it executes (for
    /// [`crate::Program`] lowering).
    pub fn recording(shape: &LayerShape, capacity: u64) -> Self {
        let mut e = Engine::new(shape, capacity);
        e.record = Some(Vec::new());
        e.meta = Some(Vec::new());
        e
    }

    /// Take the recorded command stream (empty unless built with
    /// [`recording`](Self::recording)).
    pub fn take_commands(&mut self) -> Vec<Command> {
        self.record.take().unwrap_or_default()
    }

    /// Take the per-command measurements recorded alongside the command
    /// stream (parallel to [`take_commands`](Self::take_commands)).
    pub fn take_meta(&mut self) -> Vec<CommandMeta> {
        self.meta.take().unwrap_or_default()
    }

    fn push_cmd(&mut self, cmd: Command) {
        smm_obs::add(smm_obs::Counter::ReplayDmaCommands, 1);
        if let Some(r) = &mut self.record {
            r.push(cmd);
        }
    }

    /// Record the measurement for the command pushed last. Called after
    /// the operation executed, so `dram_elems` is the dedup-aware charge
    /// and `resident_after` reflects the post-command footprint. Error
    /// paths may skip this, but they abort the whole replay, so the two
    /// recorded vectors only ever reach callers in sync.
    fn note(&mut self, dram_elems: u64, is_write: bool) {
        if let Some(m) = &mut self.meta {
            m.push(CommandMeta {
                dram_elems,
                is_write,
                resident_after: self.sp.resident_count(),
            });
        }
    }

    fn track_peak(&mut self) {
        self.replay.peak_resident = self.replay.peak_resident.max(self.sp.resident_count());
    }

    fn charged_fill(&mut self, range: Range<u64>) -> Result<u64, ExecError> {
        let n = self.sp.fill(range).map_err(|e| ExecError {
            message: e.to_string(),
        })?;
        self.track_peak();
        Ok(n)
    }

    /// Bring padded-ifmap rows of one channel on-chip (misses charged).
    pub fn fill_ifmap_rows(&mut self, c: u64, rows: Range<u64>) -> Result<(), ExecError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.push_cmd(Command::FillIfmapRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ifmap_rows(c, rows);
        let n = self.charged_fill(r)?;
        self.replay.ifmap_loads += n;
        self.note(n, false);
        Ok(())
    }

    /// Stream padded-ifmap rows through without residency (burst transit
    /// of rows between or after the windows; each element still crosses
    /// the interface once, as the estimator counts).
    pub fn stream_ifmap_rows(&mut self, c: u64, rows: Range<u64>) {
        if rows.is_empty() {
            return;
        }
        self.push_cmd(Command::StreamIfmapRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ifmap_rows(c, rows);
        let n = r.end - r.start;
        self.replay.ifmap_loads += n;
        self.note(n, false);
    }

    /// Drop padded-ifmap rows of one channel.
    pub fn evict_ifmap_rows(&mut self, c: u64, rows: Range<u64>) {
        if rows.is_empty() {
            return;
        }
        self.push_cmd(Command::EvictIfmapRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ifmap_rows(c, rows);
        self.sp.evict(r);
        self.note(0, false);
    }

    /// Drop the whole ifmap region.
    pub fn evict_ifmap_all(&mut self) {
        for c in 0..self.shape.in_channels as u64 {
            self.evict_ifmap_rows(c, 0..self.shape.padded_h() as u64);
        }
    }

    /// Bring whole filters on-chip.
    pub fn fill_filters(&mut self, fs: Range<u64>) -> Result<(), ExecError> {
        if fs.is_empty() {
            return Ok(());
        }
        self.push_cmd(Command::FillFilters {
            filters: fs.clone(),
        });
        let r = self.map.filters(fs);
        let n = self.charged_fill(r)?;
        self.replay.filter_loads += n;
        self.note(n, false);
        Ok(())
    }

    /// Stream whole filters through without residency.
    pub fn stream_filters(&mut self, fs: Range<u64>) {
        if fs.is_empty() {
            return;
        }
        self.push_cmd(Command::StreamFilters {
            filters: fs.clone(),
        });
        let r = self.map.filters(fs);
        let n = r.end - r.start;
        self.replay.filter_loads += n;
        self.note(n, false);
    }

    /// Drop whole filters.
    pub fn evict_filters(&mut self, fs: Range<u64>) {
        if fs.is_empty() {
            return;
        }
        self.push_cmd(Command::EvictFilters {
            filters: fs.clone(),
        });
        let r = self.map.filters(fs);
        self.sp.evict(r);
        self.note(0, false);
    }

    /// Bring channel `c` of every filter in `fs` on-chip: one command
    /// for the strided block, charged run by run.
    pub fn fill_filter_channel(&mut self, fs: Range<u64>, c: u64) -> Result<(), ExecError> {
        if fs.is_empty() {
            return Ok(());
        }
        let cmd = Command::FillFilterChannel {
            filters: fs,
            channel: c,
        };
        let block = self.filter_block(&cmd);
        self.push_cmd(cmd);
        let mut n = 0;
        for run in block.runs() {
            n += self.charged_fill(run)?;
        }
        self.replay.filter_loads += n;
        self.note(n, false);
        Ok(())
    }

    /// Drop channel `c` of every filter in `fs`.
    pub fn evict_filter_channel(&mut self, fs: Range<u64>, c: u64) {
        if fs.is_empty() {
            return;
        }
        let cmd = Command::EvictFilterChannel {
            filters: fs,
            channel: c,
        };
        let block = self.filter_block(&cmd);
        self.push_cmd(cmd);
        for run in block.runs() {
            self.sp.evict(run);
        }
        self.note(0, false);
    }

    fn filter_block(&self, cmd: &Command) -> ResolvedCommand {
        self.map
            .resolve(0, cmd)
            .expect("engine-generated filter-channel block resolves")
    }

    /// Allocate space for ofmap rows of one channel (produced on-chip).
    pub fn alloc_ofmap_rows(&mut self, c: u64, rows: Range<u64>) -> Result<(), ExecError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.push_cmd(Command::AllocOfmapRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ofmap_rows(c, rows);
        self.sp.allocate(r).map_err(|e| ExecError {
            message: e.to_string(),
        })?;
        self.track_peak();
        self.note(0, false);
        Ok(())
    }

    /// Write ofmap rows of one channel off-chip and release the space.
    pub fn store_ofmap_rows(&mut self, c: u64, rows: Range<u64>) {
        if rows.is_empty() {
            return;
        }
        self.push_cmd(Command::StoreOfmapRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ofmap_rows(c, rows);
        let n = r.end - r.start;
        self.replay.ofmap_writes += n;
        self.sp.evict(r);
        self.note(n, true);
    }

    /// Re-load previously spilled partial sums (charged as ofmap reads).
    pub fn reload_psum_rows(&mut self, c: u64, rows: Range<u64>) -> Result<(), ExecError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.push_cmd(Command::ReloadPsumRows {
            channel: c,
            rows: rows.clone(),
        });
        let r = self.map.ofmap_rows(c, rows);
        let n = self.charged_fill(r)?;
        self.replay.ofmap_reads += n;
        self.note(n, false);
        Ok(())
    }

    /// The layer shape being replayed.
    pub fn shape(&self) -> &LayerShape {
        &self.shape
    }

    /// The address resolver mapping commands to element ranges (shared
    /// with the static analyzer, so the two mappings cannot drift).
    pub fn resolver(&self) -> &AddressResolver {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> LayerShape {
        LayerShape {
            ifmap_h: 8,
            ifmap_w: 8,
            in_channels: 2,
            filter_h: 3,
            filter_w: 3,
            num_filters: 4,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    #[test]
    fn attribution_by_operand() {
        let s = shape();
        let mut e = Engine::new(&s, 10_000);
        e.fill_ifmap_rows(0, 0..3).unwrap();
        e.fill_filters(0..2).unwrap();
        e.alloc_ofmap_rows(0, 0..1).unwrap();
        e.store_ofmap_rows(0, 0..1);
        assert_eq!(e.replay.ifmap_loads, 3 * 10);
        assert_eq!(e.replay.filter_loads, 2 * 18);
        assert_eq!(e.replay.ofmap_writes, 8);
        assert_eq!(e.replay.ofmap_reads, 0);
    }

    #[test]
    fn refill_is_free_restream_is_not() {
        let s = shape();
        let mut e = Engine::new(&s, 10_000);
        e.fill_ifmap_rows(0, 0..3).unwrap();
        e.fill_ifmap_rows(0, 1..4).unwrap(); // 1 new row
        assert_eq!(e.replay.ifmap_loads, 4 * 10);
        e.stream_ifmap_rows(0, 0..2); // always charged
        assert_eq!(e.replay.ifmap_loads, 6 * 10);
    }

    #[test]
    fn peak_residency_tracked() {
        let s = shape();
        let mut e = Engine::new(&s, 10_000);
        e.fill_ifmap_rows(0, 0..5).unwrap();
        e.evict_ifmap_rows(0, 0..4);
        e.fill_filters(0..1).unwrap();
        assert_eq!(e.replay.peak_resident, 50);
    }

    #[test]
    fn capacity_violation_is_an_error() {
        let s = shape();
        let mut e = Engine::new(&s, 16);
        assert!(e.fill_ifmap_rows(0, 0..3).is_err());
    }

    #[test]
    fn filter_channel_block_is_one_command_charged_per_run() {
        let s = shape();
        let mut e = Engine::recording(&s, 10_000);
        e.fill_filter_channel(0..4, 1).unwrap();
        e.fill_filter_channel(1..3, 1).unwrap(); // already resident
        e.fill_filter_channel(0..4, 0).unwrap();
        assert_eq!(e.replay.filter_loads, 2 * 4 * 9);
        // Both channels of every filter: the whole filter region.
        assert_eq!(e.sp.resident_count(), 4 * s.single_filter_elems());
        e.evict_filter_channel(0..4, 0);
        assert_eq!(e.sp.resident_count(), 4 * 9);
        let meta = e.take_meta();
        assert_eq!(e.take_commands().len(), 4);
        let dram: Vec<u64> = meta.iter().map(|m| m.dram_elems).collect();
        assert_eq!(dram, [36, 0, 36, 0]);
        assert_eq!(meta[2].resident_after, 72);
    }

    #[test]
    fn psum_reload_counts_as_ofmap_read() {
        let s = shape();
        let mut e = Engine::new(&s, 10_000);
        e.alloc_ofmap_rows(0, 0..2).unwrap();
        e.store_ofmap_rows(0, 0..2);
        e.reload_psum_rows(0, 0..2).unwrap();
        assert_eq!(e.replay.ofmap_writes, 16);
        assert_eq!(e.replay.ofmap_reads, 16);
    }
}
