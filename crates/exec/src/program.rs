//! DMA command streams.
//!
//! The paper's future work is integrating the technique "into an open
//! source DL compiler such as TVM". The artifact such an integration
//! needs is exactly what the replay engine already performs: an ordered
//! stream of DMA commands. This module records that stream — a concrete,
//! inspectable lowering of a policy decision.

use crate::engine::{ExecError, Replay};
use crate::run::replay_recorded;
use smm_model::LayerShape;
use smm_policy::PolicyEstimate;
use std::fmt;
use std::ops::Range;

/// One DMA-level command of a lowered layer schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Fetch padded-ifmap rows of one channel into the GLB.
    FillIfmapRows { channel: u64, rows: Range<u64> },
    /// Stream padded-ifmap rows through without retaining them.
    StreamIfmapRows { channel: u64, rows: Range<u64> },
    /// Release padded-ifmap rows of one channel.
    EvictIfmapRows { channel: u64, rows: Range<u64> },
    /// Fetch whole filters.
    FillFilters { filters: Range<u64> },
    /// Stream whole filters through.
    StreamFilters { filters: Range<u64> },
    /// Release whole filters.
    EvictFilters { filters: Range<u64> },
    /// Fetch channel `channel` of every filter in `filters`: a strided
    /// block of `F_H·F_W`-element runs, one filter apart.
    FillFilterChannel { filters: Range<u64>, channel: u64 },
    /// Release channel `channel` of every filter in `filters`.
    EvictFilterChannel { filters: Range<u64>, channel: u64 },
    /// Reserve GLB space for ofmap rows of one output channel.
    AllocOfmapRows { channel: u64, rows: Range<u64> },
    /// Write ofmap rows of one output channel off-chip.
    StoreOfmapRows { channel: u64, rows: Range<u64> },
    /// Re-fetch spilled partial sums.
    ReloadPsumRows { channel: u64, rows: Range<u64> },
}

/// Per-command measurements recorded while the command stream was
/// replayed: what the command actually moved over the off-chip
/// interface (after residency dedup — a refill of resident rows moves
/// nothing) and the scratchpad footprint right after it ran. Consumers
/// like the `smm-sim` discrete-event simulator price commands from
/// these numbers instead of re-deriving the engine's dedup semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandMeta {
    /// Elements the command moved over the DRAM interface (0 for
    /// evicts, allocs, and fills whose range was already resident).
    pub dram_elems: u64,
    /// True when the movement was chip→DRAM (ofmap stores).
    pub is_write: bool,
    /// Elements resident in the scratchpad after the command executed.
    pub resident_after: u64,
}

impl Command {
    /// Whether this command moves data over the off-chip interface.
    pub fn touches_dram(&self) -> bool {
        !matches!(
            self,
            Command::EvictIfmapRows { .. }
                | Command::EvictFilters { .. }
                | Command::EvictFilterChannel { .. }
                | Command::AllocOfmapRows { .. }
        )
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::FillIfmapRows { channel, rows } => {
                write!(
                    f,
                    "fill   ifmap  c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
            Command::StreamIfmapRows { channel, rows } => {
                write!(
                    f,
                    "stream ifmap  c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
            Command::EvictIfmapRows { channel, rows } => {
                write!(
                    f,
                    "evict  ifmap  c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
            Command::FillFilters { filters } => {
                write!(f, "fill   filter f{}..f{}", filters.start, filters.end)
            }
            Command::StreamFilters { filters } => {
                write!(f, "stream filter f{}..f{}", filters.start, filters.end)
            }
            Command::EvictFilters { filters } => {
                write!(f, "evict  filter f{}..f{}", filters.start, filters.end)
            }
            Command::FillFilterChannel { filters, channel } => {
                write!(
                    f,
                    "fill   filter f{}..f{} ch {channel}",
                    filters.start, filters.end
                )
            }
            Command::EvictFilterChannel { filters, channel } => {
                write!(
                    f,
                    "evict  filter f{}..f{} ch {channel}",
                    filters.start, filters.end
                )
            }
            Command::AllocOfmapRows { channel, rows } => {
                write!(
                    f,
                    "alloc  ofmap  c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
            Command::StoreOfmapRows { channel, rows } => {
                write!(
                    f,
                    "store  ofmap  c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
            Command::ReloadPsumRows { channel, rows } => {
                write!(
                    f,
                    "reload psum   c{channel} rows {}..{}",
                    rows.start, rows.end
                )
            }
        }
    }
}

/// A lowered layer schedule: the command stream, the per-command
/// measurements recorded while it was replayed, and the traffic it
/// produced.
#[derive(Debug, Clone)]
pub struct Program {
    pub commands: Vec<Command>,
    /// Parallel to `commands`: the measurement of each command.
    pub meta: Vec<CommandMeta>,
    pub replay: Replay,
}

impl Program {
    /// Lower one policy decision into its command stream (replaying it in
    /// the process, so the program is validated as it is produced).
    pub fn lower(shape: &LayerShape, est: &PolicyEstimate) -> Result<Program, ExecError> {
        let _span = smm_obs::span!("exec.lower", "{:?}", est.kind);
        replay_recorded(shape, est)
    }

    /// Human-readable listing.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.commands.iter().enumerate() {
            out.push_str(&format!("{i:>6}  {c}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::{AcceleratorConfig, ByteSize};
    use smm_policy::{estimate, PolicyKind};

    fn small_layer() -> LayerShape {
        LayerShape {
            ifmap_h: 8,
            ifmap_w: 8,
            in_channels: 4,
            filter_h: 3,
            filter_w: 3,
            num_filters: 8,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    fn est(kind: PolicyKind) -> PolicyEstimate {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        estimate(kind, &small_layer(), &acc, false).unwrap()
    }

    #[test]
    fn lowering_produces_a_validated_program() {
        for kind in PolicyKind::NAMED {
            let e = est(kind);
            let p = Program::lower(&small_layer(), &e).unwrap();
            assert!(!p.commands.is_empty(), "{kind:?}");
            assert!(p.replay.matches(&e), "{kind:?}");
        }
    }

    #[test]
    fn meta_is_parallel_and_sums_to_the_replay() {
        for kind in PolicyKind::NAMED {
            let e = est(kind);
            let p = Program::lower(&small_layer(), &e).unwrap();
            assert_eq!(p.meta.len(), p.commands.len(), "{kind:?}");
            let reads: u64 = p
                .meta
                .iter()
                .filter(|m| !m.is_write)
                .map(|m| m.dram_elems)
                .sum();
            let writes: u64 = p
                .meta
                .iter()
                .filter(|m| m.is_write)
                .map(|m| m.dram_elems)
                .sum();
            assert_eq!(
                reads,
                p.replay.ifmap_loads + p.replay.filter_loads + p.replay.ofmap_reads,
                "{kind:?}"
            );
            assert_eq!(writes, p.replay.ofmap_writes, "{kind:?}");
            let peak = p.meta.iter().map(|m| m.resident_after).max().unwrap_or(0);
            assert_eq!(peak, p.replay.peak_resident, "{kind:?}");
            for (c, m) in p.commands.iter().zip(&p.meta) {
                if !c.touches_dram() {
                    assert_eq!(m.dram_elems, 0, "{kind:?}: {c}");
                }
                assert_eq!(
                    m.is_write,
                    matches!(c, Command::StoreOfmapRows { .. }),
                    "{kind:?}: {c}"
                );
            }
        }
    }

    #[test]
    fn listing_is_line_per_command() {
        let e = est(PolicyKind::P2FilterReuse);
        let p = Program::lower(&small_layer(), &e).unwrap();
        assert_eq!(p.listing().lines().count(), p.commands.len());
        assert!(p.listing().contains("fill   ifmap"));
        assert!(p.listing().contains("store  ofmap"));
    }

    #[test]
    fn p1_program_slides_a_window() {
        let e = est(PolicyKind::P1IfmapReuse);
        let p = Program::lower(&small_layer(), &e).unwrap();
        let evicts = p
            .commands
            .iter()
            .filter(|c| matches!(c, Command::EvictIfmapRows { .. }))
            .count();
        assert!(evicts > 4, "a sliding window evicts as it goes: {evicts}");
    }

    #[test]
    fn a_command_stays_four_words() {
        // Streams run to millions of commands; a filter-channel block
        // carries its range without growing the enum.
        assert_eq!(std::mem::size_of::<Command>(), 32);
    }

    #[test]
    fn filter_channel_blocks_list_their_filter_range() {
        let c = Command::FillFilterChannel {
            filters: 0..1024,
            channel: 3,
        };
        assert_eq!(c.to_string(), "fill   filter f0..f1024 ch 3");
    }

    #[test]
    fn touches_dram_classification() {
        assert!(Command::FillFilters { filters: 0..2 }.touches_dram());
        assert!(!Command::EvictFilters { filters: 0..2 }.touches_dram());
        assert!(!Command::AllocOfmapRows {
            channel: 0,
            rows: 0..1
        }
        .touches_dram());
        assert!(Command::ReloadPsumRows {
            channel: 0,
            rows: 0..1
        }
        .touches_dram());
    }
}
