//! Command-stream IR accessors: a checked address resolver shared by the
//! replay engine and the static analyzer.
//!
//! [`Engine`](crate::Engine) computes flat element-address ranges for
//! every DMA command it executes; `smm-lint` re-derives the same ranges
//! to analyze a [`Program`](crate::Program) *without* replaying it. Both
//! go through this one resolver so the two mappings cannot drift: a
//! command resolves to one [`ResolvedCommand`] — an action class, an
//! operand region, and its address runs — or to a [`ResolveError`]
//! anchored to the offending command.
//!
//! All width/element arithmetic here is overflow-checked (`rows ×
//! row_elems` products included): a corrupt stream with pathological
//! ranges produces a line-anchored error, never a silently wrapped
//! address.

use crate::program::Command;
use smm_model::LayerShape;
use std::fmt;
use std::ops::Range;

/// What a command does to its address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Fetch into the scratchpad; already-resident elements are free.
    Fill,
    /// Move through the scratchpad without residency; always charged.
    Stream,
    /// Release residency; no DRAM traffic.
    Evict,
    /// Reserve space for data produced on-chip; no DRAM traffic.
    Alloc,
    /// Write off-chip and release (ofmap stores / psum spills).
    Store,
    /// Re-fetch previously spilled partial sums (charged as reads).
    Reload,
}

impl Action {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Action::Fill => "fill",
            Action::Stream => "stream",
            Action::Evict => "evict",
            Action::Alloc => "alloc",
            Action::Store => "store",
            Action::Reload => "reload",
        }
    }
}

/// Which operand region a command touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Padded input feature map.
    Ifmap,
    /// Filter weights.
    Filter,
    /// Output feature map (including partial sums).
    Ofmap,
}

impl Operand {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Operand::Ifmap => "ifmap",
            Operand::Filter => "filter",
            Operand::Ofmap => "ofmap",
        }
    }
}

/// One command resolved to its flat element addresses: `count` runs of
/// `range.end - range.start` elements, the first at `range` and each
/// next one `stride` elements further on. Row and whole-filter commands
/// are one contiguous run (`count` 1); a filter-channel command is a
/// strided block, one run per filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedCommand {
    /// Action class of the command.
    pub action: Action,
    /// Operand region the runs lie in.
    pub operand: Operand,
    /// The first run of flat element addresses.
    pub range: Range<u64>,
    /// Distance between the starts of consecutive runs.
    pub stride: u64,
    /// Number of runs.
    pub count: u64,
}

impl ResolvedCommand {
    fn contiguous(action: Action, operand: Operand, range: Range<u64>) -> Self {
        let stride = range.end - range.start;
        ResolvedCommand {
            action,
            operand,
            range,
            stride,
            count: 1,
        }
    }

    /// Elements over all runs.
    pub fn elems(&self) -> u64 {
        (self.range.end - self.range.start) * self.count
    }

    /// The runs in address order.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = Range<u64>> + '_ {
        (0..self.count).map(|k| {
            let offset = k * self.stride;
            self.range.start + offset..self.range.end + offset
        })
    }
}

/// A command (or layer) whose addresses cannot be computed: indices out
/// of the layer's bounds, or arithmetic that would overflow `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveError {
    /// Index of the offending command in the stream, when command-scoped.
    pub command: Option<usize>,
    /// What went wrong, with the offending numbers.
    pub message: String,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.command {
            Some(i) => write!(f, "command {i}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Flat element-address layout of one layer, mirroring
/// [`smm_trace::AddressMap`]: ifmap (channel-major over the padded
/// extent, base 0), filters (filter-major), ofmap (channel-major), laid
/// out back to back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressResolver {
    pad_h: u64,
    pad_w: u64,
    in_ch: u64,
    filt_per_f: u64,
    filt_chans: u64,
    num_f: u64,
    out_h: u64,
    out_w: u64,
    out_ch: u64,
    filter_base: u64,
    ofmap_base: u64,
    end: u64,
}

fn mul(a: u64, b: u64, what: &str) -> Result<u64, ResolveError> {
    a.checked_mul(b).ok_or_else(|| ResolveError {
        command: None,
        message: format!("{what}: {a} * {b} overflows u64"),
    })
}

fn add(a: u64, b: u64, what: &str) -> Result<u64, ResolveError> {
    a.checked_add(b).ok_or_else(|| ResolveError {
        command: None,
        message: format!("{what}: {a} + {b} overflows u64"),
    })
}

impl AddressResolver {
    /// Build the layout for `shape`, checking that the whole address
    /// space fits in `u64`.
    pub fn new(shape: &LayerShape) -> Result<Self, ResolveError> {
        let pad_h = u64::from(shape.padded_h());
        let pad_w = u64::from(shape.padded_w());
        let in_ch = u64::from(shape.in_channels);
        let filt_per_f = shape.single_filter_elems();
        let filt_chans = shape.filter_channels();
        let num_f = u64::from(shape.num_filters);
        let (oh, ow) = shape.output_hw();
        let (out_h, out_w) = (u64::from(oh), u64::from(ow));
        let out_ch = u64::from(shape.out_channels());
        let ifmap_elems = mul(
            mul(pad_h, pad_w, "padded ifmap plane")?,
            in_ch,
            "ifmap region",
        )?;
        let filter_elems = mul(filt_per_f, num_f, "filter region")?;
        let ofmap_elems = mul(mul(out_h, out_w, "ofmap plane")?, out_ch, "ofmap region")?;
        let filter_base = ifmap_elems;
        let ofmap_base = add(filter_base, filter_elems, "filter region end")?;
        let end = add(ofmap_base, ofmap_elems, "ofmap region end")?;
        Ok(AddressResolver {
            pad_h,
            pad_w,
            in_ch,
            filt_per_f,
            filt_chans,
            num_f,
            out_h,
            out_w,
            out_ch,
            filter_base,
            ofmap_base,
            end,
        })
    }

    /// Total element footprint of all three regions.
    pub fn total_elems(&self) -> u64 {
        self.end
    }

    /// Address range of the whole ifmap region.
    pub fn ifmap_region(&self) -> Range<u64> {
        0..self.filter_base
    }

    /// Address range of the whole filter region.
    pub fn filter_region(&self) -> Range<u64> {
        self.filter_base..self.ofmap_base
    }

    /// Address range of the whole ofmap region.
    pub fn ofmap_region(&self) -> Range<u64> {
        self.ofmap_base..self.end
    }

    fn checked_ifmap_rows(&self, c: u64, rows: &Range<u64>) -> Result<Range<u64>, ResolveError> {
        let oob = |message: String| ResolveError {
            command: None,
            message,
        };
        if c >= self.in_ch {
            return Err(oob(format!("ifmap channel {c} >= {}", self.in_ch)));
        }
        if rows.start > rows.end || rows.end > self.pad_h {
            return Err(oob(format!(
                "ifmap rows {}..{} outside 0..{}",
                rows.start, rows.end, self.pad_h
            )));
        }
        let first = mul(c, self.pad_h, "ifmap channel offset")?
            .checked_add(rows.start)
            .ok_or_else(|| oob("ifmap row offset overflows u64".into()))?;
        let start = mul(first, self.pad_w, "ifmap row address")?;
        let width = mul(rows.end - rows.start, self.pad_w, "ifmap rows * row_elems")?;
        Ok(start..add(start, width, "ifmap range end")?)
    }

    fn checked_filters(&self, fs: &Range<u64>) -> Result<Range<u64>, ResolveError> {
        if fs.start > fs.end || fs.end > self.num_f {
            return Err(ResolveError {
                command: None,
                message: format!("filters {}..{} outside 0..{}", fs.start, fs.end, self.num_f),
            });
        }
        let start = add(
            self.filter_base,
            mul(fs.start, self.filt_per_f, "filter offset")?,
            "filter start",
        )?;
        let width = mul(fs.end - fs.start, self.filt_per_f, "filters * filter_elems")?;
        Ok(start..add(start, width, "filter range end")?)
    }

    /// Channel `c` of filters `fs`: one `F_H·F_W`-element run per
    /// filter, `filt_per_f` apart.
    fn checked_filter_channel(
        &self,
        action: Action,
        fs: &Range<u64>,
        c: u64,
    ) -> Result<ResolvedCommand, ResolveError> {
        if c >= self.filt_chans {
            return Err(ResolveError {
                command: None,
                message: format!("filter channel {c} >= {}", self.filt_chans),
            });
        }
        let per_channel = self.filt_per_f / self.filt_chans;
        let base = self.checked_filters(fs)?.start;
        let start = add(
            base,
            mul(c, per_channel, "filter channel offset")?,
            "filter channel",
        )?;
        // `fs.end <= num_f` and `c < filt_chans` keep every run inside
        // the filter region, whose end `new` checked, so the later runs'
        // addresses cannot overflow.
        Ok(ResolvedCommand {
            action,
            operand: Operand::Filter,
            range: start..add(start, per_channel, "filter channel end")?,
            stride: self.filt_per_f,
            count: fs.end - fs.start,
        })
    }

    fn checked_ofmap_rows(&self, c: u64, rows: &Range<u64>) -> Result<Range<u64>, ResolveError> {
        let oob = |message: String| ResolveError {
            command: None,
            message,
        };
        if c >= self.out_ch {
            return Err(oob(format!("ofmap channel {c} >= {}", self.out_ch)));
        }
        if rows.start > rows.end || rows.end > self.out_h {
            return Err(oob(format!(
                "ofmap rows {}..{} outside 0..{}",
                rows.start, rows.end, self.out_h
            )));
        }
        let first = mul(c, self.out_h, "ofmap channel offset")?
            .checked_add(rows.start)
            .ok_or_else(|| oob("ofmap row offset overflows u64".into()))?;
        let start = add(
            self.ofmap_base,
            mul(first, self.out_w, "ofmap row address")?,
            "ofmap start",
        )?;
        let width = mul(rows.end - rows.start, self.out_w, "ofmap rows * row_elems")?;
        Ok(start..add(start, width, "ofmap range end")?)
    }

    /// Resolve the command at stream position `index` into its action,
    /// operand, and address runs. Errors are anchored to `index`.
    pub fn resolve(&self, index: usize, cmd: &Command) -> Result<ResolvedCommand, ResolveError> {
        let anchor = |mut e: ResolveError| {
            e.command = Some(index);
            e
        };
        let (action, operand, range) = match cmd {
            Command::FillIfmapRows { channel, rows } => (
                Action::Fill,
                Operand::Ifmap,
                self.checked_ifmap_rows(*channel, rows).map_err(anchor)?,
            ),
            Command::StreamIfmapRows { channel, rows } => (
                Action::Stream,
                Operand::Ifmap,
                self.checked_ifmap_rows(*channel, rows).map_err(anchor)?,
            ),
            Command::EvictIfmapRows { channel, rows } => (
                Action::Evict,
                Operand::Ifmap,
                self.checked_ifmap_rows(*channel, rows).map_err(anchor)?,
            ),
            Command::FillFilters { filters } => (
                Action::Fill,
                Operand::Filter,
                self.checked_filters(filters).map_err(anchor)?,
            ),
            Command::StreamFilters { filters } => (
                Action::Stream,
                Operand::Filter,
                self.checked_filters(filters).map_err(anchor)?,
            ),
            Command::EvictFilters { filters } => (
                Action::Evict,
                Operand::Filter,
                self.checked_filters(filters).map_err(anchor)?,
            ),
            Command::FillFilterChannel { filters, channel } => {
                return self
                    .checked_filter_channel(Action::Fill, filters, *channel)
                    .map_err(anchor);
            }
            Command::EvictFilterChannel { filters, channel } => {
                return self
                    .checked_filter_channel(Action::Evict, filters, *channel)
                    .map_err(anchor);
            }
            Command::AllocOfmapRows { channel, rows } => (
                Action::Alloc,
                Operand::Ofmap,
                self.checked_ofmap_rows(*channel, rows).map_err(anchor)?,
            ),
            Command::StoreOfmapRows { channel, rows } => (
                Action::Store,
                Operand::Ofmap,
                self.checked_ofmap_rows(*channel, rows).map_err(anchor)?,
            ),
            Command::ReloadPsumRows { channel, rows } => (
                Action::Reload,
                Operand::Ofmap,
                self.checked_ofmap_rows(*channel, rows).map_err(anchor)?,
            ),
        };
        Ok(ResolvedCommand::contiguous(action, operand, range))
    }

    /// Address range of padded-ifmap rows `rows` of channel `c`.
    /// Panics on out-of-bounds input — the replay engine only computes
    /// ranges for commands it generated itself.
    pub fn ifmap_rows(&self, c: u64, rows: Range<u64>) -> Range<u64> {
        self.checked_ifmap_rows(c, &rows)
            .expect("engine-generated ifmap range resolves")
    }

    /// Address range of whole filters `fs` (panics like
    /// [`ifmap_rows`](Self::ifmap_rows)).
    pub fn filters(&self, fs: Range<u64>) -> Range<u64> {
        self.checked_filters(&fs)
            .expect("engine-generated filter range resolves")
    }

    /// Address range of ofmap rows `rows` of output channel `c`.
    pub fn ofmap_rows(&self, c: u64, rows: Range<u64>) -> Range<u64> {
        self.checked_ofmap_rows(c, &rows)
            .expect("engine-generated ofmap range resolves")
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

    /// A shape whose operand regions multiply out past `u64::MAX`.
    /// `LayerShape::validate` rejects it, but the resolver must not
    /// trust its caller to have validated.
    fn pathological() -> LayerShape {
        LayerShape {
            ifmap_h: u32::MAX - 2,
            ifmap_w: u32::MAX - 2,
            in_channels: u32::MAX - 2,
            filter_h: 1,
            filter_w: 1,
            num_filters: 1,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    #[test]
    fn layout_matches_the_trace_address_map() {
        let s = shape();
        let r = AddressResolver::new(&s).unwrap();
        let m = smm_trace::AddressMap::new(10, 10, 2, 18, 4, 8, 8, 4);
        assert_eq!(r.total_elems(), m.total_elems());
        assert_eq!(r.ifmap_rows(1, 2..5), m.ifmap_rows(1, 2..5));
        assert_eq!(r.filters(1..3), m.filters(1..3));
        assert_eq!(r.ofmap_rows(2, 0..8).start, m.ofmap(2, 0, 0));
        assert_eq!(
            r.ofmap_rows(2, 0..8).end - r.ofmap_rows(2, 0..8).start,
            8 * 8
        );
    }

    #[test]
    fn resolve_classifies_all_variants() {
        let r = AddressResolver::new(&shape()).unwrap();
        let cases: [(Command, Action, Operand); 6] = [
            (
                Command::FillIfmapRows {
                    channel: 0,
                    rows: 0..3,
                },
                Action::Fill,
                Operand::Ifmap,
            ),
            (
                Command::StreamFilters { filters: 0..2 },
                Action::Stream,
                Operand::Filter,
            ),
            (
                Command::EvictFilterChannel {
                    filters: 1..3,
                    channel: 1,
                },
                Action::Evict,
                Operand::Filter,
            ),
            (
                Command::AllocOfmapRows {
                    channel: 2,
                    rows: 1..4,
                },
                Action::Alloc,
                Operand::Ofmap,
            ),
            (
                Command::StoreOfmapRows {
                    channel: 2,
                    rows: 1..4,
                },
                Action::Store,
                Operand::Ofmap,
            ),
            (
                Command::ReloadPsumRows {
                    channel: 0,
                    rows: 0..1,
                },
                Action::Reload,
                Operand::Ofmap,
            ),
        ];
        for (cmd, action, operand) in cases {
            let rc = r.resolve(0, &cmd).unwrap();
            assert_eq!(rc.action, action, "{cmd}");
            assert_eq!(rc.operand, operand, "{cmd}");
            assert!(rc.elems() > 0, "{cmd}");
        }
    }

    #[test]
    // The inverted range below is one of the malformed commands under test.
    #[allow(clippy::reversed_empty_ranges)]
    fn out_of_bounds_commands_error_with_the_command_index() {
        let r = AddressResolver::new(&shape()).unwrap();
        let bad = [
            Command::FillIfmapRows {
                channel: 9,
                rows: 0..1,
            },
            Command::FillIfmapRows {
                channel: 0,
                rows: 0..999,
            },
            Command::FillFilters { filters: 3..99 },
            Command::FillFilterChannel {
                filters: 0..1,
                channel: 77,
            },
            Command::EvictFilterChannel {
                filters: 2..5,
                channel: 0,
            },
            Command::StoreOfmapRows {
                channel: 0,
                rows: 5..2,
            },
            Command::StoreOfmapRows {
                channel: 44,
                rows: 0..1,
            },
        ];
        for (i, cmd) in bad.iter().enumerate() {
            let err = r.resolve(i, cmd).unwrap_err();
            assert_eq!(err.command, Some(i), "{cmd}");
            assert!(
                err.to_string().starts_with(&format!("command {i}:")),
                "{err}"
            );
        }
    }

    #[test]
    fn filter_channel_blocks_are_strided_runs() {
        let s = shape();
        let r = AddressResolver::new(&s).unwrap();
        let rc = r
            .resolve(
                0,
                &Command::FillFilterChannel {
                    filters: 1..4,
                    channel: 1,
                },
            )
            .unwrap();
        let whole = r.filters(0..4);
        let per_f = s.single_filter_elems();
        assert_eq!((rc.stride, rc.count), (per_f, 3));
        assert_eq!(rc.range, whole.start + per_f + 9..whole.start + per_f + 18);
        let runs: Vec<_> = rc.runs().collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2].end, whole.end);
        assert_eq!(rc.elems(), 27);
        let row = r
            .resolve(
                1,
                &Command::FillIfmapRows {
                    channel: 0,
                    rows: 0..2,
                },
            )
            .unwrap();
        assert_eq!(row.count, 1);
        assert_eq!(row.runs().collect::<Vec<_>>(), vec![row.range.clone()]);
    }

    #[test]
    fn u64_overflowing_layouts_are_errors_not_wraps() {
        let err = AddressResolver::new(&pathological()).unwrap_err();
        assert!(err.to_string().contains("overflows u64"), "{err}");
    }

    #[test]
    fn u64_max_adjacent_ranges_resolve_or_error_cleanly() {
        // A 1-element-wide degenerate layer: the address space is tiny,
        // so `u64::MAX`-adjacent command ranges must error, not wrap
        // into a small (aliasing) address.
        let r = AddressResolver::new(&shape()).unwrap();
        let cmd = Command::FillIfmapRows {
            channel: 0,
            rows: u64::MAX - 1..u64::MAX,
        };
        let err = r.resolve(3, &cmd).unwrap_err();
        assert_eq!(err.command, Some(3));
        assert!(err.message.contains("outside"), "{err}");
        // And a range whose *width* alone would overflow the product
        // with the row element count.
        let cmd = Command::StoreOfmapRows {
            channel: 0,
            rows: 0..u64::MAX,
        };
        assert!(r.resolve(4, &cmd).is_err());
    }

    #[test]
    fn empty_ranges_resolve_to_empty() {
        let r = AddressResolver::new(&shape()).unwrap();
        let rc = r
            .resolve(
                0,
                &Command::EvictIfmapRows {
                    channel: 1,
                    rows: 4..4,
                },
            )
            .unwrap();
        assert_eq!(rc.elems(), 0);
    }
}
