use std::fmt;

/// The memory-management policies of Section 3.2, plus the generic tiled
/// fallback Algorithm 1 reaches for when no named policy fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Whole layer on-chip; every element moves on/off chip exactly once.
    IntraLayer,
    /// Policy 1: ifmap reuse via a height-wise sliding window, all
    /// filters resident.
    P1IfmapReuse,
    /// Policy 2: filter reuse; whole ifmap resident, filters one by one.
    P2FilterReuse,
    /// Policy 3: per-channel reuse; one channel of every filter resident,
    /// whole ofmap accumulates on-chip.
    P3PerChannel,
    /// Policy 4: partial ifmap reuse; filters in blocks of `n`, ifmap
    /// re-loaded `⌈F#/n⌉` times.
    P4PartialIfmap,
    /// Policy 5: partial per-channel reuse; single-channel window and
    /// per-channel filter blocks of `n`.
    P5PartialPerChannel,
    /// Generic blocked tiling found by search (Algorithm 1's escape hatch
    /// when even policy 4/5 at `n = 1` does not fit).
    Fallback,
}

impl PolicyKind {
    /// The named policies in Algorithm 1's candidate list (line 1),
    /// excluding the fallback.
    pub const NAMED: [PolicyKind; 6] = [
        PolicyKind::IntraLayer,
        PolicyKind::P1IfmapReuse,
        PolicyKind::P2FilterReuse,
        PolicyKind::P3PerChannel,
        PolicyKind::P4PartialIfmap,
        PolicyKind::P5PartialPerChannel,
    ];

    /// Every kind including the fallback.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::IntraLayer,
        PolicyKind::P1IfmapReuse,
        PolicyKind::P2FilterReuse,
        PolicyKind::P3PerChannel,
        PolicyKind::P4PartialIfmap,
        PolicyKind::P5PartialPerChannel,
        PolicyKind::Fallback,
    ];

    /// Short label used in Figure 6 / Table 4 style output
    /// (`intra`, `p1` … `p5`, `tiled`).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::IntraLayer => "intra",
            PolicyKind::P1IfmapReuse => "p1",
            PolicyKind::P2FilterReuse => "p2",
            PolicyKind::P3PerChannel => "p3",
            PolicyKind::P4PartialIfmap => "p4",
            PolicyKind::P5PartialPerChannel => "p5",
            PolicyKind::Fallback => "tiled",
        }
    }

    /// Whether the policy moves each element at most once (Section 3.2:
    /// true for intra-layer reuse and policies 1–3; policies 4/5 only for
    /// depth-wise layers, which the estimators handle specially).
    pub fn is_minimum_transfer(self) -> bool {
        matches!(
            self,
            PolicyKind::IntraLayer
                | PolicyKind::P1IfmapReuse
                | PolicyKind::P2FilterReuse
                | PolicyKind::P3PerChannel
        )
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_excludes_fallback() {
        assert!(!PolicyKind::NAMED.contains(&PolicyKind::Fallback));
        assert_eq!(PolicyKind::NAMED.len(), 6);
        assert_eq!(PolicyKind::ALL.len(), 7);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn minimum_transfer_set_matches_section_3_2() {
        assert!(PolicyKind::IntraLayer.is_minimum_transfer());
        assert!(PolicyKind::P3PerChannel.is_minimum_transfer());
        assert!(!PolicyKind::P4PartialIfmap.is_minimum_transfer());
        assert!(!PolicyKind::Fallback.is_minimum_transfer());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(PolicyKind::P4PartialIfmap.to_string(), "p4");
    }
}
