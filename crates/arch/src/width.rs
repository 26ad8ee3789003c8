use std::fmt;

/// Element data width used by the accelerator datapath and buffers.
///
/// The paper evaluates 8-bit elements by default (Section 4) and sweeps
/// 8/16/32-bit widths in Figure 7. Width affects how many elements fit in
/// the GLB and how many elements the fixed byte-bandwidth DRAM interface
/// moves per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DataWidth {
    /// 8-bit elements (the paper's default).
    #[default]
    W8,
    /// 16-bit elements.
    W16,
    /// 32-bit elements (Figure 7's most memory-hungry configuration).
    W32,
}

impl DataWidth {
    /// All widths in the Figure 7 sweep, narrowest first.
    pub const ALL: [DataWidth; 3] = [DataWidth::W8, DataWidth::W16, DataWidth::W32];

    /// Width of one element in bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        match self {
            DataWidth::W8 => 8,
            DataWidth::W16 => 16,
            DataWidth::W32 => 32,
        }
    }

    /// Width of one element in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.bits() / 8
    }

    /// Parse from a bit count.
    pub fn from_bits(bits: u64) -> Option<Self> {
        match bits {
            8 => Some(DataWidth::W8),
            16 => Some(DataWidth::W16),
            32 => Some(DataWidth::W32),
            _ => None,
        }
    }
}

impl fmt::Display for DataWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_bytes_agree() {
        for w in DataWidth::ALL {
            assert_eq!(w.bits(), w.bytes() * 8);
        }
    }

    #[test]
    fn from_bits_round_trips() {
        for w in DataWidth::ALL {
            assert_eq!(DataWidth::from_bits(w.bits()), Some(w));
        }
        assert_eq!(DataWidth::from_bits(12), None);
        assert_eq!(DataWidth::from_bits(0), None);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(DataWidth::default(), DataWidth::W8);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(DataWidth::W16.to_string(), "16-bit");
    }

    #[test]
    fn widths_are_ordered() {
        assert!(DataWidth::W8 < DataWidth::W16);
        assert!(DataWidth::W16 < DataWidth::W32);
    }
}
