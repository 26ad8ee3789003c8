use std::fmt;

/// The layer categories of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard convolution (CV).
    Conv,
    /// Depth-wise convolution (DW): one filter channel per input channel,
    /// no cross-channel reduction.
    DepthwiseConv,
    /// Point-wise convolution (PW): 1×1 standard convolution.
    PointwiseConv,
    /// Fully-connected layer (FC), modelled as a 1×1 convolution over a
    /// 1×1 spatial extent.
    FullyConnected,
    /// Projection layer (PL): the 1×1 strided shortcut convolution in
    /// residual networks.
    Projection,
}

impl LayerKind {
    /// Short code used in Table 2 and in topology files.
    pub fn code(self) -> &'static str {
        match self {
            LayerKind::Conv => "CV",
            LayerKind::DepthwiseConv => "DW",
            LayerKind::PointwiseConv => "PW",
            LayerKind::FullyConnected => "FC",
            LayerKind::Projection => "PL",
        }
    }

    /// Parse a Table 2 code.
    pub fn from_code(code: &str) -> Option<Self> {
        match code {
            "CV" => Some(LayerKind::Conv),
            "DW" => Some(LayerKind::DepthwiseConv),
            "PW" => Some(LayerKind::PointwiseConv),
            "FC" => Some(LayerKind::FullyConnected),
            "PL" => Some(LayerKind::Projection),
            _ => None,
        }
    }

    /// Depth-wise layers reduce over a single channel; everything else
    /// reduces over all input channels.
    #[inline]
    pub fn is_depthwise(self) -> bool {
        matches!(self, LayerKind::DepthwiseConv)
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Errors produced by [`LayerShape::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension that must be positive is zero.
    ZeroDimension(&'static str),
    /// The (padded) input is smaller than the filter.
    FilterLargerThanInput,
    /// Depth-wise layers must have `num_filters == in_channels`.
    DepthwiseChannelMismatch {
        /// The layer's input channel count.
        in_channels: u32,
        /// The layer's filter count (must equal `in_channels`).
        num_filters: u32,
    },
    /// A derived quantity (padded extent, footprint, or MAC count) would
    /// overflow its integer representation. The payload names the
    /// quantity that overflowed.
    TooLarge(&'static str),
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDimension(d) => write!(f, "dimension {d} must be positive"),
            ShapeError::FilterLargerThanInput => {
                write!(f, "filter does not fit inside the padded input")
            }
            ShapeError::DepthwiseChannelMismatch {
                in_channels,
                num_filters,
            } => write!(
                f,
                "depth-wise layer needs num_filters ({num_filters}) == in_channels ({in_channels})"
            ),
            ShapeError::TooLarge(what) => {
                write!(f, "layer dimensions too large: {what} overflows")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// The hyperparameters of a convolutional / fully-connected layer
/// (Table 1 of the paper).
///
/// `O_H`, `O_W`, and `C_O` are derived, not stored:
/// `O = (I + 2P − F) / S + 1` per spatial dimension, and
/// `C_O = F#` (for depth-wise layers `C_O = C_I = F#`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// `I_H`: ifmap height.
    pub ifmap_h: u32,
    /// `I_W`: ifmap width.
    pub ifmap_w: u32,
    /// `C_I`: number of ifmap (and filter) channels.
    pub in_channels: u32,
    /// `F_H`: filter height.
    pub filter_h: u32,
    /// `F_W`: filter width.
    pub filter_w: u32,
    /// `F#`: number of 3-D filters.
    pub num_filters: u32,
    /// `S`: stride (same in both spatial dimensions).
    pub stride: u32,
    /// `P`: padding (same on all sides).
    pub padding: u32,
    /// Whether the layer reduces over one channel (depth-wise) or all.
    pub depthwise: bool,
}

impl LayerShape {
    /// Check the structural invariants. All derived-quantity methods assume
    /// a validated shape.
    pub fn validate(&self) -> Result<(), ShapeError> {
        for (name, v) in [
            ("ifmap_h", self.ifmap_h),
            ("ifmap_w", self.ifmap_w),
            ("in_channels", self.in_channels),
            ("filter_h", self.filter_h),
            ("filter_w", self.filter_w),
            ("num_filters", self.num_filters),
            ("stride", self.stride),
        ] {
            if v == 0 {
                return Err(ShapeError::ZeroDimension(name));
            }
        }
        // Overflow guards come before any call to the derived-quantity
        // methods: those assume a validated shape and use unchecked
        // arithmetic. Compute the padded extents in u64 so even
        // `u32::MAX`-sized inputs from a hostile topology file cannot
        // wrap — they must produce `TooLarge`, never a panic.
        let padded_h = self.ifmap_h as u64 + 2 * self.padding as u64;
        let padded_w = self.ifmap_w as u64 + 2 * self.padding as u64;
        if padded_h > u32::MAX as u64 || padded_w > u32::MAX as u64 {
            return Err(ShapeError::TooLarge("padded ifmap extent"));
        }
        if padded_h < self.filter_h as u64 || padded_w < self.filter_w as u64 {
            return Err(ShapeError::FilterLargerThanInput);
        }
        if self.depthwise && self.num_filters != self.in_channels {
            return Err(ShapeError::DepthwiseChannelMismatch {
                in_channels: self.in_channels,
                num_filters: self.num_filters,
            });
        }
        let too_large = |what| ShapeError::TooLarge(what);
        let filter_channels: u64 = if self.depthwise {
            1
        } else {
            self.in_channels as u64
        };
        padded_h
            .checked_mul(padded_w)
            .and_then(|v| v.checked_mul(self.in_channels as u64))
            .ok_or(too_large("padded ifmap footprint"))?;
        let single_filter = (self.filter_h as u64)
            .checked_mul(self.filter_w as u64)
            .and_then(|v| v.checked_mul(filter_channels))
            .ok_or(too_large("filter footprint"))?;
        single_filter
            .checked_mul(self.num_filters as u64)
            .ok_or(too_large("total filter footprint"))?;
        let oh = (padded_h - self.filter_h as u64) / self.stride as u64 + 1;
        let ow = (padded_w - self.filter_w as u64) / self.stride as u64 + 1;
        let ofmap = oh
            .checked_mul(ow)
            .and_then(|v| v.checked_mul(self.num_filters as u64))
            .ok_or(too_large("ofmap footprint"))?;
        // Derived GEMM dimensions (im2col view, [`gemm_dims`](Self::gemm_dims)):
        // M = O_H·O_W, K = F_H·F_W·(filter channels), N = F#. The planner,
        // checker, and simulator all reason about layers through these
        // operands, so a shape whose im2col matrix (M·K) or GEMM output
        // (M·N) would wrap u64 is rejected here by name — before the MAC
        // check, which would otherwise mask which operand overflowed.
        let m = oh * ow; // each factor < 2^32, cannot wrap u64
        m.checked_mul(single_filter)
            .ok_or(too_large("im2col GEMM operand (M*K)"))?;
        m.checked_mul(self.num_filters as u64)
            .ok_or(too_large("GEMM output (M*N)"))?;
        ofmap
            .checked_mul(single_filter)
            .ok_or(too_large("MAC count"))?;
        Ok(())
    }

    /// Padded ifmap height `I_H + 2P`.
    #[inline]
    pub fn padded_h(&self) -> u32 {
        self.ifmap_h + 2 * self.padding
    }

    /// Padded ifmap width `I_W + 2P`.
    #[inline]
    pub fn padded_w(&self) -> u32 {
        self.ifmap_w + 2 * self.padding
    }

    /// Output spatial dimensions `(O_H, O_W)`.
    #[inline]
    pub fn output_hw(&self) -> (u32, u32) {
        let oh = (self.padded_h() - self.filter_h) / self.stride + 1;
        let ow = (self.padded_w() - self.filter_w) / self.stride + 1;
        (oh, ow)
    }

    /// Number of output channels `C_O`.
    #[inline]
    pub fn out_channels(&self) -> u32 {
        self.num_filters
    }

    /// Unpadded ifmap footprint in elements: `I_H · I_W · C_I`.
    #[inline]
    pub fn ifmap_elems(&self) -> u64 {
        self.ifmap_h as u64 * self.ifmap_w as u64 * self.in_channels as u64
    }

    /// Padded ifmap footprint in elements: `(I_H+2P)(I_W+2P)·C_I`. This is
    /// what the paper stores and transfers ("we consider padding of the
    /// ifmap in our estimations", Section 5.1).
    #[inline]
    pub fn padded_ifmap_elems(&self) -> u64 {
        self.padded_h() as u64 * self.padded_w() as u64 * self.in_channels as u64
    }

    /// Channels each filter carries: 1 for depth-wise layers, `C_I` else.
    #[inline]
    pub fn filter_channels(&self) -> u64 {
        if self.depthwise {
            1
        } else {
            self.in_channels as u64
        }
    }

    /// One filter's footprint in elements: `F_H · F_W ·` filter channels.
    #[inline]
    pub fn single_filter_elems(&self) -> u64 {
        self.filter_h as u64 * self.filter_w as u64 * self.filter_channels()
    }

    /// All filters' footprint in elements.
    #[inline]
    pub fn filter_elems(&self) -> u64 {
        self.single_filter_elems() * self.num_filters as u64
    }

    /// Ofmap footprint in elements: `O_H · O_W · C_O`.
    #[inline]
    pub fn ofmap_elems(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        oh as u64 * ow as u64 * self.out_channels() as u64
    }

    /// Multiply-accumulate operations for the layer:
    /// `O_H·O_W·C_O·F_H·F_W·`(filter channels).
    #[inline]
    pub fn macs(&self) -> u64 {
        self.ofmap_elems() * self.filter_h as u64 * self.filter_w as u64 * self.filter_channels()
    }

    /// GEMM view of the layer after im2col: `(M, N, K)` with
    /// `M = O_H·O_W`, `N = F#`, `K = F_H·F_W·`(filter channels).
    /// Depth-wise layers are `C_I` independent `(M, 1, F_H·F_W)` GEMMs;
    /// this returns the per-channel view with `N = 1` in that case.
    #[inline]
    pub fn gemm_dims(&self) -> (u64, u64, u64) {
        let (oh, ow) = self.output_hw();
        let m = oh as u64 * ow as u64;
        let k = self.filter_h as u64 * self.filter_w as u64 * self.filter_channels();
        let n = if self.depthwise {
            1
        } else {
            self.num_filters as u64
        };
        (m, n, k)
    }
}

/// A named layer of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable name, unique within a network.
    pub name: String,
    /// Table 2 category.
    pub kind: LayerKind,
    /// Hyperparameters.
    pub shape: LayerShape,
}

impl Layer {
    /// Construct and validate a layer.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        shape: LayerShape,
    ) -> Result<Self, ShapeError> {
        shape.validate()?;
        if kind.is_depthwise() != shape.depthwise {
            // Keep the redundant flag coherent with the kind.
            return Err(ShapeError::DepthwiseChannelMismatch {
                in_channels: shape.in_channels,
                num_filters: shape.num_filters,
            });
        }
        Ok(Layer {
            name: name.into(),
            kind,
            shape,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn conv224() -> LayerShape {
        // ResNet18 conv1: 224×224×3 input, 7×7×3×64 filters, stride 2, pad 3.
        LayerShape {
            ifmap_h: 224,
            ifmap_w: 224,
            in_channels: 3,
            filter_h: 7,
            filter_w: 7,
            num_filters: 64,
            stride: 2,
            padding: 3,
            depthwise: false,
        }
    }

    #[test]
    fn resnet_conv1_output_dims() {
        let s = conv224();
        s.validate().unwrap();
        assert_eq!(s.output_hw(), (112, 112));
        assert_eq!(s.out_channels(), 64);
    }

    #[test]
    fn resnet_conv1_footprints() {
        let s = conv224();
        assert_eq!(s.ifmap_elems(), 224 * 224 * 3);
        assert_eq!(s.padded_ifmap_elems(), 230 * 230 * 3);
        assert_eq!(s.filter_elems(), 7 * 7 * 3 * 64);
        assert_eq!(s.ofmap_elems(), 112 * 112 * 64);
    }

    #[test]
    fn resnet_conv1_macs() {
        let s = conv224();
        assert_eq!(s.macs(), 112 * 112 * 64 * 7 * 7 * 3);
    }

    #[test]
    fn depthwise_footprints_have_single_channel_filters() {
        let s = LayerShape {
            ifmap_h: 112,
            ifmap_w: 112,
            in_channels: 32,
            filter_h: 3,
            filter_w: 3,
            num_filters: 32,
            stride: 1,
            padding: 1,
            depthwise: true,
        };
        s.validate().unwrap();
        assert_eq!(s.output_hw(), (112, 112));
        assert_eq!(s.filter_elems(), 3 * 3 * 32);
        assert_eq!(s.single_filter_elems(), 9);
        assert_eq!(s.macs(), 112 * 112 * 32 * 9);
        let (m, n, k) = s.gemm_dims();
        assert_eq!((m, n, k), (112 * 112, 1, 9));
    }

    #[test]
    fn depthwise_requires_matching_channels() {
        let s = LayerShape {
            ifmap_h: 8,
            ifmap_w: 8,
            in_channels: 16,
            filter_h: 3,
            filter_w: 3,
            num_filters: 8,
            stride: 1,
            padding: 1,
            depthwise: true,
        };
        assert!(matches!(
            s.validate(),
            Err(ShapeError::DepthwiseChannelMismatch { .. })
        ));
    }

    #[test]
    fn fully_connected_as_1x1_conv() {
        let s = LayerShape {
            ifmap_h: 1,
            ifmap_w: 1,
            in_channels: 512,
            filter_h: 1,
            filter_w: 1,
            num_filters: 1000,
            stride: 1,
            padding: 0,
            depthwise: false,
        };
        s.validate().unwrap();
        assert_eq!(s.output_hw(), (1, 1));
        assert_eq!(s.ifmap_elems(), 512);
        assert_eq!(s.filter_elems(), 512_000);
        assert_eq!(s.ofmap_elems(), 1000);
        assert_eq!(s.macs(), 512_000);
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut s = conv224();
        s.in_channels = 0;
        assert_eq!(s.validate(), Err(ShapeError::ZeroDimension("in_channels")));
        let mut s = conv224();
        s.stride = 0;
        assert_eq!(s.validate(), Err(ShapeError::ZeroDimension("stride")));
    }

    #[test]
    fn oversized_filter_rejected() {
        let mut s = conv224();
        s.filter_h = 231;
        assert_eq!(s.validate(), Err(ShapeError::FilterLargerThanInput));
    }

    #[test]
    fn huge_dimensions_error_instead_of_overflowing() {
        // Padded extent wraps u32: I_H + 2P > u32::MAX.
        let mut s = conv224();
        s.ifmap_h = u32::MAX;
        s.padding = u32::MAX;
        assert_eq!(
            s.validate(),
            Err(ShapeError::TooLarge("padded ifmap extent"))
        );

        // Footprint wraps u64: I_H·I_W·C_I ≈ 2^96 with no padding.
        let mut s = conv224();
        s.ifmap_h = u32::MAX;
        s.ifmap_w = u32::MAX;
        s.in_channels = u32::MAX;
        s.padding = 0;
        assert_eq!(
            s.validate(),
            Err(ShapeError::TooLarge("padded ifmap footprint"))
        );

        // Total filter footprint wraps u64 while the ifmap still fits:
        // single filter ≈ 2^33 elements times 2^31 filters.
        let mut s = conv224();
        s.ifmap_h = 1 << 31;
        s.ifmap_w = 2;
        s.in_channels = 2;
        s.filter_h = 1 << 31;
        s.filter_w = 2;
        s.num_filters = 1 << 31;
        s.stride = 1;
        s.padding = 0;
        assert_eq!(
            s.validate(),
            Err(ShapeError::TooLarge("total filter footprint"))
        );

        // MAC count wraps u64 even though each footprint fits: large
        // spatial output times a large filter volume.
        let mut s = conv224();
        s.ifmap_h = 1 << 20;
        s.ifmap_w = 1 << 20;
        s.in_channels = 1 << 10;
        s.filter_h = 1 << 10;
        s.filter_w = 1 << 10;
        s.num_filters = 1 << 10;
        s.stride = 1;
        s.padding = 0;
        assert!(matches!(s.validate(), Err(ShapeError::TooLarge(_))));

        // The error message names the overflowing quantity.
        let mut s = conv224();
        s.ifmap_h = u32::MAX;
        s.padding = u32::MAX;
        assert!(s.validate().unwrap_err().to_string().contains("too large"));
    }

    #[test]
    fn gemm_dimension_overflow_rejected_by_name() {
        // M·K (the im2col matrix) wraps u64 while every individual
        // footprint still fits: M ≈ 2^40 output pixels, K = 2^25 filter
        // elements, single input channel, one filter.
        let s = LayerShape {
            ifmap_h: 1 << 20,
            ifmap_w: 1 << 20,
            in_channels: 1,
            filter_h: 1 << 12,
            filter_w: 1 << 13,
            num_filters: 1,
            stride: 1,
            padding: 0,
            depthwise: false,
        };
        assert_eq!(
            s.validate(),
            Err(ShapeError::TooLarge("im2col GEMM operand (M*K)"))
        );
        assert!(s.validate().unwrap_err().to_string().contains("M*K"));
    }

    #[test]
    fn layer_kind_codes_round_trip() {
        for k in [
            LayerKind::Conv,
            LayerKind::DepthwiseConv,
            LayerKind::PointwiseConv,
            LayerKind::FullyConnected,
            LayerKind::Projection,
        ] {
            assert_eq!(LayerKind::from_code(k.code()), Some(k));
        }
        assert_eq!(LayerKind::from_code("??"), None);
    }

    #[test]
    fn layer_new_rejects_kind_shape_mismatch() {
        let mut s = conv224();
        s.depthwise = false;
        assert!(Layer::new("x", LayerKind::DepthwiseConv, s).is_err());
    }

    proptest! {
        /// `O = (I + 2P − F)/S + 1` implies the last window fits inside
        /// the padded input for every valid shape.
        #[test]
        fn output_windows_fit_in_padded_input(
            ih in 1u32..64, iw in 1u32..64, ci in 1u32..8,
            fh in 1u32..8, fw in 1u32..8, nf in 1u32..8,
            s in 1u32..4, p in 0u32..4,
        ) {
            let shape = LayerShape {
                ifmap_h: ih, ifmap_w: iw, in_channels: ci,
                filter_h: fh, filter_w: fw, num_filters: nf,
                stride: s, padding: p, depthwise: false,
            };
            prop_assume!(shape.validate().is_ok());
            let (oh, ow) = shape.output_hw();
            prop_assert!( (oh - 1) * s + fh <= shape.padded_h());
            prop_assert!( (ow - 1) * s + fw <= shape.padded_w());
        }

        /// MACs equal the GEMM volume for non-depth-wise layers.
        #[test]
        fn macs_match_gemm_volume(
            ih in 3u32..32, iw in 3u32..32, ci in 1u32..8,
            fh in 1u32..4, fw in 1u32..4, nf in 1u32..16,
        ) {
            let shape = LayerShape {
                ifmap_h: ih, ifmap_w: iw, in_channels: ci,
                filter_h: fh, filter_w: fw, num_filters: nf,
                stride: 1, padding: 0, depthwise: false,
            };
            prop_assume!(shape.validate().is_ok());
            let (m, n, k) = shape.gemm_dims();
            prop_assert_eq!(shape.macs(), m * n * k);
        }

        /// Padding only ever grows the stored ifmap.
        #[test]
        fn padded_at_least_unpadded(
            ih in 1u32..64, iw in 1u32..64, ci in 1u32..8, p in 0u32..4,
        ) {
            let shape = LayerShape {
                ifmap_h: ih, ifmap_w: iw, in_channels: ci,
                filter_h: 1, filter_w: 1, num_filters: 1,
                stride: 1, padding: p, depthwise: false,
            };
            prop_assert!(shape.padded_ifmap_elems() >= shape.ifmap_elems());
        }
    }
}
