use crate::{Layer, LayerKind, ShapeError};
use smm_arch::{ByteSize, DataWidth};
use std::collections::BTreeSet;

/// Per-layer memory footprint broken into the three data types, the
/// breakdown plotted in Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerFootprint {
    /// Padded ifmap bytes.
    pub ifmap: ByteSize,
    /// Filter bytes.
    pub filters: ByteSize,
    /// Ofmap bytes.
    pub ofmap: ByteSize,
}

impl LayerFootprint {
    /// Total bytes across all three data types — the per-layer requirement
    /// of full intra-layer reuse.
    pub fn total(&self) -> ByteSize {
        self.ifmap + self.filters + self.ofmap
    }
}

/// Aggregate statistics over a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of layers.
    pub layers: usize,
    /// Distinct layer kinds present (the "Types of Layers" column of
    /// Table 2).
    pub kinds: Vec<LayerKind>,
    /// Total multiply-accumulate operations for one inference.
    pub total_macs: u64,
    /// Largest single-layer footprint (all three data types).
    pub max_layer_footprint: ByteSize,
}

/// An ordered, layer-by-layer CNN model.
///
/// Residual/branch connections are serialized into a flat layer list, in
/// accordance with the paper's baseline execution model ("the residual
/// connections present in some CNNs are serialized", Section 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    /// Model name (e.g. "ResNet18").
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl Network {
    /// Construct and validate: every layer shape must be valid and layer
    /// names must be unique.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Result<Self, NetworkError> {
        let name = name.into();
        let mut seen = BTreeSet::new();
        for l in &layers {
            l.shape
                .validate()
                .map_err(|e| NetworkError::BadLayer(l.name.clone(), e))?;
            if !seen.insert(l.name.clone()) {
                return Err(NetworkError::DuplicateLayerName(l.name.clone()));
            }
        }
        if layers.is_empty() {
            return Err(NetworkError::Empty);
        }
        Ok(Network { name, layers })
    }

    /// Per-layer footprint breakdown (Figure 3) at the given data width.
    pub fn footprints(&self, width: DataWidth) -> Vec<LayerFootprint> {
        self.layers
            .iter()
            .map(|l| LayerFootprint {
                ifmap: ByteSize::from_elements(l.shape.padded_ifmap_elems(), width),
                filters: ByteSize::from_elements(l.shape.filter_elems(), width),
                ofmap: ByteSize::from_elements(l.shape.ofmap_elems(), width),
            })
            .collect()
    }

    /// Aggregate statistics at the given data width.
    pub fn stats(&self, width: DataWidth) -> NetworkStats {
        let mut kinds: Vec<LayerKind> = Vec::new();
        for l in &self.layers {
            if !kinds.contains(&l.kind) {
                kinds.push(l.kind);
            }
        }
        let total_macs = self.layers.iter().map(|l| l.shape.macs()).sum();
        let max_layer_footprint = self
            .footprints(width)
            .iter()
            .map(LayerFootprint::total)
            .max()
            .unwrap_or(ByteSize::ZERO);
        NetworkStats {
            layers: self.layers.len(),
            kinds,
            total_macs,
            max_layer_footprint,
        }
    }

    /// Look a layer up by name.
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Errors produced by [`Network::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A network needs at least one layer.
    Empty,
    /// A layer failed shape validation.
    BadLayer(String, ShapeError),
    /// Two layers share a name.
    DuplicateLayerName(String),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Empty => write!(f, "network has no layers"),
            NetworkError::BadLayer(name, e) => write!(f, "layer {name}: {e}"),
            NetworkError::DuplicateLayerName(name) => {
                write!(f, "duplicate layer name {name}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerShape;

    fn tiny_layer(name: &str) -> Layer {
        Layer::new(
            name,
            LayerKind::Conv,
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
            },
        )
        .unwrap()
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(Network::new("x", vec![]).unwrap_err(), NetworkError::Empty);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Network::new("x", vec![tiny_layer("a"), tiny_layer("a")]).unwrap_err();
        assert!(matches!(err, NetworkError::DuplicateLayerName(_)));
    }

    #[test]
    fn footprints_match_shape_math() {
        let net = Network::new("x", vec![tiny_layer("a")]).unwrap();
        let fp = net.footprints(DataWidth::W8);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].ifmap.bytes(), 10 * 10 * 4);
        assert_eq!(fp[0].filters.bytes(), 3 * 3 * 4 * 8);
        assert_eq!(fp[0].ofmap.bytes(), 8 * 8 * 8);
        assert_eq!(fp[0].total().bytes(), 400 + 288 + 512);
    }

    #[test]
    fn footprints_scale_with_width() {
        let net = Network::new("x", vec![tiny_layer("a")]).unwrap();
        let fp8 = net.footprints(DataWidth::W8);
        let fp32 = net.footprints(DataWidth::W32);
        assert_eq!(fp32[0].total().bytes(), 4 * fp8[0].total().bytes());
    }

    #[test]
    fn stats_aggregate() {
        let net = Network::new("x", vec![tiny_layer("a"), tiny_layer("b")]).unwrap();
        let s = net.stats(DataWidth::W8);
        assert_eq!(s.layers, 2);
        assert_eq!(s.kinds, vec![LayerKind::Conv]);
        assert_eq!(s.total_macs, 2 * 8 * 8 * 8 * 3 * 3 * 4);
        assert_eq!(s.max_layer_footprint.bytes(), 1200);
    }

    #[test]
    fn layer_lookup() {
        let net = Network::new("x", vec![tiny_layer("a"), tiny_layer("b")]).unwrap();
        assert!(net.layer("b").is_some());
        assert!(net.layer("c").is_none());
    }
}
