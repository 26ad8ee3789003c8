//! Property tests: on arbitrary (small) layer shapes, every policy
//! estimate that exists must replay to exactly its own numbers.

use proptest::prelude::*;
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_exec::{replay, AddressResolver, Command};
use smm_model::LayerShape;
use smm_policy::{estimate, PolicyKind};

fn arb_shape() -> impl Strategy<Value = LayerShape> {
    (
        2u32..20, // ifmap_h
        2u32..20, // ifmap_w
        1u32..6,  // in_channels
        1u32..4,  // filter (square)
        2u32..10, // num_filters
        1u32..3,  // stride
        0u32..2,  // padding
        any::<bool>(),
    )
        .prop_map(|(ih, iw, ci, k, nf, s, p, dw)| LayerShape {
            ifmap_h: ih,
            ifmap_w: iw,
            in_channels: ci,
            filter_h: k,
            filter_w: k,
            num_filters: if dw { ci } else { nf },
            stride: s,
            padding: p,
            depthwise: dw,
        })
        .prop_filter("shape must validate", |s| s.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every named-policy estimate replays exactly, for every budget.
    #[test]
    fn estimates_replay_exactly(shape in arb_shape(), kb in 1u64..64) {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(kb));
        for kind in PolicyKind::ALL {
            let Some(est) = estimate(kind, &shape, &acc, false) else { continue };
            let replayed = replay(&shape, &est)
                .unwrap_or_else(|e| panic!("{kind:?} on {shape:?}: {e}"));
            prop_assert!(
                replayed.matches(&est),
                "{kind:?} on {shape:?}: est {:?} vs got {replayed:?}",
                est.accesses
            );
        }
    }

    /// Prefetch variants describe the same schedule: identical traffic,
    /// same replay, twice the allocation.
    #[test]
    fn prefetch_variant_is_schedule_equivalent(shape in arb_shape()) {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        for kind in PolicyKind::NAMED {
            let (Some(plain), Some(pf)) = (
                estimate(kind, &shape, &acc, false),
                estimate(kind, &shape, &acc, true),
            ) else { continue };
            // Identical block size means identical schedule.
            if plain.block_n == pf.block_n {
                prop_assert_eq!(plain.accesses, pf.accesses, "{:?}", kind);
                let r = replay(&shape, &pf).unwrap();
                prop_assert!(r.matches(&pf), "{:?}", kind);
            }
        }
    }

    /// A filter-channel block resolves to strided runs whose elements
    /// are exactly the per-element filter layout
    /// `filter_base + f·filt_per_f + c·F_H·F_W + k`; out-of-range,
    /// inverted or `u64::MAX`-edge blocks resolve to an anchored error.
    #[test]
    fn filter_channel_blocks_expand_to_the_per_element_layout(
        shape in arb_shape(),
        a in 0u64..12,
        b in 0u64..12,
        channel in 0u64..8,
        fill in any::<bool>(),
        huge in any::<u64>(),
    ) {
        let r = AddressResolver::new(&shape).unwrap();
        let nf = u64::from(shape.num_filters);
        let chans = shape.filter_channels();
        let k_len = u64::from(shape.filter_h) * u64::from(shape.filter_w);
        let per_f = shape.single_filter_elems();
        let base = r.filter_region().start;
        let block = |filters: std::ops::Range<u64>, channel: u64| {
            if fill {
                Command::FillFilterChannel { filters, channel }
            } else {
                Command::EvictFilterChannel { filters, channel }
            }
        };
        let filters = a.min(b)..a.max(b);
        match r.resolve(7, &block(filters.clone(), channel)) {
            Ok(rc) => {
                prop_assert!(filters.end <= nf && channel < chans);
                let got: Vec<u64> = rc.runs().flatten().collect();
                let want: Vec<u64> = filters
                    .clone()
                    .flat_map(|f| (0..k_len).map(move |k| base + f * per_f + channel * k_len + k))
                    .collect();
                prop_assert_eq!(rc.elems(), want.len() as u64);
                prop_assert_eq!(got, want);
            }
            Err(e) => {
                prop_assert!(filters.end > nf || channel >= chans, "{}", e);
                prop_assert_eq!(e.command, Some(7));
            }
        }
        // Inverted and u64-edge blocks never resolve, and never panic.
        if a != b {
            let inverted = a.max(b)..a.min(b);
            prop_assert!(r.resolve(1, &block(inverted, 0)).is_err());
        }
        prop_assert!(r.resolve(2, &block(huge.max(1)..u64::MAX, 0)).is_err());
        prop_assert!(r.resolve(3, &block(0..1, huge.max(chans))).is_err());
    }
}
