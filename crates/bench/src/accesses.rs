//! Figures 5–7: the access-reduction results.

use crate::chart::bar_block;
use crate::{acc, SIZES_KB};
use smm_arch::{ByteSize, DataWidth};
use smm_core::report::{benefit_pct, TextTable};
use smm_core::sweep::{plan_matrix, SweepScheme};
use smm_core::{Manager, ManagerConfig, Objective};
use smm_model::zoo;
use smm_systolic::{simulate_network, BaselineConfig, BufferSplit};

/// One Figure 5 row: off-chip MB per scheme for (network, GLB size).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub network: String,
    pub glb_kb: u64,
    /// MB for sa_25_75, sa_50_50, sa_75_25.
    pub baselines: [f64; 3],
    pub hom: f64,
    pub het: f64,
}

impl Fig5Row {
    pub fn best_baseline(&self) -> f64 {
        self.baselines.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Compute the full Figure 5 matrix (all models × all GLB sizes).
pub fn fig5_data() -> Vec<Fig5Row> {
    let nets = zoo::all_networks();
    let cfg = ManagerConfig::new(Objective::Accesses);
    let hom = plan_matrix(acc(64), cfg, SweepScheme::BestHomogeneous, &nets, &SIZES_KB)
        .expect("hom matrix");
    let het = plan_matrix(acc(64), cfg, SweepScheme::Heterogeneous, &nets, &SIZES_KB)
        .expect("het matrix");

    let cells: Vec<(usize, usize)> = (0..nets.len())
        .flat_map(|n| (0..SIZES_KB.len()).map(move |g| (n, g)))
        .collect();
    cells
        .iter()
        .map(|&(n, g)| {
            let net = &nets[n];
            let kb = SIZES_KB[g];
            let a = acc(kb);
            let mut baselines = [0.0; 3];
            for (bi, &split) in BufferSplit::ALL.iter().enumerate() {
                baselines[bi] = simulate_network(&BaselineConfig::paper(a, split), net)
                    .total_bytes
                    .mb();
            }
            let idx = n * SIZES_KB.len() + g;
            Fig5Row {
                network: net.name.clone(),
                glb_kb: kb,
                baselines,
                hom: hom[idx].plan.totals.accesses_bytes.mb(),
                het: het[idx].plan.totals.accesses_bytes.mb(),
            }
        })
        .collect()
}

/// Figure 5 rendered: one block per model, the paper's five bars as
/// columns.
pub fn fig5() -> String {
    let data = fig5_data();
    let mut out = String::from("Figure 5: volume of off-chip memory accesses (MB) per scheme\n");
    for net in zoo::all_networks() {
        out.push_str(&format!("\n{}\n", net.name));
        let mut t = TextTable::new(&[
            "GLB",
            "sa_25_75",
            "sa_50_50",
            "sa_75_25",
            "Hom",
            "Het",
            "Het reduction",
        ]);
        for row in data.iter().filter(|r| r.network == net.name) {
            t.row(vec![
                format!("{}kB", row.glb_kb),
                format!("{:.2}", row.baselines[0]),
                format!("{:.2}", row.baselines[1]),
                format!("{:.2}", row.baselines[2]),
                format!("{:.2}", row.hom),
                format!("{:.2}", row.het),
                format!("{:.1}%", benefit_pct(row.best_baseline(), row.het)),
            ]);
        }
        out.push_str(&t.render());
        // The paper's bar view at the tightest buffer size.
        if let Some(row) = data
            .iter()
            .find(|r| r.network == net.name && r.glb_kb == 64)
        {
            out.push_str("64kB bars:\n");
            out.push_str(&bar_block(
                &[
                    ("sa_25_75".to_string(), row.baselines[0]),
                    ("sa_50_50".to_string(), row.baselines[1]),
                    ("sa_75_25".to_string(), row.baselines[2]),
                    ("Hom".to_string(), row.hom),
                    ("Het".to_string(), row.het),
                ],
                40,
            ));
        }
    }
    out
}

/// Figure 6: heterogeneous-scheme memory breakdown for ResNet18 @ 64 kB.
pub fn fig6() -> String {
    let a = acc(64);
    let manager = Manager::new(a, ManagerConfig::new(Objective::Accesses));
    let plan = manager.heterogeneous(&zoo::resnet18()).expect("plan");
    let mut out = String::from(
        "Figure 6: Het memory breakdown for ResNet18, 64 kB GLB \
         (allocated kB per data type; 50-50 baseline partition would be 30/30)\n",
    );
    let mut t = TextTable::new(&[
        "layer",
        "policy",
        "ifmap kB",
        "filter kB",
        "ofmap kB",
        "total",
    ]);
    for d in &plan.decisions {
        let alloc = d.estimate.allocation();
        let kb = |elems: u64| format!("{:.1}", ByteSize::from_elements(elems, a.data_width).kb());
        t.row(vec![
            d.layer_name.clone(),
            format!(
                "{}{}",
                d.estimate.kind.label(),
                if d.estimate.prefetch { "+p" } else { "" }
            ),
            kb(alloc.ifmap),
            kb(alloc.filters),
            kb(alloc.ofmap),
            kb(alloc.total()),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 7 data point: Het's access reduction over Hom, in percent.
pub fn fig7_benefit(width: DataWidth, glb_kb: u64) -> f64 {
    let a = acc(glb_kb).with_data_width(width);
    let net = zoo::mobilenetv2();
    let cfg = ManagerConfig::new(Objective::Accesses);
    let hom = Manager::new(a, cfg).best_homogeneous(&net).expect("hom");
    let het = Manager::new(a, cfg).heterogeneous(&net).expect("het");
    benefit_pct(
        hom.totals.accesses_elems as f64,
        het.totals.accesses_elems as f64,
    )
}

/// Figure 7: benefit of Het over Hom for different data widths
/// (MobileNetV2).
pub fn fig7() -> String {
    let mut out =
        String::from("Figure 7: access reduction of Het over Hom for MobileNetV2 (percent)\n");
    let mut t = TextTable::new(&["GLB", "8-bit", "16-bit", "32-bit"]);
    for &kb in &SIZES_KB {
        t.row(vec![
            format!("{kb}kB"),
            format!("{:.1}%", fig7_benefit(DataWidth::W8, kb)),
            format!("{:.1}%", fig7_benefit(DataWidth::W16, kb)),
            format!("{:.1}%", fig7_benefit(DataWidth::W32, kb)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Wider data widths raise the pressure on the GLB, widening the gap \
         between Het and Hom at small sizes; the gap fades as capacity grows.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_het_wins_big_at_64kb() {
        // Paper: Het reduction at 64 kB ranges from ~43% to ~80%.
        let data = fig5_data();
        for row in data.iter().filter(|r| r.glb_kb == 64) {
            let red = benefit_pct(row.best_baseline(), row.het);
            assert!(red > 15.0, "{}: only {red:.1}%", row.network);
        }
        let resnet = data
            .iter()
            .find(|r| r.network == "ResNet18" && r.glb_kb == 64)
            .unwrap();
        assert!(
            benefit_pct(resnet.best_baseline(), resnet.het) > 60.0,
            "headline reduction missing"
        );
    }

    #[test]
    fn fig5_het_never_above_hom() {
        for row in fig5_data() {
            assert!(
                row.het <= row.hom + 1e-9,
                "{} @ {}kB",
                row.network,
                row.glb_kb
            );
        }
    }

    #[test]
    fn fig5_baseline_gap_closes_at_1mb() {
        let data = fig5_data();
        for net in ["ResNet18", "GoogLeNet"] {
            let row = data
                .iter()
                .find(|r| r.network == net && r.glb_kb == 1024)
                .unwrap();
            let ratio = row.het / row.best_baseline();
            assert!((0.7..1.3).contains(&ratio), "{net}: ratio {ratio}");
        }
    }

    #[test]
    fn fig7_wider_widths_increase_het_benefit_at_small_sizes() {
        // Paper: 69% extra reduction at 64 kB for 32-bit vs near-zero for
        // 8-bit at large sizes.
        let w32_small = fig7_benefit(DataWidth::W32, 64);
        let w8_large = fig7_benefit(DataWidth::W8, 1024);
        assert!(w32_small >= w8_large, "{w32_small} vs {w8_large}");
        assert!(w32_small >= 0.0);
    }

    #[test]
    fn fig6_mixes_policies_across_the_network() {
        let out = fig6();
        // The breakdown must show at least two distinct policies.
        let mut seen = std::collections::BTreeSet::new();
        for line in out.lines().skip(3) {
            if let Some(policy) = line.split_whitespace().nth(1) {
                seen.insert(policy.to_string());
            }
        }
        assert!(seen.len() >= 2, "{seen:?}");
    }
}
