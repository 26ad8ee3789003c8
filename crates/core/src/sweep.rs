//! Experiment matrices.
//!
//! The paper's figures sweep 6 models × 5 buffer sizes × several schemes.
//! Each cell is an independent [`PlanSpec`], planned in input order.

use crate::{CancelToken, ExecutionPlan, ManagerConfig, NetworkRef, PlanError, PlanSpec, Planner};
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_model::Network;

/// One cell of a plan matrix.
#[derive(Debug, Clone)]
pub struct PlanCell {
    pub network: String,
    pub glb_kb: u64,
    pub plan: ExecutionPlan,
}

/// Which plan flavour a sweep should produce per cell. Since the
/// pass-based refactor this is the same type as the cache key's
/// [`PlanScheme`](crate::PlanScheme) — a sweep cell is just one
/// [`PlanSpec`] evaluated through the shared [`Planner`] pipeline.
pub use crate::cache::PlanScheme as SweepScheme;

/// Evaluate `networks × glb_kbs` with one manager configuration,
/// returning cells in deterministic (network-major, size-minor)
/// order. Each cell is described by a [`PlanSpec`] derived from the
/// matrix coordinates and planned through the pass-based [`Planner`].
pub fn plan_matrix(
    base: AcceleratorConfig,
    cfg: ManagerConfig,
    scheme: SweepScheme,
    networks: &[Network],
    glb_kbs: &[u64],
) -> Result<Vec<PlanCell>, PlanError> {
    let specs: Vec<PlanSpec> = networks
        .iter()
        .flat_map(|net| {
            let net_ref = NetworkRef::from_network(net);
            glb_kbs.iter().map(move |&kb| {
                PlanSpec::new(
                    net_ref.clone(),
                    base.with_glb(ByteSize::from_kb(kb)),
                    cfg,
                    scheme,
                )
            })
        })
        .collect();
    let _span = smm_obs::span!("sweep.matrix", "{} cells", specs.len());
    sweep_cells(&specs)
}

/// Plan a batch of independent cell specs, in input order.
pub(crate) fn sweep_cells(specs: &[PlanSpec]) -> Result<Vec<PlanCell>, PlanError> {
    specs
        .iter()
        .map(|spec| {
            let kb = spec.accelerator.glb.bytes() / 1024;
            let _cell_span = smm_obs::span!("sweep.cell", "{}@{}kB", spec.network.name(), kb);
            smm_obs::add(smm_obs::Counter::SweepCells, 1);
            let net = spec.resolve()?;
            let plan = Planner::new(spec.accelerator, spec.config).plan(
                &net,
                spec.scheme,
                &CancelToken::none(),
            )?;
            Ok(PlanCell {
                network: net.name,
                glb_kb: kb,
                plan,
            })
        })
        .collect()
}

/// Convenience lookup into a matrix produced by [`plan_matrix`].
pub fn cell<'a>(cells: &'a [PlanCell], network: &str, glb_kb: u64) -> Option<&'a PlanCell> {
    cells
        .iter()
        .find(|c| c.network == network && c.glb_kb == glb_kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manager, Objective, Scheme};
    use smm_model::zoo;

    fn base() -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(64))
    }

    #[test]
    fn matrix_covers_cross_product_in_order() {
        let nets = vec![zoo::resnet18(), zoo::mobilenet()];
        let cells = plan_matrix(
            base(),
            ManagerConfig::new(Objective::Accesses),
            SweepScheme::Heterogeneous,
            &nets,
            &[64, 256],
        )
        .unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.network.as_str(), c.glb_kb))
                .collect::<Vec<_>>(),
            vec![
                ("ResNet18", 64),
                ("ResNet18", 256),
                ("MobileNet", 64),
                ("MobileNet", 256)
            ]
        );
    }

    #[test]
    fn matrix_cells_match_the_manager_facade() {
        let nets = vec![zoo::mnasnet()];
        let cfg = ManagerConfig::new(Objective::Accesses);
        let cells =
            plan_matrix(base(), cfg, SweepScheme::Heterogeneous, &nets, &[64, 1024]).unwrap();
        for c in &cells {
            let manager = Manager::new(base().with_glb(ByteSize::from_kb(c.glb_kb)), cfg);
            let seq = manager.heterogeneous(&nets[0]).unwrap();
            assert_eq!(seq.totals, c.plan.totals, "{} @ {}kB", c.network, c.glb_kb);
        }
    }

    #[test]
    fn scheme_flag_selects_hom() {
        let nets = vec![zoo::resnet18()];
        let cfg = ManagerConfig::new(Objective::Accesses);
        let cells = plan_matrix(base(), cfg, SweepScheme::BestHomogeneous, &nets, &[64]).unwrap();
        assert!(matches!(cells[0].plan.scheme, Scheme::Homogeneous(_)));
    }

    #[test]
    fn cell_lookup() {
        let nets = vec![zoo::resnet18()];
        let cfg = ManagerConfig::new(Objective::Accesses);
        let cells = plan_matrix(base(), cfg, SweepScheme::Heterogeneous, &nets, &[64]).unwrap();
        assert!(cell(&cells, "ResNet18", 64).is_some());
        assert!(cell(&cells, "ResNet18", 128).is_none());
        assert!(cell(&cells, "VGG", 64).is_none());
    }
}
