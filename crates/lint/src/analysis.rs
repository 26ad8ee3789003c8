//! The dataflow analysis: one forward pass per command stream over
//! interval sets, plus a reverse pre-pass for final-store detection.
//!
//! See `docs/LINTING.md` for the full design; in short, the analyzer
//! mirrors the replay scratchpad's residency semantics with an
//! [`IntervalSet`] (fill/alloc insert, evict/store remove, stream
//! leaves residency untouched) and tracks three more sets — delivered
//! ifmap bytes, delivered filter bytes, stored ofmap bytes — from which
//! every hazard proof and the traffic/occupancy re-derivations follow.

use crate::interval::IntervalSet;
use crate::report::{LayerLint, LintReport};
use smm_check::{Code, Diagnostic, Severity};
use smm_core::ExecutionPlan;
use smm_exec::{Action, AddressResolver, Command, CommandMeta, Operand, Program};
use smm_model::{LayerShape, Network};
use smm_policy::{AccessCounts, PolicyEstimate};
use std::fmt;
use std::ops::Range;

/// Linting failure: the plan and network disagree structurally, or a
/// layer failed to lower. Diagnosable stream defects are *not* errors —
/// they come back as diagnostics in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// Plan and network have different layer counts.
    PlanMismatch {
        /// What disagreed.
        message: String,
    },
    /// `Program::lower` failed for a layer.
    Lower {
        /// The lowering error, with the layer name.
        message: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::PlanMismatch { message } => write!(f, "plan/network mismatch: {message}"),
            LintError::Lower { message } => write!(f, "lowering failed: {message}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Per-command lint annotation: the resolved range plus the claimed
/// (recorded) and derived (re-computed) traffic and residency numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandAnnotation {
    /// Command index in the stream.
    pub index: usize,
    /// Action class.
    pub action: Action,
    /// Operand region.
    pub operand: Operand,
    /// First run of the resolved flat element addresses.
    pub range: Range<u64>,
    /// Distance between the starts of consecutive runs.
    pub stride: u64,
    /// Number of runs (1 unless the command is a filter-channel block).
    pub count: u64,
    /// DRAM elements the recorded metadata claims the command moved.
    pub claimed_dram: u64,
    /// DRAM elements the dataflow says the command must move.
    pub derived_dram: u64,
    /// Post-command residency the recorded metadata claims.
    pub claimed_resident_after: u64,
    /// Post-command residency the dataflow derives.
    pub derived_resident_after: u64,
    /// Elements this command re-fetched or re-streamed although they
    /// were provably still resident (reclaimable traffic).
    pub redundant_elems: u64,
}

/// The lint result for one lowered program.
#[derive(Debug, Clone)]
pub struct ProgramLint {
    /// All findings, aggregated one per code (first offending command
    /// plus a count), in code order. Layer fields are unset;
    /// [`lint_plan`] tags them.
    pub diagnostics: Vec<Diagnostic>,
    /// One annotation per resolvable command, in stream order. Empty in
    /// the layers of a [`lint_plan`] report.
    pub annotations: Vec<CommandAnnotation>,
    /// Derived peak GLB occupancy (elements).
    pub derived_peak: u64,
    /// Derived ifmap elements read from DRAM.
    pub ifmap_loads: u64,
    /// Derived filter elements read from DRAM.
    pub filter_loads: u64,
    /// Derived ofmap elements written to DRAM.
    pub ofmap_writes: u64,
    /// Derived ofmap elements read back (psum reloads).
    pub ofmap_reads: u64,
    /// Total reclaimable redundant-transfer elements.
    pub redundant_elems: u64,
}

impl ProgramLint {
    /// True when no diagnostics were emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The statically derived traffic in estimator shape (spill stores
    /// folded into `ofmap_stores`, mirroring
    /// `smm_exec::Replay::as_access_counts`).
    pub fn derived_access_counts(&self) -> AccessCounts {
        AccessCounts {
            ifmap_loads: self.ifmap_loads,
            filter_loads: self.filter_loads,
            ofmap_stores: self.ofmap_writes,
            psum_spill_stores: 0,
            psum_spill_loads: self.ofmap_reads,
        }
    }
}

/// One diagnostic per code, aggregated over the stream: the first
/// offending command's message plus a count of further occurrences, so
/// a corrupt 10k-command stream yields bounded, deterministic output.
struct CodeAccum {
    code: Code,
    first: String,
    count: usize,
}

#[derive(Default)]
struct Findings {
    accums: Vec<CodeAccum>,
}

impl Findings {
    fn hit(&mut self, code: Code, message: impl FnOnce() -> String) {
        match self.accums.iter_mut().find(|a| a.code == code) {
            Some(a) => a.count += 1,
            None => self.accums.push(CodeAccum {
                code,
                first: message(),
                count: 1,
            }),
        }
    }

    fn into_diagnostics(mut self) -> Vec<Diagnostic> {
        self.accums.sort_by_key(|a| a.code);
        self.accums
            .into_iter()
            .map(|a| {
                let message = if a.count > 1 {
                    format!("{} (+{} more)", a.first, a.count - 1)
                } else {
                    a.first
                };
                Diagnostic {
                    code: a.code,
                    severity: Severity::Error,
                    layer: None,
                    layer_name: None,
                    message,
                }
            })
            .collect()
    }
}

/// The padded-ifmap rows a window of output rows `out_rows` consumes
/// (stride `s`, filter height `fh`, clamped to the padded extent).
fn required_input_rows(shape: &LayerShape, out_rows: &Range<u64>) -> Range<u64> {
    if out_rows.start >= out_rows.end {
        return 0..0;
    }
    let s = u64::from(shape.stride);
    let fh = u64::from(shape.filter_h);
    let pad_h = u64::from(shape.padded_h());
    let lo = (out_rows.start.saturating_mul(s)).min(pad_h);
    let hi = ((out_rows.end - 1).saturating_mul(s).saturating_add(fh)).min(pad_h);
    lo..hi.max(lo)
}

/// Statically analyze one lowered program against its layer shape and
/// the policy estimate it was lowered from. Never fails: unresolvable
/// commands and malformed metadata surface as SMM014 diagnostics.
pub fn lint_program(program: &Program, shape: &LayerShape, est: &PolicyEstimate) -> ProgramLint {
    analyze(program, shape, est, true)
}

/// [`lint_program`], building the per-command annotations only when
/// `annotate` is set: `lint_plan` keeps none, since one per command
/// over a whole plan would set the verifier's memory peak.
fn analyze(
    program: &Program,
    shape: &LayerShape,
    est: &PolicyEstimate,
    annotate: bool,
) -> ProgramLint {
    let mut findings = Findings::default();
    let mut annotations = Vec::with_capacity(if annotate { program.commands.len() } else { 0 });
    let lint = |findings: Findings| ProgramLint {
        diagnostics: findings.into_diagnostics(),
        annotations: Vec::new(),
        derived_peak: 0,
        ifmap_loads: 0,
        filter_loads: 0,
        ofmap_writes: 0,
        ofmap_reads: 0,
        redundant_elems: 0,
    };

    let resolver = match AddressResolver::new(shape) {
        Ok(r) => r,
        Err(e) => {
            findings.hit(Code::LedgerDivergence, || {
                format!("layer address space unresolvable: {e}")
            });
            return lint(findings);
        }
    };

    if program.meta.len() != program.commands.len() {
        findings.hit(Code::LedgerDivergence, || {
            format!(
                "metadata ledger has {} entries for {} commands",
                program.meta.len(),
                program.commands.len()
            )
        });
    }

    // Reverse pre-pass: the part of each store not overwritten by a
    // later store is the layer's *final* output for those bytes — only
    // those stores must have their full inputs delivered (intermediate
    // partial-sum spills legitimately precede some of their input
    // fills; see docs/LINTING.md).
    let mut later_stored = IntervalSet::new();
    let mut final_parts: Vec<Option<Vec<Range<u64>>>> = vec![None; program.commands.len()];
    for (i, cmd) in program.commands.iter().enumerate().rev() {
        if let Command::StoreOfmapRows { .. } = cmd {
            if let Ok(rc) = resolver.resolve(i, cmd) {
                final_parts[i] = Some(later_stored.missing_runs(&rc.range));
                later_stored.insert(&rc.range);
            }
        }
    }

    let default_meta = CommandMeta {
        dram_elems: 0,
        is_write: false,
        resident_after: 0,
    };
    let mut res = IntervalSet::new();
    let mut delivered_ifmap = IntervalSet::new();
    let mut delivered_filter = IntervalSet::new();
    let mut stored_ofmap = IntervalSet::new();
    let mut derived_peak = 0u64;
    let mut ifmap_loads = 0u64;
    let mut filter_loads = 0u64;
    let mut ofmap_writes = 0u64;
    let mut ofmap_reads = 0u64;
    let mut redundant_total = 0u64;

    for (i, cmd) in program.commands.iter().enumerate() {
        let meta = program.meta.get(i).unwrap_or(&default_meta);
        let rc = match resolver.resolve(i, cmd) {
            Ok(rc) => rc,
            Err(e) => {
                findings.hit(Code::LedgerDivergence, || e.to_string());
                continue;
            }
        };
        let claimed = meta.dram_elems;
        let mut derived_dram = 0u64;
        let mut redundant = 0u64;
        match rc.action {
            Action::Fill | Action::Reload => {
                derived_dram = rc.runs().map(|r| res.missing(&r)).sum();
                if claimed > derived_dram {
                    // The stream claims to move bytes that are provably
                    // already resident: a refetch, reclaimable traffic.
                    redundant = claimed - derived_dram;
                    findings.hit(Code::RedundantTransfer, || {
                        format!(
                            "command {i} ({cmd}) refetches {redundant} \
                             still-resident elements"
                        )
                    });
                } else if claimed < derived_dram {
                    findings.hit(Code::LedgerDivergence, || {
                        format!(
                            "command {i} ({cmd}) claims {claimed} DRAM elements \
                             but {derived_dram} are non-resident"
                        )
                    });
                }
                if rc.action == Action::Reload && !stored_ofmap.covers(&rc.range) {
                    findings.hit(Code::UseBeforeFill, || {
                        format!(
                            "command {i} ({cmd}) reloads {} partial-sum elements \
                             that were never spilled",
                            stored_ofmap.missing(&rc.range)
                        )
                    });
                }
                match rc.operand {
                    Operand::Ifmap => {
                        ifmap_loads += derived_dram;
                        delivered_ifmap.insert(&rc.range);
                    }
                    Operand::Filter => {
                        filter_loads += derived_dram;
                        for run in rc.runs() {
                            delivered_filter.insert(&run);
                        }
                    }
                    Operand::Ofmap => ofmap_reads += derived_dram,
                }
                for run in rc.runs() {
                    res.insert(&run);
                }
            }
            Action::Stream => {
                // Streams are row and whole-filter commands: one run.
                derived_dram = rc.elems();
                let resident_overlap = res.intersect_len(&rc.range);
                if resident_overlap > 0 {
                    // Streaming re-moves bytes that are sitting in the
                    // GLB — the transfer is entirely avoidable.
                    redundant = resident_overlap;
                    findings.hit(Code::RedundantTransfer, || {
                        format!(
                            "command {i} ({cmd}) streams {resident_overlap} \
                             still-resident elements"
                        )
                    });
                }
                if claimed != derived_dram {
                    findings.hit(Code::LedgerDivergence, || {
                        format!(
                            "command {i} ({cmd}) claims {claimed} DRAM elements, \
                             streams always move their full range ({derived_dram})"
                        )
                    });
                }
                match rc.operand {
                    Operand::Ifmap => {
                        ifmap_loads += derived_dram;
                        delivered_ifmap.insert(&rc.range);
                    }
                    Operand::Filter => {
                        filter_loads += derived_dram;
                        delivered_filter.insert(&rc.range);
                    }
                    Operand::Ofmap => ofmap_reads += derived_dram,
                }
            }
            Action::Evict | Action::Alloc => {
                if claimed != 0 {
                    findings.hit(Code::LedgerDivergence, || {
                        format!(
                            "command {i} ({cmd}) claims {claimed} DRAM elements, \
                             evicts and allocs move none"
                        )
                    });
                }
                if rc.action == Action::Evict {
                    // Back to front: each removal then shifts only the
                    // runs above the block, not the block's own runs.
                    for run in rc.runs().rev() {
                        res.remove(&run);
                    }
                } else {
                    res.insert(&rc.range);
                }
            }
            Action::Store => {
                derived_dram = rc.elems();
                let missing = res.missing(&rc.range);
                if missing > 0 {
                    findings.hit(Code::StoreBeforeAlloc, || {
                        format!(
                            "command {i} ({cmd}) stores {missing} elements that \
                             were never allocated (or already released)"
                        )
                    });
                }
                if claimed != derived_dram || !meta.is_write {
                    findings.hit(Code::LedgerDivergence, || {
                        format!(
                            "command {i} ({cmd}) store ledger is off: claims \
                             {claimed} elements (want {derived_dram}), is_write={}",
                            meta.is_write
                        )
                    });
                }
                // RAW proof: a store whose bytes are never overwritten
                // by a later store is final output — every input that
                // feeds it must have been delivered by now.
                let is_final = final_parts[i]
                    .as_ref()
                    .is_some_and(|parts| !parts.is_empty());
                if is_final {
                    if let Command::StoreOfmapRows { channel, rows } = cmd {
                        let in_rows = required_input_rows(shape, rows);
                        let in_channels: Vec<u64> = if shape.depthwise {
                            vec![*channel]
                        } else {
                            (0..u64::from(shape.in_channels)).collect()
                        };
                        let mut missing_in = 0u64;
                        for c in &in_channels {
                            missing_in +=
                                delivered_ifmap.missing(&resolver.ifmap_rows(*c, in_rows.clone()));
                        }
                        let missing_f =
                            delivered_filter.missing(&resolver.filters(*channel..channel + 1));
                        if missing_in > 0 || missing_f > 0 {
                            findings.hit(Code::UseBeforeFill, || {
                                format!(
                                    "command {i} ({cmd}) is a final store but \
                                     {missing_in} ifmap / {missing_f} filter input \
                                     elements were never delivered"
                                )
                            });
                        }
                    }
                }
                ofmap_writes += derived_dram;
                res.remove(&rc.range);
                stored_ofmap.insert(&rc.range);
            }
        }
        let derived_resident_after = res.len();
        derived_peak = derived_peak.max(derived_resident_after);
        redundant_total += redundant;
        if program.meta.len() == program.commands.len()
            && meta.resident_after != derived_resident_after
        {
            findings.hit(Code::LedgerDivergence, || {
                format!(
                    "command {i} ({cmd}) records {} resident elements, dataflow \
                     derives {derived_resident_after} — an evict or fill was \
                     reordered or mis-ranged",
                    meta.resident_after
                )
            });
        }
        if annotate {
            annotations.push(CommandAnnotation {
                index: i,
                action: rc.action,
                operand: rc.operand,
                range: rc.range,
                stride: rc.stride,
                count: rc.count,
                claimed_dram: claimed,
                derived_dram,
                claimed_resident_after: meta.resident_after,
                derived_resident_after,
                redundant_elems: redundant,
            });
        }
    }

    // End-of-stream proofs.
    let leaked = res.intersect_len(&resolver.ofmap_region());
    if leaked > 0 {
        findings.hit(Code::ResidencyLeak, || {
            format!(
                "{leaked} ofmap elements are still resident at end of stream — \
                 allocated or reloaded but never stored"
            )
        });
    }
    if derived_peak != program.replay.peak_resident {
        findings.hit(Code::OccupancyMismatch, || {
            format!(
                "derived peak occupancy {derived_peak} != recorded peak {}",
                program.replay.peak_resident
            )
        });
    }
    let working_set = est.resident.total();
    if derived_peak > working_set {
        findings.hit(Code::OccupancyMismatch, || {
            format!(
                "derived peak occupancy {derived_peak} exceeds the plan's Eq. 1 \
                 working set {working_set}"
            )
        });
    }
    let replay = &program.replay;
    let pairs = [
        ("ifmap loads", ifmap_loads, replay.ifmap_loads),
        ("filter loads", filter_loads, replay.filter_loads),
        ("ofmap writes", ofmap_writes, replay.ofmap_writes),
        ("ofmap reads", ofmap_reads, replay.ofmap_reads),
    ];
    for (what, derived, recorded) in pairs {
        if derived != recorded {
            findings.hit(Code::StreamTrafficMismatch, || {
                format!("derived {what} {derived} != recorded {recorded}")
            });
        }
    }

    ProgramLint {
        diagnostics: findings.into_diagnostics(),
        annotations,
        derived_peak,
        ifmap_loads,
        filter_loads,
        ofmap_writes,
        ofmap_reads,
        redundant_elems: redundant_total,
    }
}

/// Lower every layer of `plan` and lint the resulting command streams,
/// one layer at a time in layer order. Emits the `lint.*` counters
/// through `smm-obs`.
pub fn lint_plan(plan: &ExecutionPlan, net: &Network) -> Result<LintReport, LintError> {
    if plan.decisions.len() != net.layers.len() {
        return Err(LintError::PlanMismatch {
            message: format!(
                "plan has {} decisions, network {:?} has {} layers",
                plan.decisions.len(),
                net.name,
                net.layers.len()
            ),
        });
    }
    let _span = smm_obs::span!("lint.plan", "{}", plan.network);
    let layers: Vec<LayerLint> = plan
        .decisions
        .iter()
        .zip(&net.layers)
        .map(|(d, layer)| {
            let program =
                Program::lower(&layer.shape, &d.estimate).map_err(|e| LintError::Lower {
                    message: format!("layer {} ({}): {e}", d.layer_index, d.layer_name),
                })?;
            let mut lint = analyze(&program, &layer.shape, &d.estimate, false);
            for diag in &mut lint.diagnostics {
                diag.layer = Some(d.layer_index);
                diag.layer_name = Some(d.layer_name.clone());
            }
            Ok(LayerLint {
                layer_index: d.layer_index,
                layer_name: d.layer_name.clone(),
                policy: d.estimate.kind,
                prefetch: d.estimate.prefetch,
                commands: program.commands.len(),
                lint,
            })
        })
        .collect::<Result<_, LintError>>()?;
    let report = LintReport::assemble(&plan.network, layers);
    if smm_obs::enabled() {
        smm_obs::add(smm_obs::Counter::LintPrograms, report.layers.len() as u64);
        smm_obs::add(
            smm_obs::Counter::LintDiagnostics,
            report.diagnostics().count() as u64,
        );
        smm_obs::add(smm_obs::Counter::LintRedundantElems, report.redundant_elems);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::{AcceleratorConfig, ByteSize};
    use smm_core::{Manager, ManagerConfig, Objective};
    use smm_model::zoo;

    #[test]
    fn lint_plan_builds_no_annotations_but_the_same_traffic_and_diagnostics() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        let net = zoo::resnet18();
        let plan = Manager::new(acc, ManagerConfig::new(Objective::Accesses))
            .heterogeneous(&net)
            .unwrap();
        let report = lint_plan(&plan, &net).unwrap();
        for (layer, (d, l)) in report
            .layers
            .iter()
            .zip(plan.decisions.iter().zip(&net.layers))
        {
            assert!(layer.lint.annotations.is_empty());
            let program = Program::lower(&l.shape, &d.estimate).unwrap();
            let alone = lint_program(&program, &l.shape, &d.estimate);
            assert_eq!(alone.annotations.len(), program.commands.len());
            assert_eq!(layer.commands, program.commands.len());
            assert_eq!(
                layer.lint.derived_access_counts(),
                alone.derived_access_counts()
            );
            assert_eq!(layer.lint.derived_peak, alone.derived_peak);
            assert_eq!(layer.lint.redundant_elems, alone.redundant_elems);
            let findings = |diags: &[Diagnostic]| {
                diags
                    .iter()
                    .map(|d| (d.code, d.message.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                findings(&layer.lint.diagnostics),
                findings(&alone.diagnostics)
            );
        }
    }
}
