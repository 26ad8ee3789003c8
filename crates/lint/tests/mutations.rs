//! Mutation tests: every linter diagnostic (SMM012–SMM018) is
//! demonstrated by corrupting a provably-clean lowered program in
//! exactly the way the code describes, mirroring the smm-check mutation
//! discipline (`crates/check/tests/mutations.rs` asserts this harness
//! covers the full SMM012+ catalogue).
//!
//! A corruption may legitimately trip *several* codes — dropping a fill
//! breaks the RAW proof, the residency ledger, and the traffic totals
//! at once — so each test asserts the targeted code fired (and, where
//! the corruption is surgical, that nothing else did).

use smm_arch::{AcceleratorConfig, ByteSize};
use smm_check::Code;
use smm_exec::{Command, Program};
use smm_lint::lint_program;
use smm_model::LayerShape;
use smm_policy::{estimate, PolicyEstimate, PolicyKind};

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

fn lowered(kind: PolicyKind) -> (Program, LayerShape, PolicyEstimate) {
    let shape = small_layer();
    let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
    let est = estimate(kind, &shape, &acc, false).unwrap();
    let program = Program::lower(&shape, &est).unwrap();
    (program, shape, est)
}

/// The unmutated program must lint clean, or the mutation proves
/// nothing.
fn assert_clean(program: &Program, shape: &LayerShape, est: &PolicyEstimate) {
    let lint = lint_program(program, shape, est);
    assert!(
        lint.is_clean(),
        "baseline not clean: {:?}",
        lint.diagnostics
    );
    assert_eq!(lint.redundant_elems, 0);
}

fn position(program: &Program, pred: impl Fn(&Command) -> bool) -> usize {
    program
        .commands
        .iter()
        .position(pred)
        .expect("program contains the command class")
}

#[test]
fn smm012_dropping_a_fill_breaks_the_raw_proof() {
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    let i = position(&p, |c| matches!(c, Command::FillIfmapRows { .. }));
    p.commands.remove(i);
    p.meta.remove(i);
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::UseBeforeFill),
        "dropped fill must break the use-before-fill proof: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm013_duplicating_a_fill_is_a_redundant_transfer() {
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    let i = position(&p, |c| matches!(c, Command::FillIfmapRows { .. }));
    // The duplicate claims to move the same bytes again although the
    // first fill left them resident.
    p.commands.insert(i + 1, p.commands[i].clone());
    p.meta.insert(i + 1, p.meta[i]);
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::RedundantTransfer),
        "duplicated fill must be flagged redundant: {:?}",
        lint.diagnostics
    );
    assert!(lint.redundant_elems > 0);
}

#[test]
fn smm014_reordering_an_evict_before_last_use_diverges_the_ledger() {
    let (mut p, shape, est) = lowered(PolicyKind::P1IfmapReuse);
    assert_clean(&p, &shape, &est);
    // Hoist the first evict to the very front: everything it used to
    // run after now records residency the dataflow no longer derives.
    let i = position(&p, |c| matches!(c, Command::EvictIfmapRows { .. }));
    let cmd = p.commands.remove(i);
    let meta = p.meta.remove(i);
    p.commands.insert(0, cmd);
    p.meta.insert(0, meta);
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::LedgerDivergence),
        "reordered evict must diverge the residency ledger: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm014_malformed_commands_are_ledger_divergence() {
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    // An out-of-bounds channel cannot be resolved to an address range.
    p.commands[0] = Command::FillIfmapRows {
        channel: 999,
        rows: 0..1,
    };
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::LedgerDivergence && d.message.contains("command 0")),
        "unresolvable command must be anchored ledger divergence: {:?}",
        lint.diagnostics
    );

    // A truncated metadata ledger is also SMM014.
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    p.meta.pop();
    let lint = lint_program(&p, &shape, &est);
    assert!(lint
        .diagnostics
        .iter()
        .any(|d| d.code == Code::LedgerDivergence && d.message.contains("ledger")));
}

#[test]
fn smm014_shrinking_a_filter_channel_evict_leaves_unrecorded_residency() {
    let (mut p, shape, est) = lowered(PolicyKind::P3PerChannel);
    assert_clean(&p, &shape, &est);
    let i = position(
        &p,
        |c| matches!(c, Command::EvictFilterChannel { filters, .. } if filters.end - filters.start >= 2),
    );
    let Command::EvictFilterChannel { filters, channel } = &p.commands[i] else {
        unreachable!()
    };
    // The evict now releases one filter fewer than the ledger says.
    p.commands[i] = Command::EvictFilterChannel {
        filters: filters.start..filters.end - 1,
        channel: *channel,
    };
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::LedgerDivergence
                && d.message.contains(&format!("command {i} "))),
        "shrunken evict block must diverge the residency ledger: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm014_a_filter_block_past_the_last_filter_is_unresolvable() {
    let (mut p, shape, est) = lowered(PolicyKind::P3PerChannel);
    assert_clean(&p, &shape, &est);
    let i = position(&p, |c| matches!(c, Command::FillFilterChannel { .. }));
    let Command::FillFilterChannel { filters, channel } = &p.commands[i] else {
        unreachable!()
    };
    p.commands[i] = Command::FillFilterChannel {
        filters: filters.start..u64::from(shape.num_filters) + 1,
        channel: *channel,
    };
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::LedgerDivergence
                && d.message.contains(&format!("command {i}:"))
                && d.message.contains("outside")),
        "an out-of-range filter block must be anchored ledger divergence: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm015_shrinking_an_alloc_makes_the_store_unbacked() {
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    let i = position(
        &p,
        |c| matches!(c, Command::AllocOfmapRows { rows, .. } if rows.end - rows.start >= 2),
    );
    let Command::AllocOfmapRows { channel, rows } = &p.commands[i] else {
        unreachable!()
    };
    p.commands[i] = Command::AllocOfmapRows {
        channel: *channel,
        rows: rows.start..rows.end - 1,
    };
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::StoreBeforeAlloc),
        "shrunken alloc must leave the store unbacked: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm016_dropping_a_store_leaks_ofmap_residency() {
    let (mut p, shape, est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    let i = position(&p, |c| matches!(c, Command::StoreOfmapRows { .. }));
    p.commands.remove(i);
    p.meta.remove(i);
    let lint = lint_program(&p, &shape, &est);
    assert!(
        lint.diagnostics
            .iter()
            .any(|d| d.code == Code::ResidencyLeak),
        "dropped store must leak output residency: {:?}",
        lint.diagnostics
    );
}

#[test]
fn smm017_tampered_peak_breaks_the_occupancy_proof() {
    let (mut p, shape, est) = lowered(PolicyKind::P2FilterReuse);
    assert_clean(&p, &shape, &est);
    p.replay.peak_resident += 1;
    let lint = lint_program(&p, &shape, &est);
    // The tamper is surgical — only the occupancy proof can notice.
    assert_eq!(lint.diagnostics.len(), 1, "{:?}", lint.diagnostics);
    assert_eq!(lint.diagnostics[0].code, Code::OccupancyMismatch);
}

#[test]
fn smm017_peak_above_the_working_set_is_flagged() {
    let (p, shape, mut est) = lowered(PolicyKind::IntraLayer);
    assert_clean(&p, &shape, &est);
    // Shrink the claimed Eq. 1 working set below the true peak: the
    // stream no longer fits the footprint the plan promised.
    est.resident.ifmap = 0;
    est.resident.filters = 0;
    est.resident.ofmap = 0;
    let lint = lint_program(&p, &shape, &est);
    assert!(lint
        .diagnostics
        .iter()
        .any(|d| d.code == Code::OccupancyMismatch && d.message.contains("working set")));
}

#[test]
fn smm018_tampered_replay_traffic_is_caught() {
    let (mut p, shape, est) = lowered(PolicyKind::P1IfmapReuse);
    assert_clean(&p, &shape, &est);
    p.replay.ifmap_loads += 1;
    let lint = lint_program(&p, &shape, &est);
    assert_eq!(lint.diagnostics.len(), 1, "{:?}", lint.diagnostics);
    assert_eq!(lint.diagnostics[0].code, Code::StreamTrafficMismatch);
    assert!(lint.diagnostics[0].message.contains("ifmap loads"));
}

#[test]
fn every_lint_code_has_a_mutation_here() {
    // Meta-test: the SMM012+ block of the catalogue is exactly what
    // this harness exercises (SMM001–SMM011 live in smm-check's own
    // mutation suite).
    let covered = [
        Code::UseBeforeFill,
        Code::RedundantTransfer,
        Code::LedgerDivergence,
        Code::StoreBeforeAlloc,
        Code::ResidencyLeak,
        Code::OccupancyMismatch,
        Code::StreamTrafficMismatch,
    ];
    let lint_codes: Vec<Code> = Code::ALL
        .iter()
        .copied()
        .filter(|c| c.as_str() >= "SMM012")
        .collect();
    assert_eq!(covered.as_slice(), lint_codes.as_slice());
}
