//! Tier semantics: the four code tiers (interpreted, Cython-compiled,
//! copy-eliminated, native) change *cost*, never *values* — and placement
//! (host vs CSD) never changes a program's result either.

use activepy::exec::{execute, ExecOptions};
use alang::{ExecTier, Interpreter};
use csd_sim::{EngineKind, SystemConfig};

#[test]
fn tiers_change_latency_never_results() {
    for w in isp_workloads::table1() {
        let program = w.program().expect("parse");
        let storage = w.storage_at(0.05);
        // Reference values from a plain interpreted run.
        let mut reference = Interpreter::new(&storage);
        reference.run(&program, &[]).expect("reference run");
        let final_var = &program.lines().last().expect("non-empty").target;
        let want = reference.var(final_var).expect("final value").clone();
        // The compiled tiers execute the same semantics.
        for tier in [
            ExecTier::Compiled,
            ExecTier::CompiledCopyElim,
            ExecTier::Native,
        ] {
            let compiled = alang::CompiledProgram::compile(
                program.clone(),
                tier,
                &alang::copyelim::DatasetTypes::new(),
            );
            compiled.run(&storage).expect("compiled run");
            // `CompiledProgram::run` re-executes through the interpreter, so
            // replay the values explicitly for the comparison.
            let mut interp = Interpreter::new(&storage);
            interp
                .run(&program, compiled.copy_elim())
                .expect("tier run");
            assert_eq!(
                interp.var(final_var).expect("value"),
                &want,
                "{}: tier {tier} changed the result",
                w.name()
            );
        }
    }
}

#[test]
fn placement_never_changes_results_only_time() {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("TPC-H-6").expect("registered");
    let program = w.program().expect("parse");
    let storage = w.storage_at(1.0);

    let lowered = alang::lower::lower(&program).expect("lower");
    let opts = ExecOptions::native_static();
    let mut host_sys = config.build();
    let host = execute(
        &program,
        &lowered,
        &storage,
        &vec![EngineKind::Host; program.len()],
        None,
        None,
        &mut host_sys,
        &opts,
    )
    .expect("host run");

    let mut isp_sys = config.build();
    let placements = vec![EngineKind::Cse; program.len()];
    let isp = execute(
        &program,
        &lowered,
        &storage,
        &placements,
        None,
        None,
        &mut isp_sys,
        &opts,
    )
    .expect("isp run");

    // Same measured per-line data volumes, different wall clock.
    for (h, d) in host.lines.iter().zip(&isp.lines) {
        assert_eq!(
            h.cost.bytes_out, d.cost.bytes_out,
            "line {} volume differs",
            h.line
        );
        assert_eq!(h.cost.compute_ops, d.cost.compute_ops);
    }
    assert_ne!(host.total_secs, isp.total_secs);
}

#[test]
fn copy_elim_never_slows_a_workload() {
    let config = SystemConfig::paper_default();
    for w in isp_workloads::table1() {
        let plain = isp_baselines::run_host_only(&w, &config, ExecTier::Compiled)
            .expect("compiled")
            .total_secs;
        let elim = isp_baselines::run_host_only(&w, &config, ExecTier::CompiledCopyElim)
            .expect("copy-elim")
            .total_secs;
        assert!(
            elim <= plain + 1e-9,
            "{}: copy elimination slowed the run ({elim} vs {plain})",
            w.name()
        );
    }
}
