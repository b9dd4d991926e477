//! Human-readable rendering of execution reports.
//!
//! [`render_timeline`] turns a [`RunReport`] into the kind of annotated
//! trace an ISP developer reads when deciding whether a placement made
//! sense: per-line placement, wall-clock interval, data volumes, staging
//! traffic, and the migration break if one occurred.

use crate::exec::{MigrationReason, RunReport};
use alang::Program;
use std::fmt::Write as _;

/// Formats a byte count compactly.
fn fmt_bytes(b: u64) -> String {
    let n = b as f64;
    if n >= 1e9 {
        format!("{:.2}GB", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1}MB", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}KB", n / 1e3)
    } else {
        format!("{b}B")
    }
}

/// Renders a per-line execution timeline.
///
/// `program` must be the program the report was produced from (line
/// indices are matched positionally).
///
/// ```
/// # use activepy::runtime::ActivePy;
/// # use alang::{builtins::Storage, value::ArrayVal, Value};
/// # use csd_sim::{ContentionScenario, SystemConfig};
/// # let program = alang::parser::parse("a = scan('v')\ns = sum(a)\n")?;
/// # let input = |scale: f64| {
/// #     let mut st = Storage::new();
/// #     let logical = ((scale * 1e9) as u64).max(64);
/// #     st.insert("v", Value::Array(ArrayVal::with_logical(vec![1.0; 64], logical)));
/// #     st
/// # };
/// # let outcome = ActivePy::new()
/// #     .run(&program, &input, &SystemConfig::paper_default(), ContentionScenario::none())?;
/// let text = activepy::report::render_timeline(&program, &outcome.report);
/// assert!(text.contains("total "));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn render_timeline(program: &Program, report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>9}  {:>6}  {:<5} {:>10} {:>10} {:>9}  line",
        "start", "dur", "where", "in", "out", "staged"
    );
    for l in &report.lines {
        let source = program
            .lines()
            .get(l.line)
            .map_or("<unknown>", |line| line.source.as_str());
        let place = match l.engine {
            csd_sim::EngineKind::Cse => "CSD",
            csd_sim::EngineKind::Host => "host",
        };
        let _ = writeln!(
            out,
            "{:>8.3}s {:>5.0}ms  {:<5} {:>10} {:>10} {:>9}  {}",
            l.start_secs,
            (l.end_secs - l.start_secs) * 1e3,
            place,
            fmt_bytes(l.cost.bytes_in),
            fmt_bytes(l.cost.bytes_out),
            fmt_bytes(l.staged_bytes),
            source,
        );
        if let Some(m) = report.migration {
            if m.after_line == l.line {
                let why = match m.reason {
                    MigrationReason::Degraded => "throughput degraded",
                    MigrationReason::Preempted => "high-priority preemption",
                    MigrationReason::DeviceFault => "device fault",
                    MigrationReason::Reclaim => "availability recovered",
                };
                let _ = writeln!(
                    out,
                    "{:>8.3}s  ------ MIGRATION ({why}): {} of live state, {:.0}ms regen ------",
                    m.at_secs,
                    fmt_bytes(m.state_bytes),
                    m.regen_secs * 1e3,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "total {:.3}s | csd-busy {:.3}s | d2h {} | h2d {} | peak device DRAM {}",
        report.total_secs,
        report.csd_busy_secs(),
        fmt_bytes(report.d2h_bytes),
        fmt_bytes(report.h2d_bytes),
        fmt_bytes(report.peak_device_bytes),
    );
    out.push_str(&render_counters(&report.metrics));
    out
}

/// Renders the non-zero counter families of a metrics snapshot as a
/// timeline footer — the same
/// [`MetricsSnapshot::counter_families`](crate::metrics::MetricsSnapshot::counter_families)
/// fold the tracer publication and the bench exporters walk, so the
/// footer can never drift from the registry namespace. Empty (no
/// header) when every family is zero — the common fault-free,
/// unaudited run.
#[must_use]
pub fn render_counters(metrics: &crate::metrics::MetricsSnapshot) -> String {
    let nonzero: Vec<(&'static str, u64)> = metrics
        .counter_families()
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .collect();
    let mut out = String::new();
    if nonzero.is_empty() {
        return out;
    }
    let _ = writeln!(out, "counters:");
    for (name, value) in nonzero {
        let _ = writeln!(out, "  {name:<32} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::{Storage, Value};
    use csd_sim::{EngineKind, SystemConfig};

    fn run_report() -> (Program, RunReport) {
        let program = parse("a = scan('v')\nm = a < 50\ns = count(m)\n").expect("parse");
        let mut st = Storage::new();
        let data: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, 100_000_000)));
        let mut sys = SystemConfig::paper_default().build();
        let placements = vec![EngineKind::Cse, EngineKind::Cse, EngineKind::Host];
        let lowered = alang::lower::lower(&program).expect("lower");
        let report = execute(
            &program,
            &lowered,
            &st,
            &placements,
            None,
            None,
            &mut sys,
            &ExecOptions::native_static(),
        )
        .expect("run");
        (program, report)
    }

    #[test]
    fn timeline_contains_every_line_and_the_totals() {
        let (program, report) = run_report();
        let text = render_timeline(&program, &report);
        for line in program.lines() {
            assert!(text.contains(&line.source), "missing: {}", line.source);
        }
        assert!(text.contains("total "));
        assert!(text.contains("CSD"));
        assert!(text.contains("host"));
        assert!(text.contains("peak device DRAM"));
    }

    #[test]
    fn counter_footer_shows_only_nonzero_families() {
        let (_, report) = run_report();
        // Fault-free, unaudited run: no footer at all.
        assert_eq!(render_counters(&report.metrics), "");

        let mut metrics = report.metrics;
        metrics.recovery.retries = 2;
        metrics.audit.lines_audited = 3;
        metrics.audit.mean_abs_err_ppm = 41_000;
        let text = render_counters(&metrics);
        assert!(text.starts_with("counters:"), "{text}");
        assert!(text.contains("recovery.retries"), "{text}");
        assert!(text.contains("audit.lines_audited"), "{text}");
        assert!(text.contains("audit.mean_abs_err_ppm"), "{text}");
        assert!(!text.contains("fault.cse_crashes"), "{text}");
    }

    #[test]
    fn byte_formatting_scales() {
        assert_eq!(fmt_bytes(12), "12B");
        assert_eq!(fmt_bytes(1_500), "1.5KB");
        assert_eq!(fmt_bytes(2_500_000), "2.5MB");
        assert_eq!(fmt_bytes(9_100_000_000), "9.10GB");
    }
}
