//! Per-layer metrics of the traced run.
//!
//! Counts come from an `Aggregator` on the program's probe bus; spans come
//! from the benchmark's own calls into each layer. A layer a workload
//! does not run reads 0 on that workload (see `README.md`).

use lottery_obs::Aggregator;

use crate::common::{Report, Spans};

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ledger.invalidated_clients_per_decision", "count"),
    ("ledger.invalidated_currencies_per_decision", "count"),
    ("ledger.dirty_drained_per_decision", "count"),
    ("ledger.cache_hit_rate", "ratio"),
    ("ledger.ops_per_decision", "count"),
    ("ledger.churn_ns", "ns"),
    ("ledger.set_funding_ns", "ns"),
    ("lottery.draw_entries_mean", "count"),
    ("lottery.draw_levels_mean", "count"),
    ("lottery.rebuilds_per_kdecision", "count"),
    ("lottery.rebuild_ns_mean", "ns"),
    ("event.pending_mean", "count"),
    ("event.pending_max", "count"),
    ("smp.steals_per_kdecision", "count"),
    ("smp.migrations", "count"),
    ("smp.rebalances", "count"),
    ("smp.utilization", "ratio"),
    ("kernel.spawn_ns", "ns"),
    ("kernel.window_ns", "ns"),
    ("kernel.context_switch_share", "ratio"),
    ("kernel.idle_share", "ratio"),
    ("kernel.compensations_per_kdecision", "count"),
    ("par.spawn_ns", "ns"),
    ("par.run_s", "s"),
    ("par.check_ns", "ns"),
    ("par.steals_per_kdecision", "count"),
    ("par.decision_skew", "ratio"),
    ("par.virtual_busy_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// The unit of a per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

fn put(report: &mut Report, name: &'static str, value: f64) {
    report.metric(name, value, unit_of(name));
}

/// `core::ledger`, from the aggregator's cache and mutation counters and
/// the benchmark's spans around currency churn and inflation calls.
pub fn ledger(report: &mut Report, a: &Aggregator, decisions: f64, spans: &Spans) {
    put(
        report,
        "ledger.invalidated_clients_per_decision",
        a.invalidated_clients as f64 / decisions,
    );
    put(
        report,
        "ledger.invalidated_currencies_per_decision",
        a.invalidated_currencies as f64 / decisions,
    );
    put(
        report,
        "ledger.dirty_drained_per_decision",
        a.dirty_drained.sum() / decisions,
    );
    put(
        report,
        "ledger.cache_hit_rate",
        a.cache_hit_rate().unwrap_or(0.0),
    );
    let ops: u64 = a.ledger_ops.values().sum();
    put(report, "ledger.ops_per_decision", ops as f64 / decisions);
    put(report, "ledger.churn_ns", spans.mean_ns("ledger.churn"));
    put(
        report,
        "ledger.set_funding_ns",
        spans.mean_ns("ledger.set_funding"),
    );
}

/// `core::lottery`: draw effort and winner-structure rebuilds.
pub fn lottery(report: &mut Report, a: &Aggregator, decisions: f64) {
    put(report, "lottery.draw_entries_mean", a.draw_entries.mean());
    put(report, "lottery.draw_levels_mean", a.draw_levels.mean());
    put(
        report,
        "lottery.rebuilds_per_kdecision",
        a.structure_rebuilds as f64 / decisions * 1000.0,
    );
    put(
        report,
        "lottery.rebuild_ns_mean",
        a.structure_rebuild_ns.mean(),
    );
}

/// `sim::kernel` + `sched::lottery`: spawn and window spans, and the
/// kernel's own accounting.
pub fn kernel(
    report: &mut Report,
    a: &Aggregator,
    decisions: f64,
    spans: &Spans,
    context_switch_share: f64,
    idle_share: f64,
) {
    put(report, "kernel.spawn_ns", spans.mean_ns("kernel.spawn"));
    put(
        report,
        "kernel.window_ns",
        spans.mean_ns("kernel.run_until"),
    );
    put(report, "kernel.context_switch_share", context_switch_share);
    put(report, "kernel.idle_share", idle_share);
    put(
        report,
        "kernel.compensations_per_kdecision",
        a.compensations as f64 / decisions * 1000.0,
    );
}

/// Adds 0 for every per-layer metric the workload did not measure and
/// puts the list in print order.
pub fn complete(report: &mut Report) {
    for &(name, unit) in PER_LAYER {
        if !report.metrics.iter().any(|m| m.name == name) {
            report.metric(name, 0.0, unit);
        }
    }
    report
        .metrics
        .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
}
