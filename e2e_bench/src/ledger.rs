//! The per-layer ledger of a traced run: telemetry spans and counters of
//! the program, plus the benchmark's own timers, turned into the
//! `per_layer` metrics of `BENCHMARK.json`.

use std::collections::{BTreeMap, HashMap};

use gridsched::metrics::telemetry::{Counter, Telemetry};

use crate::pass::Pass;
use crate::stats::{median, median_and_tail, ratio, Quantile, WorkCounts};

/// Deterministic telemetry counters, by metric name.
const COUNTERS: &[(&str, Counter)] = &[
    ("model.index_seeks", Counter::IndexSeeks),
    ("model.index_bypasses", Counter::IndexBypasses),
    ("model.index_rebuilds", Counter::IndexRebuilds),
    ("model.index_cache_hits", Counter::IndexCacheHits),
    ("model.index_cache_evictions", Counter::IndexCacheEvictions),
    ("core.critical_works_passes", Counter::CriticalWorksPasses),
    ("core.scenarios_planned", Counter::ScenariosPlanned),
    ("core.scenarios_failed", Counter::ScenariosFailed),
    ("core.plan_conflicts", Counter::PlanConflicts),
    ("core.overlays_created", Counter::OverlaysCreated),
    ("exec.pooled_sweeps", Counter::PooledSweeps),
    ("flow.probes", Counter::AdmissionProbes),
    ("flow.incremental_replans", Counter::IncrementalReplans),
    ("flow.admissions", Counter::JobsAdmitted),
    ("flow.breaks", Counter::ScheduleBreaks),
    ("flow.switches", Counter::ScheduleSwitches),
    ("flow.migrations", Counter::Migrations),
    ("flow.drops", Counter::Drops),
];

/// Spans whose count is a deterministic work count, by metric name.
const SPAN_COUNTS: &[(&str, &str)] = &[
    ("core.generate_calls", "strategy_generation"),
    ("flow.admit_sweeps", "admit"),
    ("flow.release_calls", "release"),
    ("flow.replan_calls", "replan"),
    ("model.session_captures", "session_open"),
];

/// What the telemetry of one traced pass recorded.
#[derive(Debug, Default)]
pub struct Observed {
    /// Deterministic counts: counters and span counts.
    pub counts: WorkCounts,
    /// Span durations in ns, by span name.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    /// Self time of the critical-works passes (duration minus children),
    /// in ns.
    pub critical_works_self_ns: f64,
}

/// Reads one traced pass's telemetry.
#[must_use]
pub fn observe(telemetry: &Telemetry) -> Observed {
    let snapshot = telemetry.snapshot();
    let mut children_ns: HashMap<_, u64> = HashMap::new();
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in snapshot.spans() {
        if let Some(parent) = span.parent {
            *children_ns.entry(parent).or_insert(0) += span.duration_ns();
        }
        spans
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
    }
    let critical_works_self_ns = snapshot
        .spans()
        .iter()
        .filter(|s| s.name == "critical_works_pass")
        .map(|s| {
            let children = children_ns.get(&s.id).copied().unwrap_or(0);
            s.duration_ns().saturating_sub(children) as f64
        })
        .sum();
    let mut counts: WorkCounts = COUNTERS
        .iter()
        .map(|&(name, c)| (name.to_owned(), telemetry.counter(c)))
        .collect();
    for &(name, span) in SPAN_COUNTS {
        counts.insert(name.to_owned(), spans.get(span).map_or(0, Vec::len) as u64);
    }
    Observed {
        counts,
        spans,
        critical_works_self_ns,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// The per-layer metrics plus the sample count and actual percentile
/// behind each percentile metric.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// `(metric name, quantile)` for every percentile metric.
    pub quantiles: Vec<(String, Quantile)>,
}

impl LayerReport {
    fn count(&mut self, name: &str, value: u64) {
        self.metrics.push(Metric::new(name, "count", value as f64));
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Reports the median (and, with `tail`, the tail percentile) of
    /// `samples` as `<stem>_p50_<unit>` / `<stem>_p99_<unit>`.
    fn percentiles(&mut self, stem: &str, unit: &'static str, samples: &[f64], tail: bool) {
        let (p50, p99) = median_and_tail(samples, 99);
        let mut put = |suffix: &str, q: Quantile| {
            let name = format!("{stem}_{suffix}_{unit}");
            self.metrics.push(Metric::new(&name, unit, q.value));
            self.quantiles.push((name, q));
        };
        put("p50", p50);
        if tail {
            put("p99", p99);
        }
    }
}

/// Assembles the per-layer report of a traced run: `traced` holds every
/// traced pass with what its telemetry recorded; the pass times (ms) of
/// the traced and untraced passes give the telemetry overhead.
#[must_use]
pub fn per_layer(traced: &[(Pass, Observed)], traced_ms: f64, untraced_ms: f64) -> LayerReport {
    let counts = &traced[0].1.counts;
    let own_counts = &traced[0].0.counts;
    let get = |name: &str| -> u64 {
        counts
            .get(name)
            .or_else(|| own_counts.get(name))
            .copied()
            .unwrap_or(0)
    };
    let spans = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|(_, o)| o.spans.get(name).into_iter().flatten().copied())
            .collect()
    };
    let per_pass_ms = |name: &str| -> f64 {
        let totals: Vec<f64> = traced
            .iter()
            .map(|(_, o)| o.spans.get(name).map_or(0.0, |v| v.iter().sum::<f64>()) / 1e6)
            .collect();
        median(&totals)
    };
    let own = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|(p, _)| f(p).iter().copied())
            .collect()
    };
    let mut r = LayerReport::default();

    // model: the program's `session_open` spans, each of which wraps
    // exactly one capture.
    let captures = spans("session_open");
    r.count(
        "model.capture_calls",
        (captures.len() / traced.len()) as u64,
    );
    r.percentiles("model.capture", "ns", &captures, true);
    r.count("model.reserve_calls", get("model.reserve_calls"));
    r.percentiles("model.reserve", "ns", &own(|p| &p.own.reserve_ns), false);
    for name in [
        "model.index_seeks",
        "model.index_bypasses",
        "model.index_rebuilds",
        "model.index_cache_hits",
        "model.index_cache_evictions",
    ] {
        r.count(name, get(name));
    }
    let hits = get("model.index_cache_hits") as f64;
    let rebuilds = get("model.index_rebuilds") as f64;
    r.push(
        "model.index_cache_hit_ratio",
        "ratio",
        ratio(hits, hits + rebuilds),
    );

    // core
    r.count("core.generate_calls", get("core.generate_calls"));
    r.percentiles("core.generate", "ns", &spans("strategy_generation"), true);
    let generate_ms = per_pass_ms("strategy_generation");
    r.push("core.generate_total_ms", "ms", generate_ms);
    r.count(
        "core.critical_works_passes",
        get("core.critical_works_passes"),
    );
    let cw_self: Vec<f64> = traced
        .iter()
        .map(|(_, o)| o.critical_works_self_ns / 1e6)
        .collect();
    r.push("core.critical_works_self_ms", "ms", median(&cw_self));
    let planned = get("core.scenarios_planned");
    let failed = get("core.scenarios_failed");
    r.count("core.scenarios_planned", planned);
    r.count("core.scenarios_failed", failed);
    r.push(
        "core.scenario_success_ratio",
        "ratio",
        ratio(planned as f64, (planned + failed) as f64),
    );
    r.count("core.plan_conflicts", get("core.plan_conflicts"));
    r.count("core.overlays_created", get("core.overlays_created"));

    // exec
    r.count("exec.pooled_sweeps", get("exec.pooled_sweeps"));
    let scenario_ms = per_pass_ms("scenario");
    r.push("exec.scenario_total_ms", "ms", scenario_ms);
    r.push(
        "exec.sweep_overlap",
        "ratio",
        ratio(scenario_ms, generate_ms),
    );

    // flow
    let probes = get("flow.probes");
    let reprobes = get("flow.incremental_replans");
    r.count("flow.probes", probes);
    r.count("flow.incremental_replans", reprobes);
    r.percentiles("flow.probe", "ns", &spans("admission_probe"), true);
    r.push("flow.probe_total_ms", "ms", per_pass_ms("admission_probe"));
    r.push(
        "flow.reprobe_share",
        "ratio",
        ratio(reprobes as f64, probes as f64),
    );
    let admit_sweeps = get("flow.admit_sweeps");
    let admissions = get("flow.admissions");
    r.count("flow.admit_sweeps", admit_sweeps);
    r.count("flow.admissions", admissions);
    r.count("flow.admit_waste", admit_sweeps.saturating_sub(admissions));
    // A batch campaign releases a job in a `release` span; online serving
    // releases it in an `admit` span (probe passed, sweep, activation).
    let mut releases = spans("release");
    releases.extend(spans("admit"));
    r.percentiles("flow.release", "ns", &releases, true);
    r.percentiles("flow.replan", "ns", &spans("replan"), true);
    for name in [
        "flow.breaks",
        "flow.switches",
        "flow.migrations",
        "flow.drops",
    ] {
        r.count(name, get(name));
    }
    r.push(
        "flow.oracle_audit_ms",
        "ms",
        median(&own(|p| &p.own.audit_ms)),
    );

    // metrics: what tracing itself costs, against the untraced passes of
    // the same run.
    r.push("metrics.traced_pass_ms", "ms", traced_ms);
    r.push("metrics.untraced_pass_ms", "ms", untraced_ms);
    r.push(
        "metrics.telemetry_overhead_share",
        "ratio",
        ratio(traced_ms - untraced_ms, untraced_ms),
    );
    r
}
