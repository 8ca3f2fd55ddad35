//! End-to-end benchmark of `gridsched`, driven from outside through the
//! public API. See `README.md` next to this crate for the workloads, the
//! metrics and what each layer metric is expected to move.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload campaign|online|deep_calendar --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the plain entry points and prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and prints
//! the per-layer ledger. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries the run's metadata. A failed correctness check
//! exits with code 1, a bad argument with code 2.

mod deep;
mod flow_runs;
mod ledger;
mod pass;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gridsched::core::pool::WorkerPool;
use gridsched::metrics::telemetry::Telemetry;

use crate::deep::DeepCalendar;
use crate::flow_runs::FlowWorkload;
use crate::ledger::{observe, per_layer, Metric};
use crate::pass::{Pass, Workload};
use crate::stats::{
    column_medians, decode_counts, encode_counts, first_mismatch, median, median_and_tail, slowest,
    Quantile, Tally, WorkCounts,
};

/// Set-ups per run: at least this many, and more while they take less
/// than [`SETUP_BUDGET`] in total, up to [`SETUP_MAX`]; `setup_s` is
/// their median. A millisecond set-up needs many samples to be steady.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["campaign", "online", "deep_calendar"];

/// Each ratio metric and the metrics it is computed from.
const RATIO_BASES: &[(&str, &str)] = &[
    (
        "model.index_cache_hit_ratio",
        "model.index_cache_hits / (model.index_cache_hits + model.index_rebuilds)",
    ),
    (
        "core.scenario_success_ratio",
        "core.scenarios_planned / (core.scenarios_planned + core.scenarios_failed)",
    ),
    (
        "exec.sweep_overlap",
        "exec.scenario_total_ms / core.generate_total_ms",
    ),
    (
        "flow.reprobe_share",
        "flow.incremental_replans / flow.probes",
    ),
    ("flow.admit_waste", "flow.admit_sweeps - flow.admissions"),
    (
        "metrics.telemetry_overhead_share",
        "(metrics.traced_pass_ms - metrics.untraced_pass_ms) / metrics.untraced_pass_ms",
    ),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s}: must be 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "campaign" => Box::new(FlowWorkload::campaign(seed)),
        "online" => Box::new(FlowWorkload::online(seed)),
        _ => Box::new(DeepCalendar::new(seed)),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where a run records its counts for later runs of the same seed to
/// compare against: next to the executable, keyed by the executable's
/// size and modification time so a rebuilt program starts afresh.
fn record_path(workload: &str, seed: u64, kind: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let dir = exe.parent()?.join("e2e-bench-runs");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!(
        "{workload}-{seed}-{}-{mtime}-{kind}.txt",
        meta.len()
    )))
}

/// Compares `counts` with the record an earlier run of this seed left,
/// or leaves one. Returns what the comparison found.
fn repeat_check(
    workload: &str,
    seed: u64,
    kind: &str,
    counts: &WorkCounts,
    problems: &mut Vec<String>,
) -> String {
    let Some(path) = record_path(workload, seed, kind) else {
        return "not compared: no place to keep a record".to_owned();
    };
    match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| decode_counts(&t))
    {
        Some(earlier) => match first_mismatch(&earlier, counts) {
            None => "identical to an earlier run of this seed".to_owned(),
            Some((name, a, b)) => {
                let msg = format!(
                    "{kind} counts differ from an earlier run of this seed: {name} was {a:?}, now {b:?}"
                );
                problems.push(msg.clone());
                msg
            }
        },
        None => match std::fs::write(&path, encode_counts(counts)) {
            Ok(()) => "first run of this seed; recorded".to_owned(),
            Err(e) => format!("not compared: {e}"),
        },
    }
}

/// Quotes `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite metric value as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn quantiles_json(quantiles: &[(String, Quantile)]) -> String {
    let body: Vec<String> = quantiles
        .iter()
        .map(|(name, q)| {
            format!(
                "{}: {{\"percentile\": {}, \"samples\": {}}}",
                json_str(name),
                q.percentile,
                q.samples
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn counts_json(counts: &WorkCounts) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The counts every pass must repeat exactly: the workload's own, the
/// telemetry's (traced passes), operations, failures and decisions.
fn pass_counts(pass: &Pass, observed: Option<&WorkCounts>) -> WorkCounts {
    let mut counts = pass.counts.clone();
    if let Some(observed) = observed {
        counts.extend(observed.iter().map(|(k, v)| (k.clone(), *v)));
    }
    counts.insert("ops.attempted".into(), pass.tally.attempted);
    counts.insert("ops.failed".into(), pass.tally.failed);
    counts.insert("decisions.fingerprint".into(), pass.fingerprint);
    counts
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            eprintln!(
                "usage: e2e_bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(build(args.workload, args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced = Vec::new();
    let traced_pass = |w: &mut dyn Workload| {
        let telemetry = Telemetry::new();
        let pass = w.pass(&telemetry);
        (pass, observe(&telemetry))
    };
    while untraced.is_empty() || started.elapsed() < budget {
        if !args.trace {
            untraced.push(workload.pass(&Telemetry::disabled()));
        } else if untraced.len().is_multiple_of(2) {
            // Traced and untraced passes alternate in ABBA order, so a
            // drift in machine speed cancels out of their difference.
            untraced.push(workload.pass(&Telemetry::disabled()));
            traced.push(traced_pass(workload.as_mut()));
        } else {
            traced.push(traced_pass(workload.as_mut()));
            untraced.push(workload.pass(&Telemetry::disabled()));
        }
    }

    let mut problems: Vec<String> = Vec::new();
    let mut run_total = Tally::default();
    for pass in untraced.iter().chain(traced.iter().map(|(p, _)| p)) {
        problems.extend(pass.problems.iter().cloned());
        run_total = run_total.merged(pass.tally);
    }
    // The result counts the workload's distinct operations: those of one
    // pass, which every later pass repeats with the same outcome (checked
    // below). A sum over passes would follow how many passes fit into
    // the run, so two runs of one seed would report different counts.
    let tally = untraced[0].tally;
    // Every pass, traced or not, must make the same decisions and do the
    // same work; traced passes must also repeat every telemetry count.
    let reference = pass_counts(&untraced[0], None);
    let mut work_repeat = format!("identical across {} passes", untraced.len() + traced.len());
    for (i, pass) in untraced
        .iter()
        .chain(traced.iter().map(|(p, _)| p))
        .enumerate()
        .skip(1)
    {
        if let Some((name, a, b)) = first_mismatch(&reference, &pass_counts(pass, None)) {
            work_repeat = format!("pass {i} differs from pass 0: {name} {a:?} then {b:?}");
            problems.push(work_repeat.clone());
        }
    }
    let traced_counts: Option<WorkCounts> =
        traced.first().map(|(p, o)| pass_counts(p, Some(&o.counts)));
    if let Some(first) = &traced_counts {
        for (i, (p, o)) in traced.iter().enumerate().skip(1) {
            if let Some((name, a, b)) = first_mismatch(first, &pass_counts(p, Some(&o.counts))) {
                work_repeat = format!("traced pass {i} differs: {name} {a:?} then {b:?}");
                problems.push(work_repeat.clone());
            }
        }
    }
    let decisions_repeat = repeat_check(
        args.workload,
        args.seed,
        "decisions",
        &reference,
        &mut problems,
    );
    let counts_repeat = traced_counts
        .as_ref()
        .map(|c| repeat_check(args.workload, args.seed, "work", c, &mut problems));

    let mut metrics: Vec<Metric> = Vec::new();
    let mut quantiles: Vec<(String, Quantile)> = Vec::new();
    if args.trace {
        let traced_rows: Vec<&[f64]> = traced.iter().map(|(p, _)| &p.call_s[..]).collect();
        let untraced_rows: Vec<&[f64]> = untraced.iter().map(|p| &p.call_s[..]).collect();
        let report = per_layer(
            &traced,
            column_medians(&traced_rows).iter().sum::<f64>() * 1e3,
            column_medians(&untraced_rows).iter().sum::<f64>() * 1e3,
        );
        metrics = report.metrics;
        quantiles = report.quantiles;
    } else {
        let rows: Vec<&[f64]> = untraced.iter().map(|p| &p.call_s[..]).collect();
        let op_ms: Vec<&[f64]> = untraced.iter().map(|p| &p.op_ms[..]).collect();
        let per_op = column_medians(&op_ms);
        let (p50, tail) = if workload.times_each_operation() {
            median_and_tail(&per_op, 99)
        } else {
            (median_and_tail(&per_op, 50).0, slowest(&per_op))
        };
        let first = &untraced[0];
        let pass_s: f64 = column_medians(&rows).iter().sum();
        let cost_mean = first.cost_sum as f64 / first.cost_n.max(1) as f64;
        let rss = peak_rss_mb().unwrap_or_else(|| {
            problems.push("peak RSS unreadable from /proc/self/status".to_owned());
            0.0
        });
        metrics.push(Metric::new(
            "ops_per_s",
            "1/s",
            first.tally.attempted as f64 / pass_s,
        ));
        metrics.push(Metric::new("op_p50_ms", "ms", p50.value));
        metrics.push(Metric::new("op_p99_ms", "ms", tail.value));
        metrics.push(Metric::new("setup_s", "s", median(&setup_s)));
        metrics.push(Metric::new("peak_rss_mb", "MiB", rss));
        metrics.push(Metric::new("cost_mean", "CF", cost_mean));
        quantiles.push(("op_p50_ms".to_owned(), p50));
        quantiles.push(("op_p99_ms".to_owned(), tail));
        quantiles.push((
            "setup_s".to_owned(),
            Quantile {
                percentile: 50,
                value: median(&setup_s),
                samples: setup_s.len(),
            },
        ));
        if first.cost_n == 0 {
            problems.push("no schedule was activated".to_owned());
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ratio_bases: Vec<String> = RATIO_BASES
        .iter()
        .filter(|(name, _)| metrics.iter().any(|m| m.name == *name))
        .map(|(name, base)| format!("{}: {}", json_str(name), json_str(base)))
        .collect();
    let problem_list: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    let mut meta = BTreeMap::new();
    meta.insert("workload", json_str(args.workload));
    meta.insert("seed", args.seed.to_string());
    meta.insert("seconds", args.seconds.to_string());
    meta.insert("trace", u8::from(args.trace).to_string());
    meta.insert("cores", cores.to_string());
    meta.insert("pool_workers", WorkerPool::global().workers().to_string());
    meta.insert("instances", workload.instances().to_string());
    meta.insert("untraced_passes", untraced.len().to_string());
    meta.insert(
        "operations_run",
        format!(
            "{{\"attempted\": {}, \"failed\": {}}}",
            run_total.attempted, run_total.failed
        ),
    );
    meta.insert("traced_passes", traced.len().to_string());
    meta.insert("quantiles", quantiles_json(&quantiles));
    if !args.trace && !workload.times_each_operation() {
        meta.insert(
            "not_applicable",
            format!(
                "{{\"op_p50_ms\": {0}, \"op_p99_ms\": {0}}}",
                json_str(
                    "no per-operation latency: the operations run inside one call each. \
                 The samples are calls, each its wall time over its operations; \
                 op_p50_ms is their median and op_p99_ms the slowest call"
                )
            ),
        );
    }
    let pass_s: Vec<String> = untraced
        .iter()
        .map(|p| json_num(p.call_s.iter().sum()))
        .collect();
    meta.insert("untraced_pass_s", format!("[{}]", pass_s.join(", ")));
    let setups: Vec<String> = setup_s.iter().map(|v| json_num(*v)).collect();
    meta.insert("setup_s_samples", format!("[{}]", setups.join(", ")));
    meta.insert("ratio_bases", format!("{{{}}}", ratio_bases.join(", ")));
    meta.insert(
        "work_counts",
        counts_json(traced_counts.as_ref().unwrap_or(&reference)),
    );
    meta.insert("work_counts_across_passes", json_str(&work_repeat));
    meta.insert("decisions_across_runs", json_str(&decisions_repeat));
    if let Some(repeat) = &counts_repeat {
        meta.insert("work_counts_across_runs", json_str(repeat));
    }
    meta.insert("problems", format!("[{}]", problem_list.join(", ")));
    let meta_body: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta_body.join(", "));

    for p in &problems {
        eprintln!("e2e_bench: FAILED CHECK: {p}");
    }
    let correct = problems.is_empty();
    let metric_body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metric_body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
