//! Property tests for the trace-invariant oracle.
//!
//! Two halves. First, *soundness on real campaigns*: arbitrary small
//! campaign configurations — random job counts, background load,
//! perturbation pressure and fault mixes across every strategy kind —
//! always produce traces the oracle accepts. Second, *sensitivity to
//! corruption*: a clean campaign trace or report, mutated in any of
//! several distinct corruption classes (chronology violations, lifecycle
//! violations, phantom events, erased terminals, tampered record counters,
//! tampered fault accounting), is always rejected.

use gridsched_core::strategy::StrategyKind;
use gridsched_flow::faults::FaultConfig;
use gridsched_flow::metascheduler::FlowAssignment;
use gridsched_flow::oracle::{self, OracleViolation};
use gridsched_flow::simulation::{run_campaign, CampaignConfig};
use gridsched_flow::trace::{BreakKind, CampaignEvent};
use gridsched_flow::VoReport;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

/// Draws a small arbitrary campaign configuration: a handful of jobs, a
/// random strategy, random benign noise and a random fault mix.
fn arbitrary_config(g: &mut Gen) -> CampaignConfig {
    let kind = *g.pick(&StrategyKind::ALL);
    let slow_lo = g.f64_in(1.0, 1.5);
    let slow_hi = slow_lo + g.f64_in(0.0, 1.0);
    CampaignConfig {
        assignment: FlowAssignment::Single(kind),
        jobs: g.usize_in(3, 14),
        background_load: g.f64_in(0.0, 0.5),
        perturbations: g.usize_in(0, 25),
        slowdown_range: (slow_lo, slow_hi),
        task_jitter: g.f64_in(0.0, 0.2),
        horizon: SimDuration::from_ticks(g.u64_in(200, 600)),
        faults: FaultConfig {
            outages: g.usize_in(0, 6),
            outage_len: (2, g.u64_in(4, 20)),
            degradations: g.usize_in(0, 5),
            transfer_faults: g.usize_in(0, 6),
            transfer_retry: (1, g.u64_in(2, 8)),
            ..FaultConfig::none()
        },
        collect_trace: true,
        seed: g.u64_in(0, u64::MAX - 1),
        ..CampaignConfig::default()
    }
}

/// Runs an arbitrary campaign and hands the (oracle-clean) report to the
/// mutation under test; the mutated report must be rejected.
fn rejects(g: &mut Gen, corrupt: impl Fn(&mut Gen, &mut VoReport) -> bool) {
    let config = arbitrary_config(g);
    let mut report = run_campaign(&config);
    oracle::audit(&report).expect("uncorrupted campaign must be oracle-clean");
    if corrupt(g, &mut report) {
        assert!(
            oracle::audit(&report).is_err(),
            "corrupted report slipped past the oracle (config {config:?})"
        );
    }
}

#[test]
fn arbitrary_small_campaigns_are_oracle_clean() {
    check(48, |g| {
        let config = arbitrary_config(g);
        let report = run_campaign(&config);
        oracle::audit(&report).unwrap_or_else(|v| {
            panic!("oracle violation on a real campaign: {v} (config {config:?})")
        });
    });
}

// ---- Corruption class 1: chronology ----------------------------------

#[test]
fn mutation_time_reversal_is_rejected() {
    check(32, |g| {
        rejects(g, |g, report| {
            let trace = report.trace.as_mut().expect("trace collected");
            let events = trace.events_mut();
            if events.len() < 2 {
                return false;
            }
            // Push one event's timestamp past its successor's, leaving
            // the order of events untouched.
            let i = g.usize_in(0, events.len() - 2);
            let next = events[i + 1].0;
            events[i].0 = SimTime::from_ticks(next.ticks() + 1 + g.u64_in(0, 50));
            true
        });
    });
}

// ---- Corruption class 2: lifecycle (phantom events) ------------------

#[test]
fn mutation_phantom_break_is_rejected() {
    check(32, |g| {
        rejects(g, |g, report| {
            let Some(job) = report
                .records
                .iter()
                .find(|r| r.cost.is_some())
                .map(|r| r.job_id)
            else {
                return false;
            };
            let trace = report.trace.as_mut().expect("trace collected");
            let at = trace
                .events()
                .last()
                .map(|(t, _)| *t)
                .unwrap_or(SimTime::ZERO);
            let kind = *g.pick(&BreakKind::ALL);
            trace
                .events_mut()
                .push((at, CampaignEvent::Broken { job, kind }));
            true
        });
    });
}

#[test]
fn mutation_duplicate_release_is_rejected() {
    check(32, |g| {
        rejects(g, |_, report| {
            let trace = report.trace.as_mut().expect("trace collected");
            let Some(release) = trace
                .events()
                .iter()
                .find(|(_, e)| matches!(e, CampaignEvent::Released { .. }))
                .copied()
            else {
                return false;
            };
            let at = trace
                .events()
                .last()
                .map(|(t, _)| *t)
                .unwrap_or(SimTime::ZERO);
            trace.events_mut().push((at, release.1));
            true
        });
    });
}

// ---- Corruption class 3: erased terminals ----------------------------

#[test]
fn mutation_erased_terminal_is_rejected() {
    check(32, |g| {
        rejects(g, |g, report| {
            let trace = report.trace.as_mut().expect("trace collected");
            let terminals: Vec<usize> = trace
                .events()
                .iter()
                .enumerate()
                .filter(|(_, (_, e))| {
                    matches!(
                        e,
                        CampaignEvent::Completed { .. } | CampaignEvent::Dropped { .. }
                    )
                })
                .map(|(i, _)| i)
                .collect();
            if terminals.is_empty() {
                return false;
            }
            let victim = *g.pick(&terminals);
            trace.events_mut().remove(victim);
            true
        });
    });
}

// ---- Corruption class 4: tampered per-job records --------------------

#[test]
fn mutation_record_tampering_is_rejected() {
    check(32, |g| {
        rejects(g, |g, report| {
            let activated: Vec<usize> = report
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.cost.is_some())
                .map(|(i, _)| i)
                .collect();
            if activated.is_empty() {
                return false;
            }
            let idx = *g.pick(&activated);
            let record = &mut report.records[idx];
            match g.usize_in(0, 3) {
                0 => record.breaks += 1,
                1 => record.dropped = !record.dropped,
                2 => record.migrations += 1,
                _ => {
                    let old = record.time_to_live.unwrap_or(SimDuration::ZERO);
                    record.time_to_live =
                        Some(SimDuration::from_ticks(old.ticks() + 1 + g.u64_in(0, 9)));
                }
            }
            true
        });
    });
}

// ---- Corruption class 5: tampered fault accounting -------------------

#[test]
fn mutation_fault_counter_tampering_is_rejected() {
    check(32, |g| {
        rejects(g, |g, report| {
            let f = &mut report.faults;
            let slot = g.usize_in(0, 5);
            let target: &mut usize = match slot {
                0 => &mut f.outages_injected,
                1 => &mut f.transfer_faults_injected,
                2 => &mut f.breaks_by_perturbation,
                3 => &mut f.replans,
                4 => &mut f.drops,
                _ => &mut f.switches,
            };
            *target += 1;
            true
        });
    });
}

/// The oracle names the corruption, not just "error": spot-check a few
/// deterministic mutations map to the expected violation class.
#[test]
fn violations_are_classified() {
    let config = CampaignConfig {
        assignment: FlowAssignment::Single(StrategyKind::S2),
        jobs: 10,
        perturbations: 10,
        faults: FaultConfig {
            outages: 3,
            transfer_faults: 3,
            ..FaultConfig::none()
        },
        horizon: SimDuration::from_ticks(400),
        collect_trace: true,
        seed: 7,
        ..CampaignConfig::default()
    };
    let clean = run_campaign(&config);
    oracle::audit(&clean).expect("clean campaign");

    // No trace at all.
    let mut r = clean.clone();
    r.trace = None;
    assert!(matches!(
        oracle::audit(&r),
        Err(OracleViolation::MissingTrace)
    ));

    // Chronology violation.
    let mut r = clean.clone();
    {
        let events = r.trace.as_mut().unwrap().events_mut();
        let next = events[1].0;
        events[0].0 = SimTime::from_ticks(next.ticks() + 1);
    }
    assert!(matches!(
        oracle::audit(&r),
        Err(OracleViolation::NonMonotoneTime { .. })
    ));

    // Fault-summary tampering.
    let mut r = clean.clone();
    r.faults.drops += 1;
    assert!(matches!(
        oracle::audit(&r),
        Err(OracleViolation::FaultAccountingMismatch { field: "drops", .. })
    ));
}

// ---- Releases past the horizon ----------------------------------------

/// Jobs released after the horizon closes are traced at their release
/// instants; the completions `finalize` records for surviving jobs must
/// not be stamped before them.
#[test]
fn releases_past_the_horizon_keep_the_trace_chronological() {
    for seed in [1, 2, 3, 101] {
        let config = CampaignConfig {
            jobs: 60,
            job_gap: SimDuration::from_ticks(6),
            horizon: SimDuration::from_ticks(100),
            collect_trace: true,
            seed,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config);
        let events = report.trace.as_ref().expect("trace collected").events();
        let last_release = events
            .iter()
            .filter(|(_, e)| matches!(e, CampaignEvent::Released { .. }))
            .map(|&(t, _)| t)
            .max()
            .expect("jobs were released");
        assert!(
            last_release > SimTime::ZERO + config.horizon,
            "seed {seed}: the case needs a release past the horizon"
        );
        oracle::audit(&report).unwrap_or_else(|v| panic!("seed {seed}: oracle violation: {v}"));
    }
}
