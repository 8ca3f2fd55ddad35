//! The two job-flow workloads: the §4 batch campaign (`run_campaign`)
//! and streamed online serving (`run_online`). Each call runs one whole
//! campaign, so only the call is timed; per-operation latency is the
//! call's wall time over its operations.

use std::fmt::Write as _;
use std::time::Instant;

use gridsched::core::pool::WorkerPool;
use gridsched::core::strategy::{StrategyKind, SweepExecutorKind};
use gridsched::data::network::TransferModel;
use gridsched::flow::faults::FaultConfig;
use gridsched::flow::metascheduler::FlowAssignment;
use gridsched::flow::online::{run_online, run_online_instrumented, OnlineConfig, OnlineReport};
use gridsched::flow::oracle::audit;
use gridsched::flow::report::VoReport;
use gridsched::flow::simulation::{run_campaign, run_campaign_instrumented, CampaignConfig};
use gridsched::metrics::telemetry::Telemetry;
use gridsched::model::ids::JobId;
use gridsched::model::node::ResourcePool;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched::workload::arrivals::{generate_arrivals, ArrivalProcess};
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_stream, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};

use crate::pass::{instance_seed, pool_config, Fingerprint, Pass, Workload};

/// Campaigns per pass: one campaign's time still varies with its jobs
/// and calendars, and eight average that seed spread down.
const CAMPAIGN_INSTANCES: usize = 8;
/// Online runs per pass. Their work counts vary by about 4% between
/// seeds at four runs, far less than the host's drift, so the pass is
/// kept short: a 30 s run then takes its medians over about a dozen
/// passes.
const ONLINE_INSTANCES: usize = 4;

/// Scenario sweeps run on the calling thread. On a shared 2-vCPU host
/// the pooled sweep's speed followed how much of the second vCPU the
/// host lent it: the host stole 17% of CPU time during a pooled run and
/// under 2% during a sequential one. Decisions are bit-identical under
/// every executor.
const SWEEP_EXECUTOR: SweepExecutorKind = SweepExecutorKind::Sequential;

/// The §4 campaign with the calibrated Fig. 4 values of the repository's
/// bench crate (`fig4_campaign_base`: 400 jobs released at most 12 ticks
/// apart inside a 5k-tick horizon, deadline factor 6, background 0.1,
/// 400 perturbations, the 25/35/40 pool mix and the Fig. 3 network),
/// dealt by size to a coarse S3 flow and a fine S2 flow. Only the pool
/// size is fixed (see [`pool_config`]), the trace is collected, which
/// the oracle audit needs, and the sweeps run sequentially (see
/// [`SWEEP_EXECUTOR`]).
fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        assignment: FlowAssignment::BySize {
            threshold: 7,
            large: StrategyKind::S3,
            small: StrategyKind::S2,
        },
        jobs: 400,
        job_config: JobConfig {
            deadline_factor: 6.0,
            ..JobConfig::default()
        },
        background_load: 0.1,
        job_gap: SimDuration::from_ticks(12),
        horizon: SimDuration::from_ticks(5_000),
        perturbations: 400,
        pool_config: PoolConfig {
            group_shares: (0.25, 0.35, 0.40),
            ..pool_config()
        },
        transfer_model: TransferModel::new(5.0, 3.5, SimDuration::from_ticks(1)),
        collect_trace: true,
        executor: SWEEP_EXECUTOR,
        seed,
        ..CampaignConfig::default()
    }
}

/// The `online_throughput` shape scaled to ~400 arrivals: Poisson
/// arrivals at 0.15/tick into a 16-deep admission queue, with outages,
/// degradations and transfer faults.
fn online_config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        base: CampaignConfig {
            jobs: 400,
            perturbations: 40,
            horizon: SimDuration::from_ticks(3_000),
            faults: FaultConfig {
                outages: 3,
                degradations: 2,
                transfer_faults: 3,
                ..FaultConfig::none()
            },
            pool_config: pool_config(),
            collect_trace: true,
            executor: SWEEP_EXECUTOR,
            seed,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate: 0.15 },
        queue_capacity: 16,
        ..OnlineConfig::default()
    }
}

/// Generates what a campaign seeded with `config.seed` generates before
/// it runs: the pool with its background calendars, and the job stream
/// (`None`) or arrival stream (`Some`). Mirrors the campaign's own rng
/// layout (pool fork 1, background fork 2, jobs fork 3 of a fresh
/// master), so the jobs double as the expected release list.
///
/// The campaign entry points take a configuration and regenerate these
/// inputs from its seed, so the pool is only built here to time it: it
/// is the set-up a caller of the program pays, and `setup_s` reports it.
fn generate_inputs(
    config: &CampaignConfig,
    arrivals: Option<&ArrivalProcess>,
) -> (ResourcePool, Vec<(JobId, SimTime)>) {
    let mut master = SimRng::seed_from(config.seed);
    let mut pool_rng = master.fork(1);
    let mut bg_rng = master.fork(2);
    let mut pool = generate_pool(&config.pool_config, &mut pool_rng);
    if config.background_load > 0.0 {
        let bg = BackgroundConfig {
            load: config.background_load,
            horizon: config.horizon,
            ..BackgroundConfig::default()
        };
        apply_background_load(&mut pool, &bg, &mut bg_rng);
    }
    let mut jobs_rng = SimRng::seed_from(config.seed).fork(3);
    let jobs = match arrivals {
        None => generate_stream(
            &config.job_config,
            config.jobs,
            config.job_gap,
            &mut jobs_rng,
        ),
        Some(process) => generate_arrivals(
            &config.job_config,
            config.jobs,
            process,
            SimTime::ZERO + config.horizon,
            &mut jobs_rng,
        ),
    };
    (pool, jobs.iter().map(|j| (j.id(), j.release())).collect())
}

/// One instance: the configuration handed to the program, the releases
/// it must report, and the fingerprint of its first run.
pub struct Instance<C> {
    config: C,
    expected: Vec<(JobId, SimTime)>,
    fingerprint: Option<u64>,
}

/// Batch campaign or online serving over [`CAMPAIGN_INSTANCES`] or
/// [`ONLINE_INSTANCES`] seeded instances.
pub enum FlowWorkload {
    /// `run_campaign`.
    Campaign(Vec<Instance<CampaignConfig>>),
    /// `run_online`.
    Online(Vec<Instance<OnlineConfig>>),
}

impl FlowWorkload {
    /// Builds the campaign workload's inputs from `seed`.
    #[must_use]
    pub fn campaign(seed: u64) -> Self {
        let _ = WorkerPool::global();
        FlowWorkload::Campaign(
            (0..CAMPAIGN_INSTANCES)
                .map(|k| {
                    let config = campaign_config(instance_seed(seed, k));
                    let (_pool, expected) = generate_inputs(&config, None);
                    Instance {
                        config,
                        expected,
                        fingerprint: None,
                    }
                })
                .collect(),
        )
    }

    /// Builds the online workload's inputs from `seed`.
    #[must_use]
    pub fn online(seed: u64) -> Self {
        let _ = WorkerPool::global();
        FlowWorkload::Online(
            (0..ONLINE_INSTANCES)
                .map(|k| {
                    let config = online_config(instance_seed(seed, k));
                    let (_pool, expected) = generate_inputs(&config.base, Some(&config.arrivals));
                    Instance {
                        config,
                        expected,
                        fingerprint: None,
                    }
                })
                .collect(),
        )
    }
}

/// What the pass checks on the result of one call.
trait FlowRun: std::fmt::Debug {
    /// The campaign report the oracle audits.
    fn report(&self) -> &VoReport;
    /// `(job, release or arrival)` of every operation, in order.
    fn operations(&self) -> Vec<(JobId, SimTime)>;
    /// Operations that failed.
    fn failed(&self) -> u64;
    /// Why the call's own accounting is inconsistent, if it is.
    fn inconsistency(&self) -> Option<&'static str>;
}

/// A batch campaign: a job fails when it is dropped or never activated.
impl FlowRun for VoReport {
    fn report(&self) -> &VoReport {
        self
    }

    fn operations(&self) -> Vec<(JobId, SimTime)> {
        self.records.iter().map(|r| (r.job_id, r.release)).collect()
    }

    fn failed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.cost.is_none() || r.dropped)
            .count() as u64
    }

    fn inconsistency(&self) -> Option<&'static str> {
        None
    }
}

/// Online serving: an arrival fails when it is never admitted.
impl FlowRun for OnlineReport {
    fn report(&self) -> &VoReport {
        &self.report
    }

    fn operations(&self) -> Vec<(JobId, SimTime)> {
        self.admission
            .iter()
            .map(|a| (a.job_id, a.arrival))
            .collect()
    }

    fn failed(&self) -> u64 {
        (self.summary.arrived - self.summary.admitted) as u64
    }

    fn inconsistency(&self) -> Option<&'static str> {
        (!self.counters_reconcile()).then_some("admission counters do not reconcile")
    }
}

/// Runs every instance once through `run`, timing only the call, then
/// checks its result: the operations match the generated ones, the
/// call's accounting reconciles, the oracle audit (timed) is clean, and
/// the decisions hash to the instance's first run.
fn run_pass<C, R: FlowRun>(
    name: &str,
    instances: &mut [Instance<C>],
    run: impl Fn(&C) -> R,
) -> Pass {
    let mut pass = Pass::default();
    let mut pass_fp = Fingerprint::default();
    for (k, inst) in instances.iter_mut().enumerate() {
        let started = Instant::now();
        let result = run(&inst.config);
        let wall = started.elapsed().as_secs_f64();
        let label = format!("{name} instance {k}");
        let operations = result.operations();
        let ops = operations.len() as u64;
        pass.call_s.push(wall);
        pass.tally.add(ops, result.failed());
        pass.op_ms.push(wall * 1e3 / ops.max(1) as f64);
        if operations != inst.expected {
            pass.problems.push(format!(
                "{label}: {ops} operations reported, {} generated, or their ids/times differ",
                inst.expected.len()
            ));
        }
        if let Some(why) = result.inconsistency() {
            pass.problems.push(format!("{label}: {why}"));
        }
        let report = result.report();
        let audit_started = Instant::now();
        let verdict = audit(report);
        pass.own
            .audit_ms
            .push(audit_started.elapsed().as_secs_f64() * 1e3);
        if let Err(violation) = verdict {
            pass.problems
                .push(format!("{label}: oracle violation: {violation}"));
        }
        for cost in report.records.iter().filter_map(|r| r.cost) {
            pass.cost_sum += cost;
            pass.cost_n += 1;
        }
        let mut fp = Fingerprint::default();
        let _ = write!(fp, "{result:?}");
        pass.check_decisions(&mut pass_fp, &mut inst.fingerprint, fp.finish(), &label);
    }
    pass.fingerprint = pass_fp.finish();
    pass
}

impl Workload for FlowWorkload {
    fn instances(&self) -> usize {
        match self {
            FlowWorkload::Campaign(v) => v.len(),
            FlowWorkload::Online(v) => v.len(),
        }
    }

    fn times_each_operation(&self) -> bool {
        false
    }

    fn pass(&mut self, telemetry: &Telemetry) -> Pass {
        match self {
            FlowWorkload::Campaign(instances) => run_pass("campaign", instances, |config| {
                if telemetry.is_enabled() {
                    run_campaign_instrumented(config, telemetry)
                } else {
                    run_campaign(config)
                }
            }),
            FlowWorkload::Online(instances) => run_pass("online", instances, |config| {
                if telemetry.is_enabled() {
                    run_online_instrumented(config, telemetry)
                } else {
                    run_online(config)
                }
            }),
        }
    }
}
