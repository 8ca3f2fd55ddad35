//! The `deep_calendar` workload: the benchmark itself sends planning
//! requests over pools holding ~145k background reservations (~5.8k
//! windows per node). Each request generates a strategy, whose planning
//! session captures a snapshot, and commits the cheapest supporting
//! schedule through `Timetable::reserve`, so every capture after a commit
//! re-freezes only the nodes that commit changed.

use std::fmt::Write as _;
use std::time::Instant;

use gridsched::core::distribution::Distribution;
use gridsched::core::pool::WorkerPool;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind, SweepExecutor};
use gridsched::metrics::telemetry::Telemetry;
use gridsched::model::availability::AvailabilitySnapshot;
use gridsched::model::ids::{GlobalTaskId, JobId};
use gridsched::model::job::Job;
use gridsched::model::node::ResourcePool;
use gridsched::model::timetable::ReservationOwner;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::generate_pool;

use crate::pass::{instance_seed, pool_config, Fingerprint, Pass, Workload};

/// Pools per pass; several pools average out the spread between seeds.
const INSTANCES: usize = 8;
/// Requests per pool per pass. Each pass replays them from the painted
/// pool, so every pass does the same work.
const REQUESTS: usize = 200;
/// Horizon the background is painted over, in ticks.
const HORIZON: u64 = 28_000;

/// Half-loaded calendars of 1–4 tick chunks: about 5.8k windows per node,
/// far above the gap index's 1k-window engagement floor.
fn background() -> BackgroundConfig {
    BackgroundConfig {
        load: 0.5,
        horizon: SimDuration::from_ticks(HORIZON),
        chunk_min: 1,
        chunk_max: 4,
    }
}

/// Short tasks with loose deadlines, so most scenarios and nearly every
/// request find a schedule in the fragmented calendars: the workload
/// times the planning path, not the failure path.
fn job_shape() -> JobConfig {
    JobConfig {
        base_volume: 10,
        base_edge_volume: 2,
        deadline_factor: 8.0,
        ..JobConfig::default()
    }
}

/// One pool and the requests sent to it.
struct Instance {
    pool: ResourcePool,
    jobs: Vec<Job>,
    fingerprint: Option<u64>,
}

/// Planning requests over deep calendars.
pub struct DeepCalendar {
    instances: Vec<Instance>,
}

impl DeepCalendar {
    /// Builds the pools and the request stream from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let _ = WorkerPool::global();
        let spacing = HORIZON * 9 / 10 / REQUESTS as u64;
        let instances = (0..INSTANCES)
            .map(|k| {
                let mut master = SimRng::seed_from(instance_seed(seed, k));
                let mut pool = generate_pool(&pool_config(), &mut master.fork(1));
                apply_background_load(&mut pool, &background(), &mut master.fork(2));
                let mut jobs_rng = master.fork(3);
                let jobs = (0..REQUESTS)
                    .map(|i| {
                        let release = SimTime::from_ticks(i as u64 * spacing);
                        generate_job(&job_shape(), JobId::new(i as u64), release, &mut jobs_rng)
                    })
                    .collect();
                Instance {
                    pool,
                    jobs,
                    fingerprint: None,
                }
            })
            .collect();
        DeepCalendar { instances }
    }
}

/// Why a committed distribution is wrong, if it is: it must validate
/// against the job and pool, meet the deadline, and lie in windows the
/// request's snapshot showed free.
fn check_distribution(
    dist: &Distribution,
    job: &Job,
    pool: &ResourcePool,
    snapshot: &AvailabilitySnapshot,
) -> Option<String> {
    if let Err(e) = dist.validate(job, pool) {
        return Some(format!("invalid distribution: {e:?}"));
    }
    if !dist.meets_deadline(job.release() + job.deadline()) {
        return Some(format!(
            "misses its deadline (makespan {})",
            dist.makespan()
        ));
    }
    dist.placements().iter().find_map(|p| {
        let windows = snapshot.windows(p.node);
        let next = windows.partition_point(|w| w.end() <= p.window.start());
        windows
            .get(next)
            .filter(|w| w.start() < p.window.end())
            .map(|w| format!("{} overlaps captured window {w} on {}", p.window, p.node))
    })
}

impl Workload for DeepCalendar {
    fn instances(&self) -> usize {
        self.instances.len()
    }

    fn times_each_operation(&self) -> bool {
        true
    }

    fn pass(&mut self, telemetry: &Telemetry) -> Pass {
        let mut pass = Pass::default();
        let mut pass_fp = Fingerprint::default();
        let mut reserves = 0u64;
        for (k, inst) in self.instances.iter_mut().enumerate() {
            // A fresh copy of the painted pool, its calendar cache warmed
            // and every gap index built, as a long-running metascheduler
            // would hold them; none of this is timed.
            let mut pool = inst.pool.clone();
            let warm = AvailabilitySnapshot::capture(&pool);
            for node in pool.nodes() {
                let _ = warm.gap_index(node.id());
            }
            drop(warm);
            let _ = pool.index_cache().take_stats();

            let mut fp = Fingerprint::default();
            for (i, job) in inst.jobs.iter().enumerate() {
                let kind = StrategyKind::ALL[i % StrategyKind::ALL.len()];
                let release = job.release();
                let started = Instant::now();
                let config = StrategyConfig::for_kind(kind, &pool);
                // Sequential sweeps, as on the campaign workloads.
                let strategy = if telemetry.is_enabled() {
                    Strategy::generate_with_instrumented(
                        job,
                        &pool,
                        &config,
                        release,
                        SweepExecutor::Sequential,
                        telemetry,
                        None,
                    )
                } else {
                    Strategy::generate_with(job, &pool, &config, release, SweepExecutor::Sequential)
                };
                let chosen = strategy.best_by_cost().cloned();
                let planned = started.elapsed();
                // The snapshot the commit is checked against, untimed:
                // the pool has not changed since the planning session
                // captured it, so this is a cache hit on the same
                // windows. Its cache stats are drained so the next
                // session reports only the program's own.
                let snapshot = AvailabilitySnapshot::capture(&pool);
                let _ = pool.index_cache().take_stats();
                let committing = Instant::now();
                let mut conflict = None;
                if let Some(dist) = &chosen {
                    for p in dist.placements() {
                        let owner = ReservationOwner::Task(GlobalTaskId {
                            job: job.id(),
                            task: p.task,
                        });
                        let reserve_started = Instant::now();
                        let result = pool.timetable_mut(p.node).reserve(p.window, owner);
                        pass.own
                            .reserve_ns
                            .push(reserve_started.elapsed().as_nanos() as f64);
                        reserves += 1;
                        if let Err(e) = result {
                            conflict = Some(e);
                            break;
                        }
                    }
                }
                let elapsed = (planned + committing.elapsed()).as_secs_f64();
                pass.call_s.push(elapsed);
                pass.op_ms.push(elapsed * 1e3);

                let label = format!("pool {k} request {i} ({kind})");
                let committed = match (&chosen, conflict) {
                    (None, _) => false,
                    (Some(_), Some(e)) => {
                        pass.problems
                            .push(format!("{label}: commit conflicts: {e}"));
                        false
                    }
                    (Some(dist), None) => {
                        if let Some(why) =
                            check_distribution(dist, strategy.job(), &pool, &snapshot)
                        {
                            pass.problems.push(format!("{label}: {why}"));
                        }
                        pass.cost_sum += dist.cost();
                        pass.cost_n += 1;
                        true
                    }
                };
                pass.tally.record(committed);
                let _ = write!(fp, "{i}:{kind}:{chosen:?};");
            }
            pass.check_decisions(
                &mut pass_fp,
                &mut inst.fingerprint,
                fp.finish(),
                &format!("pool {k}"),
            );
        }
        pass.fingerprint = pass_fp.finish();
        pass.counts.insert("model.reserve_calls".into(), reserves);
        pass
    }
}
