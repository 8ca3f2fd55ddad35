//! Differential suite for the pruned critical-works transition.
//!
//! `allocate_chain_into` probes only the candidates that can survive the
//! Pareto prune (see the `allocate` module docs and DESIGN.md §10). This
//! file keeps the all-pairs transition it replaced as the reference:
//! every `(target node, previous node, previous state)` candidate is
//! probed, and each node's states are stably sorted by `(finish, cost)`
//! before the prune, so push order breaks ties. The two must agree
//! placement for placement — node, window, stall and per-task cost — on
//! both availability views (the overlay with and without the gap index),
//! and the pruned one must never probe more.

use std::cell::Cell;
use std::collections::HashMap;

use gridsched_core::allocate::{allocate_chain_into, AllocScratch};
use gridsched_core::chains::chain_decomposition;
use gridsched_core::{task_cost, AllocateError, AllocationContext, Cost, Objective, Placement};
use gridsched_data::network::TransferModel;
use gridsched_data::policy::DataPolicy;
use gridsched_model::availability::{
    Availability, PlanConflict, ProbeIndexGuard, TimetableOverlay,
};
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{DomainId, JobId, NodeId, TaskId};
use gridsched_model::job::{Job, JobBuilder};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{ReservationOwner, Timetable};
use gridsched_model::volume::Volume;
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};
use gridsched_workload::background::{apply_background_load, BackgroundConfig};
use gridsched_workload::jobs::{generate_job, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

#[derive(Debug, Clone, Copy)]
struct RefState {
    start: SimTime,
    finish: SimTime,
    stall: SimDuration,
    cost: Cost,
    parent: Option<(usize, usize)>,
}

/// The all-pairs reference: probes every candidate, then prunes each
/// node's states after a *stable* `(finish, cost)` sort.
fn reference_allocate<A: Availability>(
    ctx: &AllocationContext<'_>,
    chain: &[TaskId],
    placed: &HashMap<TaskId, Placement>,
    availability: &A,
) -> Result<Vec<Placement>, AllocateError> {
    let rem = ctx.remaining_optimistic();
    let nodes: Vec<NodeId> = ctx.pool.nodes().map(|n| n.id()).collect();
    let mut frontiers: Vec<Vec<Vec<RefState>>> = Vec::new();
    for (pos, &task_id) in chain.iter().enumerate() {
        let task = ctx.job.task(task_id);
        let mut level: Vec<Vec<RefState>> = vec![Vec::new(); nodes.len()];
        for (ni, &node_id) in nodes.iter().enumerate() {
            if ctx
                .domain
                .is_some_and(|d| ctx.pool.node(node_id).domain() != d)
            {
                continue;
            }
            let perf = ctx.pool.node(node_id).perf();
            if !task.runs_on(perf) {
                continue;
            }
            let exec = ctx.scenario.duration(task, perf);
            let mut ready_placed = ctx.release;
            let mut stall_placed = SimDuration::ZERO;
            for e in ctx.job.incoming(task_id) {
                if let Some(p) = placed.get(&e.from()) {
                    ready_placed = ready_placed.max_of(p.window.end());
                    stall_placed = stall_placed.max(ctx.policy.consumer_delay(
                        e.volume(),
                        p.node,
                        node_id,
                        ctx.pool,
                    ));
                }
            }
            let mut finish_bound = saturating_deadline(ctx.deadline, rem[task_id.index()]);
            for e in ctx.job.outgoing(task_id) {
                if let Some(p) = placed.get(&e.to()) {
                    let d = ctx
                        .policy
                        .consumer_delay(e.volume(), node_id, p.node, ctx.pool);
                    finish_bound = finish_bound.min(saturating_deadline(p.window.start(), d));
                }
            }
            let fit = |ready: SimTime, stall: SimDuration, cost: Cost, parent| {
                let dur = stall + exec;
                let start = availability.earliest_fit(node_id, ready, dur, finish_bound)?;
                Some(RefState {
                    start,
                    finish: start + dur,
                    stall,
                    cost: cost + task_cost(task.volume(), dur),
                    parent,
                })
            };
            if pos == 0 {
                level[ni].extend(fit(ready_placed, stall_placed, 0, None));
                continue;
            }
            let prev_task = chain[pos - 1];
            let chain_edge = ctx
                .job
                .incoming(task_id)
                .find(|e| e.from() == prev_task)
                .expect("consecutive chain tasks are connected");
            for (pni, prev_states) in frontiers[pos - 1].iter().enumerate() {
                let chain_stall =
                    ctx.policy
                        .consumer_delay(chain_edge.volume(), nodes[pni], node_id, ctx.pool);
                let stall = stall_placed.max(chain_stall);
                for (si, prev) in prev_states.iter().enumerate() {
                    let ready = ready_placed.max_of(prev.finish);
                    level[ni].extend(fit(ready, stall, prev.cost, Some((pni, si))));
                }
            }
        }
        for states in &mut level {
            states.sort_by_key(|s| (s.finish, s.cost));
            let mut best_cost = Cost::MAX;
            states.retain(|s| {
                let keep = s.cost < best_cost;
                best_cost = best_cost.min(s.cost);
                keep
            });
        }
        if level.iter().all(Vec::is_empty) {
            return Err(AllocateError { task: task_id });
        }
        frontiers.push(level);
    }

    let last = frontiers.last().expect("non-empty chain");
    let mut best: Option<(usize, usize)> = None;
    let mut cheapest: Option<(usize, usize)> = None;
    for (ni, states) in last.iter().enumerate() {
        for (si, s) in states.iter().enumerate() {
            let key = (s.finish.ticks(), s.cost);
            if ctx.objective.admits(s.cost) {
                let better = best.is_none_or(|(bni, bsi)| {
                    let b = &last[bni][bsi];
                    let bkey = (b.finish.ticks(), b.cost);
                    ctx.objective.prefers(key, bkey) || (key == bkey && ni < bni)
                });
                if better {
                    best = Some((ni, si));
                }
            }
            let cheaper = cheapest.is_none_or(|(bni, bsi)| {
                let b = &last[bni][bsi];
                (s.cost, s.finish, ni) < (b.cost, b.finish, bni)
            });
            if cheaper {
                cheapest = Some((ni, si));
            }
        }
    }
    let (mut ni, mut si) = best.or(cheapest).expect("non-empty final frontier");
    let mut out = Vec::with_capacity(chain.len());
    for pos in (0..chain.len()).rev() {
        let state = frontiers[pos][ni][si];
        let prev_cost = state
            .parent
            .map_or(0, |(pni, psi)| frontiers[pos - 1][pni][psi].cost);
        out.push(Placement {
            task: chain[pos],
            node: nodes[ni],
            window: TimeWindow::new(state.start, state.finish).expect("non-empty window"),
            stall: state.stall,
            cost: state.cost - prev_cost,
        });
        if let Some((pni, psi)) = state.parent {
            ni = pni;
            si = psi;
        }
    }
    out.reverse();
    Ok(out)
}

fn saturating_deadline(deadline: SimTime, slack: SimDuration) -> SimTime {
    SimTime::from_ticks(deadline.ticks().saturating_sub(slack.ticks()))
}

/// An availability view that counts the `earliest_fit` probes made
/// through it.
struct Counting<'a, A> {
    inner: &'a A,
    probes: Cell<u64>,
}

impl<'a, A> Counting<'a, A> {
    fn new(inner: &'a A) -> Self {
        Counting {
            inner,
            probes: Cell::new(0),
        }
    }
}

impl<A: Availability> Availability for Counting<'_, A> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn is_free(&self, node: NodeId, window: TimeWindow) -> bool {
        self.inner.is_free(node, window)
    }

    fn earliest_fit(
        &self,
        node: NodeId,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        self.probes.set(self.probes.get() + 1);
        self.inner
            .earliest_fit(node, not_before, duration, deadline)
    }

    fn reserve(
        &mut self,
        _node: NodeId,
        _window: TimeWindow,
        _owner: ReservationOwner,
    ) -> Result<(), PlanConflict> {
        unreachable!("allocation never reserves")
    }
}

/// The shape of one generated case.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A §4 random pool, calendar and DAG.
    Random,
    /// Identical nodes in one domain running a pipeline of equal volumes:
    /// nearly every candidate ties on `(finish, cost)`.
    Ties,
    /// A DAG whose every edge carries no data: every stall is zero, so
    /// each target node has a single stall group.
    ZeroEdges,
}

fn random_pool(g: &mut Gen, domains: u32) -> ResourcePool {
    generate_pool(
        &PoolConfig {
            nodes_min: 4,
            nodes_max: 12,
            domains,
            ..PoolConfig::default()
        },
        g.rng(),
    )
}

fn ties_pool(g: &mut Gen) -> ResourcePool {
    let mut pool = ResourcePool::new();
    let perf = *g.pick(&[1.0, 0.5, 1.0 / 3.0]);
    for _ in 0..g.usize_in(3, 9) {
        pool.add_node(DomainId::new(0), Perf::new(perf).unwrap());
    }
    pool
}

fn pipeline(g: &mut Gen, tasks: usize, edge_volume: f64, factor: f64) -> Job {
    let volume = *g.pick(&[10.0, 20.0, 30.0]);
    let mut b = JobBuilder::new();
    let ids: Vec<TaskId> = (0..tasks)
        .map(|_| b.add_task(Volume::new(volume)))
        .collect();
    for pair in ids.windows(2) {
        b.add_edge(pair[0], pair[1], Volume::new(edge_volume));
    }
    let critical = (tasks as f64 * volume / 10.0).ceil();
    b.deadline(SimDuration::from_ticks((critical * factor) as u64 + 1));
    b.build(JobId::new(0)).expect("pipeline is a valid DAG")
}

/// A generated DAG with every edge's data volume set to zero.
fn without_edge_data(job: &Job) -> Job {
    let mut b = JobBuilder::new();
    for t in job.tasks() {
        b.add_task(t.volume());
    }
    for e in job.edges() {
        b.add_edge(e.from(), e.to(), Volume::new(0.0));
    }
    b.deadline(job.deadline());
    b.build(job.id()).expect("same DAG, no data")
}

fn paint_calendar(g: &mut Gen, pool: &mut ResourcePool) {
    let load = *g.pick(&[0.0, 0.2, 0.5, 0.7]);
    if load > 0.0 {
        let config = BackgroundConfig {
            load,
            horizon: SimDuration::from_ticks(g.u64_in(60, 400)),
            chunk_min: 1,
            chunk_max: g.u64_in(1, 12),
        };
        apply_background_load(pool, &config, g.rng());
    }
}

fn policy(g: &mut Gen, pool: &ResourcePool) -> DataPolicy {
    let policy = match g.usize_in(0, 2) {
        0 => DataPolicy::remote_access(),
        1 => DataPolicy::active_replication(),
        _ => DataPolicy::static_storage(NodeId::new(g.u64_in(0, pool.len() as u64 - 1) as u32)),
    };
    if g.chance(0.5) {
        policy.with_transfer_model(TransferModel::new(
            g.f64_in(1.0, 8.0),
            g.f64_in(0.5, 4.0),
            SimDuration::from_ticks(g.u64_in(0, 3)),
        ))
    } else {
        policy
    }
}

fn objective(g: &mut Gen) -> Objective {
    match g.usize_in(0, 2) {
        0 => Objective::MinCost,
        1 => Objective::FASTEST,
        _ => Objective::MinTime {
            budget: Some(g.u64_in(1, 60)),
        },
    }
}

/// Allocates `job` chain by chain, as the critical works method does,
/// checking every chain against the reference on both views before its
/// placements are reserved and become the next chains' `placed`
/// neighbours. Returns `(pruned probes, reference probes)`.
fn differential_job(g: &mut Gen, shape: Shape) -> (u64, u64) {
    let (mut pool, job) = match shape {
        Shape::Random => {
            let domains = *g.pick(&[1, 2, 3]);
            let pool = random_pool(g, domains);
            let config = JobConfig {
                deadline_factor: g.f64_in(1.2, 6.0),
                ..JobConfig::default()
            };
            let job = generate_job(&config, JobId::new(g.seed()), SimTime::ZERO, g.rng());
            (pool, job)
        }
        Shape::Ties => {
            let pool = ties_pool(g);
            let tasks = g.usize_in(2, 7);
            let edge = *g.pick(&[0.0, 5.0, 20.0]);
            let factor = g.f64_in(1.0, 5.0);
            (pool, pipeline(g, tasks, edge, factor))
        }
        Shape::ZeroEdges => {
            let domains = *g.pick(&[1, 3]);
            let pool = random_pool(g, domains);
            let config = JobConfig {
                deadline_factor: g.f64_in(1.2, 6.0),
                ..JobConfig::default()
            };
            let job = generate_job(&config, JobId::new(g.seed()), SimTime::ZERO, g.rng());
            (pool, without_edge_data(&job))
        }
    };
    paint_calendar(g, &mut pool);
    let policy = policy(g, &pool);
    let scenario = *g.pick(&[
        EstimateScenario::BEST,
        EstimateScenario::new(1.5),
        EstimateScenario::WORST,
    ]);
    let domain = g.chance(0.25).then(|| pool.node(NodeId::new(0)).domain());
    let release = SimTime::from_ticks(g.u64_in(0, 40));
    let ctx = AllocationContext {
        job: &job,
        pool: &pool,
        policy: &policy,
        scenario,
        release,
        deadline: release + job.deadline(),
        domain,
        objective: objective(g),
    };
    let fastest = pool.fastest_perf();
    let works = chain_decomposition(
        &job,
        |t| scenario.duration(job.task(t), fastest),
        |_| SimDuration::ZERO,
    );

    let mut overlay = TimetableOverlay::new(pool.snapshot());
    let mut tables: Vec<Timetable> = pool
        .nodes()
        .map(|n| pool.timetable(n.id()).clone())
        .collect();
    let mut placed: HashMap<TaskId, Placement> = HashMap::new();
    let mut scratch = AllocScratch::default();
    scratch.begin_pass(&ctx);
    let mut out = Vec::new();
    let (mut pruned_probes, mut reference_probes) = (0, 0);
    for work in &works {
        let chain = &work.tasks;
        let counted = Counting::new(&tables);
        let expected = reference_allocate(&ctx, chain, &placed, &counted);
        reference_probes += counted.probes.get();

        let counted = Counting::new(&tables);
        let got = allocate_chain_into(&ctx, chain, &placed, &counted, &mut scratch, &mut out)
            .map(|()| out.clone());
        pruned_probes += counted.probes.get();
        assert_eq!(got, expected, "Vec<Timetable> view, chain {chain:?}");

        let got = allocate_chain_into(&ctx, chain, &placed, &overlay, &mut scratch, &mut out)
            .map(|()| out.clone());
        assert_eq!(got, expected, "overlay view, chain {chain:?}");
        // The same view with every cold probe forced through the gap
        // index, whose answers the monotonicity contract covers too.
        let got = {
            let _index = ProbeIndexGuard::with_floor(0);
            allocate_chain_into(&ctx, chain, &placed, &overlay, &mut scratch, &mut out)
                .map(|()| out.clone())
        };
        assert_eq!(got, expected, "indexed overlay view, chain {chain:?}");
        assert_eq!(
            reference_allocate(&ctx, chain, &placed, &overlay),
            expected,
            "the reference agrees with itself across views"
        );

        // Commit the chain so later chains see it as placed neighbours and
        // as busy time.
        for p in expected.iter().flatten() {
            overlay.reserve_window(p.node, p.window).unwrap();
            tables[p.node.index()]
                .reserve(p.window, ReservationOwner::Background(u64::MAX))
                .unwrap();
            placed.insert(p.task, *p);
        }
    }
    (pruned_probes, reference_probes)
}

fn run(shape: Shape, cases: usize) {
    check(cases, |g| {
        let (pruned, reference) = differential_job(g, shape);
        assert!(
            pruned <= reference,
            "pruned transition probed {pruned} times, the all-pairs one {reference}"
        );
    });
}

#[test]
fn pruned_transition_matches_all_pairs_on_random_jobs() {
    run(Shape::Random, 256);
}

#[test]
fn pruned_transition_matches_all_pairs_on_tie_heavy_pipelines() {
    run(Shape::Ties, 256);
}

#[test]
fn pruned_transition_matches_all_pairs_with_zero_stall_edges() {
    run(Shape::ZeroEdges, 128);
}

/// A fixed tie-heavy case: on a long equal-volume pipeline over identical
/// idle nodes, the candidates of one target node tie on `(finish, cost)`
/// across previous nodes, and the pruned transition probes one of each
/// tie instead of all of them.
#[test]
fn pruned_transition_probes_far_less_on_ties() {
    let mut pool = ResourcePool::new();
    for _ in 0..8 {
        pool.add_node(DomainId::new(0), Perf::FULL);
    }
    let mut b = JobBuilder::new();
    let ids: Vec<TaskId> = (0..6).map(|_| b.add_task(Volume::new(20.0))).collect();
    for pair in ids.windows(2) {
        b.add_edge(pair[0], pair[1], Volume::new(5.0));
    }
    b.deadline(SimDuration::from_ticks(200));
    let job = b.build(JobId::new(0)).unwrap();
    let policy = DataPolicy::remote_access();
    let ctx = AllocationContext {
        job: &job,
        pool: &pool,
        policy: &policy,
        scenario: EstimateScenario::BEST,
        release: SimTime::ZERO,
        deadline: SimTime::from_ticks(200),
        domain: None,
        objective: Objective::MinCost,
    };
    let tables: Vec<Timetable> = pool.nodes().map(|_| Timetable::new()).collect();
    let counted = Counting::new(&tables);
    let expected = reference_allocate(&ctx, &ids, &HashMap::new(), &counted).unwrap();
    let reference = counted.probes.get();
    let counted = Counting::new(&tables);
    let mut scratch = AllocScratch::default();
    scratch.begin_pass(&ctx);
    let mut out = Vec::new();
    allocate_chain_into(
        &ctx,
        &ids,
        &HashMap::new(),
        &counted,
        &mut scratch,
        &mut out,
    )
    .unwrap();
    assert_eq!(out, expected);
    assert!(
        counted.probes.get() * 3 <= reference,
        "pruned {} probes, all-pairs {reference}",
        counted.probes.get()
    );
}
