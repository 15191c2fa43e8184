//! The `saturate` and `faults` workloads: tenant rosters on implicit host
//! plans (`topology::host`) run through the multi-tenant engine
//! (`sim::tenants`), one op per `TenantRun::step_round`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperpath_sim::tenants::{
    EngineReport, ExecMode, FaultRouting, LinkLedger, TenantEngine, TenantFaultPlan, TenantPlan,
    TenantSpec, TenantsConfig,
};
use hyperpath_sim::trace::CountingRecorder;
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use rand::{RngCore, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calib::HeapScope;
use crate::spans::{add_counts, EngineProbe, Trace, NO_OP, ROOT};
use crate::stats::median;
use crate::{Checks, Sim, Timing, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The E19 roster on an implicit `Q_20`: packet engine, no faults.
    Saturate,
    /// An E21-style roster on `Q_10` under a generated dynamic fault
    /// plan: wormhole engine, learned quarantine.
    Faults,
}

/// Sizes of one workload.
struct Shape {
    host_dims: u32,
    tenant_dims: u32,
    tenants: u32,
    capacity: u32,
    rounds: u32,
    requests_per_round: u32,
    max_requeues: u32,
    exec: ExecMode,
    /// Engine runs (independent request streams) per pass.
    instances: usize,
}

const SATURATE: Shape = Shape {
    host_dims: 20,
    tenant_dims: 8,
    tenants: 12,
    capacity: 2,
    rounds: 8,
    requests_per_round: 12,
    max_requeues: 2,
    exec: ExecMode::Packet,
    instances: 128,
};

const FAULTS: Shape = Shape {
    host_dims: 10,
    tenant_dims: 4,
    tenants: 8,
    capacity: 8,
    rounds: 16,
    requests_per_round: 6,
    max_requeues: 3,
    exec: ExecMode::Wormhole { flits: 4 },
    instances: 64,
};

/// Replays of the host and ledger layers per traced run (median taken).
const REPLAYS: usize = 5;

struct Instance {
    cfg: TenantsConfig,
    plan: Option<TenantFaultPlan>,
}

pub struct TenantBench {
    kind: Kind,
    shape: &'static Shape,
    instances: Vec<Instance>,
    reference: Vec<EngineReport>,
    /// Engine counts and engine runs of each instance in the first traced
    /// pass; later traced passes must repeat them exactly.
    counts: Vec<(CountingRecorder, u64)>,
}

/// The tenant roster: E19's Theorem 1/2 cycles, grids and binomial trees
/// in four `Q_8` windows, or E21's grids and trees in four `Q_4` windows.
/// Tenant `i` sits in window `i % 4`, so tenants contend inside windows
/// and the four windows run as four groups.
fn roster(kind: Kind) -> Vec<TenantSpec> {
    let plans: Vec<(&str, Arc<dyn TenantPlan>)> = match kind {
        Kind::Saturate => {
            let m = SATURATE.tenant_dims;
            vec![
                ("t1cycle", Arc::new(Theorem1Plan::new(m).expect("Q_8 theorem 1 plan"))),
                ("t2cycle", Arc::new(Theorem2Plan::new(m, false).expect("Q_8 theorem 2 plan"))),
                ("grid", Arc::new(GridPlan::new(m, m / 2, m / 2, m / 2).expect("Q_8 grid plan"))),
                ("tree", Arc::new(BinomialTreePlan::new(m, m / 2).expect("Q_8 tree plan"))),
            ]
        }
        Kind::Faults => {
            let m = FAULTS.tenant_dims;
            vec![
                ("grid", Arc::new(GridPlan::new(m, m / 2, m / 2, m - 1).expect("Q_4 grid plan"))),
                ("tree", Arc::new(BinomialTreePlan::new(m, m - 1).expect("Q_4 tree plan"))),
            ]
        }
    };
    let shape = shape(kind);
    (0..shape.tenants)
        .map(|i| {
            let (kind, plan) = &plans[i as usize % plans.len()];
            TenantSpec {
                id: i,
                name: format!("{kind}-{i}"),
                window: u64::from(i % 4),
                plan: Arc::clone(plan),
            }
        })
        .collect()
}

fn shape(kind: Kind) -> &'static Shape {
    match kind {
        Kind::Saturate => &SATURATE,
        Kind::Faults => &FAULTS,
    }
}

/// A dynamic fault plan over the links the tenants use (dimensions below
/// the tenant window size, nodes of windows 0..4): permanent cuts from
/// round 0 and from a later round, transient outages spread over the run,
/// byte-corrupting links, and one node storm cutting every link of a
/// node mid-run.
fn fault_plan(rng: &mut ChaCha8Rng) -> TenantFaultPlan {
    let s = &FAULTS;
    let n = u64::from(s.host_dims);
    let mut plan = TenantFaultPlan::none();
    for node in 0..(4u64 << s.tenant_dims) {
        for d in 0..s.tenant_dims {
            if (node >> d) & 1 == 1 {
                continue;
            }
            let link = node * n + u64::from(d);
            let x: f64 = rng.random();
            if x < 0.02 {
                plan.cut_link(link);
            } else if x < 0.04 {
                plan.cut_link_at(rng.random_range(1..s.rounds), link);
            } else if x < 0.10 {
                let from = rng.random_range(0..s.rounds);
                plan.outage(link, from, from + rng.random_range(1..4u32));
            } else if x < 0.12 {
                plan.corrupt_link(link);
            }
        }
    }
    let node = rng.random_range(0..(4u64 << s.tenant_dims));
    plan.cut_node_at(rng.random_range(s.rounds / 4..s.rounds * 3 / 4), s.host_dims, node);
    plan
}

impl TenantBench {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let shape = shape(kind);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let instances = (0..shape.instances)
            .map(|_| {
                let cfg = TenantsConfig {
                    host_dims: shape.host_dims,
                    capacity: shape.capacity,
                    rounds: shape.rounds,
                    requests_per_round: shape.requests_per_round,
                    max_requeues: shape.max_requeues,
                    seed: rng.next_u64(),
                    exec: shape.exec,
                };
                let plan = (kind == Kind::Faults).then(|| fault_plan(&mut rng));
                Instance { cfg, plan }
            })
            .collect();
        TenantBench { kind, shape, instances, reference: Vec::new(), counts: Vec::new() }
    }

    /// Builds instance `i`'s engine over `specs`, begins the run (the
    /// engine part of set-up), steps every round through `step`, and
    /// returns the report with the set-up time.
    fn run_instance(
        &self,
        specs: &[TenantSpec],
        i: usize,
        mut step: impl FnMut(&mut hyperpath_sim::tenants::TenantRun<'_>),
    ) -> (EngineReport, Duration) {
        let inst = &self.instances[i];
        let t = Instant::now();
        let engine = TenantEngine::new(inst.cfg.clone(), specs).expect("generated config is valid");
        let mut run = match &inst.plan {
            None => engine.begin(),
            Some(plan) => engine.begin_planned(plan, FaultRouting::Learned),
        };
        let setup = t.elapsed();
        for _ in 0..inst.cfg.rounds {
            step(&mut run);
        }
        (run.finish(), setup)
    }

    /// The output checks of one report; returns whether all hold.
    fn check(&self, i: usize, report: &EngineReport, checks: &mut Checks) -> bool {
        let accounted = report.tenants.iter().all(|t| {
            let s = &t.stats;
            s.requested == s.full + s.degraded + s.lost
        });
        let hazard_only = match &self.instances[i].plan {
            None => report.quarantined.is_empty(),
            Some(plan) => report.quarantined.iter().all(|&l| plan.is_hazard(l)),
        };
        let repeats = self.reference.get(i).is_none_or(|r| r == report);
        checks.instance(accounted && hazard_only && repeats, u64::from(self.shape.rounds), || {
            format!(
                "{:?} instance {i}: accounted {accounted}, quarantine within hazards \
                     {hazard_only}, repeats reference {repeats}",
                self.kind
            )
        })
    }

    fn engine_span(&self) -> &'static str {
        match self.shape.exec {
            ExecMode::Wormhole { .. } => "wormhole.run",
            _ => "packet.run",
        }
    }

    /// The fresh requests of every instance, replayed from the engine's
    /// documented per-tenant streams (ChaCha8 seeded by the config seed,
    /// stream `id + 1`, uniform draw by rejection): per instance, per
    /// round, `(tenant index, guest edge)` in admission order.
    fn requests(&self, specs: &[TenantSpec]) -> Vec<Vec<Vec<(usize, u64)>>> {
        self.instances
            .iter()
            .map(|inst| {
                let mut rngs: Vec<ChaCha8Rng> = specs
                    .iter()
                    .map(|s| {
                        let mut r = ChaCha8Rng::seed_from_u64(inst.cfg.seed);
                        r.set_stream(u64::from(s.id) + 1);
                        r
                    })
                    .collect();
                (0..inst.cfg.rounds)
                    .map(|_| {
                        let mut round = Vec::new();
                        for (t, s) in specs.iter().enumerate() {
                            for _ in 0..inst.cfg.requests_per_round {
                                round.push((t, draw_edge(&mut rngs[t], s.plan.num_edges())));
                            }
                        }
                        round
                    })
                    .collect()
            })
            .collect()
    }

    /// Times `TenantPlan::for_each_path` over every requested edge:
    /// (paths emitted, ns per path).
    fn replay_host(&self, specs: &[TenantSpec], requests: &[Vec<Vec<(usize, u64)>>]) -> (u64, f64) {
        let mut paths = 0u64;
        let mut ns = Vec::with_capacity(REPLAYS);
        for _ in 0..REPLAYS {
            paths = 0;
            let t = Instant::now();
            for round in requests.iter().flatten() {
                for &(tenant, edge) in round {
                    specs[tenant].plan.for_each_path(edge, &mut |p| {
                        black_box(p);
                        paths += 1;
                    });
                }
            }
            ns.push(t.elapsed().as_nanos() as f64 / paths as f64);
        }
        (paths, median(&mut ns))
    }

    /// Times `LinkLedger::fits/commit/release` over every requested
    /// edge's candidate paths, lifted into host links the way admission
    /// lifts them: ns per ledger call.
    fn replay_ledger(&self, specs: &[TenantSpec], requests: &[Vec<Vec<(usize, u64)>>]) -> f64 {
        let n = u64::from(self.shape.host_dims);
        let lifted: Vec<Vec<Vec<Vec<u64>>>> = requests
            .iter()
            .map(|rounds| {
                rounds
                    .iter()
                    .map(|round| {
                        let mut paths = Vec::new();
                        for &(tenant, edge) in round {
                            let s = &specs[tenant];
                            let m = u64::from(s.plan.dims());
                            s.plan.for_each_path(edge, &mut |p| {
                                paths.push(
                                    p.iter()
                                        .map(|&l| ((s.window << m) | (l / m)) * n + l % m)
                                        .collect(),
                                );
                            });
                        }
                        paths
                    })
                    .collect()
            })
            .collect();
        let mut ns = Vec::with_capacity(REPLAYS);
        for _ in 0..REPLAYS {
            let mut calls = 0u64;
            let t = Instant::now();
            for rounds in &lifted {
                let mut ledger = LinkLedger::new(self.shape.capacity);
                for round in rounds {
                    let mut committed: Vec<&[u64]> = Vec::new();
                    for p in round {
                        calls += 1;
                        if ledger.fits(p) {
                            ledger.commit(p);
                            committed.push(p);
                        }
                    }
                    for p in committed {
                        ledger.release(p);
                        calls += 2;
                    }
                }
                black_box(ledger.total_slots());
            }
            ns.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
        median(&mut ns)
    }
}

/// The engine's uniform guest-edge draw (mask for powers of two,
/// rejection otherwise).
fn draw_edge(rng: &mut ChaCha8Rng, edges: u64) -> u64 {
    if edges.is_power_of_two() {
        return rng.next_u64() & (edges - 1);
    }
    let zone = u64::MAX - (u64::MAX % edges);
    loop {
        let x = rng.next_u64();
        if x < zone {
            return x % edges;
        }
    }
}

impl Workload for TenantBench {
    fn reference_pass(&mut self, checks: &mut Checks) -> Sim {
        let specs = roster(self.kind);
        let mut sim = Sim { instances: self.instances.len(), ..Sim::default() };
        let reports: Vec<EngineReport> = (0..self.instances.len())
            .map(|i| {
                let (report, _) = self.run_instance(&specs, i, |run| run.step_round());
                let ok = self.check(i, &report, checks);
                sim.requested += report.tenants.iter().map(|t| t.stats.requested).sum::<u64>();
                sim.delivered += if ok { report.delivered_messages() } else { 0 };
                sim.steps += report.total_steps;
                sim.congestion += report.measured_congestion();
                sim.bound += report.congestion_bound();
                report
            })
            .collect();
        self.reference = reports;
        sim
    }

    fn pass(&mut self, checks: &mut Checks, timing: &mut Timing) {
        let t = Instant::now();
        let specs = roster(self.kind);
        timing.plan(t.elapsed());
        let mut msgs = 0u64;
        for i in 0..self.instances.len() {
            let heap = HeapScope::start();
            let (report, setup) = self.run_instance(&specs, i, |run| {
                let t = Instant::now();
                run.step_round();
                timing.op(t.elapsed());
            });
            timing.heap(heap.peak_bytes());
            timing.engine(setup);
            if self.check(i, &report, checks) {
                msgs += report.delivered_messages();
            }
        }
        timing.pass(msgs);
    }

    fn traced_pass(&mut self, checks: &mut Checks, trace: &mut Trace, timing: &mut Timing) {
        let name = self.engine_span();
        let span = trace.open("setup.plan", ROOT, NO_OP);
        let specs = roster(self.kind);
        trace.close(span);
        timing.plan(Duration::from_nanos(trace.spans[span as usize].ns()));
        let mut msgs = 0u64;
        let first = self.counts.is_empty();
        for i in 0..self.instances.len() {
            let mut counts = (CountingRecorder::new(), 0u64);
            let (report, setup) = self.run_instance(&specs, i, |run| {
                let op = trace.next_op();
                let root = trace.open("tenants.round", ROOT, op);
                let mut probe = EngineProbe::new(trace, name, root, op);
                run.step_round_recorded(&mut probe);
                let (c, runs) = probe.finish();
                trace.close(root);
                timing.op(Duration::from_nanos(trace.spans[root as usize].ns()));
                add_counts(&mut counts.0, &c);
                counts.1 += runs;
            });
            timing.engine(setup);
            let ok = self.check(i, &report, checks);
            let repeats = first || self.counts[i] == counts;
            if checks.instance(repeats, 0, || {
                format!("{:?} instance {i}: engine counts differ between traced passes", self.kind)
            }) && ok
            {
                msgs += report.delivered_messages();
            }
            if first {
                self.counts.push(counts);
            }
        }
        timing.pass(msgs);
    }

    fn layers(
        &mut self,
        checks: &mut Checks,
        trace: &Trace,
        traced: &Timing,
    ) -> BTreeMap<&'static str, f64> {
        let specs = roster(self.kind);
        let requests = self.requests(&specs);
        let replayed: u64 = requests.iter().flatten().map(|r| r.len() as u64).sum();
        let requested: u64 =
            self.reference.iter().flat_map(|r| &r.tenants).map(|t| t.stats.requested).sum();
        checks.instance(replayed == requested, 0, || {
            format!("request replay drew {replayed} requests, the engine {requested}")
        });
        let (paths, emit_ns) = self.replay_host(&specs, &requests);
        let probe_ns = self.replay_ledger(&specs, &requests);

        let sum = |f: fn(&EngineReport) -> u64| -> f64 {
            self.reference.iter().map(f).sum::<u64>() as f64
        };
        let stat = |f: fn(&hyperpath_sim::tenants::FlowStats) -> u64| -> f64 {
            self.reference.iter().flat_map(|r| &r.tenants).map(|t| f(&t.stats)).sum::<u64>() as f64
        };
        let delivered = stat(|s| s.full + s.degraded);
        let mut c = CountingRecorder::new();
        let mut runs = 0u64;
        for (ci, r) in &self.counts {
            add_counts(&mut c, ci);
            runs += r;
        }

        // Per op: engine time (children) and self time (the rest).
        let own = trace.self_ns();
        let (mut op_self, mut op_engine): (Vec<f64>, BTreeMap<u32, f64>) =
            (Vec::new(), BTreeMap::new());
        let mut engine_ns = 0u64;
        for (i, s) in trace.spans.iter().enumerate() {
            if s.name == "tenants.round" {
                op_self.push(own[i] as f64 / 1e6);
                op_engine.entry(s.op).or_insert(0.0);
            } else if s.name == self.engine_span() {
                *op_engine.entry(s.op).or_insert(0.0) += s.ns() as f64 / 1e6;
                engine_ns += s.ns();
            }
        }
        let traced_passes = traced.passes as f64;
        let mut busy: Vec<f64> = op_engine.into_values().collect();
        let busy_ms = median(&mut busy);
        let mut m = BTreeMap::new();
        m.insert("host.paths_emitted", paths as f64);
        m.insert("host.emit_ns_per_path", emit_ns);
        m.insert("ledger.probe_ns", probe_ns);
        m.insert("ledger.total_slots", sum(|r| r.ledger.total_slots));
        m.insert("ledger.links_touched", sum(|r| r.ledger.links_touched as u64));
        m.insert("ledger.quarantined_links", sum(|r| r.ledger.quarantined_links as u64));
        m.insert("ledger.congestion_gap", sum(|r| r.congestion_gap()));
        m.insert("tenants.requeue_ratio", stat(|s| s.requeues) / stat(|s| s.requested));
        m.insert("tenants.degraded_ratio", stat(|s| s.degraded) / delivered);
        m.insert("tenants.recovered", stat(|s| s.recovered));
        m.insert("tenants.round_self_ms_p50", median(&mut op_self));
        let per_unit = |work: u64| engine_ns as f64 / (work as f64 * traced_passes);
        match self.shape.exec {
            ExecMode::Wormhole { .. } => {
                m.insert("wormhole.steps", c.steps as f64);
                m.insert("wormhole.flit_moves", c.flit_moves as f64);
                m.insert("wormhole.busy_ms", busy_ms);
                m.insert("wormhole.ns_per_flit_move", per_unit(c.flit_moves));
            }
            _ => {
                m.insert("packet.steps", c.steps as f64);
                m.insert("packet.queue_pushes", c.queue_pushes as f64);
                m.insert("packet.busy_ms", busy_ms);
                m.insert("packet.ns_per_queue_push", per_unit(c.queue_pushes));
            }
        }
        m.insert("faults.drops", c.dropped as f64);
        m.insert("faults.corrupted", c.corrupted as f64);
        let ops = self.instances.len() as f64 * f64::from(self.shape.rounds);
        m.insert("fanout.groups_per_round", runs as f64 / ops);
        m
    }

    fn describe(&self) -> String {
        let s = self.shape;
        let faults = self
            .instances
            .iter()
            .filter_map(|i| i.plan.as_ref())
            .fold((0, 0, 0), |(c, o, x), p| {
                (c + p.cut_count(), o + p.outage_count(), x + p.corrupt_count())
            });
        format!(
            "{:?}: {} instances x {} rounds, {} tenants in Q_{} windows of Q_{}, capacity {}, \
             {} requests/tenant/round, {:?}; fault plans: {} cut, {} outage, {} corrupting links",
            self.kind,
            s.instances,
            s.rounds,
            s.tenants,
            s.tenant_dims,
            s.host_dims,
            s.capacity,
            s.requests_per_round,
            s.exec,
            faults.0,
            faults.1,
            faults.2
        )
    }
}
