//! The `transfer` workload: oracle-free adaptive delivery with real bytes
//! (`sim::protocol::deliver_adaptive` over `PlanNetwork`) on the Theorem 1
//! embedding of `Q_7`, one op per transfer, a fresh `random_plan` per
//! transfer (static and dynamic alternating).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hyperpath_core::bounds::congestion_lower_bound;
use hyperpath_core::cycles::theorem1;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_ida::{share_fingerprint, Ida, TaggedShare};
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::delivery::DeliveryConfig;
use hyperpath_sim::faults::FaultPlan;
use hyperpath_sim::packet::{Flow, PacketSim};
use hyperpath_sim::protocol::{
    deliver_adaptive, AdaptiveReport, PlanNetwork, RoundNetwork, Submission,
};
use hyperpath_sim::trace::CountingRecorder;
use hyperpath_topology::Hypercube;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calib::HeapScope;
use crate::spans::{add_counts, EngineProbe, Trace, NO_OP, ROOT};
use crate::stats::median;
use crate::{Checks, Sim, Timing, Workload};

/// Host (and guest cycle) dimension.
const DIMS: u32 = 7;
/// Transfers per pass.
const INSTANCES: usize = 1024;
/// Reconstruction threshold `k`.
const THRESHOLD: usize = 2;
/// Bytes per guest edge.
const MESSAGE_LEN: usize = 256;
/// Retry rounds the protocol may use.
const MAX_RETRIES: u32 = 4;
/// Step cap of a replayed round (the protocol's own cap).
const MAX_STEPS: u64 = 10_000_000;
/// Replays of the IDA codec per traced run (median taken).
const REPLAYS: usize = 5;
/// Transfers whose rounds are kept and replayed in the traced run.
const REPLAY_SAMPLE: usize = 32;

struct Instance {
    plan: FaultPlan,
    key: u64,
}

/// What the reference pass saw of one transfer, beyond its report.
#[derive(Default)]
struct Shipped {
    /// `(guest edge, path)` of every submission, per protocol round
    /// (kept for the first [`REPLAY_SAMPLE`] transfers).
    rounds: Vec<Vec<(usize, usize)>>,
    submissions: u64,
    /// Shares that arrived (verified or not).
    arrived: u64,
    /// Engine counts of the replayed rounds.
    counts: CountingRecorder,
    /// Simulated steps (sum of round makespans).
    steps: u64,
    congestion: u64,
    bound: u64,
}

pub struct TransferBench {
    cfg: DeliveryConfig,
    instances: Vec<Instance>,
    reference: Vec<AdaptiveReport>,
    shipped: Vec<Shipped>,
}

fn embedding() -> MultiPathEmbedding {
    theorem1(DIMS).expect("Theorem 1 embeds the cycle in Q_7").embedding
}

/// Forwards to [`PlanNetwork`] and replays each round's flows on the same
/// plan through the packet engine with a counting recorder, so the
/// reference pass knows the simulated steps, engine counts and link
/// congestion the protocol's rounds cost.
struct ReplayNet<'a> {
    inner: PlanNetwork<'a>,
    e: &'a MultiPathEmbedding,
    plan: &'a FaultPlan,
    shipped: Shipped,
    slots: Vec<u64>,
    keep_rounds: bool,
    faithful: bool,
}

impl RoundNetwork for ReplayNet<'_> {
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
        let out = self.inner.ship(round, subs);
        if subs.is_empty() {
            return out;
        }
        let mut sim = PacketSim::new(self.e.host);
        for sub in subs {
            let path = &self.e.edge_paths[sub.guest_edge][sub.via];
            sim.add_flow(Flow { path: path.nodes().to_vec(), packets: 1 });
            for edge in path.edges() {
                self.slots[self.e.host.undirected_edge_index(edge)] += 1;
            }
        }
        let report = sim.run_planned_recorded(MAX_STEPS, self.plan, &mut self.shipped.counts);
        self.shipped.steps += report.report.makespan;
        self.shipped.submissions += subs.len() as u64;
        if self.keep_rounds {
            self.shipped.rounds.push(subs.iter().map(|s| (s.guest_edge, s.via)).collect());
        }
        for (i, got) in out.iter().enumerate() {
            self.shipped.arrived += u64::from(got.is_some());
            self.faithful &= got.is_some() == (report.flow_delivered[i] == 1);
        }
        out
    }
}

/// Times every `ship` as a `protocol.ship` span under the op's span, and
/// counts submissions and arrivals (which must repeat the reference
/// pass's).
struct TimedNet<'a, 't> {
    inner: PlanNetwork<'a>,
    trace: &'t mut Trace,
    parent: u32,
    op: u32,
    submissions: u64,
    arrived: u64,
}

impl RoundNetwork for TimedNet<'_, '_> {
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
        let span = self.trace.open("protocol.ship", self.parent, self.op);
        let out = self.inner.ship(round, subs);
        self.trace.close(span);
        self.submissions += subs.len() as u64;
        self.arrived += out.iter().filter(|s| s.is_some()).count() as u64;
        out
    }
}

impl TransferBench {
    pub fn new(seed: u64) -> Self {
        let host = Hypercube::new(DIMS);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let instances = (0..INSTANCES)
            .map(|i| {
                let plan = random_plan(&host, i % 2 == 0, &mut rng);
                Instance { plan, key: rng.random() }
            })
            .collect();
        TransferBench {
            cfg: DeliveryConfig {
                threshold: THRESHOLD,
                max_retries: MAX_RETRIES,
                message_len: MESSAGE_LEN,
            },
            instances,
            reference: Vec::new(),
            shipped: Vec::new(),
        }
    }

    fn check(&self, i: usize, edges: usize, r: &AdaptiveReport, checks: &mut Checks) -> bool {
        let accounted = r.delivered + r.degraded + r.lost == edges;
        let repeats = self.reference.get(i).is_none_or(|x| x == r);
        checks.instance(accounted && r.wrong_reconstructions == 0 && repeats, 1, || {
            format!(
                "transfer {i}: accounted {accounted}, wrong reconstructions {}, repeats \
                 reference {repeats}",
                r.wrong_reconstructions
            )
        })
    }

    /// Replays every recorded round of the first [`REPLAY_SAMPLE`]
    /// transfers on the packet engine under the transfer's plan, with a
    /// span per round: the engine work `PlanNetwork::ship` does, timed on
    /// its own.
    fn replay_packet(&self, e: &MultiPathEmbedding, trace: &mut Trace) -> (f64, f64) {
        let mut per_transfer = Vec::new();
        let (mut ns, mut pushes) = (0u64, 0u64);
        for (inst, shipped) in self.instances.iter().zip(&self.shipped).take(REPLAY_SAMPLE) {
            let mut busy = 0u64;
            for round in &shipped.rounds {
                let mut sim = PacketSim::new(e.host);
                for &(edge, via) in round {
                    sim.add_flow(Flow {
                        path: e.edge_paths[edge][via].nodes().to_vec(),
                        packets: 1,
                    });
                }
                let mut probe = EngineProbe::new(trace, "packet.run", ROOT, NO_OP);
                black_box(sim.run_planned_recorded(MAX_STEPS, &inst.plan, &mut probe));
                let (c, _) = probe.finish();
                let span = trace.spans.last().expect("the probe closed a span");
                busy += span.ns();
                pushes += c.queue_pushes;
            }
            ns += busy;
            per_transfer.push(busy as f64 / 1e6);
        }
        (median(&mut per_transfer), ns as f64 / pushes as f64)
    }

    /// Replays the IDA calls of the first [`REPLAY_SAMPLE`] transfers on
    /// their `(w, k, len)`: every edge's dispersal, one reconstruction per
    /// recovered edge from `k` shares, and one fingerprint per tagged or
    /// arrived share. MB/s of message bytes (disperse, reconstruct) and of
    /// share bytes (fingerprint).
    fn replay_ida(&self, e: &MultiPathEmbedding) -> (f64, f64, f64) {
        let w = e.edge_paths[0].len();
        let ida = Ida::new(w as u8, THRESHOLD as u8);
        let messages: Vec<Vec<u8>> = (0..e.edge_paths.len())
            .map(|edge| (0..MESSAGE_LEN).map(|j| (edge * 131 + j * 29) as u8 ^ 0x5c).collect())
            .collect();
        let shares: Vec<_> = messages.iter().map(|m| ida.disperse(m)).collect();
        let sample = REPLAY_SAMPLE.min(self.instances.len());
        let recovered: usize =
            self.reference.iter().take(sample).map(AdaptiveReport::recovered).sum();
        let fingerprints: u64 = self.shipped.iter().take(sample).map(|s| s.arrived).sum::<u64>()
            + (sample * e.edge_paths.len() * w) as u64;
        let share_len = shares[0][0].data.len();
        let (mut d, mut r, mut f) = (Vec::new(), Vec::new(), Vec::new());
        let mb = |bytes: usize, t: Duration| bytes as f64 / 1e6 / t.as_secs_f64();
        for _ in 0..REPLAYS {
            let t = Instant::now();
            for _ in 0..sample {
                for m in &messages {
                    black_box(ida.disperse(black_box(m)));
                }
            }
            d.push(mb(sample * messages.len() * MESSAGE_LEN, t.elapsed()));
            let t = Instant::now();
            for i in 0..recovered {
                let s = &shares[i % shares.len()];
                black_box(ida.reconstruct(&s[..THRESHOLD]).expect("k shares reconstruct"));
            }
            r.push(mb(recovered * MESSAGE_LEN, t.elapsed()));
            let t = Instant::now();
            for i in 0..fingerprints as usize {
                let s = &shares[i % shares.len()][i % w];
                black_box(share_fingerprint(i as u64, s.index, &s.data));
            }
            f.push(mb(fingerprints as usize * share_len, t.elapsed()));
        }
        (median(&mut d), median(&mut r), median(&mut f))
    }
}

impl Workload for TransferBench {
    fn reference_pass(&mut self, checks: &mut Checks) -> Sim {
        let e = embedding();
        let mut sim = Sim { instances: self.instances.len(), ..Sim::default() };
        for (i, inst) in self.instances.iter().enumerate() {
            let mut net = ReplayNet {
                inner: PlanNetwork::new(&e, &inst.plan),
                e: &e,
                plan: &inst.plan,
                shipped: Shipped::default(),
                slots: vec![0; e.host.num_directed_edges() as usize],
                keep_rounds: i < REPLAY_SAMPLE,
                faithful: true,
            };
            let r = deliver_adaptive(&e, &self.cfg, inst.key, &mut net);
            let mut shipped = net.shipped;
            shipped.congestion = net.slots.iter().copied().max().unwrap_or(0);
            shipped.bound = congestion_lower_bound(net.slots.iter().sum(), DIMS);
            let faithful = net.faithful;
            let ok = self.check(i, e.edge_paths.len(), &r, checks)
                && checks
                    .instance(faithful, 0, || format!("transfer {i}: replay diverged from ship"));
            sim.requested += e.edge_paths.len() as u64;
            sim.delivered += if ok { r.recovered() as u64 } else { 0 };
            sim.steps += shipped.steps;
            sim.congestion += shipped.congestion;
            sim.bound += shipped.bound;
            self.reference.push(r);
            self.shipped.push(shipped);
        }
        sim
    }

    fn pass(&mut self, checks: &mut Checks, timing: &mut Timing) {
        let t = Instant::now();
        let e = embedding();
        timing.plan(t.elapsed());
        let mut msgs = 0u64;
        for (i, inst) in self.instances.iter().enumerate() {
            let heap = HeapScope::start();
            let t = Instant::now();
            let mut net = PlanNetwork::new(&e, &inst.plan);
            timing.engine(t.elapsed());
            let t = Instant::now();
            let r = deliver_adaptive(&e, &self.cfg, inst.key, &mut net);
            timing.op(t.elapsed());
            timing.heap(heap.peak_bytes());
            if self.check(i, e.edge_paths.len(), &r, checks) {
                msgs += r.recovered() as u64;
            }
        }
        timing.pass(msgs);
    }

    fn traced_pass(&mut self, checks: &mut Checks, trace: &mut Trace, timing: &mut Timing) {
        let span = trace.open("setup.plan", ROOT, NO_OP);
        let e = embedding();
        trace.close(span);
        timing.plan(Duration::from_nanos(trace.spans[span as usize].ns()));
        let mut msgs = 0u64;
        for (i, inst) in self.instances.iter().enumerate() {
            let t = Instant::now();
            let inner = PlanNetwork::new(&e, &inst.plan);
            timing.engine(t.elapsed());
            let op = trace.next_op();
            let root = trace.open("transfer.op", ROOT, op);
            let mut net = TimedNet { inner, trace, parent: root, op, submissions: 0, arrived: 0 };
            let r = deliver_adaptive(&e, &self.cfg, inst.key, &mut net);
            let counts = (net.submissions, net.arrived);
            trace.close(root);
            let shipped = &self.shipped[i];
            checks.instance(counts == (shipped.submissions, shipped.arrived), 0, || {
                format!("transfer {i}: traced submissions and arrivals {counts:?} differ")
            });
            timing.op(Duration::from_nanos(trace.spans[root as usize].ns()));
            if self.check(i, e.edge_paths.len(), &r, checks) {
                msgs += r.recovered() as u64;
            }
        }
        timing.pass(msgs);
    }

    fn layers(
        &mut self,
        _checks: &mut Checks,
        trace: &Trace,
        _traced: &Timing,
    ) -> BTreeMap<&'static str, f64> {
        let own = trace.self_ns();
        let mut ship: BTreeMap<u32, f64> = BTreeMap::new();
        let mut op_self = Vec::new();
        for (i, s) in trace.spans.iter().enumerate() {
            match s.name {
                "transfer.op" => {
                    op_self.push(own[i] as f64 / 1e6);
                    ship.entry(s.op).or_insert(0.0);
                }
                "protocol.ship" => *ship.entry(s.op).or_insert(0.0) += s.ns() as f64 / 1e6,
                _ => {}
            }
        }
        let e = embedding();
        let mut replay = Trace::new();
        let (packet_busy_ms, ns_per_push) = self.replay_packet(&e, &mut replay);
        let (disperse, reconstruct, fingerprint) = self.replay_ida(&e);

        let sum = |f: fn(&AdaptiveReport) -> u64| -> f64 {
            self.reference.iter().map(f).sum::<u64>() as f64
        };
        let mut c = CountingRecorder::new();
        for s in &self.shipped {
            add_counts(&mut c, &s.counts);
        }
        let submissions: u64 = self.shipped.iter().map(|s| s.submissions).sum();
        let congestion_gap: u64 = self.shipped.iter().map(|s| s.congestion - s.bound).sum();
        let mut m = BTreeMap::new();
        m.insert("ledger.congestion_gap", congestion_gap as f64);
        m.insert("packet.steps", c.steps as f64);
        m.insert("packet.queue_pushes", c.queue_pushes as f64);
        m.insert("packet.busy_ms", packet_busy_ms);
        m.insert("packet.ns_per_queue_push", ns_per_push);
        m.insert("faults.drops", c.dropped as f64);
        m.insert("faults.corrupted", c.corrupted as f64);
        m.insert("protocol.ship_ms", median(&mut ship.into_values().collect::<Vec<_>>()));
        m.insert("protocol.self_ms", median(&mut op_self));
        m.insert("protocol.submissions", submissions as f64);
        m.insert("protocol.rounds_run", sum(|r| u64::from(r.rounds_run)));
        m.insert("protocol.resend_ratio", sum(|r| r.shares_resent) / submissions as f64);
        m.insert("protocol.rejected_shares", sum(|r| r.rejected_shares));
        m.insert("ida.disperse_mb_per_s", disperse);
        m.insert("ida.reconstruct_mb_per_s", reconstruct);
        m.insert("ida.fingerprint_mb_per_s", fingerprint);
        m.insert("ida.bytes_verified", sum(|r| r.recovered() as u64) * MESSAGE_LEN as f64);
        m
    }

    fn describe(&self) -> String {
        let statics = self.instances.iter().filter(|i| i.plan.is_static_fail_stop()).count();
        let e = embedding();
        format!(
            "transfer: {} transfers of {} B per guest edge over the Theorem 1 embedding of Q_{} \
             ({} guest edges, w = {}), k = {}, up to {} retry rounds; {} static and {} dynamic \
             fault plans",
            self.instances.len(),
            MESSAGE_LEN,
            DIMS,
            e.edge_paths.len(),
            e.edge_paths[0].len(),
            THRESHOLD,
            MAX_RETRIES,
            statics,
            self.instances.len() - statics
        )
    }
}
