//! The hyperpath benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! cargo run --release --manifest-path hyperbench/Cargo.toml -- \
//!     --workload <saturate|faults|transfer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single client thread generates the workload's inputs from `--seed`,
//! runs every instance once to check its outputs and freeze the exact
//! simulated statistics, then repeats *passes* (every instance once, in
//! the same order) for `--seconds`, timing each op and checking every
//! report against the first one. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` a traced run gives the per-layer
//! metrics instead (see `README.md` in this directory for what each one
//! means and which end-to-end metric it should move). The last line of
//! standard output is one JSON object; a failed output check prints
//! `"correct": false` and exits with code 1.

mod calib;
mod spans;
mod stats;
mod tenant;
mod transfer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{Calibrator, CountingAlloc};
use spans::Trace;
use stats::{median, tail_quantile};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Op time between two samples of the calibration kernel, in ms.
const CALIBRATE_EVERY_MS: f64 = 4.0;
/// Passes an untraced run times at least, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// Blocks of consecutive passes whose set-up figures `setup_s` takes the
/// median of.
const SETUP_BLOCKS: usize = 5;
/// Cycles of (traced, one-worker, `nproc`-worker) passes a traced run
/// makes at least.
const MIN_CYCLES: usize = 2;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the figure is computed from.
    pub samples: usize,
}

/// Output checks of one run. A failed check fails every op of the
/// instance it covers, and that instance's messages count as lost.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked instance of `ops` ops; returns `ok`.
    pub fn instance(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) -> bool {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.first_failure.get_or_insert_with(what);
        }
        ok
    }
}

/// Host-time samples of a series of passes.
///
/// Every pass runs the same ops in the same order, so op `i` of one pass
/// repeats op `i` of every other. On a shared host, slow phases lasting
/// seconds move a run's plain median by a fifth from one run to the
/// next; keeping each op's fastest repetition filters the shorter ones
/// out, and the percentiles are taken over those per-op figures. Set-up
/// is the median over blocks of passes (see [`Timing::setup_s`]). Phases
/// longer than a run are cancelled by the calibration kernel, sampled
/// between ops.
pub struct Timing {
    /// Fastest repetition of each op of a pass, in ms.
    best_ms: Vec<f64>,
    /// Set-up of every closed pass: its plan (or embedding) build and
    /// each instance's engine set-up, in ms.
    setups: Vec<(f64, Vec<f64>)>,
    /// Set-up of the open pass.
    setup: (f64, Vec<f64>),
    /// Op repetitions timed.
    ops: usize,
    /// Passes timed.
    pub passes: usize,
    /// Heap high-water mark of each instance of a pass, in bytes.
    peak_heap: Vec<usize>,
    cal: Calibrator,
    /// Messages a pass delivers (the fewest any pass did).
    msgs: Option<u64>,
    since_cal_ms: f64,
    op_cursor: usize,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            best_ms: Vec::new(),
            setups: Vec::new(),
            setup: (0.0, Vec::new()),
            ops: 0,
            passes: 0,
            peak_heap: Vec::new(),
            cal: Calibrator::new(),
            msgs: None,
            since_cal_ms: 0.0,
            op_cursor: 0,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Timing {
    pub fn op(&mut self, d: Duration) {
        match self.best_ms.get_mut(self.op_cursor) {
            Some(best) => *best = best.min(ms(d)),
            None => self.best_ms.push(ms(d)),
        }
        self.op_cursor += 1;
        self.ops += 1;
        self.since_cal_ms += ms(d);
        if self.since_cal_ms >= CALIBRATE_EVERY_MS {
            self.since_cal_ms = 0.0;
            self.cal.sample();
        }
    }

    /// Records the pass's plan (or embedding) build.
    pub fn plan(&mut self, d: Duration) {
        self.setup.0 = ms(d);
    }

    /// Records one instance's engine set-up.
    pub fn engine(&mut self, d: Duration) {
        self.setup.1.push(ms(d));
    }

    /// Records one instance's heap high-water mark (the same every pass:
    /// the program allocates deterministically).
    pub fn heap(&mut self, bytes: usize) {
        if self.passes == 0 {
            self.peak_heap.push(bytes);
        }
    }

    /// Median over instances of their heap high-water marks, in MB.
    fn peak_heap_mb(&self) -> f64 {
        median(&mut self.peak_heap.iter().map(|&b| b as f64 / 1e6).collect::<Vec<_>>())
    }

    /// Closes a pass that delivered `msgs` messages.
    pub fn pass(&mut self, msgs: u64) {
        assert_eq!(self.op_cursor, self.best_ms.len(), "every pass runs the same ops");
        self.op_cursor = 0;
        self.setups.push(std::mem::take(&mut self.setup));
        self.passes += 1;
        self.msgs = Some(self.msgs.map_or(msgs, |m| m.min(msgs)));
    }

    /// Messages of one pass per host second of its ops.
    fn msgs_per_s(&self) -> f64 {
        self.msgs.unwrap_or(0) as f64 / (self.best_ms.iter().sum::<f64>() / 1e3)
    }

    fn op_p50(&self) -> f64 {
        median(&mut self.best_ms.clone())
    }

    /// Set-up in seconds, whole and split into (plan, engine): the
    /// passes are cut into [`SETUP_BLOCKS`] runs of consecutive passes,
    /// each block's figure is the sum over its parts of their fastest
    /// repetition in the block, and the median over blocks is reported.
    fn setup_s(&self) -> (f64, f64, f64) {
        let per_block = self.setups.len().div_ceil(SETUP_BLOCKS).max(1);
        let fastest = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
        let (mut whole, mut plan, mut engine) = (Vec::new(), Vec::new(), Vec::new());
        for block in self.setups.chunks(per_block) {
            let p = fastest(&mut block.iter().map(|(p, _)| *p));
            let e: f64 =
                (0..block[0].1.len()).map(|i| fastest(&mut block.iter().map(|(_, e)| e[i]))).sum();
            whole.push((p + e) / 1e3);
            plan.push(p / 1e3);
            engine.push(e / 1e3);
        }
        (median(&mut whole), median(&mut plan), median(&mut engine))
    }
}

/// The exact simulated outcome of one pass over every instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    pub instances: usize,
    pub requested: u64,
    pub delivered: u64,
    /// Simulated machine steps.
    pub steps: u64,
    /// Measured max cumulative link congestion, summed over instances.
    pub congestion: u64,
    /// `congestion_lower_bound` for each instance's demand, summed.
    pub bound: u64,
}

/// A workload: generated inputs plus how to run one pass over them.
pub trait Workload {
    /// Runs every instance once, checks the outputs and keeps the reports
    /// as the reference later passes must reproduce exactly.
    fn reference_pass(&mut self, checks: &mut Checks) -> Sim;
    /// One timed pass.
    fn pass(&mut self, checks: &mut Checks, timing: &mut Timing);
    /// One traced pass: spans into `trace`, op times into `timing`.
    fn traced_pass(&mut self, checks: &mut Checks, trace: &mut Trace, timing: &mut Timing);
    /// Per-layer figures from the traced passes and the replays; layers
    /// the workload bypasses are left out and report 0.
    fn layers(
        &mut self,
        checks: &mut Checks,
        trace: &Trace,
        traced: &Timing,
    ) -> BTreeMap<&'static str, f64>;
    /// One line describing the generated input.
    fn describe(&self) -> String;
}

/// Every per-layer metric, in output order: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.paths_emitted", "count"),
    ("host.emit_ns_per_path", "ns"),
    ("ledger.probe_ns", "ns"),
    ("ledger.total_slots", "count"),
    ("ledger.links_touched", "count"),
    ("ledger.quarantined_links", "count"),
    ("ledger.congestion_gap", "count"),
    ("tenants.requeue_ratio", "ratio"),
    ("tenants.degraded_ratio", "ratio"),
    ("tenants.recovered", "count"),
    ("tenants.round_self_ms_p50", "ms"),
    ("packet.steps", "count"),
    ("packet.queue_pushes", "count"),
    ("packet.busy_ms", "ms"),
    ("packet.ns_per_queue_push", "ns"),
    ("wormhole.steps", "count"),
    ("wormhole.flit_moves", "count"),
    ("wormhole.busy_ms", "ms"),
    ("wormhole.ns_per_flit_move", "ns"),
    ("faults.drops", "count"),
    ("faults.corrupted", "count"),
    ("fanout.groups_per_round", "count"),
    ("fanout.speedup", "x"),
    ("protocol.ship_ms", "ms"),
    ("protocol.self_ms", "ms"),
    ("protocol.submissions", "count"),
    ("protocol.rounds_run", "count"),
    ("protocol.resend_ratio", "ratio"),
    ("protocol.rejected_shares", "count"),
    ("ida.disperse_mb_per_s", "MB/s"),
    ("ida.reconstruct_mb_per_s", "MB/s"),
    ("ida.fingerprint_mb_per_s", "MB/s"),
    ("ida.bytes_verified", "B"),
    ("setup.plan_s", "s"),
    ("setup.engine_s", "s"),
    ("trace.overhead_ratio", "x"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hyperbench --workload <saturate|faults|transfer> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "saturate" => Some(Box::new(tenant::TenantBench::new(tenant::Kind::Saturate, seed))),
        "faults" => Some(Box::new(tenant::TenantBench::new(tenant::Kind::Faults, seed))),
        "transfer" => Some(Box::new(transfer::TransferBench::new(seed))),
        _ => None,
    }
}

fn pool(workers: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(workers).build().expect("the pool shim never fails")
}

/// Untraced run: every end-to-end metric.
fn measure(w: &mut dyn Workload, seconds: u64, checks: &mut Checks) -> Vec<Metric> {
    let sim = w.reference_pass(checks);
    let mut timing = Timing::default();
    let start = Instant::now();
    while start.elapsed().as_secs() < seconds || timing.passes < MIN_PASSES {
        w.pass(checks, &mut timing);
    }
    let (ops, passes) = (timing.ops, timing.passes);
    let scale = timing.cal.scale();
    let p99 =
        tail_quantile(&mut timing.best_ms, 0.99).expect("a pass has at least 1000 distinct ops");
    println!(
        "# host ms (unscaled): op p50 {} p99 {}, set-up {}; calibration kernel best {} ms of {} \
         samples, scale {scale}",
        timing.op_p50(),
        p99,
        timing.setup_s().0 * 1e3,
        timing.cal.best_ms(),
        timing.cal.samples()
    );
    vec![
        Metric {
            name: "msgs_per_s",
            value: timing.msgs_per_s() / scale,
            unit: "1/s",
            samples: ops,
        },
        Metric { name: "op_ms_p50", value: timing.op_p50() * scale, unit: "ms", samples: ops },
        Metric { name: "op_ms_p99", value: p99 * scale, unit: "ms", samples: ops },
        Metric { name: "setup_s", value: timing.setup_s().0 * scale, unit: "s", samples: passes },
        Metric {
            name: "peak_heap_mb",
            value: timing.peak_heap_mb(),
            unit: "MB",
            samples: timing.peak_heap.len(),
        },
        Metric {
            name: "delivered_ratio",
            value: sim.delivered as f64 / sim.requested as f64,
            unit: "ratio",
            samples: sim.instances,
        },
        Metric {
            name: "msgs_per_sim_step",
            value: sim.delivered as f64 / sim.steps as f64,
            unit: "1/step",
            samples: sim.instances,
        },
        Metric {
            name: "congestion_ratio",
            value: sim.congestion as f64 / sim.bound as f64,
            unit: "ratio",
            samples: sim.instances,
        },
    ]
}

/// Traced run: every per-layer metric. Cycles traced passes with
/// untraced passes at one worker (the workloads' own setting) and at the
/// default worker count, so a slow phase of the host hits all three
/// alike.
fn profile(
    w: &mut dyn Workload,
    seconds: u64,
    checks: &mut Checks,
    trace_path: &std::path::Path,
) -> Vec<Metric> {
    w.reference_pass(checks);
    let many = pool(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut trace = Trace::new();
    let (mut traced, mut at_one, mut at_nproc) =
        (Timing::default(), Timing::default(), Timing::default());
    let start = Instant::now();
    while start.elapsed().as_secs() < seconds || traced.passes < MIN_CYCLES {
        w.traced_pass(checks, &mut trace, &mut traced);
        w.pass(checks, &mut at_one);
        many.install(|| w.pass(checks, &mut at_nproc));
    }
    let mut values = w.layers(checks, &trace, &traced);
    values.insert("fanout.speedup", at_one.op_p50() / at_nproc.op_p50());
    values.insert("trace.overhead_ratio", traced.op_p50() / at_one.op_p50());
    let (_, plan_s, engine_s) = at_one.setup_s();
    values.insert("setup.plan_s", plan_s * at_one.cal.scale());
    values.insert("setup.engine_s", engine_s * at_one.cal.scale());
    if let Err(e) = trace.write_jsonl(trace_path) {
        eprintln!("hyperbench: writing {}: {e}", trace_path.display());
        checks.instance(false, 0, || format!("span trace not written: {e}"));
    }
    let samples = traced.ops;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
            samples,
        })
        .collect()
}

/// A metric as JSON: non-finite values (a zero denominator somewhere)
/// print as 0, and the caller fails the run.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    calib::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hyperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!("hyperbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "# workload {} seed {} seconds {} trace {} workers 1 nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# input: {}", w.describe());
    let mut checks = Checks::default();
    // Every workload runs at one worker: at the default count the rayon
    // shim starts fresh OS threads every tenant round, which tripled
    // `saturate`'s run-to-run spread. The traced run measures the fan-out
    // at the default count beside it (`fanout.speedup`).
    let metrics = pool(1).install(|| {
        if args.trace {
            let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "out"]
                .iter()
                .collect::<PathBuf>()
                .join(format!("spans-{}.jsonl", args.workload));
            println!("# spans: {}", path.display());
            profile(w.as_mut(), args.seconds, &mut checks, &path)
        } else {
            measure(w.as_mut(), args.seconds, &mut checks)
        }
    });
    for m in &metrics {
        checks.instance(m.value.is_finite(), 0, || format!("{} is not a number", m.name));
        println!("{:<28} {:>16} {:<6} n={}", m.name, json_number(m.value), m.unit, m.samples);
    }
    if let Some(f) = &checks.first_failure {
        println!("# CHECK FAILED ({} of {} ops): {f}", checks.failed, checks.attempted);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        checks.first_failure.is_none(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if checks.first_failure.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this program prints are exactly the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap().to_string())
                .collect()
        };
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("per_layer"), layers);
        assert_eq!(
            section("end_to_end"),
            [
                "msgs_per_s",
                "op_ms_p50",
                "op_ms_p99",
                "setup_s",
                "peak_heap_mb",
                "delivered_ratio",
                "msgs_per_sim_step",
                "congestion_ratio"
            ]
        );
    }
}
