//! One measured run of one workload: the end-to-end metrics (tracing
//! off) or the per-layer metrics (the traced pass).

use crate::cells::{Cell, CellRun, Kind, Trace};
use crate::json::Value;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::probe::Spans;
use crate::seeds::Seed;
use crate::workloads::Workload;
use dynspread_graph::generators::Topology;
use dynspread_graph::NodeId;
use dynspread_runtime::event::EventQueue;
use dynspread_runtime::link::{DropLink, LinkModel, LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::AsyncSsMsg;
use dynspread_runtime::session::{SessionId, WireEnvelope};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_sim::tracker::TokenTracker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The result of one run, in the shape the contract's last line wants.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` for every declared metric of the mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `cell → stats_digest` of instance 0, for reviewers and for the
    /// suite's cross-process replay check.
    pub digests: Vec<(&'static str, u64)>,
    /// Human-readable notes: failed checks, sample counts, caveats.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the contract asks for.
    pub fn to_contract_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Value::obj([
                                    ("value", Value::Num(*value)),
                                    ("unit", Value::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The value a quarter of the way up the sorted samples (the smallest of
/// three, the second smallest of four to seven, …). Host-time noise on a
/// shared box is one-sided — bursts only ever slow a sample down, and
/// the first instance also pays for first-touch page faults — so the
/// lower quartile repeats from run to run where the median does not,
/// while one lucky sample cannot set it the way it sets a minimum.
fn lower_quartile(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    values.sort_by(f64::total_cmp);
    values[values.len() / 4]
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Hands the heap pages the allocator holds free back to the kernel, so
/// that what the next instance is seen to use is what it uses, not what
/// its predecessors left behind (glibc keeps freed memory, erratically:
/// the same cell read 140 MB or 316 MB depending on what ran before it).
/// Every instance then also starts from the same heap a fresh process
/// has. A no-op off glibc.
#[allow(unsafe_code)]
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only memory
        // the allocator itself already holds free; glibc documents it as
        // callable at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Trims the heap and resets the kernel's peak-RSS watermark of this
/// process to its current RSS, so the next read of `VmHWM` is the peak
/// since now. `false` where the kernel or sandbox does not allow the
/// reset.
fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed of instance `i` of `workload` under master seed `seed`.
pub fn instance_seed(workload: &Workload, seed: u64, i: usize) -> Seed {
    Seed(seed).named(workload.name).child(i as u64)
}

struct Instance {
    cells: Vec<CellRun>,
    /// Speed-probe readings around each cell (end-to-end runs only):
    /// `probes[ci]` before cell `ci`, `probes[ci + 1]` after it.
    probes: Vec<f64>,
}

impl Instance {
    /// How much slower than the reference speed the machine ran while
    /// cell `ci` did (1.0 = at reference speed, or not probed).
    fn slowdown(&self, ci: usize) -> f64 {
        match (self.probes.get(ci), self.probes.get(ci + 1)) {
            (Some(before), Some(after)) => (before + after) / 2.0,
            _ => 1.0,
        }
    }
}

/// What one step of the speed probe takes on the box the baseline was
/// measured on when nothing else runs (52 ms for the 25 M steps of a
/// full-size probe).
const PROBE_REFERENCE_NS_PER_STEP: f64 = 2.08;

/// A fixed piece of CPU work (random read-modify-writes over 2 MB plus
/// arithmetic), timed: how much slower than the reference the machine is
/// *right now* (1.0 = reference speed).
///
/// The sandbox's speed drifts by up to 1.5× over tens of seconds under
/// sustained load, with no steal time accounted (CPU time equals wall
/// time throughout), so no clock inside the run can take it out. A probe
/// long enough to span the throttling period, taken before and after
/// every cell, can: a cell's host time divided by the slowdown its two
/// probes show spreads a third as wide between runs as the raw time.
fn speed_probe(steps: u32) -> f64 {
    const WORDS: usize = 1 << 18;
    let mut mem = vec![0u64; WORDS];
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut mem[(x as usize) & (WORDS - 1)];
        *slot = slot.wrapping_add(x);
    }
    std::hint::black_box(&mem);
    start.elapsed().as_nanos() as f64 / (steps as f64 * PROBE_REFERENCE_NS_PER_STEP)
}

/// Runs every cell of one instance. With `probed` (the reading that
/// closed the previous instance, and the run's setup timer), a speed
/// probe and a few setup batches follow every cell.
fn run_instance(
    workload: &Workload,
    seed: Seed,
    mut trace: Option<&mut Trace>,
    mut probed: Option<(f64, &mut SetupTimer)>,
) -> Instance {
    let mut probes: Vec<f64> = probed.iter().map(|(last, _)| *last).collect();
    let cells = workload
        .cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let run = cell.run(seed.child(ci as u64), trace.as_deref_mut());
            if let Some((_, setup)) = probed.as_mut() {
                let probe = speed_probe(workload.probe_steps);
                probes.push(probe);
                setup.sample_after_cell(probe);
            }
            run
        })
        .collect();
    Instance { cells, probes }
}

/// Times the building of inputs (assignments, fault and misbehavior
/// plans, session traces, adversaries, caller-built nodes): `setup_s`.
///
/// For the `Scenario` cells one instance's inputs take well under a
/// microsecond to build, far below what one clock interval around one
/// build resolves, so a sample times a batch: every instance's inputs,
/// built and dropped, as many times over as fills about three
/// milliseconds. The work is small allocations, which the sandbox runs at
/// half speed for seconds at a time (more than the speed probe, which
/// waits on memory, slows down), so the batches are spread over the whole
/// run — a few after every cell — each is divided by the slowdown the
/// probe next to it shows, and the metric is their lower quartile.
struct SetupTimer<'a> {
    workload: &'a Workload,
    seed: u64,
    count: usize,
    reps: usize,
    samples: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    const BATCH_NS: f64 = 3e6;
    const SAMPLES: usize = 30;

    fn new(workload: &'a Workload, seed: u64, count: usize) -> Self {
        let mut timer = SetupTimer {
            workload,
            seed,
            count,
            reps: 1,
            samples: Vec::new(),
        };
        let pilot_ns = (timer.batch() * count as f64 * 1e9).max(1.0);
        timer.reps = ((Self::BATCH_NS / pilot_ns).ceil() as usize).clamp(1, 10_000);
        timer
    }

    /// Builds and drops every instance's inputs `reps` times; seconds per
    /// instance.
    fn batch(&self) -> f64 {
        let start = Instant::now();
        for _ in 0..self.reps {
            for i in 0..self.count {
                let inst = instance_seed(self.workload, self.seed, i);
                for (ci, cell) in self.workload.cells.iter().enumerate() {
                    std::hint::black_box(cell.build(inst.child(ci as u64), None));
                }
            }
        }
        start.elapsed().as_secs_f64() / (self.reps * self.count) as f64
    }

    /// This cell's share of the run's batches, at the slowdown the probe
    /// reading just taken shows.
    fn sample_after_cell(&mut self, slowdown: f64) {
        let cells = self.count * self.workload.cells.len();
        for _ in 0..Self::SAMPLES.div_ceil(cells) {
            let seconds = self.batch();
            self.samples.push(seconds / slowdown);
        }
    }

    fn finish(mut self) -> (f64, usize) {
        let builds = self.samples.len() * self.reps * self.count;
        (lower_quartile(&mut self.samples), builds)
    }
}

fn collect_failures(
    workload: &Workload,
    instances: &[Instance],
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (i, inst) in instances.iter().enumerate() {
        for run in &inst.cells {
            attempted += run.outcome.attempted;
            failed += run.outcome.failed;
            for f in &run.outcome.failures {
                notes.push(format!("FAILED {} instance {i}: {f}", workload.name));
            }
        }
    }
    (attempted, failed)
}

/// The end-to-end run: `workload.instances(seconds)` seeded instances,
/// every cell through its public entry point with nothing wrapped.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> RunResult {
    let count = workload.instances(seconds);
    let mut setup = SetupTimer::new(workload, seed, count);
    // One instance's memory peak depends on its seed (transcripts and
    // queues grow with the events a run needs, and the odd instance needs
    // three times the usual). Where the kernel lets the watermark be
    // reset, each instance is measured on its own, from a trimmed heap,
    // and the metric is their median.
    let per_instance_rss = reset_peak_rss();
    let mut rss: Vec<f64> = Vec::new();
    let mut probe = speed_probe(workload.probe_steps);
    let instances: Vec<Instance> = (0..count)
        .map(|i| {
            if per_instance_rss {
                reset_peak_rss();
            }
            let inst = run_instance(
                workload,
                instance_seed(workload, seed, i),
                None,
                Some((probe, &mut setup)),
            );
            probe = *inst.probes.last().expect("probed");
            rss.push(peak_rss_mb());
            inst
        })
        .collect();
    let (setup_s, setups) = setup.finish();
    let rss_note = format!("{}: peak RSS per instance (MB): {rss:.0?}", workload.name);
    let peak_rss = if per_instance_rss {
        median(&mut rss)
    } else {
        peak_rss_mb()
    };

    // Host time per simulated unit is steady across seeds where total
    // time is not (a seed whose run needs 30 % more rounds is not a
    // slower simulator): each cell's lower-quartile time-per-unit at
    // reference machine speed, scaled to the cell's reference work,
    // summed over cells.
    let wall_s: f64 = workload
        .cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let mut per_unit: Vec<f64> = instances
                .iter()
                .map(|inst| {
                    let run = &inst.cells[ci];
                    run.run_ns as f64 / run.outcome.units.max(1) as f64 / inst.slowdown(ci)
                })
                .collect();
            lower_quartile(&mut per_unit) * cell.reference_units as f64 / 1e9
        })
        .sum();
    // The simulated metrics: per instance over its cells, then the
    // median over instances — completion times and message counts are
    // heavy-tailed in the seed, and a mean would let one instance in
    // twenty move the run's value by a quarter.
    let over_instances = |f: &dyn Fn(&Instance) -> f64| -> f64 {
        median(&mut instances.iter().map(f).collect::<Vec<_>>())
    };
    let total = |inst: &Instance, f: &dyn Fn(&CellRun) -> u64| -> f64 {
        inst.cells.iter().map(f).sum::<u64>() as f64
    };
    let messages_per_token = over_instances(&|i| {
        total(i, &|c| c.outcome.messages) / total(i, &|c| c.outcome.k).max(1.0)
    });
    let messages_per_change = over_instances(&|i| {
        total(i, &|c| c.outcome.messages) / total(i, &|c| c.outcome.tc).max(1.0)
    });
    let sim_time = over_instances(&|i| total(i, &|c| c.outcome.sim_time));

    let mut notes = vec![format!(
        "{}: {count} instances x {} cells; setup_s from {setups} builds in batches after every cell",
        workload.name,
        workload.cells.len(),
    )];
    notes.push(rss_note);
    for (ci, cell) in workload.cells.iter().enumerate() {
        let runs = || instances.iter().map(|inst| &inst.cells[ci]);
        notes.push(format!(
            "{}/{}: median run {:.4} s, median {} units (reference {}), {count} samples",
            workload.name,
            cell.name,
            median(&mut runs().map(|r| r.run_ns as f64 / 1e9).collect::<Vec<_>>()),
            median(&mut runs().map(|r| r.outcome.units as f64).collect::<Vec<_>>()),
            cell.reference_units,
        ));
    }
    for (i, inst) in instances.iter().enumerate() {
        for (ci, (cell, run)) in workload.cells.iter().zip(&inst.cells).enumerate() {
            let o = &run.outcome;
            notes.push(format!(
                "sample {}/{} instance {i}: run {:.4} s at {:.3}x reference speed, {} units, {} msgs, TC {}, sim time {}",
                workload.name,
                cell.name,
                run.run_ns as f64 / 1e9,
                1.0 / inst.slowdown(ci),
                o.units,
                o.messages,
                o.tc,
                o.sim_time,
            ));
        }
    }
    let (attempted, failed) = collect_failures(workload, &instances, &mut notes);
    let values = [
        wall_s,
        setup_s,
        peak_rss,
        messages_per_token,
        messages_per_change,
        sim_time,
        (attempted - failed) as f64 / attempted.max(1) as f64,
    ];
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        digests: workload
            .cells
            .iter()
            .zip(&instances[0].cells)
            .map(|(cell, run)| (cell.name, run.outcome.digest))
            .collect(),
        notes,
    }
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

/// Standalone replays of the layers no wrapper can reach from outside.
fn replay_standalone(cell: &Cell, seed: Seed, trace: &mut Trace) {
    let (n, k, topology) = match cell.kind {
        Kind::Flood { n, k, .. }
        | Kind::UnicastSingle { n, k }
        | Kind::UnicastMulti { n, k, .. }
        | Kind::SyncLossy { n, k }
        | Kind::EngineSingle { n, k }
        | Kind::AsyncMulti { n, k, .. }
        | Kind::Sessions { n, k, .. }
        | Kind::FaultedByz { n, k, .. } => (n, k, Topology::RandomTree),
        Kind::AsyncSingleChurn { n, k } => (n, k, Topology::SparseConnected(3.0)),
        Kind::Oblivious { n, k } => (n, k, Topology::SparseConnected(8.0)),
    };
    let mut rng = StdRng::seed_from_u64(seed.child(0x5A).0);

    // graph: what sampling one topology of the cell's family costs.
    let start = Instant::now();
    std::hint::black_box(topology.sample(n, &mut rng));
    trace.add("graph.sample_ns", start.elapsed().as_nanos() as f64);

    match cell.kind {
        Kind::Flood { .. }
        | Kind::UnicastSingle { .. }
        | Kind::UnicastMulti { .. }
        | Kind::SyncLossy { .. } => {
            // sim.tracker: one sync per node from empty to full knowledge,
            // the word-diff cost at this cell's k.
            let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
            let mut tracker = TokenTracker::new(&assignment);
            let full = TokenSet::full(k);
            let start = Instant::now();
            for v in NodeId::all(n) {
                std::hint::black_box(tracker.sync_node(v, &full, 1));
            }
            trace.add("sim.tracker_ns", start.elapsed().as_nanos() as f64);
            trace.add("sim.tracker_calls", n as f64);
        }
        Kind::EngineSingle { .. }
        | Kind::AsyncMulti { lossy: false, .. }
        | Kind::Oblivious { .. } => replay_queue(&PerfectLink.with_latency(1), &mut rng, trace),
        Kind::AsyncMulti { lossy: true, .. } | Kind::AsyncSingleChurn { .. } => {
            replay_queue(&DropLink::new(0.2).with_jitter(3), &mut rng, trace)
        }
        Kind::FaultedByz { .. } => {
            replay_queue(&DropLink::new(0.1).with_jitter(1), &mut rng, trace)
        }
        Kind::Sessions { .. } => {
            replay_queue(&DropLink::new(0.1).with_jitter(1), &mut rng, trace);
            replay_wire(trace);
        }
    }
}

/// `runtime.event`: the classic hold model — pop the earliest event,
/// schedule a successor — with delays drawn from the cell's own link
/// (a dropped copy stands for the base retransmission timer).
fn replay_queue(link: &impl LinkModel, rng: &mut StdRng, trace: &mut Trace) {
    const PENDING: u64 = 4_096;
    const OPS: usize = 1_000_000;
    const TIMER: u64 = 2;
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mut fates = Vec::new();
    let mut delay = |rng: &mut StdRng| {
        fates.clear();
        link.plan(a, b, 0, rng, &mut fates);
        fates.first().copied().unwrap_or(TIMER)
    };
    let mut queue = EventQueue::new();
    for i in 0..PENDING {
        queue.schedule(delay(rng), i);
    }
    // Delays are drawn ahead so the timed loop is queue work only.
    let delays: Vec<u64> = (0..OPS).map(|_| delay(rng)).collect();
    let start = Instant::now();
    for d in delays {
        let (at, payload) = queue.pop().expect("the queue never drains");
        queue.schedule(at + d, payload);
    }
    trace.add("runtime.event.hold_ns", start.elapsed().as_nanos() as f64);
    trace.add("runtime.event.ops", OPS as f64);
    std::hint::black_box(queue.len());
}

/// `runtime.session`: envelope → bytes → envelope → message, the wire
/// boundary every session message crosses.
fn replay_wire(trace: &mut Trace) {
    const OPS: u32 = 200_000;
    let start = Instant::now();
    for i in 0..OPS {
        let msg = AsyncSsMsg::Token(TokenId::new(i % 8));
        let env = WireEnvelope::encode_msg(SessionId::new(i % 128), &msg);
        let bytes = env.to_bytes();
        let back = WireEnvelope::from_bytes(&bytes).expect("round trip");
        std::hint::black_box(back.decode_msg::<AsyncSsMsg>().expect("round trip"));
    }
    trace.add("runtime.session.wire_ns", start.elapsed().as_nanos() as f64);
    trace.add("runtime.session.wire_ops", OPS as f64);
}

fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// What a traced pass produced.
#[derive(Debug)]
pub struct TracedPass {
    /// The per-layer metrics and check results.
    pub result: RunResult,
    /// The span tree, kept in memory until the pass ended.
    pub spans: Spans,
    /// What `trace-<workload>.json` holds: the spans plus their context.
    pub json: Value,
}

/// The traced pass over instance 0: a plain run (the digest and timing
/// reference), its traced twin, then the standalone replays.
pub fn per_layer(workload: &Workload, seed: u64) -> TracedPass {
    let inst_seed = instance_seed(workload, seed, 0);
    let load = loadavg1();
    let plain = run_instance(workload, inst_seed, None, None);

    let mut trace = Trace::new();
    let root = trace.spans.enter(workload.name);
    let iteration = trace.spans.enter("iteration");
    let traced = run_instance(workload, inst_seed, Some(&mut trace), None);
    trace.spans.exit(iteration);
    let replays = trace.spans.enter("replays");
    for (ci, cell) in workload.cells.iter().enumerate() {
        replay_standalone(cell, inst_seed.child(ci as u64), &mut trace);
        // The cost of tracing, end to end: the JSONL cell against the
        // same cell with the tracer left off.
        if let Kind::Sessions {
            n,
            sessions,
            k,
            spacing,
            jsonl: true,
        } = cell.kind
        {
            let off = Cell {
                kind: Kind::Sessions {
                    n,
                    sessions,
                    k,
                    spacing,
                    jsonl: false,
                },
                ..*cell
            };
            let off_ns = off.run(inst_seed.child(ci as u64), None).run_ns;
            trace.add("runtime.trace.off_ns", off_ns as f64);
            // The JSONL cell's run also covers the analysis of its trace;
            // take that back out so the ratio is engine against engine.
            let analysis =
                trace.get("analysis.kind_counts_ns") + trace.get("analysis.coverage_curve_ns");
            trace.add(
                "runtime.trace.on_ns",
                plain.cells[ci].run_ns as f64 - analysis,
            );
        }
    }
    trace.spans.exit(replays);
    trace.spans.exit(root);

    let mut notes = Vec::new();
    let mut mismatches = 0u64;
    for ((cell, p), t) in workload.cells.iter().zip(&plain.cells).zip(&traced.cells) {
        if p.outcome.digest != t.outcome.digest {
            mismatches += 1;
            notes.push(format!(
                "FAILED {}/{}: traced twin digest {:016x} != plain {:016x}",
                workload.name, cell.name, t.outcome.digest, p.outcome.digest
            ));
        }
        if matches!(cell.kind, Kind::Oblivious { .. }) {
            notes.push(format!(
                "{}/{}: nodes are built inside run_oblivious, so only graph and runtime.link are wrapped; engine, handlers and hand-off are runtime.scenario.run_s self time",
                workload.name, cell.name
            ));
        }
    }
    let both = [plain, traced];
    let (attempted, failed) = collect_failures(workload, &both, &mut notes);
    let [plain, traced] = both;

    let plain_ns: u64 = plain.cells.iter().map(|c| c.run_ns).sum();
    let traced_ns: u64 = traced.cells.iter().map(|c| c.run_ns).sum();
    trace.add("bench.plain_run_ns", plain_ns as f64);
    trace.add("bench.traced_ns", traced_ns as f64);
    trace.add("bench.loadavg1", load);
    trace.add("bench.traced_cells", workload.cells.len() as f64);
    trace.add("bench.digest_mismatches", mismatches as f64);

    let values = finalize(&mut trace);
    let result = RunResult {
        correct: failed == 0 && mismatches == 0,
        attempted,
        failed: failed + mismatches,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let v = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("no value computed for declared metric {}", m.name))
                    .1;
                (m.name, v, m.unit)
            })
            .collect(),
        digests: workload
            .cells
            .iter()
            .zip(&traced.cells)
            .map(|(cell, run)| (cell.name, run.outcome.digest))
            .collect(),
        notes,
    };
    let json = Value::obj([
        ("workload", Value::str(workload.name)),
        ("seed", Value::Num(seed as f64)),
        ("wrapped_call_ns", Value::Num(trace.calibration.call_ns)),
        ("spans", trace.spans.to_json()),
    ]);
    TracedPass {
        result,
        spans: trace.spans,
        json,
    }
}

/// Turns the raw sums into the declared per-layer metrics.
fn finalize(trace: &mut Trace) -> Vec<(&'static str, f64)> {
    let mut steps = std::mem::take(&mut trace.step_ns);
    steps.sort_unstable();
    let trace = &*trace;
    let g = |key: &str| trace.get(key);
    let s = |key: &str| trace.get(key) / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let handler_calls = g("runtime.protocol.on_message_calls")
        + g("runtime.protocol.on_timer_calls")
        + g("runtime.protocol.on_other_calls");
    vec![
        ("graph.evolve_s", s("graph.evolve_ns")),
        ("graph.evolve_calls", g("graph.evolve_calls")),
        (
            "graph.evolve_ns_per_call",
            ratio(g("graph.evolve_ns"), g("graph.evolve_calls")),
        ),
        ("graph.topology_changes", g("graph.topology_changes")),
        ("graph.sample_s", s("graph.sample_ns")),
        ("sim.step_s", s("sim.step_ns")),
        ("sim.steps", g("sim.steps")),
        ("sim.step_p50_us", percentile(&steps, 0.50) as f64 / 1e3),
        ("sim.step_p99_us", percentile(&steps, 0.99) as f64 / 1e3),
        ("sim.self_s", s("sim.self_ns")),
        ("sim.messages", g("sim.messages")),
        (
            "sim.ns_per_message",
            ratio(
                g("sim.step_ns") + g("runtime.sync.step_ns"),
                g("sim.messages"),
            ),
        ),
        ("sim.learnings", g("sim.learnings")),
        (
            "sim.useful_round_ratio",
            ratio(g("sim.useful_rounds"), g("sim.rounds")),
        ),
        (
            "sim.tracker.sync_ns_per_call",
            ratio(g("sim.tracker_ns"), g("sim.tracker_calls")),
        ),
        (
            "sim.competitive_residual_per_token",
            ratio(g("sim.residual"), g("sim.tokens")),
        ),
        ("core.send_s", s("core.send_ns")),
        ("core.send_calls", g("core.send_calls")),
        (
            "core.send_ns_per_call",
            ratio(g("core.send_ns"), g("core.send_calls")),
        ),
        ("core.receive_s", s("core.receive_ns")),
        ("core.receive_calls", g("core.receive_calls")),
        ("core.end_round_s", s("core.end_round_ns")),
        (
            "core.useful_message_ratio",
            ratio(g("sim.learnings"), g("sim.messages")),
        ),
        ("runtime.sync.step_s", s("runtime.sync.step_ns")),
        ("runtime.sync.steps", g("runtime.sync.steps")),
        (
            "runtime.sync.link_drop_ratio",
            ratio(g("runtime.sync.link_drops"), g("runtime.sync.link_sends")),
        ),
        ("runtime.engine.run_s", s("runtime.engine.run_ns")),
        ("runtime.engine.self_s", s("runtime.engine.self_ns")),
        ("runtime.engine.events", g("runtime.engine.events")),
        (
            "runtime.engine.self_ns_per_event",
            ratio(g("runtime.engine.self_ns"), g("runtime.engine.events")),
        ),
        ("runtime.engine.epochs", g("runtime.engine.epochs")),
        (
            "runtime.engine.mailbox_high_water",
            g("runtime.engine.mailbox_high_water"),
        ),
        (
            "runtime.event.hold_ns_per_op",
            ratio(g("runtime.event.hold_ns"), g("runtime.event.ops")),
        ),
        ("runtime.event.ops", g("runtime.event.ops")),
        ("runtime.link.plan_s", s("runtime.link.plan_ns")),
        ("runtime.link.plan_calls", g("runtime.link.plan_calls")),
        (
            "runtime.link.copies_per_plan",
            ratio(g("runtime.link.copies"), g("runtime.link.plan_calls")),
        ),
        (
            "runtime.link.drop_ratio",
            ratio(g("runtime.link.drops"), g("runtime.link.plan_calls")),
        ),
        (
            "runtime.protocol.handler_s",
            s("runtime.protocol.handler_ns"),
        ),
        (
            "runtime.protocol.handler_ns_per_call",
            ratio(g("runtime.protocol.handler_ns"), handler_calls),
        ),
        (
            "runtime.protocol.on_message_calls",
            g("runtime.protocol.on_message_calls"),
        ),
        (
            "runtime.protocol.on_timer_calls",
            g("runtime.protocol.on_timer_calls"),
        ),
        (
            "runtime.protocol.retransmit_ratio",
            ratio(
                g("runtime.protocol.retransmissions"),
                g("runtime.protocol.transmissions"),
            ),
        ),
        (
            "runtime.protocol.useful_delivery_ratio",
            ratio(
                g("runtime.protocol.learnings"),
                g("runtime.protocol.copies_delivered"),
            ),
        ),
        (
            "runtime.protocol.unroutable",
            g("runtime.protocol.unroutable"),
        ),
        (
            "runtime.protocol.oblivious.phase1_events",
            g("runtime.protocol.oblivious.phase1_events"),
        ),
        (
            "runtime.protocol.oblivious.phase2_events",
            g("runtime.protocol.oblivious.phase2_events"),
        ),
        (
            "runtime.protocol.oblivious.centers",
            g("runtime.protocol.oblivious.centers"),
        ),
        (
            "runtime.protocol.oblivious.stranded_tokens",
            g("runtime.protocol.oblivious.stranded_tokens"),
        ),
        ("runtime.scenario.build_s", s("runtime.scenario.build_ns")),
        ("runtime.scenario.run_s", s("runtime.scenario.run_ns")),
        ("runtime.session.run_s", s("runtime.session.run_ns")),
        ("runtime.session.envelopes", g("runtime.session.envelopes")),
        (
            "runtime.session.ns_per_envelope",
            ratio(g("runtime.session.run_ns"), g("runtime.session.envelopes")),
        ),
        (
            "runtime.session.wire_roundtrip_ns",
            ratio(g("runtime.session.wire_ns"), g("runtime.session.wire_ops")),
        ),
        (
            "runtime.session.decode_errors",
            g("runtime.session.decode_errors"),
        ),
        (
            "runtime.session.foreign_drops",
            g("runtime.session.foreign_drops"),
        ),
        (
            "runtime.session.overlapped_sessions",
            g("runtime.session.overlapped_sessions"),
        ),
        (
            "runtime.session.latency_p50",
            g("runtime.session.latency_p50"),
        ),
        (
            "runtime.session.latency_p90",
            g("runtime.session.latency_p90"),
        ),
        (
            "runtime.faults.plan_build_s",
            s("runtime.faults.plan_build_ns"),
        ),
        ("runtime.faults.crashes", g("runtime.faults.crashes")),
        ("runtime.faults.recoveries", g("runtime.faults.recoveries")),
        (
            "runtime.faults.partition_episodes",
            g("runtime.faults.partition_episodes"),
        ),
        ("runtime.byzantine.audit_s", s("runtime.byzantine.audit_ns")),
        (
            "runtime.byzantine.transcript_entries",
            g("runtime.byzantine.transcript_entries"),
        ),
        (
            "runtime.byzantine.audit_ns_per_entry",
            ratio(
                g("runtime.byzantine.audit_ns"),
                g("runtime.byzantine.transcript_entries"),
            ),
        ),
        (
            "runtime.byzantine.evidence",
            g("runtime.byzantine.evidence"),
        ),
        (
            "runtime.byzantine.verdicts",
            g("runtime.byzantine.verdicts"),
        ),
        (
            "runtime.byzantine.injected",
            g("runtime.byzantine.injected"),
        ),
        ("runtime.trace.record_s", s("runtime.trace.record_ns")),
        ("runtime.trace.records", g("runtime.trace.records")),
        ("runtime.trace.bytes", g("runtime.trace.bytes")),
        (
            "runtime.trace.bytes_per_event",
            ratio(g("runtime.trace.bytes"), g("runtime.trace.events")),
        ),
        (
            "runtime.trace.on_off_ratio",
            ratio(g("runtime.trace.on_ns"), g("runtime.trace.off_ns")),
        ),
        ("analysis.kind_counts_s", s("analysis.kind_counts_ns")),
        ("analysis.coverage_curve_s", s("analysis.coverage_curve_ns")),
        (
            "analysis.mb_per_s",
            ratio(
                2.0 * g("analysis.bytes") / 1e6,
                s("analysis.kind_counts_ns") + s("analysis.coverage_curve_ns"),
            ),
        ),
        ("bench.clock_ns", trace.calibration.call_ns),
        (
            "bench.trace_overhead_ratio",
            ratio(g("bench.traced_ns"), g("bench.plain_run_ns")),
        ),
        ("bench.loadavg1", g("bench.loadavg1")),
        ("bench.traced_cells", g("bench.traced_cells")),
        ("bench.digest_mismatches", g("bench.digest_mismatches")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_quartile(&mut [3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&mut [4.0, 3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            lower_quartile(&mut [9.0, 4.0, 1.0, 2.0, 3.0, 8.0, 7.0]),
            2.0
        );
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.5), 5);
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.99), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mb() > 0.0);
    }
}
