//! The traced run: per-layer metrics for one workload.
//!
//! Spans are recorded around every call the benchmark makes into the
//! simulator's layers (`Engine::new`, each `run_until` slice, `finish`,
//! `snapshot`, `Snapshot::from_bytes`, `resume_with_overlay`,
//! `SimConfig::to_writer`/`from_reader`, `Runner::run`/`fork`, network
//! generation), kept in memory and written to `simbench/out/` at the end.
//! A checking observer records the frame, handover and delivery streams.
//! The layers' kernels — positions, the neighbour grid, path loss,
//! collisions, airtime, the RCA-ETX estimator, ROBC, the event queue and
//! the flight scan — are then replayed on positions, distances and
//! frames taken from the workload itself. The simulator itself carries
//! no tracing: everything here is measured from outside.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use mlora_bench::HARNESS_SEED;
use mlora_core::{link_rca_etx, robc_transfer_amount, RcaEtxEstimator, Scheme};
use mlora_geo::{GridIndex, Point};
use mlora_mobility::BusNetwork;
use mlora_phy::{duty_cycle_wait, resolve_collision, time_on_air, AirtimeTable, CAPTURE_MARGIN_DB};
use mlora_sim::probe::FlightScanProbe;
use mlora_sim::{Engine, ExperimentPlan, Runner, SimConfig, SimReport, Snapshot};
use mlora_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::check::{self, CheckingObserver, FrameRecord};
use crate::workload::{self, median, Workload};
use crate::{Metric, Outcome};

/// Position, grid and replay samples per observed window.
const SAMPLE_TIMES: usize = 24;
/// Neighbour queries per sample time.
const QUERIES_PER_SAMPLE: usize = 64;
/// Each kernel replay is timed this many times; the median counts.
const KERNEL_REPEATS: usize = 5;
/// Pairs of runs of the unit, one untraced and one under spans, behind
/// `trace.overhead_share`.
const OVERHEAD_PAIRS: usize = 4;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans in memory, nested by a stack of open spans.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's length in seconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end = self.t0.elapsed().as_secs_f64();
        self.spans[id].end = end;
        (value, end - self.spans[id].start)
    }

    /// Writes every span (with its self time) as JSON and prints the
    /// total and self time per span name to stderr.
    fn write(&self, path: &std::path::Path) {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut json = String::from("[\n");
        let mut by_name: Vec<(String, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start) - child_time[i];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                json,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"self_s\": {:?}, \"parent\": {parent}}}{}",
                s.name,
                s.start,
                s.end,
                own,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
            match by_name.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += s.end - s.start;
                    entry.3 += own;
                }
                None => by_name.push((s.name.clone(), 1, s.end - s.start, own)),
            }
        }
        json.push_str("]\n");
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        match written {
            Ok(()) => eprintln!(
                "simbench: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("simbench: could not write {}: {e}", path.display()),
        }
        eprintln!(
            "simbench: {:<40} {:>6} {:>10} {:>10}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in by_name {
            eprintln!("simbench: {name:<40} {count:>6} {total:>10.4} {own:>10.4}");
        }
    }
}

/// Everything the traced run accumulates on its way to the metrics.
#[derive(Default)]
struct Acc {
    correct: bool,
    attempted: u64,
    failed: u64,
    new_s: f64,
    finish_s: f64,
    generate_s: f64,
    /// `(seconds, events)` of every `run_until` slice of the unit.
    slices: Vec<(f64, u64)>,
    unit_events: u64,
    unit_tx: u64,
    /// The unit's engine time under spans.
    traced_s: f64,
    /// The unit's time under spans over its time untraced, minus one.
    overhead_share: f64,
    encode_s: f64,
    decode_s: f64,
    mlsc_bytes: usize,
    capture_s: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    snapshot_decode_s: Vec<f64>,
    resume_s: Vec<f64>,
    branch_s: Vec<f64>,
    cell_s: Vec<f64>,
    runner_s: f64,
    runner_workers: usize,
    /// Totals over the observed runs' reports.
    frames: u64,
    handover_frames: u64,
    collisions: u64,
    generated: u64,
    delivered: u64,
}

impl Acc {
    /// Counts one checked operation.
    fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !check::report(label, &problems) {
            self.failed += 1;
        }
    }

    fn expect(&mut self, label: &str, ok: bool, what: &str) {
        self.attempted += 1;
        self.failed += !check::expect(label, ok, what) as u64;
    }

    fn same(&mut self, label: &str, a: &SimReport, b: &SimReport) {
        self.expect(
            label,
            check::same(a, b),
            "report differs from its reference",
        );
    }

    fn observed(&mut self, r: &SimReport) {
        self.frames += r.frames_sent;
        self.handover_frames += r.handover_frames;
        self.collisions += r.collisions;
        self.generated += r.generated;
        self.delivered += r.delivered;
    }
}

/// One observed run: its report, and what the replays sample from it —
/// its world and configuration, and the frames sent in the workload's
/// window.
struct Source {
    report: SimReport,
    net: BusNetwork,
    cfg: SimConfig,
    frames: Vec<FrameRecord>,
    window: (SimTime, SimTime),
}

pub fn run(workload: Workload, seed: u64) -> Outcome {
    let mut t = Tracer::new();
    let mut acc = Acc {
        correct: true,
        ..Acc::default()
    };
    let sources = match workload {
        Workload::Paper => {
            let cfg = workload::paper();
            let net = generate(&mut t, &mut acc, &cfg, HARNESS_SEED);
            io(&mut t, &mut acc, &cfg);
            let plan = ExperimentPlan::new(cfg.clone()).fixed_seeds([seed]);
            let source = cells(
                &mut t,
                &mut acc,
                &[(cfg, seed)],
                SimDuration::from_mins(10),
                vec![net],
            );
            runner(&mut t, &mut acc, &plan, &source);
            source
        }
        Workload::Metro => {
            let ((), s) = t.span("metro_throughput_config (MetroWorld::generate)", |_| {
                black_box(mlora_bench::metro_throughput_config(workload::METRO_BUSES));
            });
            acc.generate_s += s;
            let bytes = workload::metro_bytes();
            let cfg = SimConfig::from_reader(bytes.as_slice()).expect("the metro bytes decode");
            let encoded = io(&mut t, &mut acc, &cfg);
            acc.expect(
                "metro encoding",
                encoded == bytes,
                "re-encoding the decoded .mlsc changed its bytes",
            );
            let net = BusNetwork::clone(cfg.world.as_ref().expect("the metro config has a world"));
            let plan = ExperimentPlan::new(cfg.clone()).fixed_seeds([seed]);
            let source = cells(
                &mut t,
                &mut acc,
                &[(cfg, seed)],
                SimDuration::from_secs(30),
                vec![net],
            );
            runner(&mut t, &mut acc, &plan, &source);
            source
        }
        Workload::Fork => {
            let cfg = workload::fork();
            let net = generate(&mut t, &mut acc, &cfg, HARNESS_SEED);
            io(&mut t, &mut acc, &cfg);
            vec![fork(&mut t, &mut acc, cfg, seed, net)]
        }
        Workload::Sweep => {
            let plan = workload::sweep_plan(seed);
            let cells_in: Vec<(SimConfig, u64)> = plan
                .cells()
                .into_iter()
                .map(|c| (c.config, plan.seed_for(c.index, 0)))
                .collect();
            let mut nets = Vec::new();
            for (cfg, s) in &cells_in {
                nets.push(generate(&mut t, &mut acc, cfg, *s));
                io(&mut t, &mut acc, cfg);
            }
            let all = cells(
                &mut t,
                &mut acc,
                &cells_in,
                SimDuration::from_mins(10),
                nets,
            );
            runner(&mut t, &mut acc, &plan, &all);
            // Replay on one urban and one rural cell: every cell shares
            // the fleet, and the environment sets the radio ranges.
            let rural = all
                .iter()
                .position(|s| s.cfg.environment != all[0].cfg.environment)
                .expect("the sweep has both environments");
            all.into_iter()
                .enumerate()
                .filter(|&(i, _)| i == 0 || i == rural)
                .map(|(_, s)| s)
                .collect()
        }
    };
    let metrics = replay_and_report(&mut t, &mut acc, &sources, seed);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"));
    t.write(&path);
    Outcome {
        correct: acc.correct,
        attempted: acc.attempted,
        failed: acc.failed,
        metrics,
    }
}

/// Generates the world `Engine::new` builds for `cfg` under `seed`,
/// timed.
fn generate(t: &mut Tracer, acc: &mut Acc, cfg: &SimConfig, seed: u64) -> BusNetwork {
    let (net, s) = t.span("BusNetwork::generate", |_| {
        workload::generate_world(cfg, seed)
    });
    acc.generate_s += s;
    net
}

/// Encodes and decodes a configuration, timed; the decoded one must
/// encode to the same bytes. Returns the encoding.
fn io(t: &mut Tracer, acc: &mut Acc, cfg: &SimConfig) -> Vec<u8> {
    let (bytes, s) = t.span("SimConfig::to_writer", |_| {
        let mut out = Vec::new();
        cfg.to_writer(&mut out)
            .expect("the workload config encodes");
        out
    });
    acc.encode_s += s;
    acc.mlsc_bytes += bytes.len();
    let (decoded, s) = t.span("SimConfig::from_reader", |_| {
        SimConfig::from_reader(bytes.as_slice()).expect("encoded config decodes")
    });
    acc.decode_s += s;
    let mut again = Vec::new();
    decoded
        .to_writer(&mut again)
        .expect("a decoded config encodes");
    acc.expect(
        "config encoding",
        again == bytes,
        "re-encoding a decoded config changed its bytes",
    );
    bytes
}

/// The observed run: a whole engine run under the checking observer,
/// which keeps every frame. Returns the report, the frames and the
/// engine's world.
fn observe(
    t: &mut Tracer,
    acc: &mut Acc,
    label: &str,
    cfg: &SimConfig,
    seed: u64,
) -> (SimReport, Vec<FrameRecord>, BusNetwork) {
    let ((report, obs, net), _) = t.span(&format!("observe {label}"), |_| {
        let engine = Engine::new(cfg.clone(), seed);
        let net = engine.network().clone();
        let mut obs = CheckingObserver::new(cfg.scheme == Scheme::NoRouting).record_frames();
        let report = engine.run_with_observer(&mut obs);
        (report, obs, net)
    });
    let problems = check::problems(&obs, &report);
    acc.correct &= check::report(&format!("observed {label}"), &problems);
    acc.observed(&report);
    let frames = obs.frames_log.unwrap_or_default();
    (report, frames, net)
}

/// Steps `engine` to `until` in slices of `slice`, each under a span.
fn step(
    t: &mut Tracer,
    acc: &mut Acc,
    engine: &mut Engine,
    until: SimTime,
    slice: SimDuration,
) -> u64 {
    let mut events = 0;
    let mut at = engine.now();
    while at < until {
        at = (at + slice).min(until);
        let (n, s) = t.span("Engine::run_until", |_| engine.run_until(at));
        acc.slices.push((s, n));
        events += n;
    }
    events
}

/// Traced runs of whole engines (`paper`, `metro` and `sweep` cells):
/// each is observed, run untraced, stepped under spans, and branched
/// once from a checkpoint halfway through.
fn cells(
    t: &mut Tracer,
    acc: &mut Acc,
    cells: &[(SimConfig, u64)],
    slice: SimDuration,
    nets: Vec<BusNetwork>,
) -> Vec<Source> {
    let mut sources = Vec::new();
    for (i, ((cfg, seed), generated)) in cells.iter().zip(nets).enumerate() {
        let label = format!("cell {i}");
        let (observed, frames, net) = observe(t, acc, &label, cfg, *seed);
        acc.expect(
            &format!("{label} world"),
            net == generated,
            "the generated world differs from the engine's",
        );

        let horizon = SimTime::ZERO + cfg.horizon;
        let checkpoint = SimTime::from_millis(horizon.as_millis() / 2);
        let ((report, snapshot, engine_s), cell_s) = t.span(&format!("cell {i}"), |t| {
            let (mut engine, s) = t.span("Engine::new", |_| Engine::new(cfg.clone(), *seed));
            acc.new_s += s;
            let run_start = Instant::now();
            acc.unit_events += step(t, acc, &mut engine, checkpoint, slice);
            let (snapshot, capture) = t.span("Engine::snapshot", |_| {
                engine.snapshot().expect("a serial engine snapshots")
            });
            acc.capture_s.push(capture);
            acc.unit_events += step(t, acc, &mut engine, horizon, slice);
            let (report, s) = t.span("Engine::finish", |_| engine.finish());
            acc.finish_s += s;
            (
                report,
                snapshot,
                run_start.elapsed().as_secs_f64() - capture,
            )
        });
        acc.traced_s += engine_s;
        acc.cell_s.push(cell_s);
        acc.unit_tx += report.frames_sent;
        acc.same(&format!("{label} stepped"), &report, &observed);

        let branch = branch_control(t, acc, &snapshot, horizon, slice);
        acc.same(&format!("{label} branch"), &branch, &observed);

        let window = (SimTime::ZERO, horizon);
        sources.push(Source {
            report: observed,
            net,
            cfg: cfg.clone(),
            frames,
            window,
        });
    }
    let references: Vec<SimReport> = sources.iter().map(|s| s.report.clone()).collect();
    acc.overhead_share = overhead_share(acc, &references, |mut t| {
        let mut reports = Vec::new();
        let mut engine_s = 0.0;
        for (cfg, seed) in cells {
            let mut engine = Engine::new(cfg.clone(), *seed);
            let start = Instant::now();
            let report = match t.as_deref_mut() {
                Some(t) => {
                    step(
                        t,
                        &mut Acc::default(),
                        &mut engine,
                        SimTime::ZERO + cfg.horizon,
                        slice,
                    );
                    t.span("Engine::finish", |_| engine.finish()).0
                }
                None => engine.run_instrumented().0,
            };
            engine_s += start.elapsed().as_secs_f64();
            reports.push(report);
        }
        (engine_s, reports)
    });
    sources
}

/// The tracing overhead: the median, over [`OVERHEAD_PAIRS`] adjacent
/// pairs of runs of the unit, one untraced and one under spans, of the
/// traced run's time over the untraced one's, minus one. The host's
/// speed drifts in phases longer than a pair, so both runs of a pair
/// meet the same phase; which of them runs first alternates from pair to
/// pair. `unit` runs the unit, under spans when it is handed a tracer,
/// and returns its engine time and its reports, each of which must equal
/// its reference. The spans go to a tracer of their own, so the written
/// spans hold the unit's traced run once.
fn overhead_share(
    acc: &mut Acc,
    references: &[SimReport],
    mut unit: impl FnMut(Option<&mut Tracer>) -> (f64, Vec<SimReport>),
) -> f64 {
    let mut t = Tracer::new();
    let mut ratios = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let mut times = [0.0; 2];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let (s, reports) = unit(traced.then_some(&mut t));
            times[traced as usize] = s;
            for (i, (r, reference)) in reports.iter().zip(references).enumerate() {
                let how = if traced { "traced" } else { "untraced" };
                acc.same(&format!("overhead pair {pair} {how} run {i}"), r, reference);
            }
        }
        ratios.push(times[1] / times[0]);
    }
    median(&mut ratios) - 1.0
}

/// Decodes `snapshot`, resumes it without overlay and runs it out.
fn branch_control(
    t: &mut Tracer,
    acc: &mut Acc,
    snapshot: &Snapshot,
    horizon: SimTime,
    slice: SimDuration,
) -> SimReport {
    acc.snapshot_bytes.push(snapshot.as_bytes().len() as f64);
    let (decoded, s) = t.span("Snapshot::from_bytes", |_| {
        Snapshot::from_bytes(snapshot.as_bytes().to_vec()).expect("snapshot bytes decode")
    });
    acc.snapshot_decode_s.push(s);
    let (report, s) = t.span("branch control", |t| {
        let (mut engine, s) = t.span("Engine::resume", |_| {
            Engine::resume(&decoded).expect("a fresh snapshot resumes")
        });
        acc.resume_s.push(s);
        // Branch slices are not the unit's: keep them out of the step metrics.
        let mut scratch = Acc::default();
        step(t, &mut scratch, &mut engine, horizon, slice);
        t.span("Engine::finish", |_| engine.finish()).0
    });
    acc.branch_s.push(s);
    report
}

/// The `fork` workload traced: the checkpoint, then every branch under
/// spans, untraced, and through `Runner::fork`.
fn fork(t: &mut Tracer, acc: &mut Acc, cfg: SimConfig, seed: u64, generated: BusNetwork) -> Source {
    let (observed, frames, net) = observe(t, acc, "uninterrupted", &cfg, seed);
    acc.expect(
        "fork world",
        net == generated,
        "the generated world differs from the engine's",
    );
    let overlays = workload::fork_overlays(&cfg, net.area().center());
    let checkpoint = workload::fork_checkpoint();
    let horizon = SimTime::ZERO + cfg.horizon;
    let slice = SimDuration::from_mins(1);

    let (engine, _) = t.span("checkpoint", |t| {
        let (mut engine, s) = t.span("Engine::new", |_| Engine::new(cfg.clone(), seed));
        acc.new_s += s;
        let mut scratch = Acc::default();
        step(
            t,
            &mut scratch,
            &mut engine,
            checkpoint,
            SimDuration::from_mins(30),
        );
        engine
    });
    let (snapshot, s) = t.span("Engine::snapshot", |_| {
        engine.snapshot().expect("a serial engine snapshots")
    });
    acc.capture_s.push(s);
    acc.snapshot_bytes.push(snapshot.as_bytes().len() as f64);
    let (decoded, s) = t.span("Snapshot::from_bytes", |_| {
        Snapshot::from_bytes(snapshot.as_bytes().to_vec()).expect("snapshot bytes decode")
    });
    acc.snapshot_decode_s.push(s);

    let (plain, _) = workload::run_branches(&decoded, &overlays);

    // Frames sent up to the checkpoint are in every branch's report.
    let prefix = frames.iter().filter(|f| f.time <= checkpoint).count() as u64;
    for ((name, overlay), untraced) in overlays.iter().zip(&plain) {
        let (report, s) = t.span(&format!("branch {name}"), |t| {
            let (mut engine, s) = t.span("Engine::resume_with_overlay", |_| {
                Engine::resume_with_overlay(&decoded, overlay.clone())
                    .expect("the overlay is valid")
            });
            acc.resume_s.push(s);
            acc.unit_events += step(t, acc, &mut engine, horizon, slice);
            let (report, s) = t.span("Engine::finish", |_| engine.finish());
            acc.finish_s += s;
            report
        });
        acc.branch_s.push(s);
        acc.cell_s.push(s);
        acc.traced_s += s;
        acc.unit_tx += report.frames_sent - prefix;
        acc.same(&format!("branch {name} untraced"), &report, untraced);
        acc.op(
            &format!("branch {name}"),
            workload::overlay_problems(name, &report),
        );
    }
    acc.same("control branch", &plain[0], &observed);

    let runner = Runner::new();
    let (forked, s) = t.span("Runner::fork", |_| {
        runner.fork(
            &decoded,
            &overlays.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(),
        )
    });
    acc.runner_s = s;
    acc.runner_workers = workers(overlays.len());
    let forked = forked.expect("every branch runs");
    for (i, r) in forked.iter().enumerate() {
        acc.same(&format!("Runner::fork branch {i}"), r, &plain[i]);
    }
    acc.overhead_share = overhead_share(acc, &plain, |t| {
        let start = Instant::now();
        let reports = match t {
            Some(t) => overlays
                .iter()
                .map(|(_, overlay)| {
                    let (mut engine, _) = t.span("Engine::resume_with_overlay", |_| {
                        Engine::resume_with_overlay(&decoded, overlay.clone())
                            .expect("the overlay is valid")
                    });
                    step(t, &mut Acc::default(), &mut engine, horizon, slice);
                    t.span("Engine::finish", |_| engine.finish()).0
                })
                .collect(),
            None => workload::run_branches(&decoded, &overlays).0,
        };
        (start.elapsed().as_secs_f64(), reports)
    });

    Source {
        report: observed,
        net,
        cfg,
        frames: frames.into_iter().filter(|f| f.time > checkpoint).collect(),
        window: (checkpoint, horizon),
    }
}

/// The workers `Runner` puts on `jobs` runs.
fn workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs)
        .max(1)
}

/// The workload's cells through `Runner::run`, checked against the
/// observed runs.
fn runner(t: &mut Tracer, acc: &mut Acc, plan: &ExperimentPlan, observed: &[Source]) {
    let (results, s) = t.span("Runner::run", |_| Runner::new().run(plan));
    acc.runner_s = s;
    acc.runner_workers = workers(observed.len());
    // Each observed run was a direct `Engine::new(cell config, seed)`
    // run: observers are passive.
    for (cell, source) in results.expect("the plan is valid").iter().zip(observed) {
        acc.same(
            &format!("Runner cell {}", cell.index),
            cell.report.single(),
            &source.report,
        );
    }
}

/// Times `body` (one pass over `ops` kernel calls) [`KERNEL_REPEATS`]
/// times after a warm pass; the median pass, in ns per call.
fn per_call_ns(t: &mut Tracer, name: &str, ops: usize, mut body: impl FnMut() -> u64) -> f64 {
    black_box(body());
    let mut passes: Vec<f64> = (0..KERNEL_REPEATS)
        .map(|_| t.span(name, |_| black_box(body())).1)
        .collect();
    median(&mut passes) * 1e9 / ops.max(1) as f64
}

/// Time-overlapping frame pairs per frame, and those whose senders are
/// within `2 × d2d` of each other — the near cut the engine makes.
fn overlaps(source: &Source) -> (u64, u64) {
    let frames = &source.frames;
    let pos: Vec<Point> = frames
        .iter()
        .map(|f| source.net.position(f.sender, f.time))
        .collect();
    let reach = 2.0 * source.cfg.environment.d2d_range_m();
    let (mut all, mut near) = (0u64, 0u64);
    for (i, f) in frames.iter().enumerate() {
        let end = f.time + f.airtime;
        for (j, g) in frames.iter().enumerate().skip(i + 1) {
            if g.time >= end {
                break;
            }
            all += 1;
            near += (pos[i].distance_sq(pos[j]) <= reach * reach) as u64;
        }
    }
    // Every overlapping pair is one overlap for each of its two frames.
    (2 * all, 2 * near)
}

/// The replays and the per-layer metrics.
fn replay_and_report(t: &mut Tracer, acc: &mut Acc, sources: &[Source], seed: u64) -> Vec<Metric> {
    let cfg = &sources[0].cfg;
    let window_frames: usize = sources.iter().map(|s| s.frames.len()).sum::<usize>().max(1);
    let (all, near) = sources
        .iter()
        .map(overlaps)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let overlaps_per_tx = all as f64 / window_frames as f64;
    let near_per_tx = near as f64 / window_frames as f64;

    // Live positions at evenly spaced times of each window.
    let mut active = Vec::new();
    let mut position_calls = 0usize;
    let mut position_s = 0.0;
    let mut position_bad = 0u64;
    let mut within_calls = 0usize;
    let mut within_s = 0.0;
    let mut candidates = 0usize;
    let mut relocate_calls = 0usize;
    let mut relocate_s = 0.0;
    let mut grid_bad = 0u64;
    let mut distances = Vec::new();
    for source in sources {
        let net = &source.net;
        let (w0, w1) = source.window;
        let span_ms = w1.as_millis() - w0.as_millis();
        let d2d = source.cfg.environment.d2d_range_m();
        let mut hints = vec![0u32; net.trips().len()];
        for k in 0..SAMPLE_TIMES {
            let at = SimTime::from_millis(
                w0.as_millis() + span_ms * (2 * k as u64 + 1) / (2 * SAMPLE_TIMES as u64),
            );
            let nodes: Vec<_> = net.active_trips(at).map(|trip| trip.node()).collect();
            active.push(nodes.len());
            let (live, s) = t.span("BusNetwork::position_hinted", |_| {
                nodes
                    .iter()
                    .map(|&n| (n.raw(), net.position_hinted(n, at, &mut hints[n.index()])))
                    .collect::<Vec<_>>()
            });
            position_s += s;
            position_calls += nodes.len();
            position_bad += live
                .iter()
                .filter(|&&(n, p)| p != net.position(mlora_simcore::NodeId::new(n), at))
                .count() as u64;
            if live.len() < 2 {
                continue;
            }

            let mut grid = GridIndex::build(live.iter().copied(), d2d.max(200.0));
            let stride = (live.len() / QUERIES_PER_SAMPLE).max(1);
            let queries: Vec<Point> = live.iter().step_by(stride).map(|&(_, p)| p).collect();
            let mut out = Vec::new();
            let (found, s) = t.span("GridIndex::within_into", |_| {
                let mut found = 0;
                for &q in &queries {
                    grid.within_into(q, d2d, &mut out);
                    found += out.len();
                }
                found
            });
            within_s += s;
            within_calls += queries.len();
            // Each query point is a live bus, found at distance 0.
            candidates += found - queries.len();
            for &q in &queries {
                grid.within_into(q, d2d, &mut out);
                distances.extend(out.iter().map(|&(_, p)| q.distance(p)).filter(|&d| d > 0.0));
                grid_bad += !same_ids(&out, &brute_within(&live, q, d2d)) as u64;
            }

            // Every live bus moves on five seconds.
            let later = at + SimDuration::from_secs(5);
            let moved: Vec<(u32, Point)> = live
                .iter()
                .map(|&(n, _)| (n, net.position(mlora_simcore::NodeId::new(n), later)))
                .collect();
            let (ok, s) = t.span("GridIndex::relocate", |_| {
                live.iter()
                    .zip(&moved)
                    .filter(|((n, old), (_, new))| grid.relocate(*n, *old, *new))
                    .count()
            });
            relocate_s += s;
            relocate_calls += live.len();
            grid_bad += (ok != live.len()) as u64;
            for &q in queries.iter().take(8) {
                grid.within_into(q, d2d, &mut out);
                grid_bad += !same_ids(&out, &brute_within(&moved, q, d2d)) as u64;
            }
        }
    }
    acc.expect(
        "replay positions",
        position_bad == 0,
        "hinted positions differ from unhinted ones",
    );
    acc.expect(
        "replay grid",
        grid_bad == 0,
        "grid results differ from a brute-force scan",
    );
    let active_mean = active.iter().sum::<usize>() as f64 / active.len().max(1) as f64;
    let active_max = active.iter().copied().max().unwrap_or(0);
    if distances.is_empty() {
        distances.push(cfg.environment.d2d_range_m() / 2.0);
    }
    distances.truncate(200_000);

    // Path loss over the candidate distances.
    let model = cfg.path_loss;
    let tx_dbm = cfg.phy.tx_power_dbm;
    let mut rssi = Vec::new();
    let rssi_ns = per_call_ns(
        t,
        "LogDistanceModel::sample_rssi_dbm",
        distances.len(),
        || {
            let mut rng = SimRng::new(seed).fork(12);
            rssi.clear();
            rssi.extend(
                distances
                    .iter()
                    .map(|&d| model.sample_rssi_dbm(tx_dbm, d, &mut rng)),
            );
            rssi.len() as u64
        },
    );

    // Collisions among overlap sets of the workload's size.
    let set = (overlaps_per_tx.round() as usize).clamp(1, rssi.len());
    let tagged: Vec<(u32, f64)> = rssi
        .iter()
        .enumerate()
        .map(|(i, &r)| (i as u32, r))
        .collect();
    let sensitivity = cfg.phy.sensitivity_dbm();
    let sets = tagged.len() / set;
    let collision_ns = per_call_ns(t, "resolve_collision", sets, || {
        tagged
            .chunks_exact(set)
            .filter_map(|c| resolve_collision(c, sensitivity, CAPTURE_MARGIN_DB))
            .map(u64::from)
            .sum()
    });

    // Airtime lookups over the observed frames' payloads.
    let frames: Vec<&FrameRecord> = sources.iter().flat_map(|s| &s.frames).collect();
    let table = AirtimeTable::new(&cfg.phy);
    let airtime_bad = frames
        .iter()
        .filter(|f| {
            table.lookup(f.payload_bytes) != f.airtime
                || f.airtime != time_on_air(f.payload_bytes, &cfg.phy)
        })
        .count() as u64;
    acc.expect(
        "replay airtime",
        airtime_bad == 0,
        "airtime table differs from time_on_air",
    );
    let airtime_ns = per_call_ns(t, "AirtimeTable::lookup", frames.len(), || {
        frames
            .iter()
            .map(|f| table.lookup(black_box(f.payload_bytes)).as_millis())
            .sum()
    });

    // RCA-ETX: one estimator per sender, one slot observation per frame.
    let capacity = cfg.capacity;
    let bits = cfg.packet_bits();
    let slots: Vec<(usize, SimTime, Option<f64>, f64)> = frames
        .iter()
        .zip(rssi.iter().cycle())
        .map(|(f, &r)| {
            let cap = (r >= sensitivity)
                .then(|| capacity.capacity_bps(r))
                .filter(|&c| c > 0.0);
            let wait = duty_cycle_wait(f.airtime, cfg.duty_cycle).as_secs_f64();
            (f.sender.index(), f.time, cap, wait)
        })
        .collect();
    let senders = slots.iter().map(|s| s.0 + 1).max().unwrap_or(1);
    // The estimators carry over from pass to pass, so only `observe` is timed.
    let mut est = vec![RcaEtxEstimator::new(cfg.alpha, bits); senders];
    let observe_ns = per_call_ns(t, "RcaEtxEstimator::observe", slots.len(), || {
        slots
            .iter()
            .map(|&(n, at, cap, wait)| est[n].observe(at, cap, wait).to_bits() & 1)
            .sum()
    });
    let link_ns = per_call_ns(t, "link_rca_etx", rssi.len(), || {
        rssi.iter()
            .map(|&r| link_rca_etx(r, &capacity, bits).to_bits() & 1)
            .sum()
    });
    let pairs: Vec<(usize, f64)> = frames
        .iter()
        .zip(rssi.iter().cycle())
        .map(|(f, &r)| (f.bundled, capacity.capacity_bps(r).max(1.0)))
        .collect();
    let robc_ns = per_call_ns(
        t,
        "robc_transfer_amount",
        pairs.len().saturating_sub(1),
        || {
            pairs
                .windows(2)
                .map(|w| robc_transfer_amount(w[0].0, w[0].1, w[1].0, w[1].1) as u64)
                .sum()
        },
    );

    // The event queue at the live fleet's pending size.
    let pending = active_max.max(1);
    // Gaps up to one generation interval, as a device's next arrival is.
    let max_gap_ms = cfg.gen_interval.as_millis().max(2);
    let mut rng = SimRng::new(seed).fork(99);
    let gaps: Vec<u64> = (0..pending * 4)
        .map(|_| rng.gen_range_u64(1, max_gap_ms))
        .collect();
    let mut order_bad = 0u64;
    let queue_ns = per_call_ns(t, "EventQueue schedule+pop", gaps.len(), || {
        let mut q = EventQueue::with_capacity(pending);
        for (i, &g) in gaps.iter().take(pending).enumerate() {
            q.schedule(SimTime::from_millis(g), i as u32);
        }
        let mut last = SimTime::ZERO;
        for &g in &gaps {
            let (at, e) = q.pop().expect("the queue holds the pending set");
            order_bad += (at < last) as u64;
            last = at;
            q.schedule(at + SimDuration::from_millis(g), e);
        }
        last.as_millis()
    });
    acc.expect(
        "replay event queue",
        order_bad == 0,
        "events popped out of time order",
    );

    // The flight scan with the workload's overlap wave.
    let wave = (overlaps_per_tx.round() as usize).max(1);
    let mut probe = FlightScanProbe::new(seed, wave);
    let rounds = 200;
    let scan_us = per_call_ns(t, "FlightScanProbe::churn", rounds, || probe.churn(rounds)) / 1e3;

    let workers = acc.runner_workers.max(1) as f64;
    let cell_sum: f64 = acc.cell_s.iter().sum();
    let mut step_us: Vec<f64> = acc
        .slices
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(s, n)| s * 1e6 / n as f64)
        .collect();
    let step_max = acc
        .slices
        .iter()
        .filter(|&&(_, n)| n >= 1000)
        .map(|&(s, n)| s * 1e6 / n as f64)
        .fold(f64::NAN, f64::max);
    let step_max = if step_max.is_nan() {
        step_us.iter().copied().fold(0.0, f64::max)
    } else {
        step_max
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tx = acc.unit_tx.max(1) as f64;
    vec![
        ("engine.new_s", acc.new_s, "s"),
        ("engine.step_us_per_event", median(&mut step_us), "us"),
        ("engine.step_us_per_event_max", step_max, "us"),
        ("engine.us_per_tx", acc.traced_s * 1e6 / tx, "us"),
        ("engine.events", acc.unit_events as f64, "count"),
        ("engine.tx", acc.unit_tx as f64, "count"),
        ("engine.events_per_tx", acc.unit_events as f64 / tx, "count"),
        ("engine.finish_s", acc.finish_s, "s"),
        ("mobility.active_buses_mean", active_mean, "count"),
        ("mobility.active_buses_max", active_max as f64, "count"),
        ("mobility.generate_s", acc.generate_s, "s"),
        (
            "mobility.position_ns",
            position_s * 1e9 / position_calls.max(1) as f64,
            "ns",
        ),
        ("channel.overlaps_per_tx", overlaps_per_tx, "count"),
        ("channel.near_overlaps_per_tx", near_per_tx, "count"),
        ("channel.scan_us_per_round", scan_us, "us"),
        (
            "channel.collisions_per_tx",
            acc.collisions as f64 / acc.frames.max(1) as f64,
            "ratio",
        ),
        (
            "geo.within_us",
            within_s * 1e6 / within_calls.max(1) as f64,
            "us",
        ),
        (
            "geo.candidates_per_query",
            candidates as f64 / within_calls.max(1) as f64,
            "count",
        ),
        (
            "geo.relocate_ns",
            relocate_s * 1e9 / relocate_calls.max(1) as f64,
            "ns",
        ),
        ("phy.rssi_ns", rssi_ns, "ns"),
        ("phy.collision_ns", collision_ns, "ns"),
        ("phy.airtime_ns", airtime_ns, "ns"),
        ("core.rca_etx_observe_ns", observe_ns, "ns"),
        ("core.link_rca_etx_ns", link_ns, "ns"),
        ("core.robc_transfer_ns", robc_ns, "ns"),
        (
            "core.handover_share",
            acc.handover_frames as f64 / acc.frames.max(1) as f64,
            "ratio",
        ),
        ("simcore.queue_ns", queue_ns, "ns"),
        ("io.decode_s", acc.decode_s, "s"),
        ("io.encode_s", acc.encode_s, "s"),
        ("io.mlsc_mb", acc.mlsc_bytes as f64 / 1e6, "MB"),
        ("snapshot.capture_s", mean(&acc.capture_s), "s"),
        ("snapshot.mb", mean(&acc.snapshot_bytes) / 1e6, "MB"),
        ("snapshot.decode_s", mean(&acc.snapshot_decode_s), "s"),
        ("snapshot.resume_s", mean(&acc.resume_s), "s"),
        ("snapshot.branch_s", mean(&acc.branch_s), "s"),
        ("runner.cell_s_median", median(&mut acc.cell_s.clone()), "s"),
        (
            "runner.parallel_efficiency",
            cell_sum / (workers * acc.runner_s),
            "ratio",
        ),
        (
            "delivery.delivered_per_generated",
            acc.delivered as f64 / acc.generated.max(1) as f64,
            "ratio",
        ),
        ("trace.unit_s", acc.traced_s, "s"),
        ("trace.overhead_share", acc.overhead_share, "ratio"),
    ]
}

/// Every item within `radius` of `center`, by distance alone.
fn brute_within(items: &[(u32, Point)], center: Point, radius: f64) -> Vec<(u32, Point)> {
    items
        .iter()
        .copied()
        .filter(|&(_, p)| p.distance_sq(center) <= radius * radius)
        .collect()
}

fn same_ids(a: &[(u32, Point)], b: &[(u32, Point)]) -> bool {
    let mut a: Vec<u32> = a.iter().map(|&(n, _)| n).collect();
    let mut b: Vec<u32> = b.iter().map(|&(n, _)| n).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}
