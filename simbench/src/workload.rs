//! The four workloads: their inputs, built from the seed, and the
//! untraced run that times them.
//!
//! Every workload runs one checked warm-up, then whole timed reps of its
//! unit until the run's seconds have passed, and reports the median rep.
//! On a host whose speed drifts in phases of seconds to minutes, the
//! median rep repeats from process to process; the best rep, and the
//! best time of each slice of a rep, do not (see the README).

use std::fmt;
use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use mlora_bench::{
    bench_config, figure_sweep_plan, metro_throughput_config, paper_config, BENCH_GATEWAY_COUNTS,
    HARNESS_SEED,
};
use mlora_core::Scheme;
use mlora_geo::Point;
use mlora_mobility::BusNetwork;
use mlora_sim::{
    BusWithdrawal, DisruptionPlan, Engine, Environment, ExperimentPlan, GatewayOutage, NoiseBurst,
    Runner, SimConfig, SimReport, Snapshot,
};
use mlora_simcore::{SimDuration, SimRng, SimTime};

use crate::check::{self, CheckingObserver};
use crate::{Metric, Outcome};

/// `paper` runs from midnight to this hour, the start of the morning peak.
pub const PAPER_HOURS: u64 = 8;
/// `metro` cold-starts the 20 000-bus world for this many minutes.
pub const METRO_MINUTES: u64 = 10;
/// `metro`'s fleet.
pub const METRO_BUSES: usize = 20_000;
/// `fork` checkpoints at this hour…
pub const FORK_CHECKPOINT_HOURS: u64 = 8;
/// …and runs each branch this many minutes past it.
pub const FORK_BRANCH_MINUTES: u64 = 15;
/// Disruption overlays start this long after the checkpoint.
const OVERLAY_DELAY: SimDuration = SimDuration::from_secs(60);
/// After each timed rep, set-ups are timed until this share of the
/// rep's time has passed (at least one), so that the set-up samples are
/// spread over the whole run as the reps are.
const SETUP_SHARE: f64 = 0.025;
/// Every run makes at least this many timed reps.
const MIN_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Metro,
    Fork,
    Sweep,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "paper" => Ok(Workload::Paper),
            "metro" => Ok(Workload::Metro),
            "fork" => Ok(Workload::Fork),
            "sweep" => Ok(Workload::Sweep),
            _ => Err(format!(
                "unknown workload {s} (paper, metro, fork or sweep)"
            )),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Paper => "paper",
            Workload::Metro => "metro",
            Workload::Fork => "fork",
            Workload::Sweep => "sweep",
        })
    }
}

/// The world `Engine::new` generates for `cfg` under `seed`.
pub fn generate_world(cfg: &SimConfig, seed: u64) -> BusNetwork {
    let mut net = cfg.network.clone();
    net.horizon = cfg.horizon;
    BusNetwork::generate(&net, SimRng::new(seed).fork(11).seed())
}

/// `cfg` cut to `horizon`, with the world `Engine::new` would generate
/// for it under [`HARNESS_SEED`] attached as a prebuilt world. Every
/// seed then runs on the fleet the paper's figures use (with seed 2020
/// the run is the figures' run), and the seed varies the channel,
/// traffic and deployment draws. With a world per seed, the unit's
/// events varied by ±4% and its time by far more from seed to seed.
fn on_harness_world(mut cfg: SimConfig, horizon: SimDuration) -> SimConfig {
    cfg.horizon = horizon;
    cfg.network.horizon = horizon;
    cfg.world = Some(Arc::new(generate_world(&cfg, HARNESS_SEED)));
    cfg
}

/// The paper's urban ROBC scenario at paper scale (600 km², 2000-bus
/// peak, 60 gateways, London diurnal profile), midnight to 08:00.
pub fn paper() -> SimConfig {
    on_harness_world(
        paper_config(Scheme::Robc, Environment::Urban),
        SimDuration::from_hours(PAPER_HOURS),
    )
}

/// The 20 000-bus metro world of the `engine_events` metro tier, encoded
/// to `.mlsc` bytes with a short horizon. The world is the tier's own
/// prebuilt one; the engine seed varies the run.
pub fn metro_bytes() -> Vec<u8> {
    let mut cfg = metro_throughput_config(METRO_BUSES);
    // The prebuilt world keeps its 1-hour schedule; only the run is cut.
    cfg.horizon = SimDuration::from_mins(METRO_MINUTES);
    let mut bytes = Vec::new();
    cfg.to_writer(&mut bytes).expect("the metro preset encodes");
    bytes
}

/// The paper-scale urban scenario under RCA-ETX, long enough for the
/// checkpoint and one branch.
pub fn fork() -> SimConfig {
    on_harness_world(
        paper_config(Scheme::RcaEtx, Environment::Urban),
        SimDuration::from_hours(FORK_CHECKPOINT_HOURS)
            + SimDuration::from_mins(FORK_BRANCH_MINUTES),
    )
}

pub fn fork_checkpoint() -> SimTime {
    SimTime::ZERO + SimDuration::from_hours(FORK_CHECKPOINT_HOURS)
}

/// The what-if branches: a control, a quarter of the gateways out, a
/// 5 km noise burst over the centre and a quarter of the fleet withdrawn,
/// each from one minute past the checkpoint to the horizon.
pub fn fork_overlays(cfg: &SimConfig, center: Point) -> Vec<(&'static str, DisruptionPlan)> {
    let at = fork_checkpoint() + OVERLAY_DELAY;
    let outage = DisruptionPlan {
        outages: (0..cfg.num_gateways)
            .step_by(4)
            .map(|gateway| GatewayOutage {
                gateway,
                start: at,
                duration: None,
            })
            .collect(),
        ..DisruptionPlan::default()
    };
    let noise = DisruptionPlan {
        noise_bursts: vec![NoiseBurst {
            center,
            radius_m: 5_000.0,
            start: at,
            duration: None,
            extra_loss_db: 20.0,
        }],
        ..DisruptionPlan::default()
    };
    let withdrawal = DisruptionPlan {
        withdrawals: vec![BusWithdrawal { at, fraction: 0.25 }],
        ..DisruptionPlan::default()
    };
    vec![
        ("control", DisruptionPlan::default()),
        ("gateway_outage", outage),
        ("noise_burst", noise),
        ("withdrawal", withdrawal),
    ]
}

/// Checks that each branch's report shows its overlay, and only it.
pub fn overlay_problems(name: &str, r: &SimReport) -> Vec<String> {
    let counters = (
        r.gateway_outages > 0,
        r.noise_bursts > 0,
        r.buses_withdrawn > 0,
    );
    let expected = match name {
        "control" => (false, false, false),
        "gateway_outage" => (true, false, false),
        "noise_burst" => (false, true, false),
        _ => (false, false, true),
    };
    if counters == expected {
        Vec::new()
    } else {
        vec![format!(
            "branch {name}: outages {}, noise bursts {}, withdrawn {}",
            r.gateway_outages, r.noise_bursts, r.buses_withdrawn
        )]
    }
}

/// The Figs. 8/9 gateway-density sweep at bench scale: both
/// environments × 40/70/100 gateways × every scheme, one fleet for all.
pub fn sweep_plan(seed: u64) -> ExperimentPlan {
    figure_sweep_plan(
        bench_config(Scheme::Robc, Environment::Urban),
        &BENCH_GATEWAY_COUNTS,
    )
    .fixed_seeds([seed])
}

/// Resumes every branch from `snapshot` and runs it to the horizon.
/// Returns the reports and the events processed.
pub fn run_branches(
    snapshot: &Snapshot,
    overlays: &[(&'static str, DisruptionPlan)],
) -> (Vec<SimReport>, u64) {
    let mut events = 0;
    let reports = overlays
        .iter()
        .map(|(_, overlay)| {
            let mut engine = Engine::resume_with_overlay(snapshot, overlay.clone())
                .expect("the overlay is valid");
            events += engine.run_until(SimTime::MAX);
            engine.finish()
        })
        .collect();
    (reports, events)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One timed rep: its wall time, the engine events it processed, and
/// its operations attempted and failed.
struct Rep {
    wall: f64,
    events: u64,
    attempted: u64,
    failed: u64,
}

/// What a workload hands [`timed`] besides its reps.
struct Prepared {
    /// Whether the warm-up passed its checks.
    correct: bool,
    /// The peak resident set, read before the checked warm-up.
    peak_rss_mb: f64,
}

/// The end-to-end metrics of a run: reps until `seconds` have passed (at
/// least [`MIN_REPS`]) and the median rep, with set-ups timed between
/// them and their median. What a set-up builds is dropped after its
/// clock stops.
fn timed<T>(
    seconds: f64,
    prepared: Prepared,
    mut setup: impl FnMut() -> T,
    mut rep: impl FnMut() -> Rep,
) -> Outcome {
    let (mut walls, mut setups, mut events, mut attempted, mut failed) =
        (Vec::new(), Vec::new(), None, 0, 0);
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let r = rep();
        walls.push(r.wall);
        attempted += r.attempted;
        // The engine is deterministic: every rep processes the same events.
        failed += r
            .failed
            .max((*events.get_or_insert(r.events) != r.events) as u64);
        let budget = r.wall * SETUP_SHARE;
        let began = Instant::now();
        loop {
            let t = Instant::now();
            let built = black_box(setup());
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
            if began.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "simbench: {} timed reps (s): {}; {} set-ups",
        walls.len(),
        listed.join(" "),
        setups.len()
    );
    let wall = median(&mut walls);
    let metrics: Vec<Metric> = vec![
        ("wall_s", wall, "s"),
        ("events_per_s", events.unwrap_or(0) as f64 / wall, "1/s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mb", prepared.peak_rss_mb, "MB"),
    ];
    Outcome {
        correct: prepared.correct,
        attempted,
        failed,
        metrics,
    }
}

/// The process's peak resident set, MB. Each workload reads it after
/// every engine of its unit has been built and run once without an
/// observer, and before the checked warm-up, whose ledger of every
/// message would count too. `sweep` reads it after running its cells one
/// at a time: its reps run two cells at a time, which two depending on
/// the schedule (its peak read after the reps moved between 22 and 30 MB
/// over four seeds).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The checked warm-up of one engine run: its report, and whether the
/// event stream and report passed every check.
pub fn checked_run(label: &str, cfg: &SimConfig, seed: u64) -> (SimReport, bool) {
    let mut obs = CheckingObserver::new(cfg.scheme == Scheme::NoRouting);
    let report = Engine::new(cfg.clone(), seed).run_with_observer(&mut obs);
    let ok = check::report(label, &check::problems(&obs, &report));
    (report, ok)
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    match workload {
        Workload::Paper => run_paper(seed, seconds),
        Workload::Metro => run_metro(seed, seconds),
        Workload::Fork => run_fork(seed, seconds),
        Workload::Sweep => run_sweep(seed, seconds),
    }
}

/// One timed rep of a whole engine run; set-up is outside the clock.
fn engine_rep(engine: Engine, reference: &SimReport) -> Rep {
    let start = Instant::now();
    let (report, stats) = engine.run_instrumented();
    Rep {
        wall: start.elapsed().as_secs_f64(),
        events: stats.events_processed,
        attempted: 1,
        failed: !check::same(&report, reference) as u64,
    }
}

/// `paper` and `metro`: an untimed, unobserved run, the peak resident
/// set, the checked warm-up (which the untimed run must equal), then the
/// timed reps.
fn run_engine_unit(
    label: &str,
    seconds: f64,
    cfg: &SimConfig,
    seed: u64,
    correct: bool,
    build: impl Fn() -> Engine,
) -> Outcome {
    let untimed = build().run();
    let peak_rss_mb = peak_rss_mb();
    let (reference, ok) = checked_run(label, cfg, seed);
    let same = check::same(&untimed, &reference);
    let prepared = Prepared {
        correct: correct
            && ok
            && check::expect(
                label,
                same,
                "the unobserved run differs from the observed run",
            ),
        peak_rss_mb,
    };
    timed(seconds, prepared, &build, || {
        engine_rep(build(), &reference)
    })
}

fn run_paper(seed: u64, seconds: f64) -> Outcome {
    let cfg = paper();
    run_engine_unit("paper warm-up", seconds, &cfg, seed, true, || {
        Engine::new(cfg.clone(), seed)
    })
}

fn run_metro(seed: u64, seconds: f64) -> Outcome {
    let bytes = metro_bytes();
    let decode = || SimConfig::from_reader(bytes.as_slice()).expect("the metro bytes decode");
    let cfg = decode();
    let mut again = Vec::new();
    cfg.to_writer(&mut again).expect("a decoded config encodes");
    let round_trip = check::expect(
        "metro encoding",
        again == bytes,
        "re-encoding the decoded .mlsc changed its bytes",
    );
    run_engine_unit("metro warm-up", seconds, &cfg, seed, round_trip, || {
        Engine::new(decode(), seed)
    })
}

/// One `fork` rep: capture the checkpoint, decode it and run every
/// branch from it. Returns the branch reports, the wall time and the
/// events processed.
fn fork_rep(
    engine: &Engine,
    overlays: &[(&'static str, DisruptionPlan)],
) -> (Vec<SimReport>, f64, u64) {
    let start = Instant::now();
    let snapshot = engine.snapshot().expect("a serial engine snapshots");
    let decoded =
        Snapshot::from_bytes(snapshot.as_bytes().to_vec()).expect("snapshot bytes decode");
    let (reports, events) = run_branches(&decoded, overlays);
    (reports, start.elapsed().as_secs_f64(), events)
}

fn run_fork(seed: u64, seconds: f64) -> Outcome {
    let cfg = fork();
    let mut engine = Engine::new(cfg.clone(), seed);
    let overlays = fork_overlays(&cfg, engine.network().area().center());
    engine.run_until(fork_checkpoint());

    // The warm-up: one rep, whose branches are held to the independent
    // checks and are the references of every timed rep.
    let (references, _, _) = fork_rep(&engine, &overlays);
    let peak_rss_mb = peak_rss_mb();
    let mut problems: Vec<String> = overlays
        .iter()
        .zip(&references)
        .flat_map(|((name, _), r)| overlay_problems(name, r))
        .collect();
    let (uninterrupted, correct) = checked_run("fork uninterrupted run", &cfg, seed);

    let bytes = engine
        .snapshot()
        .expect("a serial engine snapshots")
        .as_bytes()
        .to_vec();
    let setup = || {
        let decoded = Snapshot::from_bytes(bytes.clone()).expect("snapshot bytes decode");
        overlays
            .iter()
            .map(|(_, o)| Engine::resume_with_overlay(&decoded, o.clone()).expect("valid overlay"))
            .collect::<Vec<_>>()
    };
    let prepared = Prepared {
        correct,
        peak_rss_mb,
    };
    let mut outcome = timed(seconds, prepared, setup, || {
        let (reports, wall, events) = fork_rep(&engine, &overlays);
        Rep {
            wall,
            events,
            attempted: reports.len() as u64,
            failed: reports
                .iter()
                .zip(&references)
                .filter(|(a, b)| !check::same(a, b))
                .count() as u64,
        }
    });
    // The original engine, stepped on from the checkpoint every rep
    // captured, must land where the control branch did.
    let stepped = engine.finish();
    if !check::same(&references[0], &stepped) {
        problems.push("control branch differs from the original engine stepped on".into());
    }
    if !check::same(&stepped, &uninterrupted) {
        problems.push("stepped run differs from the uninterrupted run".into());
    }
    outcome.correct &= check::report("fork warm-up", &problems);
    outcome
}

fn run_sweep(seed: u64, seconds: f64) -> Outcome {
    let plan = sweep_plan(seed);
    let cells = plan.cells();
    // Direct runs of every cell in `run_until` steps, unobserved: they
    // count the events, and the peak resident set is read after them.
    // Then the checked reference runs, which the stepped runs must equal.
    let mut events = 0;
    let stepped: Vec<SimReport> = cells
        .iter()
        .map(|cell| {
            let mut engine = Engine::new(cell.config.clone(), plan.seed_for(cell.index, 0));
            events += engine.run_until(SimTime::MAX);
            engine.finish()
        })
        .collect();
    let peak_rss_mb = peak_rss_mb();
    let mut correct = true;
    let mut references = Vec::with_capacity(cells.len());
    for (cell, stepped) in cells.iter().zip(&stepped) {
        let label = format!("sweep cell {}", cell.index);
        let (reference, ok) = checked_run(&label, &cell.config, plan.seed_for(cell.index, 0));
        let same = check::same(stepped, &reference);
        correct &= ok && check::expect(&label, same, "stepped run differs from the observed run");
        references.push(reference);
    }
    let prepared = Prepared {
        correct,
        peak_rss_mb,
    };
    let setup = || {
        cells
            .iter()
            .map(|c| Engine::new(c.config.clone(), plan.seed_for(c.index, 0)))
            .collect::<Vec<_>>()
    };
    let runner = Runner::new();
    timed(seconds, prepared, setup, || {
        let start = Instant::now();
        let results = runner.run(&plan).expect("the sweep plan is valid");
        Rep {
            wall: start.elapsed().as_secs_f64(),
            events,
            attempted: results.len() as u64,
            failed: results
                .iter()
                .filter(|c| !check::same(c.report.single(), &references[c.index]))
                .count() as u64,
        }
    })
}
