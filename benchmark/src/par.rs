//! `par`: the real-thread backend.
//!
//! `ParKernel` on two unpaced OS worker threads with stealing on, running
//! 96 threads in the three classes: compute-bound threads, I/O sleepers
//! and fractional-quantum yielders. The shared ledger mutex and the worker
//! channels sit on every dispatch; the pools are small.
//!
//! A repetition builds a kernel, runs it to a fixed virtual deadline and
//! checks the report. Responses come from each worker's winner stream: a
//! request is a thread becoming ready (requeue or wake), answered when its
//! next burst ends. Worker clocks are independent, so threads that
//! migrated between workers are left out of the response metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lottery_core::ledger::Valuator;
use lottery_obs::{Aggregator, PerThreadFlight, Recorder};
use lottery_par::{ParKernel, ParReport, WorkSpec};
use lottery_sim::prelude::{FundingSpec, SimDuration, SimTime, ThreadId};

use crate::common::{
    median, peak_rss_mb, policy_seed, quantile, share_error, stream, uniform, Budget, Report,
    RunConfig, Spans, CLASSES,
};
use crate::layers;

const WORKERS: u32 = 2;
const QUANTUM_US: u64 = 10_000;
/// Virtual length of one repetition's window.
const HORIZON_US: u64 = 100_000_000;
const COMPUTE_PER_CLASS: usize = 12;
const IO_PER_CLASS: usize = 10;
const YIELD_PER_CLASS: usize = 10;
/// CPU per I/O burst, and the range of the sleeps between bursts.
const IO_RUN_US: u64 = 2_000;
const IO_SLEEP_US: (u64, u64) = (8_000, 30_000);
/// `share_error` averages the per-window error over windows this long.
const SHARE_WINDOW_US: u64 = 5_000_000;
/// Flight-recorder capacity per worker lane in the traced run.
const FLIGHT_CAPACITY: usize = 1 << 20;

/// What one thread does, and the CPU each of its dispatches uses.
#[derive(Debug, Clone, Copy)]
struct Thread {
    class: usize,
    work: WorkSpec,
}

impl Thread {
    /// CPU used per dispatch, and the time after its end until the thread
    /// is ready again.
    fn burst(&self) -> (u64, u64) {
        match self.work {
            WorkSpec::Compute => (QUANTUM_US, 0),
            WorkSpec::Io { run, sleep } => (run.as_us(), sleep.as_us()),
            WorkSpec::YieldEvery(run) => (run.as_us(), 0),
            WorkSpec::Finite(total) => (total.as_us(), 0),
        }
    }
}

/// Every input of a run, generated from the workload seed alone.
struct Inputs {
    policy_seed: u32,
    threads: Vec<Thread>,
    horizon_us: u64,
}

impl Inputs {
    fn generate(cfg: &RunConfig) -> Self {
        let mut rng = stream(cfg.seed, 21);
        let mut threads = Vec::new();
        for class in 0..3 {
            for _ in 0..COMPUTE_PER_CLASS {
                threads.push(Thread {
                    class,
                    work: WorkSpec::Compute,
                });
            }
            for _ in 0..IO_PER_CLASS {
                let sleep = uniform(&mut rng, IO_SLEEP_US.0, IO_SLEEP_US.1);
                threads.push(Thread {
                    class,
                    work: WorkSpec::Io {
                        run: SimDuration::from_us(IO_RUN_US),
                        sleep: SimDuration::from_us(sleep),
                    },
                });
            }
            for _ in 0..YIELD_PER_CLASS {
                threads.push(Thread {
                    class,
                    work: WorkSpec::YieldEvery(SimDuration::from_us(QUANTUM_US / 4)),
                });
            }
        }
        // Spawn order decides homing; mix the classes and kinds.
        for i in (1..threads.len()).rev() {
            let j = uniform(&mut rng, 0, i as u64) as usize;
            threads.swap(i, j);
        }
        Self {
            policy_seed: policy_seed(cfg.seed),
            threads,
            horizon_us: cfg.scaled(HORIZON_US, 2_000_000),
        }
    }
}

fn build(inputs: &Inputs, spans: &mut Spans) -> (ParKernel, Vec<ThreadId>) {
    let mut kernel = ParKernel::with_quantum(
        inputs.policy_seed,
        WORKERS,
        SimDuration::from_us(QUANTUM_US),
    );
    kernel.set_steal(true);
    let classes: Vec<_> = CLASSES
        .iter()
        .map(|&(name, amount)| {
            kernel
                .create_currency(name, amount)
                .expect("fresh ledger accepts the class currencies")
        })
        .collect();
    let spawned = inputs
        .threads
        .iter()
        .map(|t| {
            let spec = FundingSpec::new(classes[t.class], 100);
            spans.time("par.spawn", None, || kernel.spawn(t.work, spec))
        })
        .collect();
    (kernel, spawned)
}

/// What one repetition measured.
#[derive(Debug, Default, Clone)]
struct RunOutcome {
    decisions: u64,
    pending: u64,
    steals: u64,
    response_ms: Vec<f64>,
    p99_response_ms: [f64; 3],
    max_stretch: f64,
    share_error: f64,
    decision_skew: f64,
    busy_share: f64,
}

/// Checks a report and measures it.
fn assess(inputs: &Inputs, spawned: &[ThreadId], report: &ParReport) -> (RunOutcome, Vec<String>) {
    let mut failures = Vec::new();
    let partition = catch_unwind(AssertUnwindSafe(|| report.assert_partition(spawned)));
    if partition.is_err() {
        failures.push("par: thread ownership partition violated".into());
    }
    let steals_in: u64 = report.workers.iter().map(|w| w.steals_in).sum();
    let steals_out: u64 = report.workers.iter().map(|w| w.steals_out).sum();
    if steals_in != steals_out {
        failures.push(format!(
            "par: {steals_in} steals received but {steals_out} sent"
        ));
    }
    // Funding is conserved: with every class holding a ready thread, the
    // clients' funded values add up to the classes' backing. Compensation
    // tickets come on top, so they are left out of this sum.
    let funded: f64 = {
        let mut v = Valuator::new(&report.ledger);
        report
            .ledger
            .clients()
            .map(|(id, _)| v.client_funded_value(id).unwrap_or(f64::NAN))
            .sum()
    };
    let backing: f64 = CLASSES.iter().map(|c| c.1 as f64).sum();
    if (funded - backing).abs() > 1e-6 * backing {
        failures.push(format!(
            "par: clients hold {funded} base units of funding, classes back {backing}"
        ));
    }
    let total = report.client_value_total();
    if !(total.is_finite() && total >= funded - 1e-6 * backing) {
        failures.push(format!(
            "par: client value total {total} is below the funding"
        ));
    }

    // Threads seen on more than one worker ran on two clocks.
    let mut home = vec![None; inputs.threads.len()];
    let mut migrated = vec![false; inputs.threads.len()];
    for w in &report.workers {
        for &(_, tid) in &w.winners {
            let h = home[tid as usize].get_or_insert(w.id);
            migrated[tid as usize] |= *h != w.id;
        }
    }
    let windows = (inputs.horizon_us / SHARE_WINDOW_US).max(1) as usize;
    let mut cpu = vec![[0.0f64; 3]; windows];
    let mut per_class: [Vec<f64>; 3] = Default::default();
    let mut all = Vec::new();
    let mut waited = vec![0.0f64; inputs.threads.len()];
    let mut used = vec![0.0f64; inputs.threads.len()];
    for w in &report.workers {
        let mut ready_at: Vec<Option<u64>> = vec![None; inputs.threads.len()];
        for &(start, tid) in &w.winners {
            let t = &inputs.threads[tid as usize];
            let (burst, rest) = t.burst();
            if let Some(w) = cpu.get_mut((start / SHARE_WINDOW_US) as usize) {
                w[t.class] += burst as f64;
            }
            if migrated[tid as usize] {
                continue;
            }
            if let Some(ready) = ready_at[tid as usize] {
                let response = (start + burst).saturating_sub(ready);
                let ms = response as f64 / 1000.0;
                all.push(ms);
                per_class[t.class].push(ms);
                waited[tid as usize] += response as f64;
                used[tid as usize] += burst as f64;
            }
            ready_at[tid as usize] = Some(start + burst + rest);
        }
    }
    let max_stretch = waited
        .iter()
        .zip(&used)
        .filter(|(_, &u)| u > 0.0)
        .map(|(w, u)| w / u)
        .fold(0.0, f64::max);
    let decisions: Vec<u64> = report.workers.iter().map(|w| w.decisions).collect();
    let max = *decisions.iter().max().unwrap_or(&0) as f64;
    let min = *decisions.iter().min().unwrap_or(&0) as f64;
    let busy: u64 = report.workers.iter().map(|w| w.busy.as_us()).sum();
    let outcome = RunOutcome {
        decisions: report.decisions(),
        pending: report.workers.iter().map(|w| w.ready.len() as u64).sum(),
        steals: report.steals(),
        p99_response_ms: [
            quantile(&mut per_class[0], 0.99),
            quantile(&mut per_class[1], 0.99),
            quantile(&mut per_class[2], 0.99),
        ],
        response_ms: all,
        max_stretch,
        share_error: cpu.iter().map(|w| share_error(*w)).sum::<f64>() / windows as f64,
        decision_skew: if min > 0.0 { max / min } else { f64::INFINITY },
        busy_share: busy as f64 / (WORKERS as u64 * inputs.horizon_us) as f64,
    };
    (outcome, failures)
}

pub fn run(cfg: &RunConfig) -> Report {
    let inputs = Inputs::generate(cfg);
    let mut report = Report::default();
    let mut untraced = Spans::new(false, 0);
    let mut setup_s = Vec::new();
    let mut run_ns = Vec::new();
    let mut outcomes = Vec::new();
    let mut budget = Budget::new(cfg.seconds);
    // Memory of one repetition: later ones reuse what the first freed.
    let mut peak_rss = None;
    while budget.next() {
        let start = Instant::now();
        let (kernel, spawned) = build(&inputs, &mut untraced);
        setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let result = kernel.run(SimTime::from_us(inputs.horizon_us));
        run_ns.push(start.elapsed().as_nanos() as f64);
        let (outcome, failures) = assess(&inputs, &spawned, &result);
        for f in failures {
            report.check(false, || f);
        }
        outcomes.push(outcome);
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let decisions: u64 = outcomes.iter().map(|o| o.decisions).sum();
    let pending: u64 = outcomes.iter().map(|o| o.pending).sum();
    let host_ns: f64 = run_ns.iter().sum();
    let decisions_per_s = decisions as f64 / (host_ns / 1e9);
    let mut per_run_ns: Vec<f64> = run_ns
        .iter()
        .zip(&outcomes)
        .map(|(ns, o)| ns / o.decisions.max(1) as f64)
        .collect();
    let med =
        |f: &dyn Fn(&RunOutcome) -> f64| median(&mut outcomes.iter().map(f).collect::<Vec<_>>());

    report.attempted = decisions + pending;
    report.count("repetitions", outcomes.len() as u64);
    report.count("workers", WORKERS as u64);
    report.count("threads", inputs.threads.len() as u64);
    report.count("decisions", decisions);
    report.count("requests_pending_at_deadline", pending);
    report.count("steals", outcomes.iter().map(|o| o.steals).sum());
    report.count(
        "response_samples",
        outcomes.iter().map(|o| o.response_ms.len() as u64).sum(),
    );
    report.count("setups", setup_s.len() as u64);

    if !cfg.trace {
        report.metric("decisions_per_s", decisions_per_s, "1/s");
        report.metric("decision_ns.p50", quantile(&mut per_run_ns, 0.5), "ns");
        report.metric("decision_ns.p99", quantile(&mut per_run_ns, 0.99), "ns");
        report.metric("setup_s", median(&mut setup_s), "s");
        report.metric("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MiB");
        report.metric(
            "failed_frac",
            pending as f64 / report.attempted as f64,
            "ratio",
        );
        report.metric(
            "p50_response_ms",
            med(&|o| median(&mut o.response_ms.clone())),
            "ms",
        );
        for (c, &(name, _)) in CLASSES.iter().enumerate() {
            report.metric(
                format!("p99_response_ms.{name}"),
                med(&|o| o.p99_response_ms[c]),
                "ms",
            );
        }
        report.metric("max_stretch", med(&|o| o.max_stretch), "ratio");
        let reps = outcomes.len() as f64;
        let share = outcomes.iter().map(|o| o.share_error).sum::<f64>() / reps;
        report.metric("share_error", share, "ratio");
        return report;
    }

    // Traced repetitions: per-worker flight lanes folded into an
    // aggregator at quiesce, and spans around every call.
    let mut spans = Spans::new(true, cfg.seed);
    let mut agg = Aggregator::new();
    let (mut traced_decisions, mut traced_ns, mut dropped) = (0u64, 0f64, 0u64);
    let mut traced = Vec::new();
    let mut budget = Budget::new(cfg.seconds / 4.0);
    while budget.next() {
        let setup = spans.open("bench.setup", None);
        let (mut kernel, spawned) = build(&inputs, &mut spans);
        spans.close(setup);
        let flight = PerThreadFlight::new(WORKERS as usize, FLIGHT_CAPACITY);
        kernel.attach_flight(&flight);
        let start = Instant::now();
        let result = spans.time("par.run", None, || {
            kernel.run(SimTime::from_us(inputs.horizon_us))
        });
        traced_ns += start.elapsed().as_nanos() as f64;
        let (outcome, failures) =
            spans.time("par.check", None, || assess(&inputs, &spawned, &result));
        for f in failures {
            report.check(false, || f);
        }
        dropped += flight.dropped();
        for event in flight.merged() {
            agg.record(&event);
        }
        traced_decisions += outcome.decisions;
        traced.push(outcome);
    }
    report.check(dropped == 0, || {
        format!("par: the flight recorder dropped {dropped} events")
    });
    report.check(agg.dispatches == traced_decisions, || {
        format!(
            "par: {} dispatch probes for {traced_decisions} decisions",
            agg.dispatches
        )
    });
    let d = traced_decisions.max(1) as f64;
    layers::ledger(&mut report, &agg, d, &spans);
    layers::lottery(&mut report, &agg, d);
    report.metric(
        "kernel.compensations_per_kdecision",
        agg.compensations as f64 / d * 1000.0,
        layers::unit_of("kernel.compensations_per_kdecision"),
    );
    let mean =
        |f: &dyn Fn(&RunOutcome) -> f64| traced.iter().map(f).sum::<f64>() / traced.len() as f64;
    report.metric("par.spawn_ns", spans.mean_ns("par.spawn"), "ns");
    report.metric("par.run_s", spans.mean_ns("par.run") / 1e9, "s");
    report.metric("par.check_ns", spans.mean_ns("par.check"), "ns");
    report.metric(
        "par.steals_per_kdecision",
        traced.iter().map(|o| o.steals).sum::<u64>() as f64 / d * 1000.0,
        "count",
    );
    report.metric("par.decision_skew", mean(&|o| o.decision_skew), "ratio");
    report.metric("par.virtual_busy_share", mean(&|o| o.busy_share), "ratio");
    report.metric(
        "obs.trace_overhead",
        (traced_decisions as f64 / (traced_ns / 1e9)) / decisions_per_s - 1.0,
        "ratio",
    );
    report.spans = Some(spans);
    report
}
