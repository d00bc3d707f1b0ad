//! `serve`: an open-loop multi-tenant service in simulated time.
//!
//! `SmpKernel` with four simulated CPUs over `DistributedLottery` (alias
//! structure per shard). Two thousand tenant currencies hang off the
//! three class currencies; every 10 ms an idle tenant retires and a new
//! one joins. Jobs arrive as a Poisson stream whose rate swings
//! sinusoidally over a simulated day, from 5% of capacity at the trough to
//! 140% at the peak, so the run queue swings from a handful of jobs to
//! several hundred. Service demands are bounded-Pareto (α = 1.5,
//! 0.5–80 ms) and one job in four sleeps for an I/O phase half way
//! through.
//!
//! The run covers eight days and two thirds of the ninth, so it stops
//! just after a peak: jobs that arrive before the drain deadline (the end
//! of day eight) must all have exited; the backlog left at the end is the
//! unfinished share of `failed_frac`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result as LedgerResult;
use lottery_core::ledger::Ledger;
use lottery_core::ticket::TicketId;
use lottery_obs::{Aggregator, ProbeBus, Shared};
use lottery_sim::prelude::*;

use crate::common::{
    bounded_pareto, median, peak_rss_mb, pin_for_repetition, policy_seed, quantile, share_error,
    stream, uniform, Budget, Report, RunConfig, SetupTimes, Spans, Stratified, WindowTimes,
    CLASSES,
};
use crate::layers;

const CPUS: usize = 4;
const TENANTS: u64 = 2_000;
/// Every tenant holds the same funding in its class, and every job the
/// same funding in its tenant.
const TENANT_TICKETS: u64 = 10;
const JOB_TICKETS: u64 = 100;
const QUANTUM_MS: u64 = 10;
/// Simulated length of one decision-cost window.
const WINDOW_US: u64 = 15_000;
/// Simulated length of one diurnal cycle, and the number of whole cycles
/// before the drain deadline.
const DAY_US: u64 = 2_000_000;
const DAYS: u64 = 8;
/// Offered load at the daily trough and peak, as a share of capacity.
const TROUGH_LOAD: f64 = 0.05;
const PEAK_LOAD: f64 = 1.4;
/// Bounded-Pareto service demand: bounds in microseconds and tail index.
const SERVICE_LO_US: f64 = 500.0;
const SERVICE_HI_US: f64 = 80_000.0;
const SERVICE_ALPHA: f64 = 1.5;
/// Share of jobs with an I/O phase, and the range of its length in µs.
const IO_SHARE: f64 = 0.25;
const IO_SLEEP_US: (u64, u64) = (2_000, 20_000);
/// A tenant retires and another joins this often.
const CHURN_EVERY_US: u64 = 10_000;
/// A throwaway machine is built and timed once per this many windows,
/// so the `setup_s` samples spread over the whole run.
const SETUP_EVERY_WINDOWS: u64 = 60;
/// A class counts as backlogged in a window when it has at least this
/// many live jobs at the window's start; `share_error` looks only at
/// windows where every class is backlogged.
const BACKLOG_JOBS: u32 = 2 * CPUS as u32;

/// Mean of the bounded-Pareto service demand, in microseconds.
fn mean_service_us() -> f64 {
    let (lo, hi, a) = (SERVICE_LO_US, SERVICE_HI_US, SERVICE_ALPHA);
    let norm = lo.powf(a) / (1.0 - (lo / hi).powf(a));
    norm * a / (a - 1.0) * (lo.powf(1.0 - a) - hi.powf(1.0 - a))
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    at_us: u64,
    service_us: u64,
    /// Length of the mid-job I/O sleep, 0 for a pure CPU job.
    io_us: u64,
    /// Tenant slot the job is billed to.
    slot: usize,
}

#[derive(Debug, Clone, Copy)]
struct Churn {
    at_us: u64,
    /// Where the search for an idle tenant to retire starts.
    slot: usize,
}

/// Every input of a run, generated from the workload seed alone.
struct Inputs {
    /// Tenant slots; slot `s` belongs to class `s % 3` for the whole run.
    tenants: usize,
    arrivals: Vec<Arrival>,
    churn: Vec<Churn>,
    /// Jobs arriving before this instant must exit by the end.
    drain_us: u64,
    end_us: u64,
    policy_seed: u32,
}

/// Offered load at time `t`: trough at the start of each day, peak at
/// its middle.
fn load(t: f64, day_us: f64) -> f64 {
    let swing = (PEAK_LOAD - TROUGH_LOAD) / 2.0;
    TROUGH_LOAD + swing * (1.0 - (std::f64::consts::TAU * t / day_us).cos())
}

/// Integral of `load` over `[0, t]`.
fn cumulative_load(t: f64, day_us: f64) -> f64 {
    let swing = (PEAK_LOAD - TROUGH_LOAD) / 2.0;
    let w = std::f64::consts::TAU / day_us;
    (TROUGH_LOAD + swing) * t - swing * (w * t).sin() / w
}

impl Inputs {
    fn generate(cfg: &RunConfig) -> Self {
        let slots = cfg.scaled(TENANTS, 30) as usize;
        let day_us = cfg.scaled(DAY_US, 400_000);
        let drain_us = day_us * DAYS;
        // End two thirds into the last day, just after its peak, when
        // the backlog is near its largest.
        let end_us = drain_us + day_us * 2 / 3;

        // Poisson arrivals of rate `capacity × load(t)`: unit-rate arrival
        // epochs mapped through the inverse of the cumulative rate.
        let capacity_per_us = CPUS as f64 / mean_service_us();
        let mut gaps = Stratified::new(stream(cfg.seed, 2));
        let mut classes = Stratified::new(stream(cfg.seed, 3));
        // Each class draws its jobs from its own strata, so every class
        // sees the whole service distribution, tail included.
        let mut services = [4, 5, 6].map(|lane| Stratified::new(stream(cfg.seed, lane)));
        let mut io = [7, 8, 9].map(|lane| Stratified::new(stream(cfg.seed, lane)));
        let mut rng = stream(cfg.seed, 10);
        let mut arrivals = Vec::new();
        let (mut epoch, mut t) = (0.0f64, 0.0f64);
        loop {
            epoch += -(1.0 - gaps.draw()).ln() / capacity_per_us;
            // Newton's method on cumulative_load(t) = epoch; the rate is
            // positive everywhere, so it converges from the last arrival.
            for _ in 0..50 {
                let step = (cumulative_load(t, day_us as f64) - epoch) / load(t, day_us as f64);
                t -= step;
                if step.abs() < 1e-3 {
                    break;
                }
            }
            if t >= end_us as f64 {
                break;
            }
            let class = (classes.draw() * 3.0) as usize;
            let service_us = bounded_pareto(
                services[class].draw(),
                SERVICE_LO_US,
                SERVICE_HI_US,
                SERVICE_ALPHA,
            ) as u64;
            let io_us = if io[class].draw() < IO_SHARE {
                uniform(&mut rng, IO_SLEEP_US.0, IO_SLEEP_US.1)
            } else {
                0
            };
            let per_class = (slots - class).div_ceil(3) as u64;
            let slot = class + 3 * uniform(&mut rng, 0, per_class - 1) as usize;
            arrivals.push(Arrival {
                at_us: t as u64,
                service_us,
                io_us,
                slot,
            });
        }

        let mut rng = stream(cfg.seed, 11);
        let churn = (1..end_us / CHURN_EVERY_US)
            .map(|i| Churn {
                // Offset from the window grid so churn interleaves with
                // arrivals rather than landing on window edges.
                at_us: i * CHURN_EVERY_US + 1_234,
                slot: uniform(&mut rng, 0, slots as u64 - 1) as usize,
            })
            .collect();
        Self {
            tenants: slots,
            arrivals,
            churn,
            drain_us,
            end_us,
            policy_seed: policy_seed(cfg.seed),
        }
    }
}

/// The tenant currency in one slot, and the ticket of its class that
/// backs it.
#[derive(Clone, Copy)]
struct Slot {
    currency: CurrencyId,
    backing: TicketId,
    generation: u32,
}

/// State shared between the harness and the job workloads.
#[derive(Default)]
struct Book {
    /// `(job, exit µs, cpu µs)` per exited job.
    exits: Vec<(u32, u64, u64)>,
    live_per_slot: Vec<u32>,
    live_per_class: [u32; 3],
}

/// A job: run, optionally sleep for I/O and run the rest, exit.
struct Job {
    id: u32,
    slot: u32,
    class: u8,
    first_us: u64,
    io_us: u64,
    second_us: u64,
    phase: u8,
    book: Rc<RefCell<Book>>,
}

impl Workload for Job {
    fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
        self.phase += 1;
        match self.phase {
            1 => Burst::Run(SimDuration::from_us(self.first_us)),
            2 if self.io_us > 0 => Burst::Sleep(SimDuration::from_us(self.io_us)),
            3 if self.io_us > 0 => Burst::Run(SimDuration::from_us(self.second_us)),
            _ => {
                let mut book = self.book.borrow_mut();
                book.exits
                    .push((self.id, ctx.now.as_us(), ctx.cpu_time.as_us()));
                book.live_per_slot[self.slot as usize] -= 1;
                book.live_per_class[self.class as usize] -= 1;
                Burst::Exit
            }
        }
    }
}

/// The simulated machine of one repetition.
struct Machine {
    kernel: SmpKernel<DistributedLottery>,
    classes: [CurrencyId; 3],
    slots: Vec<Slot>,
    book: Rc<RefCell<Book>>,
    /// Thread id → job index, class.
    jobs: Vec<(u32, u8)>,
    api_calls: u64,
    api_errors: u64,
    conservation_breaks: u64,
}

impl Machine {
    fn build(inputs: &Inputs) -> LedgerResult<Self> {
        let mut policy = DistributedLottery::with_quantum(
            inputs.policy_seed,
            CPUS,
            SimDuration::from_ms(QUANTUM_MS),
        );
        policy.set_structure(SelectStructure::Alias);
        let mut classes = [policy.base_currency(); 3];
        for (c, &(name, amount)) in CLASSES.iter().enumerate() {
            classes[c] = policy.create_currency(name, amount)?;
        }
        let ledger = policy.ledger_mut();
        let mut slots = Vec::with_capacity(inputs.tenants);
        for i in 0..inputs.tenants {
            let currency = ledger.create_currency(format!("tenant{i}.0"))?;
            let backing = ledger.issue_root(classes[i % 3], TENANT_TICKETS)?;
            ledger.fund_currency(backing, currency)?;
            slots.push(Slot {
                currency,
                backing,
                generation: 0,
            });
        }
        let book = Rc::new(RefCell::new(Book {
            live_per_slot: vec![0; slots.len()],
            ..Default::default()
        }));
        Ok(Self {
            kernel: SmpKernel::new(policy, CPUS),
            classes,
            slots,
            book,
            jobs: Vec::new(),
            api_calls: 0,
            api_errors: 0,
            conservation_breaks: 0,
        })
    }

    fn spawn(&mut self, id: u32, a: &Arrival) {
        let class = (a.slot % 3) as u8;
        {
            let mut book = self.book.borrow_mut();
            book.live_per_slot[a.slot] += 1;
            book.live_per_class[a.slot % 3] += 1;
        }
        let first_us = if a.io_us > 0 {
            a.service_us / 2
        } else {
            a.service_us
        };
        let job = Job {
            id,
            slot: a.slot as u32,
            class,
            first_us,
            io_us: a.io_us,
            second_us: a.service_us - first_us,
            phase: 0,
            book: self.book.clone(),
        };
        let tid = self.kernel.spawn(
            "job",
            Box::new(job),
            FundingSpec::new(self.slots[a.slot].currency, JOB_TICKETS),
        );
        let idx = tid.index() as usize;
        if self.jobs.len() <= idx {
            self.jobs.resize(idx + 1, (u32::MAX, 0));
        }
        self.jobs[idx] = (id, class);
        self.api_calls += 1;
    }

    /// Counts one ledger call; an error is recorded, not propagated.
    fn api<T>(&mut self, r: LedgerResult<T>) -> Option<T> {
        self.api_calls += 1;
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.api_errors += 1;
                None
            }
        }
    }

    fn ledger(&mut self) -> &mut Ledger {
        self.kernel.policy_mut().ledger_mut()
    }

    /// Retires the first idle tenant at or after `c.slot` and funds a new
    /// tenant of the same class in its slot. The class currency's value
    /// must not move.
    fn churn(&mut self, c: &Churn, spans: &mut Spans, parent: Option<usize>) {
        let n = self.slots.len();
        let slot = {
            let book = self.book.borrow();
            (0..n)
                .map(|i| (c.slot + i) % n)
                .find(|&s| book.live_per_slot[s] == 0)
        };
        let Some(s) = slot else { return };
        let class = self.classes[s % 3];
        let before = self.ledger().cached_currency_value(class).ok();

        let Slot {
            currency,
            backing,
            generation,
        } = self.slots[s];
        let id = spans.open("ledger.churn", parent);
        let r = self.ledger().destroy_ticket(backing);
        self.api(r);
        let r = self.ledger().destroy_currency(currency);
        self.api(r);
        spans.close(id);

        let id = spans.open("ledger.churn", parent);
        let generation = generation + 1;
        let r = self
            .ledger()
            .create_currency(format!("tenant{s}.{generation}"));
        let currency = self.api(r);
        let r = self.ledger().issue_root(class, TENANT_TICKETS);
        let backing = self.api(r);
        if let (Some(currency), Some(backing)) = (currency, backing) {
            let r = self.ledger().fund_currency(backing, currency);
            self.api(r);
            self.slots[s] = Slot {
                currency,
                backing,
                generation,
            };
        }
        spans.close(id);

        if self.ledger().cached_currency_value(class).ok() != before {
            self.conservation_breaks += 1;
        }
    }

    /// Σ of the active tenant currencies' values per class must equal the
    /// class currency's value: the tenants split it, nothing leaks.
    fn class_values_conserved(&self) -> bool {
        let ledger = self.kernel.policy().ledger();
        let mut sums = [0.0f64; 3];
        for (s, slot) in self.slots.iter().enumerate() {
            sums[s % 3] += ledger.cached_currency_value(slot.currency).unwrap_or(0.0);
        }
        (0..3).all(|c| {
            let class = ledger
                .cached_currency_value(self.classes[c])
                .unwrap_or(f64::NAN);
            (sums[c] - class).abs() <= 1e-6 * class.max(1.0)
        })
    }
}

/// Simulated outcome of one repetition: identical for a given seed.
#[derive(Debug, Clone, PartialEq)]
struct SimOutcome {
    decisions: u64,
    jobs: u64,
    finished: u64,
    api_calls: u64,
    api_errors: u64,
    p50_response_ms: f64,
    p99_response_ms: [f64; 3],
    samples_per_class: [u64; 3],
    max_stretch: f64,
    share_error: f64,
    backlogged_windows: u64,
    failed_frac: f64,
    /// Longest run queue seen at a window boundary.
    ready_max: u64,
}

/// Host-side measurements of one repetition.
struct HostOutcome {
    timed_ns: u64,
    /// Host ns and decisions of every window.
    window_ns: Vec<u64>,
    window_decisions: Vec<u64>,
    pending_events: Vec<f64>,
}

struct RepOutcome {
    sim: SimOutcome,
    host: HostOutcome,
    machine: Machine,
    check_failures: Vec<String>,
}

fn run_rep(
    inputs: &Inputs,
    mut m: Machine,
    spans: &mut Spans,
    mut setup_s: Option<&mut Vec<f64>>,
) -> RepOutcome {
    let mut window_ns = Vec::new();
    let mut window_decisions = Vec::new();
    let mut pending_events = Vec::new();
    let mut timed_ns = 0u64;
    let mut ready_max = 0u64;
    let windows = inputs.end_us.div_ceil(WINDOW_US);
    let mut backlogged = Vec::with_capacity(windows as usize);
    let mut conserved = true;
    let (mut ai, mut ci) = (0usize, 0usize);
    let mut last_decisions = 0u64;
    for w in 0..windows {
        let end = ((w + 1) * WINDOW_US).min(inputs.end_us);
        {
            let book = m.book.borrow();
            backlogged.push(book.live_per_class.iter().all(|&n| n >= BACKLOG_JOBS));
        }
        let window_span = spans.open("bench.window", None);
        let start = Instant::now();
        loop {
            let next_arrival = inputs.arrivals.get(ai).map_or(u64::MAX, |a| a.at_us);
            let next_churn = inputs.churn.get(ci).map_or(u64::MAX, |c| c.at_us);
            let at = next_arrival.min(next_churn);
            if at >= end {
                break;
            }
            spans
                .time("kernel.run_until", Some(window_span), || {
                    m.kernel.run_until(SimTime::from_us(at))
                })
                .expect("serve issues only run, sleep and exit bursts");
            if next_arrival <= next_churn {
                let a = inputs.arrivals[ai];
                spans.time("kernel.spawn", Some(window_span), || m.spawn(ai as u32, &a));
                ai += 1;
            } else {
                m.churn(&inputs.churn[ci], spans, Some(window_span));
                ci += 1;
            }
        }
        spans
            .time("kernel.run_until", Some(window_span), || {
                m.kernel.run_until(SimTime::from_us(end))
            })
            .expect("serve issues only run, sleep and exit bursts");
        let host = start.elapsed().as_nanos() as u64;
        spans.close(window_span);
        timed_ns += host;
        let decisions = m.kernel.metrics().decisions;
        window_ns.push(host);
        window_decisions.push(decisions - last_decisions);
        last_decisions = decisions;
        pending_events.push(m.kernel.pending_events() as f64);
        ready_max = ready_max.max(m.kernel.policy().ready_len() as u64);
        // A full conservation sweep walks every tenant: once a simulated
        // second, outside the timed window.
        if (w + 1) % (1_000_000 / WINDOW_US) == 0 {
            conserved &= m.class_values_conserved();
        }
        if let Some(setup_s) = setup_s.as_deref_mut() {
            if w % SETUP_EVERY_WINDOWS == 0 {
                setup_s.push(timed_build(inputs).1);
            }
        }
    }
    conserved &= m.class_values_conserved();
    let (mut sim, mut check_failures) = outcome(inputs, &m, &backlogged);
    sim.ready_max = ready_max;
    if !conserved {
        check_failures.push("serve: tenant values do not sum to their class value".into());
    }
    if m.conservation_breaks > 0 {
        check_failures.push(format!(
            "serve: {} tenant churns moved a class currency's value",
            m.conservation_breaks
        ));
    }
    RepOutcome {
        sim,
        host: HostOutcome {
            timed_ns,
            window_ns,
            window_decisions,
            pending_events,
        },
        machine: m,
        check_failures,
    }
}

fn outcome(inputs: &Inputs, m: &Machine, backlogged: &[bool]) -> (SimOutcome, Vec<String>) {
    let mut failures = Vec::new();
    let book = m.book.borrow();
    let arrived = inputs.arrivals.len();
    let mut exited = vec![false; arrived];
    let mut all = Vec::with_capacity(book.exits.len());
    let mut per_class: [Vec<f64>; 3] = Default::default();
    let mut max_stretch = 0.0f64;
    let mut wrong_cpu = 0u64;
    let class_of: Vec<u8> = {
        let mut v = vec![0u8; arrived];
        for &(job, class) in &m.jobs {
            if job != u32::MAX {
                v[job as usize] = class;
            }
        }
        v
    };
    for &(job, exit_us, cpu_us) in &book.exits {
        let a = &inputs.arrivals[job as usize];
        exited[job as usize] = true;
        if cpu_us != a.service_us {
            wrong_cpu += 1;
        }
        let response_us = exit_us - a.at_us;
        let ms = response_us as f64 / 1000.0;
        all.push(ms);
        per_class[class_of[job as usize] as usize].push(ms);
        max_stretch = max_stretch.max(response_us as f64 / a.service_us as f64);
    }
    if wrong_cpu > 0 {
        failures.push(format!(
            "serve: {wrong_cpu} jobs exited with CPU time different from their demand"
        ));
    }
    let stranded = inputs
        .arrivals
        .iter()
        .zip(&exited)
        .filter(|(a, &done)| a.at_us < inputs.drain_us && !done)
        .count();
    if stranded > 0 {
        failures.push(format!(
            "serve: {stranded} jobs that arrived before the drain deadline never exited"
        ));
    }

    // CPU per class inside windows where every class was backlogged.
    let mut cpu = [0.0f64; 3];
    for (idx, &(job, class)) in m.jobs.iter().enumerate() {
        if job == u32::MAX {
            continue;
        }
        let Some(t) = m.kernel.metrics().thread(ThreadId::from_index(idx as u32)) else {
            continue;
        };
        let mut prev = 0.0;
        for &(at_us, total) in t.cpu_series.points() {
            let w = (at_us / WINDOW_US) as usize;
            if backlogged.get(w).copied().unwrap_or(false) {
                cpu[class as usize] += total - prev;
            }
            prev = total;
        }
    }
    let backlogged_windows = backlogged.iter().filter(|&&b| b).count() as u64;

    let finished = book.exits.len() as u64;
    let unfinished = arrived as u64 - finished;
    let attempted = arrived as u64 + m.api_calls;
    let sim = SimOutcome {
        decisions: m.kernel.metrics().decisions,
        jobs: arrived as u64,
        finished,
        api_calls: m.api_calls,
        api_errors: m.api_errors,
        p50_response_ms: median(&mut all),
        p99_response_ms: [
            quantile(&mut per_class[0], 0.99),
            quantile(&mut per_class[1], 0.99),
            quantile(&mut per_class[2], 0.99),
        ],
        samples_per_class: [
            per_class[0].len() as u64,
            per_class[1].len() as u64,
            per_class[2].len() as u64,
        ],
        max_stretch,
        share_error: if backlogged_windows > 0 {
            share_error(cpu)
        } else {
            0.0
        },
        backlogged_windows,
        failed_frac: (unfinished + m.api_errors) as f64 / attempted as f64,
        ready_max: 0,
    };
    (sim, failures)
}

/// Builds a machine and times it.
fn timed_build(inputs: &Inputs) -> (Machine, f64) {
    let start = Instant::now();
    let m = Machine::build(inputs).expect("fresh ledger accepts the tenant graph");
    (m, start.elapsed().as_secs_f64())
}

pub fn run(cfg: &RunConfig) -> Report {
    let inputs = Inputs::generate(cfg);
    let mut report = Report::default();
    let mut setup = SetupTimes::default();
    let mut windows = WindowTimes::default();
    let mut first: Option<SimOutcome> = None;
    let mut budget = Budget::new(cfg.seconds);
    let mut untraced = Spans::new(false, 0);
    // Memory of one repetition: later ones reuse what the first freed.
    let mut peak_rss = None;
    while budget.next() {
        let cpu = pin_for_repetition(budget.reps());
        let (machine, seconds) = timed_build(&inputs);
        let mut setup_s = vec![seconds];
        let rep = run_rep(&inputs, machine, &mut untraced, Some(&mut setup_s));
        for s in setup_s {
            setup.add(cpu, s);
        }
        windows.add(&rep.host.window_ns, &rep.host.window_decisions);
        for f in rep.check_failures {
            report.check(false, || f);
        }
        match &first {
            None => first = Some(rep.sim),
            Some(f) => report.check(*f == rep.sim, || {
                "serve: a repeated run of the same seed changed the simulated outcome".into()
            }),
        }
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let sim = first.expect("at least one repetition");
    let mut decision_ns = windows.per_decision_ns();
    report.check(sim.api_errors == 0, || {
        format!("serve: {} ledger calls failed", sim.api_errors)
    });

    report.attempted = sim.jobs + sim.api_calls;
    report.failed = sim.api_errors;
    report.count("repetitions", budget.reps());
    report.count("decisions", sim.decisions);
    report.count("jobs", sim.jobs);
    report.count("jobs_finished", sim.finished);
    report.count("api_calls", sim.api_calls);
    report.count("tenants", inputs.tenants as u64);
    report.count("decision_windows", decision_ns.len() as u64);
    report.count("setups", setup.count());
    report.count("response_samples.gold", sim.samples_per_class[0]);
    report.count("response_samples.silver", sim.samples_per_class[1]);
    report.count("response_samples.bronze", sim.samples_per_class[2]);
    report.count("backlogged_windows", sim.backlogged_windows);
    report.count("ready_queue_max", sim.ready_max);

    if !cfg.trace {
        report.metric("decisions_per_s", windows.decisions_per_s(), "1/s");
        report.metric("decision_ns.p50", quantile(&mut decision_ns, 0.5), "ns");
        report.metric("decision_ns.p99", quantile(&mut decision_ns, 0.99), "ns");
        report.metric("setup_s", setup.median_s(), "s");
        report.metric("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MiB");
        report.metric("failed_frac", sim.failed_frac, "ratio");
        report.metric("p50_response_ms", sim.p50_response_ms, "ms");
        for (c, &(name, _)) in CLASSES.iter().enumerate() {
            report.metric(
                format!("p99_response_ms.{name}"),
                sim.p99_response_ms[c],
                "ms",
            );
        }
        report.metric("max_stretch", sim.max_stretch, "ratio");
        report.metric("share_error", sim.share_error, "ratio");
        return report;
    }

    // The traced repetition: an aggregator on the probe bus and spans
    // around every call into a layer.
    let mut spans = Spans::new(true, cfg.seed);
    let setup = spans.open("bench.setup", None);
    let mut machine = Machine::build(&inputs).expect("fresh ledger accepts the tenant graph");
    spans.close(setup);
    let agg = Shared::new(Aggregator::new());
    machine
        .kernel
        .set_probe_bus(ProbeBus::with_recorder(agg.clone()));
    let rep = run_rep(&inputs, machine, &mut spans, None);
    for f in rep.check_failures {
        report.check(false, || f);
    }
    report.check(rep.sim == sim, || {
        "serve: tracing changed the simulated outcome".into()
    });
    let traced_dps = rep.sim.decisions as f64 / (rep.host.timed_ns as f64 / 1e9);
    let m = &rep.machine;
    let d = rep.sim.decisions.max(1) as f64;
    let policy = m.kernel.policy();
    let metrics = m.kernel.metrics();
    let mut pending = rep.host.pending_events;
    agg.with(|a| {
        layers::ledger(&mut report, a, d, &spans);
        layers::lottery(&mut report, a, d);
        let pending_mean = pending.iter().sum::<f64>() / pending.len().max(1) as f64;
        report.metric("event.pending_mean", pending_mean, "count");
        report.metric("event.pending_max", quantile(&mut pending, 1.0), "count");
        report.metric(
            "smp.steals_per_kdecision",
            policy.steals() as f64 / d * 1000.0,
            "count",
        );
        report.metric("smp.migrations", policy.migrations() as f64, "count");
        report.metric("smp.rebalances", policy.rebalances() as f64, "count");
        report.metric("smp.utilization", m.kernel.utilization(), "ratio");
        layers::kernel(
            &mut report,
            a,
            d,
            &spans,
            metrics.context_switches as f64 / d,
            1.0 - m.kernel.utilization(),
        );
    });
    report.metric(
        "obs.trace_overhead",
        traced_dps / windows.all_decisions_per_s() - 1.0,
        "ratio",
    );
    report.spans = Some(spans);
    report
}
