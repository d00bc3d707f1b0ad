//! `mechanisms`: the paper's Section 4 mechanisms together, closed loop.
//!
//! The uniprocessor `Kernel` over `LotteryPolicy` with the tree
//! structure. In each of the three classes:
//!
//! * RPC clients call server threads through one port; a waiting client's
//!   tickets fund the server that serves it (ticket transfers, Fig. 7);
//! * lottery-mutex workers share one kernel mutex (Fig. 11);
//! * compute threads live in the class's own batch currency and are
//!   re-inflated every 100 ms of simulated time (Figs. 5 and 9);
//! * fractional-quantum threads use a quarter of each quantum and yield,
//!   so they run on compensation tickets (Section 4.5).
//!
//! Ledger writes dominate on a narrow currency graph with a small ready
//! pool.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result as LedgerResult;
use lottery_obs::{Aggregator, ProbeBus, Shared};
use lottery_sim::prelude::*;
use lottery_sim::thread::BlockReason;

use crate::common::{
    median, peak_rss_mb, pin_for_repetition, policy_seed, quantile, share_error, stream, uniform,
    Budget, Report, RunConfig, SetupTimes, Spans, WindowTimes, CLASSES,
};
use crate::layers;

const QUANTUM_MS: u64 = 10;
const WINDOW_US: u64 = 500_000;
/// Simulated length of one repetition.
const HORIZON_US: u64 = 600_000_000;
/// Compute threads are re-inflated this often.
const INFLATE_EVERY_US: u64 = 100_000;
/// `share_error` averages the per-window error over windows this long.
const SHARE_WINDOW_US: u64 = 2_000_000;
const RPC_CLIENTS_PER_CLASS: usize = 8;
const RPC_THINK_US: u64 = 200;
const RPC_SERVICE_US: u64 = 4_000;
const MUTEX_WORKERS_PER_CLASS: usize = 2;
const COMPUTE_PER_CLASS: usize = 2;
const FRACTIONAL_PER_CLASS: usize = 2;
/// Mutex workers hold the lock, then compute outside it, for these long
/// (µs).
const MUTEX_HOLD_US: u64 = 2_000;
const MUTEX_COMPUTE_US: u64 = 5_000;
/// Inflated compute funding is drawn from this range.
const INFLATION_RANGE: (u64, u64) = (50, 500);

/// Every input of a run, generated from the workload seed alone.
struct Inputs {
    policy_seed: u32,
    /// Funding of every compute thread at each inflation point.
    inflation: Vec<Vec<u64>>,
    horizon_us: u64,
}

impl Inputs {
    fn generate(cfg: &RunConfig) -> Self {
        let horizon_us = cfg.scaled(HORIZON_US, 4 * SHARE_WINDOW_US);
        let mut rng = stream(cfg.seed, 12);
        let inflation = (0..horizon_us / INFLATE_EVERY_US)
            .map(|_| {
                (0..3 * COMPUTE_PER_CLASS)
                    .map(|_| uniform(&mut rng, INFLATION_RANGE.0, INFLATION_RANGE.1))
                    .collect()
            })
            .collect();
        Self {
            policy_seed: policy_seed(cfg.seed),
            inflation,
            horizon_us,
        }
    }
}

struct Machine {
    kernel: Kernel<LotteryPolicy>,
    /// RPC clients: thread, class, requests issued.
    clients: Vec<(ThreadId, usize, Rc<Cell<u64>>)>,
    /// Mutex workers: thread, critical sections completed.
    mutex_workers: Vec<(ThreadId, Rc<Cell<u64>>)>,
    compute: Vec<ThreadId>,
    api_calls: u64,
    api_errors: u64,
}

impl Machine {
    fn build(inputs: &Inputs, spans: &mut Spans) -> LedgerResult<Self> {
        let mut policy =
            LotteryPolicy::with_quantum(inputs.policy_seed, SimDuration::from_ms(QUANTUM_MS));
        policy.set_structure(SelectStructure::Tree);
        let base = policy.base_currency();
        let mut classes = [base; 3];
        let mut batch = [base; 3];
        for (c, &(name, amount)) in CLASSES.iter().enumerate() {
            classes[c] = policy.create_currency(name, amount)?;
            batch[c] = policy.create_subcurrency(&format!("{name}.batch"), classes[c], 200)?;
        }
        let mut kernel = Kernel::new(policy);
        let lock = kernel.policy_mut().create_lock();
        let port = kernel.create_port("db");
        let mut spawn = |k: &mut Kernel<LotteryPolicy>, w: Box<dyn Workload>, c: CurrencyId, a| {
            spans.time("kernel.spawn", None, || {
                k.spawn("t", w, FundingSpec::new(c, a))
            })
        };
        // One server per client, so requests never queue at the port and
        // the lottery alone decides who is served.
        for _ in 0..3 * RPC_CLIENTS_PER_CLASS {
            spawn(&mut kernel, Box::new(RpcServer::new(port)), base, 1);
        }
        let mut clients = Vec::new();
        let mut mutex_workers = Vec::new();
        let mut compute = Vec::new();
        for c in 0..3 {
            for _ in 0..RPC_CLIENTS_PER_CLASS {
                let issued = Rc::new(Cell::new(0));
                let count = issued.clone();
                let mut inner = RpcClient::new(
                    port,
                    SimDuration::from_us(RPC_THINK_US),
                    SimDuration::from_us(RPC_SERVICE_US),
                    None,
                );
                let w = move |ctx: &WorkloadCtx| {
                    let b = inner.next(ctx);
                    if matches!(b, Burst::Request { .. }) {
                        count.set(count.get() + 1);
                    }
                    b
                };
                let tid = spawn(&mut kernel, Box::new(w), classes[c], 100);
                clients.push((tid, c, issued));
            }
            for _ in 0..MUTEX_WORKERS_PER_CLASS {
                let held = Rc::new(Cell::new(0));
                let count = held.clone();
                let mut inner = MutexWorker::new(
                    lock,
                    SimDuration::from_us(MUTEX_HOLD_US),
                    SimDuration::from_us(MUTEX_COMPUTE_US),
                );
                let w = move |ctx: &WorkloadCtx| {
                    let b = inner.next(ctx);
                    if matches!(b, Burst::Unlock { .. }) {
                        count.set(count.get() + 1);
                    }
                    b
                };
                let tid = spawn(&mut kernel, Box::new(w), classes[c], 100);
                mutex_workers.push((tid, held));
            }
            for i in 0..COMPUTE_PER_CLASS {
                let amount = inputs.inflation[0][c * COMPUTE_PER_CLASS + i];
                compute.push(spawn(&mut kernel, Box::new(ComputeBound), batch[c], amount));
            }
            for _ in 0..FRACTIONAL_PER_CLASS {
                let w = FractionalQuantum::new(SimDuration::from_ms(QUANTUM_MS) / 4);
                spawn(&mut kernel, Box::new(w), classes[c], 100);
            }
        }
        let api_calls = kernel.live_threads() as u64;
        Ok(Self {
            kernel,
            clients,
            mutex_workers,
            compute,
            api_calls,
            api_errors: 0,
        })
    }

    fn inflate(&mut self, amounts: &[u64], spans: &mut Spans, parent: Option<usize>) {
        for (i, &amount) in amounts.iter().enumerate() {
            let tid = self.compute[i];
            let r = spans.time("ledger.set_funding", parent, || {
                self.kernel.policy_mut().set_funding(tid, amount)
            });
            self.api_calls += 1;
            self.api_errors += u64::from(r.is_err());
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SimOutcome {
    decisions: u64,
    rpcs_issued: u64,
    rpcs_completed: u64,
    rpcs_in_flight: u64,
    critical_sections: u64,
    api_calls: u64,
    api_errors: u64,
    p50_response_ms: f64,
    p99_response_ms: [f64; 3],
    samples_per_class: [u64; 3],
    max_stretch: f64,
    share_error: f64,
    share_windows: u64,
    failed_frac: f64,
}

struct RepOutcome {
    sim: SimOutcome,
    timed_ns: u64,
    /// Host ns and decisions of every window.
    window_ns: Vec<u64>,
    window_decisions: Vec<u64>,
    pending_events: Vec<f64>,
    machine: Machine,
    check_failures: Vec<String>,
}

fn run_rep(inputs: &Inputs, mut m: Machine, spans: &mut Spans) -> RepOutcome {
    let mut window_ns = Vec::new();
    let mut window_decisions = Vec::new();
    let mut pending_events = Vec::new();
    let mut timed_ns = 0u64;
    let mut last_decisions = 0u64;
    let mut next_inflation = 1usize;
    for w in 0..inputs.horizon_us.div_ceil(WINDOW_US) {
        let end = ((w + 1) * WINDOW_US).min(inputs.horizon_us);
        let window = spans.open("bench.window", None);
        let start = Instant::now();
        loop {
            let at = next_inflation as u64 * INFLATE_EVERY_US;
            if at >= end || next_inflation >= inputs.inflation.len() {
                break;
            }
            spans.time("kernel.run_until", Some(window), || {
                m.kernel.run_until(SimTime::from_us(at))
            });
            m.inflate(&inputs.inflation[next_inflation], spans, Some(window));
            next_inflation += 1;
        }
        spans.time("kernel.run_until", Some(window), || {
            m.kernel.run_until(SimTime::from_us(end))
        });
        let host = start.elapsed().as_nanos() as u64;
        spans.close(window);
        timed_ns += host;
        let decisions = m.kernel.metrics().decisions;
        window_ns.push(host);
        window_decisions.push(decisions - last_decisions);
        last_decisions = decisions;
        pending_events.push(m.kernel.pending_events() as f64);
    }
    let (sim, check_failures) = outcome(inputs, &m);
    RepOutcome {
        sim,
        timed_ns,
        window_ns,
        window_decisions,
        pending_events,
        machine: m,
        check_failures,
    }
}

fn outcome(inputs: &Inputs, m: &Machine) -> (SimOutcome, Vec<String>) {
    let mut failures = Vec::new();
    let metrics = m.kernel.metrics();
    let mut all = Vec::new();
    let mut per_class: [Vec<f64>; 3] = Default::default();
    let windows = inputs.horizon_us / SHARE_WINDOW_US;
    let mut per_window = vec![[0.0f64; 3]; windows as usize];
    let (mut issued, mut completed, mut in_flight) = (0u64, 0u64, 0u64);
    let mut max_stretch = 0.0f64;
    for (tid, class, count) in &m.clients {
        let responses = metrics.thread(*tid).map_or(&[][..], |t| &t.responses[..]);
        let waiting = matches!(
            m.kernel.thread(*tid).state(),
            ThreadState::Blocked(BlockReason::AwaitingReply { .. })
        );
        if count.get() != responses.len() as u64 + u64::from(waiting) {
            failures.push(format!(
                "mechanisms: client {tid} issued {} RPCs but {} were replied and {} are in flight",
                count.get(),
                responses.len(),
                u64::from(waiting)
            ));
        }
        issued += count.get();
        completed += responses.len() as u64;
        in_flight += u64::from(waiting);
        // A client is a long-running job: its stretch is its total time
        // waiting on replies over the service it asked for.
        let waited: f64 = responses.iter().map(|r| r.1).sum();
        let demanded = (responses.len() as u64 * RPC_SERVICE_US).max(1) as f64;
        max_stretch = max_stretch.max(waited / demanded);
        for &(done_us, response_us) in responses {
            let ms = response_us / 1000.0;
            all.push(ms);
            per_class[*class].push(ms);
            if let Some(w) = per_window.get_mut((done_us / SHARE_WINDOW_US) as usize) {
                w[*class] += 1.0;
            }
        }
    }
    let mut critical_sections = 0;
    for (tid, held) in &m.mutex_workers {
        if held.get() == 0 {
            failures.push(format!(
                "mechanisms: mutex worker {tid} never held the lock"
            ));
        }
        critical_sections += held.get();
    }
    let share = per_window.iter().map(|w| share_error(*w)).sum::<f64>() / windows as f64;
    let attempted = issued + m.api_calls;
    let sim = SimOutcome {
        decisions: metrics.decisions,
        rpcs_issued: issued,
        rpcs_completed: completed,
        rpcs_in_flight: in_flight,
        critical_sections,
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
        share_error: share,
        share_windows: windows,
        failed_frac: (in_flight + m.api_errors) as f64 / attempted as f64,
    };
    (sim, failures)
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
        let start = Instant::now();
        let machine =
            Machine::build(&inputs, &mut untraced).expect("fresh ledger accepts the setup");
        setup.add(cpu, start.elapsed().as_secs_f64());
        let rep = run_rep(&inputs, machine, &mut untraced);
        windows.add(&rep.window_ns, &rep.window_decisions);
        for f in rep.check_failures {
            report.check(false, || f);
        }
        match &first {
            None => first = Some(rep.sim),
            Some(f) => report.check(*f == rep.sim, || {
                "mechanisms: a repeated run of the same seed changed the simulated outcome".into()
            }),
        }
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let sim = first.expect("at least one repetition");
    let mut decision_ns = windows.per_decision_ns();
    report.check(sim.api_errors == 0, || {
        format!("mechanisms: {} API calls failed", sim.api_errors)
    });

    report.attempted = sim.rpcs_issued + sim.api_calls;
    report.failed = sim.api_errors;
    report.count("repetitions", budget.reps());
    report.count("decisions", sim.decisions);
    report.count("rpcs_issued", sim.rpcs_issued);
    report.count("rpcs_completed", sim.rpcs_completed);
    report.count("rpcs_in_flight", sim.rpcs_in_flight);
    report.count("critical_sections", sim.critical_sections);
    report.count("api_calls", sim.api_calls);
    report.count("decision_windows", decision_ns.len() as u64);
    report.count("setups", setup.count());
    report.count("response_samples.gold", sim.samples_per_class[0]);
    report.count("response_samples.silver", sim.samples_per_class[1]);
    report.count("response_samples.bronze", sim.samples_per_class[2]);
    report.count("share_windows", sim.share_windows);

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

    let mut spans = Spans::new(true, cfg.seed);
    let setup = spans.open("bench.setup", None);
    let agg = Shared::new(Aggregator::new());
    let mut machine = Machine::build(&inputs, &mut spans).expect("fresh ledger accepts the setup");
    spans.close(setup);
    machine
        .kernel
        .set_probe_bus(ProbeBus::with_recorder(agg.clone()));
    let rep = run_rep(&inputs, machine, &mut spans);
    for f in rep.check_failures {
        report.check(false, || f);
    }
    report.check(rep.sim == sim, || {
        "mechanisms: tracing changed the simulated outcome".into()
    });
    let traced_dps = rep.sim.decisions as f64 / (rep.timed_ns as f64 / 1e9);
    let k = &rep.machine.kernel;
    let d = rep.sim.decisions.max(1) as f64;
    let clock_us = k.now().as_us().max(1) as f64;
    let mut pending = rep.pending_events;
    agg.with(|a| {
        layers::ledger(&mut report, a, d, &spans);
        layers::lottery(&mut report, a, d);
        layers::kernel(
            &mut report,
            a,
            d,
            &spans,
            k.metrics().context_switches as f64 / d,
            k.metrics().idle.as_us() as f64 / clock_us,
        );
    });
    let pending_mean = pending.iter().sum::<f64>() / pending.len().max(1) as f64;
    report.metric("event.pending_mean", pending_mean, "count");
    report.metric("event.pending_max", quantile(&mut pending, 1.0), "count");
    report.metric(
        "obs.trace_overhead",
        traced_dps / windows.all_decisions_per_s() - 1.0,
        "ratio",
    );
    report.spans = Some(spans);
    report
}
