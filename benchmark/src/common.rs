//! Pieces every workload shares: run settings, metrics, output checks,
//! spans, and small statistics helpers.

use std::fmt::Write as _;
use std::time::Instant;

use lottery_core::rng::SplitMix64;

/// Settings of one benchmark run, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Host seconds the timed phase runs for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Size factor for the workload's inputs; 1.0 is the benchmark proper,
    /// smaller values are the scaled-down runs of the benchmark's tests.
    pub scale: f64,
}

impl RunConfig {
    /// `full` scaled by the run's size factor, never below `floor`.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        ((full as f64 * self.scale).round() as u64).max(floor)
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to the driver loop in `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Jobs, RPCs, requests and API calls attempted.
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// Work counts (decisions, jobs, RPCs, ...) that give every ratio its
    /// base, and sample counts behind each percentile.
    pub counts: Vec<(String, u64)>,
    /// Spans of the traced run, written out at the end.
    pub spans: Option<Spans>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Records a check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// The funding classes every workload uses: name and base-currency
/// backing, 4:2:1.
pub const CLASSES: [(&str, u64); 3] = [("gold", 4000), ("silver", 2000), ("bronze", 1000)];

/// A class's funded share of the machine.
pub fn funded_share(class: usize) -> f64 {
    let total: u64 = CLASSES.iter().map(|c| c.1).sum();
    CLASSES[class].1 as f64 / total as f64
}

/// The largest relative gap between a class's observed share of
/// `per_class` and its funded share.
pub fn share_error(per_class: [f64; 3]) -> f64 {
    let total: f64 = per_class.iter().sum();
    (0..3)
        .map(|c| (per_class[c] / total - funded_share(c)).abs() / funded_share(c))
        .fold(0.0, f64::max)
}

/// Seeds independent input streams from the workload seed.
pub fn stream(seed: u64, lane: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A Park–Miller seed in `[1, 2^31 - 2]` derived from the workload seed.
pub fn policy_seed(seed: u64) -> u32 {
    (stream(seed, 0xC0FFEE).next_u64() % 0x7FFF_FFFE) as u32 + 1
}

/// A uniform draw in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform integer in `[lo, hi]`.
pub fn uniform(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// The bounded-Pareto quantile at `u ∈ [0, 1)`: bounds `[lo, hi]`, tail
/// index `alpha`.
pub fn bounded_pareto(u: f64, lo: f64, hi: f64, alpha: f64) -> f64 {
    let (lo_a, hi_a) = (lo.powf(-alpha), hi.powf(-alpha));
    (lo_a - u * (lo_a - hi_a)).powf(-1.0 / alpha)
}

/// Stratified uniforms: every block of `BLOCK` consecutive draws puts
/// exactly one draw in each of `BLOCK` equal slices of `[0, 1)`, in a
/// random order. Each draw is still uniform, but a block's empirical
/// distribution matches the target, so sums over many draws (total
/// service demand, arrivals per hour) vary far less from seed to seed.
pub struct Stratified {
    rng: SplitMix64,
    order: Vec<u32>,
    next: usize,
}

impl Stratified {
    const BLOCK: usize = 1024;

    pub fn new(rng: SplitMix64) -> Self {
        Self {
            rng,
            order: (0..Self::BLOCK as u32).collect(),
            next: Self::BLOCK,
        }
    }

    pub fn draw(&mut self) -> f64 {
        if self.next == Self::BLOCK {
            // Fisher–Yates: a fresh random order of the slices.
            for i in (1..Self::BLOCK).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        let slice = self.order[self.next];
        self.next += 1;
        (slice as f64 + unit(&mut self.rng)) / Self::BLOCK as f64
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule.
/// Sorts in place; 0 for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Paces a run's repetitions: another one starts only while it is
/// expected to end within the run's seconds. The first always runs.
pub struct Budget {
    began: Instant,
    seconds: f64,
    last: Instant,
    longest: f64,
    reps: u64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Self {
            began: now,
            seconds,
            last: now,
            longest: 0.0,
            reps: 0,
        }
    }

    /// Whether to start another repetition.
    pub fn next(&mut self) -> bool {
        let now = Instant::now();
        if self.reps > 0 {
            self.longest = self.longest.max((now - self.last).as_secs_f64());
        }
        let go = self.reps == 0 || (now - self.began).as_secs_f64() + self.longest <= self.seconds;
        if go {
            self.reps += 1;
            self.last = now;
        }
        go
    }

    pub fn reps(&self) -> u64 {
        self.reps
    }
}

/// Pins the calling thread to one CPU, taking the CPUs in turn by
/// repetition; returns the CPU chosen. On a shared host one CPU can run
/// slower than another for seconds at a time, and a lone busy thread is
/// rarely migrated, so taking the CPUs in turn gives every window a
/// repetition on each of them for [`WindowTimes`] to keep the fastest of.
#[cfg(target_os = "linux")]
pub fn pin_for_repetition(rep: u64) -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // The CPUs the process may use, fixed when it started (the first call
    // comes before any pinning).
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let allowed = ALLOWED.get_or_init(|| {
        let mut mask = [0u8; 128];
        // SAFETY: `mask` is a writable 1024-bit CPU set whose length is
        // passed alongside it; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } == 0;
        (0..mask.len() * 8)
            .filter(|&cpu| ok && mask[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    });
    let cpu = *allowed.get((rep % allowed.len().max(1) as u64) as usize)?;
    let mut mask = [0u8; 128];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a 1024-bit CPU set that outlives the call, its
    // length is passed alongside it, and pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_for_repetition(_rep: u64) -> Option<usize> {
    None
}

/// Set-up times grouped by the CPU they ran on (see
/// [`pin_for_repetition`]).
#[derive(Debug, Default)]
pub struct SetupTimes(std::collections::BTreeMap<Option<usize>, Vec<f64>>);

impl SetupTimes {
    pub fn add(&mut self, cpu: Option<usize>, seconds: f64) {
        self.0.entry(cpu).or_default().push(seconds);
    }

    pub fn count(&self) -> u64 {
        self.0.values().map(|v| v.len() as u64).sum()
    }

    /// The median set-up time on the CPU where set-up ran fastest.
    pub fn median_s(&mut self) -> f64 {
        self.0
            .values_mut()
            .map(|v| median(v))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Host time of a simulation's fixed windows over repeated runs of the
/// same seed. The simulation repeats exactly, so each window's decisions
/// are the same in every repetition; its host time is kept at the
/// fastest repetition, which filters out time lost to other work on the
/// host.
#[derive(Debug, Default)]
pub struct WindowTimes {
    best_ns: Vec<u64>,
    decisions: Vec<u64>,
    /// Every repetition's total, unfiltered: decisions and host ns.
    all: (u64, u64),
}

impl WindowTimes {
    /// Adds one repetition: host ns and decisions of every window.
    pub fn add(&mut self, host_ns: &[u64], decisions: &[u64]) {
        if self.best_ns.is_empty() {
            self.best_ns = host_ns.to_vec();
            self.decisions = decisions.to_vec();
        } else {
            for (best, &ns) in self.best_ns.iter_mut().zip(host_ns) {
                *best = (*best).min(ns);
            }
        }
        self.all.0 += decisions.iter().sum::<u64>();
        self.all.1 += host_ns.iter().sum::<u64>();
    }

    /// Decisions per host second, each window at its fastest repetition.
    pub fn decisions_per_s(&self) -> f64 {
        let ns: u64 = self.best_ns.iter().sum();
        self.decisions.iter().sum::<u64>() as f64 / (ns as f64 / 1e9)
    }

    /// Decisions per host second over every repetition, unfiltered.
    pub fn all_decisions_per_s(&self) -> f64 {
        self.all.0 as f64 / (self.all.1 as f64 / 1e9)
    }

    /// Host ns per decision of every window that made decisions.
    pub fn per_decision_ns(&self) -> Vec<f64> {
        self.best_ns
            .iter()
            .zip(&self.decisions)
            .filter(|(_, &d)| d > 0)
            .map(|(&ns, &d)| ns as f64 / d as f64)
            .collect()
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

/// In-memory spans of a traced run, written out when the run ends. A
/// disabled log records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, run: u64) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            run,
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean duration of the spans called `name`, in nanoseconds (0 when
    /// there are none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}
