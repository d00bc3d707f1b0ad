//! In-kernel lottery mutexes: lock scheduling and CPU scheduling
//! interacting, as in the paper's CThreads prototype (Section 6.1).

use lottery_sim::prelude::*;
use lottery_sim::sched::lottery::{Lottery, ShardMode};
use lottery_sim::sched::LockId;

/// Builds the paper's Figure 11 workload on the real kernel: two groups
/// of four threads with 2:1 group funding, all hammering one mutex with
/// h = c = 50 ms.
fn figure11_kernel(seed: u32) -> (Kernel<LotteryPolicy>, Vec<ThreadId>, Vec<ThreadId>, LockId) {
    // A 30 ms quantum: the 50 ms hold always spans a preemption, so the
    // lock is genuinely contended (with a quantum that divides the
    // 100 ms cycle exactly, each thread would release within its own
    // quantum and no one would ever wait).
    let mut policy = LotteryPolicy::with_quantum(seed, SimDuration::from_ms(30));
    let group_a = policy.create_currency("A", 2000).unwrap();
    let group_b = policy.create_currency("B", 1000).unwrap();
    let lock = policy.create_lock();
    let mut kernel = Kernel::new(policy);
    let worker = |lock| MutexWorker::new(lock, SimDuration::from_ms(50), SimDuration::from_ms(50));
    let a: Vec<ThreadId> = (0..4)
        .map(|i| {
            kernel.spawn(
                format!("a{i}"),
                Box::new(worker(lock)),
                FundingSpec::new(group_a, 100),
            )
        })
        .collect();
    let b: Vec<ThreadId> = (0..4)
        .map(|i| {
            kernel.spawn(
                format!("b{i}"),
                Box::new(worker(lock)),
                FundingSpec::new(group_b, 100),
            )
        })
        .collect();
    (kernel, a, b, lock)
}

#[test]
fn figure11_with_cpu_contention() {
    let (mut kernel, a, b, _) = figure11_kernel(1);
    kernel.run_until(SimTime::from_secs(120));

    // Acquisitions: each completed hold is 50 ms of CPU inside the lock;
    // count via lock waits + initial grabs ≈ blocks. Use CPU as the
    // proxy: each cycle is exactly 100 ms CPU (50 hold + 50 compute).
    let cpu = |tids: &[ThreadId]| -> f64 {
        tids.iter()
            .map(|&t| kernel.metrics().cpu_us(t))
            .sum::<u64>() as f64
    };
    let ratio = cpu(&a) / cpu(&b);
    assert!(
        (1.4..=2.4).contains(&ratio),
        "2:1 funding should yield ~1.8:1 lock cycles, got {ratio}"
    );

    // Waiting times: group B waits roughly twice as long (paper 1:2.11).
    let wait = |tids: &[ThreadId]| -> f64 {
        let mut sum = lottery_stats::Summary::new();
        for &t in tids {
            if let Some(m) = kernel.metrics().thread(t) {
                sum.merge(&m.lock_wait_us);
            }
        }
        sum.mean()
    };
    let wait_ratio = wait(&b) / wait(&a);
    assert!(
        (1.3..=3.5).contains(&wait_ratio),
        "waiting ratio {wait_ratio}"
    );
}

#[test]
fn fifo_locks_ignore_tickets() {
    // The baseline: under round-robin FIFO locks, the ticket allocation
    // cannot exist; both "groups" cycle at the same rate.
    let mut policy = RoundRobinPolicy::new(SimDuration::from_ms(100));
    let lock = policy.create_lock();
    let mut kernel = Kernel::new(policy);
    let worker = |lock| MutexWorker::new(lock, SimDuration::from_ms(50), SimDuration::from_ms(50));
    let tids: Vec<ThreadId> = (0..8)
        .map(|i| kernel.spawn(format!("t{i}"), Box::new(worker(lock)), ()))
        .collect();
    kernel.run_until(SimTime::from_secs(120));
    let first = kernel.metrics().cpu_us(tids[0]) as f64;
    for &t in &tids[1..] {
        let r = kernel.metrics().cpu_us(t) as f64 / first;
        assert!((r - 1.0).abs() < 0.2, "FIFO should equalize, got {r}");
    }
}

#[test]
fn mutex_holder_inherits_waiter_funding() {
    // Priority inversion (Section 6.1 / [Sha90]): a 1-ticket thread is
    // preempted while holding the lock; a 1000-ticket hog then dominates
    // the CPU. Without inheritance the holder would need ~1000 quanta per
    // win and its remaining 9.9 s of hold time would take hours; with the
    // waiter's transfer funding the inheritance ticket, the holder runs
    // at near parity with the hog and the rich waiter acquires soon.
    holder_inherits_waiter_funding(LotteryPolicy::new(5));
    holder_inherits_waiter_funding(DistributedLottery::new(5, 1));
}

fn holder_inherits_waiter_funding<M: ShardMode>(mut policy: Lottery<M>) {
    let base = policy.base_currency();
    let lock = policy.create_lock();
    let mut kernel = Kernel::new(policy);
    let poor_holder = kernel.spawn(
        "poor",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        )),
        FundingSpec::new(base, 1),
    );
    // Let the poor thread acquire and run 100 ms of its hold, alone.
    kernel.run_until(SimTime::from_ms(100));
    assert_eq!(kernel.metrics().cpu_us(poor_holder), 100_000);
    let holder_value_alone = kernel.policy().value_of(poor_holder);
    assert_eq!(holder_value_alone, 1.0);

    let _hog = kernel.spawn("hog", Box::new(ComputeBound), FundingSpec::new(base, 1000));
    let rich_waiter = kernel.spawn(
        "rich",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_ms(50),
            SimDuration::from_ms(50),
        )),
        FundingSpec::new(base, 1000),
    );
    // Run until the rich waiter has blocked on the lock.
    kernel.run_until(SimTime::from_secs(2));
    assert!(
        matches!(kernel.thread(rich_waiter).state(), ThreadState::Blocked(_)),
        "rich waiter should be parked on the lock"
    );
    // The inheritance ticket now carries the waiter's 1000 tickets.
    let inherited = kernel.policy().value_of(poor_holder);
    assert!(
        (inherited - 1001.0).abs() < 1.0,
        "holder should be worth ~1001, got {inherited}"
    );

    // The holder finishes its remaining ~9.9 s of hold at ~1001/2001 of
    // the CPU (~20 s of wall time) and hands the lock to the waiter.
    kernel.run_until(SimTime::from_secs(40));
    let holder_cpu = kernel.metrics().cpu_us(poor_holder) as f64 / 1e6;
    assert!(
        holder_cpu >= 10.0,
        "holder should complete its hold on inherited funding: {holder_cpu}s"
    );
    let waiter_waits = kernel
        .metrics()
        .thread(rich_waiter)
        .map(|m| m.lock_wait_us.count())
        .unwrap_or(0);
    assert!(
        waiter_waits >= 1,
        "the waiter should have been handed the lock"
    );
}

#[test]
fn uncontended_kernel_mutex_is_transparent() {
    let mut policy = LotteryPolicy::new(2);
    let base = policy.base_currency();
    let lock = policy.create_lock();
    let mut kernel = Kernel::new(policy);
    let t = kernel.spawn(
        "solo",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_ms(30),
            SimDuration::from_ms(70),
        )),
        FundingSpec::new(base, 100),
    );
    kernel.run_until(SimTime::from_secs(10));
    // Never blocks on the lock; consumes all CPU.
    assert_eq!(kernel.metrics().cpu_us(t), 10_000_000);
    let m = kernel.metrics().thread(t).unwrap();
    assert_eq!(m.lock_wait_us.count(), 0);
}

#[test]
fn lock_waits_are_recorded() {
    let (mut kernel, a, b, _) = figure11_kernel(9);
    kernel.run_until(SimTime::from_secs(30));
    let total_waits: u64 = a
        .iter()
        .chain(&b)
        .filter_map(|&t| kernel.metrics().thread(t))
        .map(|m| m.lock_wait_us.count())
        .sum();
    assert!(total_waits > 50, "waits recorded: {total_waits}");
}
