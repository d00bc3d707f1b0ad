//! The lottery scheduling policy (Sections 2–4 of the paper).
//!
//! Each thread is a [`lottery_core`] client funded by one ticket
//! denominated in a configurable currency. Every dispatch decision holds a
//! lottery: a winning value is drawn between zero and the total base-unit
//! value of the ready threads, and the run queue is walked accumulating
//! each thread's value until the winner is found — exactly the prototype's
//! procedure (Section 4.4).
//!
//! There is one implementation, [`Lottery`], over the shard run queue of
//! [`super::runqueue`]. Section 4.2 presents the partial-sum tree as "the
//! basis of a distributed lottery scheduler", and the uniprocessor policy
//! is that scheduler's one-shard case: [`LotteryPolicy`] is
//! `Lottery<Single>`, and
//! [`DistributedLottery`](super::distributed::DistributedLottery) is
//! `Lottery<Sharded>` with one shard per CPU. Every difference between the
//! two follows from the mode type:
//!
//! * draws are tagged `"list"`/`"tree"`/`"alias"` for the single shard and
//!   `"shard"`/`"shard-alias"` (plus `ShardPick`/`ShardSteal` events) for
//!   the sharded lottery;
//! * the sharded lottery has no list walk and treats `List` as `Tree`;
//! * only the sharded lottery homes a new thread on the least-loaded
//!   shard at spawn, and settles dirty notifications while idle.
//!
//! The policy implements the full mechanism set:
//!
//! * **currencies** — spawn threads into any currency of an arbitrary
//!   acyclic funding graph (Figure 3);
//! * **compensation tickets** — a thread that blocked or yielded with
//!   quantum remaining competes with its value inflated by `q/used` until
//!   its next dispatch (Section 4.5);
//! * **ticket transfers** — RPC clients fund the server thread for the
//!   duration of the call (Section 4.6);
//! * **kernel mutexes** — lock handoff by lottery among the waiters, who
//!   fund the mutex currency while they wait (Section 6.1);
//! * **dynamic inflation** — [`Lottery::set_funding`] adjusts a
//!   thread's ticket in place (Section 5.2's Monte-Carlo control).

use std::collections::HashMap;
use std::marker::PhantomData;

use lottery_core::client::ClientId;
use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result;
use lottery_core::ledger::Ledger;
use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::rng::ParkMiller;
use lottery_core::ticket::TicketId;
use lottery_core::transfer::{lend, Transfer, TransferTarget};
use lottery_obs::{EventKind, ProbeBus};

use super::comp::CompensationHook;
use super::runqueue::{DrawSite, RunQueue};
use super::{EndReason, LockId, Policy};
use crate::thread::ThreadId;
use crate::time::{SimDuration, SimTime};

/// Ticket funding for a spawned thread.
#[derive(Debug, Clone, Copy)]
pub struct FundingSpec {
    /// The currency the thread's funding ticket is denominated in.
    pub currency: CurrencyId,
    /// The ticket amount.
    pub amount: u64,
}

impl FundingSpec {
    /// A funding of `amount` tickets in `currency`.
    pub fn new(currency: CurrencyId, amount: u64) -> Self {
        Self { currency, amount }
    }
}

/// Which winner-search structure the policy uses (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectStructure {
    /// The prototype's list walk: every pick values the whole run queue
    /// through the currency graph — always exact.
    #[default]
    List,
    /// A partial-sum tree over client values: `O(log n)` picks, "suitable
    /// as the basis of a distributed lottery scheduler".
    ///
    /// Exact: leaf weights are fed by the ledger's incremental valuation
    /// cache, and every ledger mutation queues invalidated clients on a
    /// dirty list the policy drains before each draw — so even
    /// shared-currency siblings (whose values shift when a co-holder
    /// blocks or is granted compensation) are revalued before they can
    /// influence a lottery. For a fixed seed, tree picks reproduce the
    /// list walk's winner sequence whenever client values are exactly
    /// representable.
    Tree,
    /// An order-preserving alias-cell table: O(1) expected picks at any
    /// population, patched incrementally from the same dirty-client queue
    /// the tree drains.
    ///
    /// Exact on the same terms as the tree: the table snapshots the ready
    /// queue's prefix sums and overlays slots whose compensated value
    /// drifted from the snapshot, comparing exactly the running sums the
    /// list walk compares — so for a fixed seed, alias picks reproduce
    /// the list walk's winner sequence whenever client values are exactly
    /// representable. A slot re-bucketed past a power-of-two weight
    /// boundary counts toward a stale fraction that triggers a full
    /// (amortized O(1)) rebuild.
    Alias,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Single {}
    impl Sealed for super::Sharded {}
}

/// How a [`Lottery`] lays its run queue over CPUs: [`Single`] or
/// [`Sharded`].
pub trait ShardMode: sealed::Sealed {
    /// Whether the lottery keeps one shard per CPU, homes and rebalances
    /// threads across them, and reports its draws as shard draws.
    const SHARDED: bool;
}

/// One shared run queue: the uniprocessor [`LotteryPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct Single;

/// One run queue per CPU: the
/// [`DistributedLottery`](super::distributed::DistributedLottery).
#[derive(Debug, Clone, Copy)]
pub struct Sharded;

impl ShardMode for Single {
    const SHARDED: bool = false;
}

impl ShardMode for Sharded {
    const SHARDED: bool = true;
}

/// The uniprocessor lottery policy: the one-shard [`Lottery`].
pub type LotteryPolicy = Lottery<Single>;

#[derive(Debug, Clone, Copy)]
pub(super) struct ThreadFunding {
    pub(super) client: ClientId,
    ticket: TicketId,
}

/// The lottery scheduling policy, over one shard ([`LotteryPolicy`]) or
/// one per CPU ([`DistributedLottery`](super::distributed::DistributedLottery)).
pub struct Lottery<M: ShardMode> {
    pub(super) ledger: Ledger,
    rng: ParkMiller,
    quantum: SimDuration,
    /// Per-thread funding, indexed by thread id.
    pub(super) threads: Vec<Option<ThreadFunding>>,
    /// The ready set: ready order, membership, and winner structures.
    pub(super) queue: RunQueue,
    /// Outstanding RPC transfers, keyed by (client, server).
    transfers: HashMap<(ThreadId, ThreadId), Transfer>,
    /// Kernel mutexes (Section 6.1), scheduled by handoff lotteries.
    locks: Vec<TicketMutex>,
    /// Shared compensation grant/revoke policy (Section 4.5).
    comp: CompensationHook,
    /// Lotteries held (for overhead accounting).
    lotteries: u64,
    /// Whether homing, stealing, and rebalancing compare *effective*
    /// (compensated) shard totals; `false` is the raw-weight ablation.
    pub(super) comp_aware: bool,
    /// Picks since the last rebalance check.
    picks_since_check: u32,
    /// How many picks between rebalance checks.
    pub(super) rebalance_interval: u32,
    /// A shard is "heavy" when its total exceeds `bound × mean`.
    pub(super) imbalance_bound: f64,
    /// Work-stealing picks (the local shard was empty).
    pub(super) steals: u64,
    /// Threads re-homed by rebalancing or explicit migration.
    pub(super) migrations: u64,
    /// Rebalance rounds that found the bound violated.
    pub(super) rebalances: u64,
    /// Probe bus for per-draw observability (disabled by default).
    pub(super) bus: ProbeBus,
    mode: PhantomData<M>,
}

impl Lottery<Single> {
    /// Creates a lottery policy with the paper's 100 ms Mach quantum.
    pub fn new(seed: u32) -> Self {
        Self::with_quantum(seed, SimDuration::from_ms(100))
    }

    /// Creates a lottery policy with an explicit quantum.
    ///
    /// # Panics
    ///
    /// Panics on a zero quantum.
    pub fn with_quantum(seed: u32, quantum: SimDuration) -> Self {
        Self::build(seed, quantum, Ledger::new(), 1, SelectStructure::List)
    }
}

impl<M: ShardMode> Lottery<M> {
    /// The state shared by both modes' constructors.
    pub(super) fn build(
        seed: u32,
        quantum: SimDuration,
        ledger: Ledger,
        shards: u32,
        structure: SelectStructure,
    ) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Self {
            ledger,
            rng: ParkMiller::new(seed),
            quantum,
            threads: Vec::new(),
            queue: RunQueue::new(0..shards, structure),
            transfers: HashMap::new(),
            locks: Vec::new(),
            comp: CompensationHook::new(),
            lotteries: 0,
            comp_aware: true,
            picks_since_check: 0,
            rebalance_interval: 32,
            imbalance_bound: 1.5,
            steals: 0,
            migrations: 0,
            rebalances: 0,
            bus: ProbeBus::disabled(),
            mode: PhantomData,
        }
    }

    /// Selects the winner-search structure (Section 4.2).
    ///
    /// May be called at any point, even mid-run with threads queued: each
    /// shard's mirror (partial-sum tree or alias table) is rebuilt from
    /// its ready queue (in queue order, so slot order and scan order stay
    /// mirrored) with exact values from the ledger's valuation cache.
    /// Emits one [`EventKind::StructureRebuild`] per shard. The sharded
    /// lottery has no list walk: it treats [`SelectStructure::List`] as
    /// `Tree`.
    pub fn set_structure(&mut self, structure: SelectStructure) {
        let structure = match structure {
            SelectStructure::List if M::SHARDED => SelectStructure::Tree,
            s => s,
        };
        let threads = &self.threads;
        self.queue
            .set_structure(structure, &mut self.ledger, &self.bus, |t| {
                funding_of(threads, t).client
            });
    }

    /// The active winner-search structure.
    pub fn structure(&self) -> SelectStructure {
        self.queue.structure()
    }

    /// Disables compensation tickets — the Section 4.5 ablation, which
    /// reproduces the anomaly where an interactive thread receives far
    /// less than its entitled share.
    pub fn set_compensation_enabled(&mut self, enabled: bool) {
        self.comp.set_enabled(enabled);
    }

    /// Whether compensation tickets are enabled (replay stamps capture
    /// this switch).
    pub fn compensation_enabled(&self) -> bool {
        self.comp.enabled()
    }

    /// The base currency of this policy's ledger.
    pub fn base_currency(&self) -> CurrencyId {
        self.ledger.base()
    }

    /// Creates a currency backed by `amount` base-currency tickets.
    pub fn create_currency(&mut self, name: &str, amount: u64) -> Result<CurrencyId> {
        self.create_subcurrency(name, self.ledger.base(), amount)
    }

    /// Creates a currency backed by `amount` tickets of `parent` —
    /// building deeper Figure 3 style graphs.
    pub fn create_subcurrency(
        &mut self,
        name: &str,
        parent: CurrencyId,
        amount: u64,
    ) -> Result<CurrencyId> {
        let cur = self.ledger.create_currency(name)?;
        let backing = self.ledger.issue_root(parent, amount)?;
        self.ledger.fund_currency(backing, cur)?;
        Ok(cur)
    }

    /// Changes the face amount of a thread's funding ticket — dynamic
    /// ticket inflation/deflation (Section 3.2).
    ///
    /// Takes effect at the very next lottery: affected mirror weights
    /// are refreshed from the ledger's dirty-client queue at the next
    /// pick.
    pub fn set_funding(&mut self, tid: ThreadId, amount: u64) -> Result<()> {
        let funding = self.funding_info(tid);
        self.ledger.set_amount(funding.ticket, amount)?;
        self.bus.emit(|| EventKind::WeightChange {
            client: funding.client.index(),
            tickets: amount,
            origin: "set-funding",
        });
        Ok(())
    }

    /// The face amount of a thread's funding ticket.
    pub fn funding(&self, tid: ThreadId) -> u64 {
        self.ledger
            .ticket(self.funding_info(tid).ticket)
            .map(|t| t.amount())
            .unwrap_or(0)
    }

    /// The ledger client backing a thread.
    pub fn client_of(&self, tid: ThreadId) -> ClientId {
        self.funding_info(tid).client
    }

    /// A thread's current value in base units (including compensation).
    pub fn value_of(&self, tid: ThreadId) -> f64 {
        self.ledger
            .cached_client_value(self.funding_info(tid).client)
            .unwrap_or(0.0)
    }

    /// Read access to the underlying ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Write access to the underlying ledger, for experiments that
    /// manipulate the currency graph directly.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Number of lotteries held so far.
    pub fn lotteries_held(&self) -> u64 {
        self.lotteries
    }

    /// The Park–Miller state the next draw will consume — the replay
    /// checkpoint. Passing this value as the seed of a fresh policy
    /// reproduces the remaining draw stream exactly (seeds in
    /// `[1, 2^31 - 2]` are taken verbatim).
    pub fn rng_state(&self) -> u32 {
        self.rng.state()
    }

    pub(super) fn funding_info(&self, tid: ThreadId) -> ThreadFunding {
        funding_of(&self.threads, tid)
    }

    /// A thread's funding ticket: its currency and face amount.
    fn funding_ticket(&self, tid: ThreadId) -> (CurrencyId, u64) {
        let ticket = self
            .ledger
            .ticket(self.funding_info(tid).ticket)
            .expect("funding ticket is live");
        (ticket.currency(), ticket.amount())
    }
}

fn funding_of(threads: &[Option<ThreadFunding>], tid: ThreadId) -> ThreadFunding {
    threads
        .get(tid.index() as usize)
        .copied()
        .flatten()
        .expect("thread not registered with the lottery")
}

impl<M: ShardMode> Policy for Lottery<M> {
    type Spec = FundingSpec;

    /// Registers a thread; the sharded lottery homes it on the
    /// least-loaded shard.
    ///
    /// # Panics
    ///
    /// Panics when the spec names a stale currency or a zero amount —
    /// both are harness configuration bugs.
    fn on_spawn(&mut self, tid: ThreadId, spec: FundingSpec) {
        let client = self.ledger.create_client(format!("{tid}"));
        let ticket = self
            .ledger
            .issue_root(spec.currency, spec.amount)
            .expect("invalid funding spec");
        self.ledger
            .fund_client(ticket, client)
            .expect("fresh client and ticket");
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize(idx + 1, None);
        }
        self.threads[idx] = Some(ThreadFunding { client, ticket });
        if M::SHARDED {
            let home = self.least_loaded_shard();
            self.queue.set_home(tid, home as usize);
            self.ledger.assign_dirty_shard(client, home);
        }
        self.queue.map_client(client, tid);
        self.bus.emit(|| EventKind::WeightChange {
            client: client.index(),
            tickets: spec.amount,
            origin: "spawn",
        });
    }

    fn on_exit(&mut self, tid: ThreadId) {
        let funding = self.funding_info(tid);
        self.queue.remove_ready(tid);
        self.queue.unmap_client(funding.client);
        self.ledger
            .deactivate_client(funding.client)
            .expect("client liveness");
        self.ledger
            .destroy_client_and_funding(funding.client)
            .expect("client liveness");
        self.threads[tid.index() as usize] = None;
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let client = self.funding_info(tid).client;
        self.ledger
            .activate_client(client)
            .expect("client liveness");
        // Activation just invalidated the client (and any shared-currency
        // siblings, refreshed at their shard's next pick), so this read
        // revalues precisely the changed subgraph.
        let ledger = &self.ledger;
        self.queue
            .push_ready(tid, || ledger.cached_client_value(client).unwrap_or(0.0));
    }

    /// A lottery on CPU 0's shard — the uniprocessor entry point.
    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        self.pick_on(0, now)
    }

    /// A local lottery on the CPU's own shard; steals from the heaviest
    /// foreign shard when the local queue is empty.
    fn pick_on(&mut self, cpu: u32, _now: SimTime) -> Option<ThreadId> {
        // The uniprocessor policy leaves dirty notifications pending
        // while idle; they settle in one batch at its next lottery.
        if !M::SHARDED && self.queue.is_empty() {
            return None;
        }
        let local = cpu as usize % self.queue.shards();
        if self.queue.structure() != SelectStructure::List {
            self.queue.refresh(local, &mut self.ledger, &self.bus);
        }
        let (shard, stolen) = if self.queue.ready(local).is_empty() {
            (self.steal_victim(local)?, true)
        } else {
            (local, false)
        };
        self.lotteries += 1;
        if stolen {
            self.steals += 1;
        }
        let site = M::SHARDED.then_some(DrawSite { cpu, stolen });
        let threads = &self.threads;
        let tid = self
            .queue
            .draw(shard, site, &self.ledger, &mut self.rng, &self.bus, |t| {
                funding_of(threads, t).client
            });
        // The winner starts its quantum: revoke any compensation ticket
        // through the shared hook (which emits the revocation event).
        let client = self.funding_info(tid).client;
        self.comp
            .on_dispatch(&mut self.ledger, &self.bus, tid, client);
        self.picks_since_check += 1;
        if self.picks_since_check >= self.rebalance_interval && self.queue.shards() > 1 {
            self.picks_since_check = 0;
            self.maybe_rebalance();
        }
        Some(tid)
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason) {
        // The shared hook grants a partial-quantum compensation factor and
        // deactivates a blocked client's tickets so shared-currency values
        // redistribute (Section 4.4).
        let client = self.funding_info(tid).client;
        self.comp
            .on_charge(&mut self.ledger, &self.bus, tid, client, used, quantum, why);
    }

    fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Lends the blocked client's ticket value to the server thread
    /// (Section 4.6: "creating a new ticket denominated in the client's
    /// currency" to fund the server).
    fn transfer(&mut self, from: ThreadId, to: ThreadId) {
        let (currency, amount) = self.funding_ticket(from);
        if amount == 0 {
            return;
        }
        let server = self.funding_info(to).client;
        let transfer = lend(
            &mut self.ledger,
            currency,
            amount,
            TransferTarget::Client(server),
        )
        .expect("transfer endpoints are live");
        if let Some(stale) = self.transfers.insert((from, to), transfer) {
            // A client cannot have two outstanding calls to one server,
            // but unwind defensively rather than leak funding.
            let _ = stale.repay(&mut self.ledger);
        }
        // The server's gained funding reaches its mirror slot through the
        // ledger's dirty-client queue at its shard's next pick.
    }

    /// Destroys the transfer ticket on reply.
    fn untransfer(&mut self, from: ThreadId, to: ThreadId) {
        if let Some(transfer) = self.transfers.remove(&(from, to)) {
            transfer
                .repay(&mut self.ledger)
                .expect("transfer ticket is live");
        }
    }

    fn ready_len(&self) -> usize {
        self.queue.len()
    }

    /// Stores the bus and forwards a clone to the ledger, so draw events
    /// and cache/mutation events share one pipeline.
    fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.ledger.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// Creates a lottery-scheduled kernel mutex: a mutex currency plus an
    /// inheritance ticket (Section 6.1, Figure 10).
    fn create_lock(&mut self) -> LockId {
        let id = LockId::from_index(self.locks.len() as u32);
        let mutex = TicketMutex::new(&mut self.ledger, &format!("kernel-lock{}", id.index()))
            .expect("fresh mutex currency");
        self.locks.push(mutex);
        id
    }

    /// Acquires, or parks the thread as a waiter funding the mutex
    /// currency with a transfer denominated in its own funding currency.
    fn lock(&mut self, tid: ThreadId, lock: LockId) -> bool {
        let (currency, amount) = self.funding_ticket(tid);
        let waiter = WaiterFunding {
            currency,
            amount: amount.max(1),
        };
        let client = self.funding_info(tid).client;
        self.locks[lock.index() as usize]
            .acquire(&mut self.ledger, client, waiter)
            .expect("lock endpoints are live")
    }

    /// Cancels the killed thread's lock waits, repaying its transfers.
    fn cancel_lock_waits(&mut self, tid: ThreadId) {
        let client = self.funding_info(tid).client;
        for lock in &mut self.locks {
            let _ = lock.cancel(&mut self.ledger, client);
        }
    }

    /// Releases and holds the handoff lottery among the waiters, weighted
    /// by their transferred funding; the winner's transfer is repaid and
    /// it inherits the mutex's inheritance ticket.
    fn unlock(&mut self, tid: ThreadId, lock: LockId) -> Option<ThreadId> {
        let client = self.funding_info(tid).client;
        let winner = self.locks[lock.index() as usize]
            .release(&mut self.ledger, client, &mut self.rng)
            .expect("release by the holder");
        winner.map(|w| {
            self.queue
                .thread_of(w)
                .expect("winner is a registered thread")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::from_index(0);
    const T1: ThreadId = ThreadId::from_index(1);
    const T2: ThreadId = ThreadId::from_index(2);

    fn base_spec(policy: &LotteryPolicy, amount: u64) -> FundingSpec {
        FundingSpec::new(policy.base_currency(), amount)
    }

    #[test]
    fn picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            // Reset the queue for the next independent lottery.
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
        assert_eq!(p.lotteries_held(), 2 * n as u64);
    }

    #[test]
    fn currencies_isolate_value() {
        // Figure 3's flavor: two currencies funded 1:1 from base, with a
        // different number of tickets issued inside each.
        let mut p = LotteryPolicy::new(7);
        let a = p.create_currency("A", 1000).unwrap();
        let b = p.create_currency("B", 1000).unwrap();
        p.on_spawn(T0, FundingSpec::new(a, 100));
        p.on_spawn(T1, FundingSpec::new(b, 100));
        p.on_spawn(T2, FundingSpec::new(b, 100));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.enqueue(T2, SimTime::ZERO);
        // A's single thread owns all of A: worth 1000. B's two threads
        // split B: 500 each.
        assert_eq!(p.value_of(T0), 1000.0);
        assert_eq!(p.value_of(T1), 500.0);
        assert_eq!(p.value_of(T2), 500.0);
    }

    #[test]
    fn compensation_inflates_until_next_pick() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 400);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        // Used 20 ms of the 100 ms quantum, then blocked.
        p.charge(
            T0,
            SimDuration::from_ms(20),
            SimDuration::from_ms(100),
            EndReason::Blocked,
        );
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 2000.0, "Section 4.5's 5x example");
        // Winning the next lottery revokes the compensation ticket.
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 400.0);
    }

    #[test]
    fn compensation_can_be_disabled() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 400);
        p.on_spawn(T0, s0);
        p.set_compensation_enabled(false);
        p.enqueue(T0, SimTime::ZERO);
        let _ = p.pick(SimTime::ZERO);
        p.charge(
            T0,
            SimDuration::from_ms(20),
            SimDuration::from_ms(100),
            EndReason::Blocked,
        );
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 400.0);
    }

    #[test]
    fn transfer_funds_server_and_repays() {
        let mut p = LotteryPolicy::new(5);
        let s_client = base_spec(&p, 300);
        let s_server = base_spec(&p, 100);
        p.on_spawn(T0, s_client);
        p.on_spawn(T1, s_server);
        p.enqueue(T1, SimTime::ZERO);
        // Client (blocked, inactive) transfers to the server.
        p.transfer(T0, T1);
        assert_eq!(p.value_of(T1), 400.0);
        p.untransfer(T0, T1);
        assert_eq!(p.value_of(T1), 100.0);
        // Untransfer without a matching transfer is a no-op.
        p.untransfer(T0, T1);
        assert_eq!(p.value_of(T1), 100.0);
    }

    #[test]
    fn set_funding_takes_effect_immediately() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        assert_eq!(p.funding(T0), 100);
        p.set_funding(T0, 900).unwrap();
        assert_eq!(p.funding(T0), 900);
        assert_eq!(p.value_of(T0), 900.0);
    }

    #[test]
    fn zero_value_pool_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        // A currency with no backing: its tickets are worth nothing.
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn exit_cleans_up_ledger() {
        let mut p = LotteryPolicy::new(5);
        let s0 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.enqueue(T0, SimTime::ZERO);
        let clients_before = p.ledger().clients().count();
        assert_eq!(clients_before, 1);
        p.on_exit(T0);
        assert_eq!(p.ledger().clients().count(), 0);
        assert_eq!(p.ledger().tickets().count(), 0);
        assert_eq!(p.ready_len(), 0);
    }

    #[test]
    fn tree_structure_picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
        p.set_structure(SelectStructure::Tree);
        assert_eq!(p.structure(), SelectStructure::Tree);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn tree_structure_tracks_dynamic_funding() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Tree);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.set_funding(T0, 900).unwrap();
        let mut wins0 = 0u32;
        let n = 10_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            let other = p.pick(SimTime::ZERO).unwrap();
            if w == T0 {
                wins0 += 1;
            }
            p.enqueue(w, SimTime::ZERO);
            p.enqueue(other, SimTime::ZERO);
        }
        let share = f64::from(wins0) / f64::from(n);
        assert!((share - 0.9).abs() < 0.02, "share {share}");
    }

    #[test]
    fn tree_structure_exit_cleans_mirror() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Tree);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn structure_switch_mid_run_rebuilds_tree() {
        let mut p = LotteryPolicy::new(1);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        // A few list-mode lotteries first, then switch with threads queued.
        for _ in 0..10 {
            let w = p.pick(SimTime::ZERO).unwrap();
            p.enqueue(w, SimTime::ZERO);
        }
        p.set_structure(SelectStructure::Tree);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            p.enqueue(w, SimTime::ZERO);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
        // And back: the list walk picks up where the tree left off.
        p.set_structure(SelectStructure::List);
        assert!(p.pick(SimTime::ZERO).is_some());
    }

    /// With every client value exactly representable, tree mode must
    /// reproduce the list walk's winner sequence draw for draw — the
    /// partial-sum descent is just a faster search over the same
    /// intervals, fed by the same valuation cache.
    ///
    /// The workload shares one currency among all threads and mixes full
    /// quanta with blocking (deactivation + compensation), so sibling
    /// values shift constantly — exactly the case where the tree's cached
    /// weights used to go stale.
    #[test]
    fn tree_matches_list_winner_sequence_exactly() {
        // Backing 252000 = lcm(1000, 900, 800, 700, 600): every reachable
        // active amount divides it, keeping all client values integral.
        let run = |structure: SelectStructure| -> Vec<ThreadId> {
            let mut p = LotteryPolicy::new(20_260_806);
            p.set_structure(structure);
            let shared = p.create_currency("shared", 252_000).unwrap();
            let amounts = [100u64, 200, 300, 400];
            for (i, &amount) in amounts.iter().enumerate() {
                let tid = ThreadId::from_index(i as u32);
                p.on_spawn(tid, FundingSpec::new(shared, amount));
                p.enqueue(tid, SimTime::ZERO);
            }
            let mut winners = Vec::new();
            let mut blocked: Option<ThreadId> = None;
            for step in 0..400 {
                let w = p.pick(SimTime::ZERO).unwrap();
                winners.push(w);
                if step % 2 == 0 {
                    // Full quantum: back on the queue immediately.
                    p.charge(
                        w,
                        SimDuration::from_ms(100),
                        SimDuration::from_ms(100),
                        EndReason::QuantumExpired,
                    );
                    p.enqueue(w, SimTime::ZERO);
                } else {
                    // Block halfway: deactivates the winner's tickets
                    // (shifting every sibling's share) and grants a 2x
                    // compensation factor for its return.
                    p.charge(
                        w,
                        SimDuration::from_ms(50),
                        SimDuration::from_ms(100),
                        EndReason::Blocked,
                    );
                    if let Some(b) = blocked.replace(w) {
                        p.enqueue(b, SimTime::ZERO);
                    }
                }
            }
            winners
        };
        let list = run(SelectStructure::List);
        let tree = run(SelectStructure::Tree);
        let alias = run(SelectStructure::Alias);
        assert_eq!(list, tree);
        assert_eq!(list, alias);
        // Sanity: the workload actually rotates winners.
        assert!(list.iter().any(|&t| t != list[0]));
    }

    #[test]
    fn alias_structure_picks_proportionally() {
        let mut p = LotteryPolicy::new(42);
        p.set_structure(SelectStructure::Alias);
        assert_eq!(p.structure(), SelectStructure::Alias);
        let s0 = base_spec(&p, 300);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut wins = [0u32; 2];
        let n = 20_000;
        for _ in 0..n {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            wins[w.index() as usize] += 1;
            let other = p.pick(SimTime::ZERO).unwrap();
            assert_ne!(w, other);
        }
        let share = f64::from(wins[0]) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn alias_structure_tracks_dynamic_funding() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Alias);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.set_funding(T0, 900).unwrap();
        let mut wins0 = 0u32;
        let n = 10_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            let other = p.pick(SimTime::ZERO).unwrap();
            if w == T0 {
                wins0 += 1;
            }
            p.enqueue(w, SimTime::ZERO);
            p.enqueue(other, SimTime::ZERO);
        }
        let share = f64::from(wins0) / f64::from(n);
        assert!((share - 0.9).abs() < 0.02, "share {share}");
    }

    #[test]
    fn alias_zero_value_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        p.set_structure(SelectStructure::Alias);
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
    }

    #[test]
    fn alias_structure_exit_cleans_mirror() {
        let mut p = LotteryPolicy::new(11);
        p.set_structure(SelectStructure::Alias);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 100);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.on_exit(T0);
        assert_eq!(p.ready_len(), 1);
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
        assert_eq!(p.pick(SimTime::ZERO), None);
    }

    #[test]
    fn tree_mode_is_exact_for_shared_currencies() {
        // Two threads share a currency; a third holds base tickets. When
        // the shared pair's sibling blocks, the survivor's value doubles
        // — the tree must see that before the next draw, or the base
        // thread would be over-selected.
        let mut p = LotteryPolicy::new(3);
        p.set_structure(SelectStructure::Tree);
        let shared = p.create_currency("shared", 1000).unwrap();
        p.on_spawn(T0, FundingSpec::new(shared, 100));
        p.on_spawn(T1, FundingSpec::new(shared, 100));
        let base = base_spec(&p, 1000);
        p.on_spawn(T2, base);
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        p.enqueue(T2, SimTime::ZERO);
        assert_eq!(p.value_of(T0), 500.0);
        // T1 wins nothing for a while: block it indefinitely.
        let mut removed = false;
        let mut wins = [0u32; 3];
        let n = 30_000;
        for _ in 0..n {
            let w = p.pick(SimTime::ZERO).unwrap();
            if w == T1 && !removed {
                removed = true;
                p.charge(
                    T1,
                    SimDuration::from_ms(100),
                    SimDuration::from_ms(100),
                    EndReason::Blocked,
                );
                continue;
            }
            wins[w.index() as usize] += 1;
            p.charge(
                w,
                SimDuration::from_ms(100),
                SimDuration::from_ms(100),
                EndReason::QuantumExpired,
            );
            p.enqueue(w, SimTime::ZERO);
        }
        // After T1 blocks, T0 owns all of `shared`: 1000 vs 1000 base.
        let share = f64::from(wins[0]) / f64::from(wins[0] + wins[2]);
        assert!((share - 0.5).abs() < 0.01, "share {share}");
    }

    #[test]
    fn tree_zero_value_degenerates_to_fifo() {
        let mut p = LotteryPolicy::new(5);
        p.set_structure(SelectStructure::Tree);
        let empty = p.ledger_mut().create_currency("empty").unwrap();
        p.on_spawn(T0, FundingSpec::new(empty, 10));
        p.on_spawn(T1, FundingSpec::new(empty, 10));
        p.enqueue(T0, SimTime::ZERO);
        p.enqueue(T1, SimTime::ZERO);
        assert_eq!(p.pick(SimTime::ZERO), Some(T0));
        assert_eq!(p.pick(SimTime::ZERO), Some(T1));
    }

    #[test]
    fn starvation_free_small_share() {
        // A 1-of-101 client must still win within a few hundred draws
        // (geometric distribution, E = 101).
        let mut p = LotteryPolicy::new(99);
        let s0 = base_spec(&p, 100);
        let s1 = base_spec(&p, 1);
        p.on_spawn(T0, s0);
        p.on_spawn(T1, s1);
        let mut first_win = None;
        for i in 0..2000 {
            p.enqueue(T0, SimTime::ZERO);
            p.enqueue(T1, SimTime::ZERO);
            let w = p.pick(SimTime::ZERO).unwrap();
            let _ = p.pick(SimTime::ZERO).unwrap();
            if w == T1 {
                first_win = Some(i);
                break;
            }
        }
        assert!(first_win.is_some(), "tiny share starved for 2000 draws");
    }
}
