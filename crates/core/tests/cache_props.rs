//! Property-based coherence tests for the ledger's incremental valuation
//! cache.
//!
//! Two contracts are exercised against random mutation sequences over
//! random currency graphs, with cache reads interleaved so entries are
//! warm when mutations land:
//!
//! 1. **Cache coherence** — [`Ledger::cached_client_value`] and
//!    [`Ledger::cached_currency_value`] always bit-equal a fresh
//!    [`Valuator`] over the same ledger. The cache may only ever skip
//!    *recomputation*, never return a different value.
//! 2. **Notification completeness** — a mirror of client values that is
//!    refreshed *only* for clients surfaced by
//!    [`Ledger::drain_dirty_clients`] (re-warming each refreshed entry,
//!    exactly as the tree scheduler does) never goes stale. Every value
//!    change of a warm client must be signalled, and no drain returns a
//!    destroyed client's handle.
//!
//! The sequences recycle arena slots (destroying a client or currency and
//! creating its replacement at once), so cached entries and queued
//! notifications of dead handles meet live handles in the same slot.

use lottery_core::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// `lottery_core::prelude` exports its own single-parameter `Result`.
type CheckResult = std::result::Result<(), TestCaseError>;

#[derive(Debug, Clone)]
enum Op {
    CreateCurrency,
    CreateClient,
    /// Issue a ticket in currency `c % |currencies|`, amount 1..=500,
    /// funding client `cl % |clients|`.
    FundClient {
        c: usize,
        amount: u64,
        cl: usize,
    },
    /// Issue a ticket in currency `c` funding currency `d` (cycle and
    /// base-funding attempts are expected to fail cleanly).
    FundCurrency {
        c: usize,
        d: usize,
        amount: u64,
    },
    Activate {
        cl: usize,
    },
    Deactivate {
        cl: usize,
    },
    DestroyTicket {
        t: usize,
    },
    SetAmount {
        t: usize,
        amount: u64,
    },
    Unfund {
        t: usize,
    },
    /// Split ticket `t` into two parts, the first `num/8` of its amount.
    Split {
        t: usize,
        num: u64,
    },
    Merge {
        a: usize,
        b: usize,
    },
    /// Compensation factor `1.0 + 0.5 * k`.
    SetCompensation {
        cl: usize,
        k: u64,
    },
    DestroyClient {
        cl: usize,
    },
    /// Destroy client `cl` and its funding, then create a replacement,
    /// which takes over the freed arena slot.
    RecycleClient {
        cl: usize,
    },
    /// Destroy currency `c` (never base) with every ticket issued in or
    /// backing it, then create a replacement in the freed slot.
    RecycleCurrency {
        c: usize,
    },
    /// Warm a random client's cache entry mid-sequence.
    ReadClient {
        cl: usize,
    },
    /// Warm a random currency's cache entry mid-sequence.
    ReadCurrency {
        c: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::CreateCurrency),
        Just(Op::CreateClient),
        (0..8usize, 1..500u64, 0..8usize).prop_map(|(c, amount, cl)| Op::FundClient {
            c,
            amount,
            cl
        }),
        (0..8usize, 0..8usize, 1..500u64).prop_map(|(c, d, amount)| Op::FundCurrency {
            c,
            d,
            amount
        }),
        (0..8usize).prop_map(|cl| Op::Activate { cl }),
        (0..8usize).prop_map(|cl| Op::Deactivate { cl }),
        (0..32usize).prop_map(|t| Op::DestroyTicket { t }),
        (0..32usize, 1..500u64).prop_map(|(t, amount)| Op::SetAmount { t, amount }),
        (0..32usize).prop_map(|t| Op::Unfund { t }),
        (0..32usize, 1..8u64).prop_map(|(t, num)| Op::Split { t, num }),
        (0..32usize, 0..32usize).prop_map(|(a, b)| Op::Merge { a, b }),
        (0..8usize, 0..4u64).prop_map(|(cl, k)| Op::SetCompensation { cl, k }),
        (0..8usize).prop_map(|cl| Op::DestroyClient { cl }),
        (0..8usize).prop_map(|cl| Op::RecycleClient { cl }),
        (0..8usize).prop_map(|c| Op::RecycleCurrency { c }),
        (0..8usize).prop_map(|cl| Op::ReadClient { cl }),
        (0..8usize).prop_map(|c| Op::ReadCurrency { c }),
    ]
}

struct World {
    ledger: Ledger,
    currencies: Vec<CurrencyId>,
    clients: Vec<ClientId>,
    tickets: Vec<TicketId>,
    /// Client values as last seen through the dirty-drain protocol.
    mirror: HashMap<ClientId, f64>,
}

impl World {
    fn new() -> Self {
        let ledger = Ledger::new();
        let base = ledger.base();
        Self {
            ledger,
            currencies: vec![base],
            clients: Vec::new(),
            tickets: Vec::new(),
            mirror: HashMap::new(),
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::CreateCurrency => {
                let id = self
                    .ledger
                    .create_currency(format!("c{}", self.currencies.len()))
                    .unwrap();
                self.currencies.push(id);
            }
            Op::CreateClient => {
                let id = self.create_client();
                self.clients.push(id);
            }
            Op::FundClient { c, amount, cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let c = self.currencies[c % self.currencies.len()];
                let cl = self.clients[cl % self.clients.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                self.ledger.fund_client(t, cl).unwrap();
                self.tickets.push(t);
            }
            Op::FundCurrency { c, d, amount } => {
                let c = self.currencies[c % self.currencies.len()];
                let d = self.currencies[d % self.currencies.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                match self.ledger.fund_currency(t, d) {
                    Ok(()) => self.tickets.push(t),
                    Err(LotteryError::CurrencyCycle | LotteryError::BaseCurrencyImmutable) => {
                        self.ledger.destroy_ticket(t).unwrap();
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            Op::Activate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.activate_client(cl).unwrap();
                }
            }
            Op::Deactivate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.deactivate_client(cl).unwrap();
                }
            }
            Op::DestroyTicket { t } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets.swap_remove(t % self.tickets.len());
                self.ledger.destroy_ticket(t).unwrap();
            }
            Op::SetAmount { t, amount } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                self.ledger.set_amount(t, amount).unwrap();
            }
            Op::Unfund { t } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                self.ledger.unfund(t).unwrap();
            }
            Op::Split { t, num } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                let amount = self.ledger.ticket(t).unwrap().amount();
                let first = (amount * num / 8).max(1);
                if first >= amount {
                    return;
                }
                let rest = self
                    .ledger
                    .split_ticket(t, &[first, amount - first])
                    .unwrap();
                self.tickets.extend(rest);
            }
            Op::Merge { a, b } => {
                if self.tickets.len() < 2 {
                    return;
                }
                let a = self.tickets[a % self.tickets.len()];
                let b = self.tickets[b % self.tickets.len()];
                match self.ledger.merge_tickets(a, b) {
                    Ok(()) => self.tickets.retain(|&t| t != b),
                    Err(LotteryError::NotTransferred | LotteryError::ZeroAmount) => {}
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            Op::SetCompensation { cl, k } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    let factor = 1.0 + 0.5 * k as f64;
                    self.ledger.set_compensation(cl, factor).unwrap();
                }
            }
            Op::DestroyClient { cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let cl = self.clients.swap_remove(cl % self.clients.len());
                self.destroy_client(cl);
            }
            Op::RecycleClient { cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let i = cl % self.clients.len();
                let old = self.clients[i];
                self.destroy_client(old);
                let new = self.create_client();
                assert_eq!(new.index(), old.index(), "client slot not recycled");
                self.clients[i] = new;
            }
            Op::RecycleCurrency { c } => {
                if self.currencies.len() < 2 {
                    return;
                }
                let i = 1 + c % (self.currencies.len() - 1);
                let old = self.currencies[i];
                let cur = self.ledger.currency(old).unwrap();
                let doomed: Vec<TicketId> =
                    cur.issued().iter().chain(cur.backing()).copied().collect();
                for t in doomed {
                    // A ticket both issued in and backing `old` cannot
                    // exist (no self-funding), so each dies once.
                    self.ledger.destroy_ticket(t).unwrap();
                }
                self.tickets.retain(|&t| self.ledger.ticket(t).is_ok());
                self.ledger.destroy_currency(old).unwrap();
                let new = self.ledger.create_currency(format!("c{i}")).unwrap();
                assert_eq!(new.index(), old.index(), "currency slot not recycled");
                self.currencies[i] = new;
            }
            Op::ReadClient { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.cached_client_value(cl).unwrap();
                }
            }
            Op::ReadCurrency { c } => {
                let c = self.currencies[c % self.currencies.len()];
                self.ledger.cached_currency_value(c).unwrap();
            }
        }
    }

    /// Creates a client and warms its entry at creation (the mirror
    /// protocol), like the scheduler does when it first enqueues a thread.
    fn create_client(&mut self) -> ClientId {
        let id = self
            .ledger
            .create_client(format!("cl{}", self.clients.len()));
        let v = self.ledger.cached_client_value(id).unwrap();
        self.mirror.insert(id, v);
        id
    }

    /// Destroys a client with its funding tickets.
    fn destroy_client(&mut self, cl: ClientId) {
        self.ledger.destroy_client_and_funding(cl).unwrap();
        self.mirror.remove(&cl);
        self.tickets.retain(|&t| self.ledger.ticket(t).is_ok());
    }

    /// Contract 1: cached reads bit-equal a fresh valuator.
    fn check_cache_matches_fresh(&self) -> CheckResult {
        let mut fresh = Valuator::new(&self.ledger);
        for &cl in &self.clients {
            let cached = self.ledger.cached_client_value(cl).unwrap();
            let oracle = fresh.client_value(cl).unwrap();
            prop_assert_eq!(cached, oracle, "client {:?}", cl);
        }
        for &c in &self.currencies {
            let cached = self.ledger.cached_currency_value(c).unwrap();
            let oracle = fresh.currency_value(c).unwrap();
            prop_assert_eq!(cached, oracle, "currency {:?}", c);
        }
        Ok(())
    }

    /// Contract 2: refresh the mirror from the dirty queue alone, then
    /// demand it matches fresh values for every live client.
    fn drain_and_check_mirror(&mut self) -> CheckResult {
        for cl in self.ledger.drain_dirty_clients() {
            prop_assert!(
                self.ledger.client(cl).is_ok(),
                "drained dead client handle {:?}",
                cl
            );
            prop_assert!(
                self.mirror.contains_key(&cl),
                "drained unknown client {:?}",
                cl
            );
            // Re-warming here is part of the protocol: only warm entries
            // are guaranteed future notifications.
            let v = self.ledger.cached_client_value(cl).unwrap();
            self.mirror.insert(cl, v);
        }
        let mut fresh = Valuator::new(&self.ledger);
        for &cl in &self.clients {
            let mirrored = self.mirror[&cl];
            let oracle = fresh.client_value(cl).unwrap();
            prop_assert_eq!(mirrored, oracle, "mirror stale for {:?}", cl);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After an arbitrary mutation sequence, every cached value equals a
    /// fresh recomputation exactly.
    #[test]
    fn cache_matches_fresh_valuator(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
        }
        world.check_cache_matches_fresh()?;
    }

    /// The cache and the dirty-notification queue stay coherent at every
    /// intermediate step, under the same warm-entry protocol the tree
    /// scheduler uses.
    #[test]
    fn cache_and_dirty_queue_coherent_at_every_step(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            world.check_cache_matches_fresh()?;
            world.drain_and_check_mirror()?;
        }
    }

    /// The same contracts with drains only between batches, so slots are
    /// recycled while the dead occupant's notification is still queued:
    /// the drain must surface the live successor, never the dead handle.
    #[test]
    fn recycled_slots_stay_coherent_between_drains(
        batches in prop::collection::vec(prop::collection::vec(op_strategy(), 1..10), 1..20),
    ) {
        let mut world = World::new();
        for batch in &batches {
            for op in batch {
                world.apply(op);
            }
            world.check_cache_matches_fresh()?;
            world.drain_and_check_mirror()?;
        }
    }
}
