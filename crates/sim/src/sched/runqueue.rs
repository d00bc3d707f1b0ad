//! The shard run queue: the one copy of a lottery scheduler's ready set.
//!
//! A [`RunQueue`] holds one or more shards. Each shard has a ready order
//! and a winner-search mirror of that order (a partial-sum tree or an
//! alias table over cached client values; the list walk needs none). One
//! membership index covers every shard. Each shard drains its own ledger
//! dirty-notification queue before a draw, so its mirror weights are
//! exact. The draw is Figure 1's, with one rule every caller relies on:
//! a winning value is taken from the RNG exactly when the pool has
//! positive value, and a worthless pool falls back to FIFO without one.
//!
//! Three schedulers drive this queue: the uniprocessor
//! [`LotteryPolicy`](super::lottery::LotteryPolicy) (one shard), the
//! [`DistributedLottery`](super::distributed::DistributedLottery) (one
//! shard per CPU), and each real-thread worker of `lottery-par` (one
//! shard, draining its own worker's dirty queue).

use std::time::Instant;

use lottery_core::arena::SlotTable;
use lottery_core::client::{Client, ClientId};
use lottery_core::ledger::Ledger;
use lottery_core::lottery::alias::AliasLottery;
use lottery_core::lottery::index::DenseIndex;
use lottery_core::lottery::tree::TreeLottery;
use lottery_core::lottery::TicketPool;
use lottery_core::rng::SchedRng;
use lottery_obs::{EventKind, ProbeBus};

use super::lottery::SelectStructure;
use crate::thread::ThreadId;

/// Where a shard draw was held, for the `ShardPick`/`ShardSteal` probes.
///
/// Draws made with a site are tagged `"shard"`/`"shard-alias"`; draws
/// without one are tagged by their structure (`"list"`, `"tree"`,
/// `"alias"`) and emit no shard events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawSite {
    /// The CPU that holds the lottery.
    pub cpu: u32,
    /// Whether the drawn shard is foreign to that CPU (a work steal).
    pub stolen: bool,
}

/// A shard's winner-search mirror of its ready order: the same entries
/// in the same slot order, weighted by cached client values. Thread ids
/// are dense, so the slot index is a flat table, not a hash map.
#[derive(Debug)]
enum Mirror {
    /// The list walk values clients at the draw and keeps no mirror.
    List,
    Tree(TreeLottery<ThreadId, f64, DenseIndex>),
    Alias(Box<AliasLottery<ThreadId, DenseIndex>>),
}

impl Mirror {
    fn new(structure: SelectStructure, capacity: usize) -> Self {
        match structure {
            SelectStructure::List => Mirror::List,
            SelectStructure::Tree => Mirror::Tree(TreeLottery::with_index(capacity)),
            SelectStructure::Alias => Mirror::Alias(Box::new(AliasLottery::with_index(capacity))),
        }
    }

    fn structure(&self) -> SelectStructure {
        match self {
            Mirror::List => SelectStructure::List,
            Mirror::Tree(_) => SelectStructure::Tree,
            Mirror::Alias(_) => SelectStructure::Alias,
        }
    }

    /// The mirror's total in base units (zero for the list walk).
    fn total(&self) -> f64 {
        match self {
            Mirror::List => 0.0,
            Mirror::Tree(tree) => tree.total(),
            Mirror::Alias(alias) => alias.total(),
        }
    }

    /// Adds a slot; `value` is only read when the mirror keeps weights.
    fn insert(&mut self, tid: ThreadId, value: impl FnOnce() -> f64) {
        match self {
            Mirror::List => {}
            Mirror::Tree(tree) => tree.insert(tid, value()),
            Mirror::Alias(alias) => alias.insert(tid, value()),
        }
    }

    fn set_weight(&mut self, tid: ThreadId, value: f64) {
        match self {
            Mirror::List => {}
            Mirror::Tree(tree) => {
                tree.set_weight(&tid, value);
            }
            Mirror::Alias(alias) => {
                alias.set_weight(&tid, value);
            }
        }
    }

    fn remove(&mut self, tid: ThreadId) {
        match self {
            Mirror::List => {}
            Mirror::Tree(tree) => {
                tree.remove(&tid);
            }
            Mirror::Alias(alias) => {
                alias.remove(&tid);
            }
        }
    }
}

/// One shard: a ready order and its mirror.
#[derive(Debug)]
struct Shard {
    /// The ledger dirty-notification queue this shard drains; also its
    /// id in probe events.
    id: u32,
    /// Ready threads in scan order. Removal swap-removes, the same motion
    /// the tree and the alias table apply to their slots, so the ready
    /// order and the mirror's slot order stay identical.
    ready: Vec<ThreadId>,
    mirror: Mirror,
    /// Lotteries resolved from this shard.
    picks: u64,
}

/// The ready set of a lottery scheduler, split into shards.
#[derive(Debug)]
pub struct RunQueue {
    shards: Vec<Shard>,
    /// Membership index for every shard: thread id -> position in its
    /// home shard's ready order, `None` when not queued.
    ready_pos: Vec<Option<u32>>,
    /// Home shard per thread, indexed by thread id. Threads past the end
    /// live on shard 0, so a one-shard queue never grows this table.
    home: Vec<u32>,
    /// Reverse map from ledger clients to threads (dense by the client's
    /// arena slot), for routing dirty notifications back to mirror slots
    /// without hashing. Generation-checked, so a destroyed client never
    /// resolves to the thread of the client that took over its slot.
    client_threads: SlotTable<Client, ThreadId>,
    /// Reusable drain buffer: no allocation per draw.
    dirty_buf: Vec<ClientId>,
    /// Reusable list-walk valuation buffer: no allocation per draw.
    list_values: Vec<f64>,
}

impl RunQueue {
    /// A queue with one shard per id; shard `i` drains the ledger's
    /// dirty queue `ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty id list.
    pub fn new(ids: impl IntoIterator<Item = u32>, structure: SelectStructure) -> Self {
        let shards: Vec<Shard> = ids
            .into_iter()
            .map(|id| Shard {
                id,
                ready: Vec::new(),
                mirror: Mirror::new(structure, 1),
                picks: 0,
            })
            .collect();
        assert!(!shards.is_empty(), "a run queue needs at least one shard");
        Self {
            shards,
            ready_pos: Vec::new(),
            home: Vec::new(),
            client_threads: SlotTable::default(),
            dirty_buf: Vec::new(),
            list_values: Vec::new(),
        }
    }

    /// The active winner-search structure.
    pub(crate) fn structure(&self) -> SelectStructure {
        self.shards[0].mirror.structure()
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Ready threads across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.ready.len()).sum()
    }

    /// Whether no shard has a ready thread.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.ready.is_empty())
    }

    /// A shard's ready threads, in scan order.
    pub fn ready(&self, shard: usize) -> &[ThreadId] {
        &self.shards[shard].ready
    }

    /// A shard's mirror total in base units (zero in list mode, which
    /// keeps no mirror).
    pub fn total(&self, shard: usize) -> f64 {
        self.shards[shard].mirror.total()
    }

    /// Lotteries resolved from a shard.
    pub(crate) fn picks(&self, shard: usize) -> u64 {
        self.shards[shard].picks
    }

    /// A thread's home shard.
    pub(crate) fn home(&self, tid: ThreadId) -> usize {
        self.home
            .get(tid.index() as usize)
            .map_or(0, |&h| h as usize)
    }

    /// Re-homes a thread that is not queued.
    pub(crate) fn set_home(&mut self, tid: ThreadId, shard: usize) {
        debug_assert!(!self.is_ready(tid), "re-homing queued thread {tid}");
        let idx = tid.index() as usize;
        if self.home.len() <= idx {
            self.home.resize(idx + 1, 0);
        }
        self.home[idx] = shard as u32;
    }

    /// Whether a thread is queued (`O(1)`).
    fn is_ready(&self, tid: ThreadId) -> bool {
        self.ready_pos
            .get(tid.index() as usize)
            .copied()
            .flatten()
            .is_some()
    }

    /// Routes a ledger client's dirty notifications to `tid`.
    pub fn map_client(&mut self, client: ClientId, tid: ThreadId) {
        self.client_threads.insert(client, tid);
    }

    /// Stops routing a client's notifications (exit, or migration away).
    pub fn unmap_client(&mut self, client: ClientId) {
        self.client_threads.remove(client);
    }

    /// The thread a ledger client funds, if mapped.
    pub(crate) fn thread_of(&self, client: ClientId) -> Option<ThreadId> {
        self.client_threads.get(client).copied()
    }

    /// Appends a thread to its home shard's ready order and mirror.
    ///
    /// `value` is the client's current base-unit value; it is only read
    /// when a mirror exists (the list walk values clients at the draw).
    pub fn push_ready(&mut self, tid: ThreadId, value: impl FnOnce() -> f64) {
        let idx = tid.index() as usize;
        if self.ready_pos.len() <= idx {
            self.ready_pos.resize(idx + 1, None);
        }
        debug_assert!(self.ready_pos[idx].is_none(), "double enqueue of {tid}");
        let home = self.home(tid);
        let shard = &mut self.shards[home];
        self.ready_pos[idx] = Some(shard.ready.len() as u32);
        shard.ready.push(tid);
        shard.mirror.insert(tid, value);
    }

    /// Removes a thread from its home shard's ready order and mirror in
    /// `O(1)`; returns whether it was queued.
    pub fn remove_ready(&mut self, tid: ThreadId) -> bool {
        let idx = tid.index() as usize;
        let Some(pos) = self.ready_pos.get(idx).copied().flatten() else {
            return false;
        };
        let pos = pos as usize;
        let home = self.home(tid);
        let shard = &mut self.shards[home];
        shard.mirror.remove(tid);
        shard.ready.swap_remove(pos);
        self.ready_pos[idx] = None;
        if pos < shard.ready.len() {
            let moved = shard.ready[pos];
            self.ready_pos[moved.index() as usize] = Some(pos as u32);
        }
        true
    }

    /// Switches the winner-search structure, rebuilding every shard's
    /// mirror from its ready order (so slot order and scan order stay
    /// identical) with exact values from the ledger's valuation cache.
    /// Emits one [`EventKind::StructureRebuild`] per shard.
    pub(crate) fn set_structure(
        &mut self,
        structure: SelectStructure,
        ledger: &mut Ledger,
        bus: &ProbeBus,
        client_of: impl Fn(ThreadId) -> ClientId,
    ) {
        for sh in &mut self.shards {
            let start = Instant::now();
            sh.mirror = Mirror::new(structure, sh.ready.len());
            if structure != SelectStructure::List {
                // Every ready weight is computed fresh below; pending
                // notifications for this shard are obsolete.
                ledger.drain_dirty_shard_into(sh.id, &mut self.dirty_buf);
                for &tid in &sh.ready {
                    sh.mirror.insert(tid, || {
                        ledger.cached_client_value(client_of(tid)).unwrap_or(0.0)
                    });
                }
            }
            if let Mirror::Alias(alias) = &mut sh.mirror {
                // Snapshot once at the end: bulk-load rebuild churn
                // collapses into one table over the final ready order.
                alias.rebuild();
                alias.take_rebuild_events();
            }
            let clients = sh.ready.len() as u32;
            let rebuild_ns = start.elapsed().as_nanos() as u64;
            bus.emit(|| EventKind::StructureRebuild {
                structure: structure_tag(structure),
                clients,
                stale: 0,
                rebuild_ns,
            });
        }
    }

    /// Settles a shard's pending valuation invalidations into its mirror.
    ///
    /// This is what makes tree and alias modes exact: any mutation in the
    /// currency graph (a sibling blocking, a compensation grant, an RPC
    /// transfer) queues precisely the affected clients on their home
    /// shard, and their slots are revalued before that shard's next draw.
    /// Invalidations homed elsewhere wait for their own shard.
    pub fn refresh(&mut self, shard: usize, ledger: &mut Ledger, bus: &ProbeBus) {
        let id = self.shards[shard].id;
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        ledger.drain_dirty_shard_into(id, &mut dirty);
        if !dirty.is_empty() {
            // One batch per dispatch decision, drained in ascending
            // client-id order and revalued in a single pass.
            let depth = dirty.len() as u32;
            bus.emit(|| EventKind::DirtyBatch { shard: id, depth });
        }
        for &client in &dirty {
            let Some(tid) = self.thread_of(client) else {
                continue;
            };
            if !self.is_ready(tid) {
                continue;
            }
            let value = ledger.cached_client_value(client).unwrap_or(0.0);
            self.shards[shard].mirror.set_weight(tid, value);
        }
        self.dirty_buf = dirty;
    }

    /// Holds one lottery over a non-empty shard and dequeues the winner.
    ///
    /// Tree and alias draws search the (refreshed) mirror; the list walk
    /// values every ready client through the ledger's cache and sums
    /// them in ready order until the running sum passes the winning
    /// value. The three search the same intervals in the same order, so
    /// for a fixed seed they pick the same winners whenever client values
    /// are exactly representable.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard.
    pub fn draw(
        &mut self,
        shard: usize,
        site: Option<DrawSite>,
        ledger: &Ledger,
        rng: &mut impl SchedRng,
        bus: &ProbeBus,
        client_of: impl Fn(ThreadId) -> ClientId,
    ) -> ThreadId {
        let sh = &mut self.shards[shard];
        sh.picks += 1;
        let entries = sh.ready.len() as u32;
        let first = sh.ready[0];
        let structure = sh.mirror.structure();
        // "levels" is the search effort: entries scanned by the list
        // walk, the tree's depth, or the alias table's overlay probes
        // plus guide-cell scan steps.
        let (tid, total, winning, levels) = match &mut sh.mirror {
            Mirror::List => {
                let mut values = std::mem::take(&mut self.list_values);
                values.clear();
                values.extend(
                    sh.ready
                        .iter()
                        .map(|&t| ledger.cached_client_value(client_of(t)).unwrap_or(0.0)),
                );
                let total: f64 = values.iter().sum();
                let (index, winning) = if total <= 0.0 {
                    (0, -1.0)
                } else {
                    let winning = rng.next_f64() * total;
                    let mut sum = 0.0;
                    let mut chosen = values.len() - 1;
                    for (i, &v) in values.iter().enumerate() {
                        sum += v;
                        if winning < sum {
                            chosen = i;
                            break;
                        }
                    }
                    (chosen, winning)
                };
                self.list_values = values;
                (sh.ready[index], total, winning, index as u32 + 1)
            }
            Mirror::Tree(tree) => {
                let (tid, total, winning) = search(tree, first, rng);
                (tid, total, winning, tree.depth())
            }
            Mirror::Alias(alias) => {
                let (tid, total, winning) = search(alias.as_mut(), first, rng);
                (tid, total, winning, alias.last_probes())
            }
        };
        let winner = tid.index();
        let tag = match (site, structure) {
            (Some(_), SelectStructure::Alias) => "shard-alias",
            (Some(_), _) => "shard",
            (None, s) => structure_tag(s),
        };
        bus.emit(|| EventKind::LotteryDraw {
            structure: tag,
            entries,
            levels,
            total,
            winning,
            winner,
        });
        if let Some(DrawSite { cpu, stolen }) = site {
            let id = sh.id;
            bus.emit(|| EventKind::ShardPick {
                cpu,
                shard: id,
                stolen,
            });
            if stolen {
                bus.emit(|| EventKind::ShardSteal {
                    cpu,
                    victim: id,
                    thread: winner,
                });
            }
        }
        self.remove_ready(tid);
        if let Mirror::Alias(alias) = &mut self.shards[shard].mirror {
            for ev in alias.take_rebuild_events() {
                bus.emit(|| EventKind::StructureRebuild {
                    structure: "alias",
                    clients: ev.clients,
                    stale: ev.stale,
                    rebuild_ns: ev.rebuild_ns,
                });
            }
        }
        tid
    }
}

/// Figure 1's draw over a mirror: a winning value below the pool total,
/// or the first ready thread, without consuming the RNG, when the pool
/// is worthless. Returns the winner, the total, and the winning value
/// (`-1` for the FIFO fallback).
fn search(
    pool: &mut impl TicketPool<ThreadId, f64>,
    first: ThreadId,
    rng: &mut impl SchedRng,
) -> (ThreadId, f64, f64) {
    let total = pool.total();
    if pool.is_empty() || total <= 0.0 {
        return (first, total, -1.0);
    }
    let winning = rng.next_f64() * total;
    (
        pool.select(winning).copied().unwrap_or(first),
        total,
        winning,
    )
}

/// The probe tag of a structure.
fn structure_tag(structure: SelectStructure) -> &'static str {
    match structure {
        SelectStructure::List => "list",
        SelectStructure::Tree => "tree",
        SelectStructure::Alias => "alias",
    }
}
