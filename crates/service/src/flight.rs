//! Single-flight admission: concurrent identical cell requests
//! coalesce onto one computation, and completed cells stay resident as
//! the service's in-memory tier.
//!
//! The table maps cell fingerprints to flight state. `claim` is
//! deliberately **non-blocking**: a request thread first claims every
//! cell it needs (becoming leader for some, follower for others),
//! computes and publishes all the cells it leads, and only *then*
//! waits on the cells other threads lead. Claiming and waiting never
//! interleave per-cell, so two requests can never hold a cell the
//! other is waiting on — the classic A↔B coalescing deadlock cannot
//! form.
//!
//! A leader that errors out (or is dropped unwinding) abandons its
//! claims; waiters observe [`FlightState::Failed`], re-claim, and one
//! of them becomes the new leader.
//!
//! The table is generic over the published value. The service
//! publishes each cell's *folded* result, so a resident cell is
//! answered with no filesystem access, seal check, decode or fold.
//! At most `mem_max` published values stay resident; past that the
//! least-recently-served one is evicted (a [`SingleFlight::peek`] hit
//! or a [`Claim::Ready`] counts as serving), so a stream of one-off
//! cells cannot push a hot working set out.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// State of one cell fingerprint in the admission table.
#[derive(Debug)]
enum FlightState<V> {
    /// A leader thread is computing this cell.
    Running,
    /// The published value, and its recency stamp (a key of
    /// `Table::lru`).
    Done(Arc<V>, u64),
    /// The last leader abandoned the cell; a waiter should re-claim.
    Failed,
}

/// Outcome of a non-blocking [`SingleFlight::claim`].
#[derive(Debug)]
pub enum Claim<V> {
    /// Caller owns the computation for this cell and must
    /// [`SingleFlight::publish`] or [`SingleFlight::abandon`] it.
    Leader,
    /// Another thread is computing; call [`SingleFlight::wait`] after
    /// publishing everything the caller leads.
    Pending,
    /// The cell is already in memory.
    Ready(Arc<V>),
}

/// The admission table. One per service.
pub struct SingleFlight<V> {
    state: Mutex<Table<V>>,
    cv: Condvar,
}

struct Table<V> {
    entries: BTreeMap<u128, FlightState<V>>,
    /// Done entries by recency stamp, least recently served first.
    lru: BTreeMap<u64, u128>,
    /// Next recency stamp.
    tick: u64,
    /// Maximum Done entries retained in memory.
    mem_max: usize,
}

impl<V> SingleFlight<V> {
    /// Creates a table retaining at most `mem_max` completed cells in
    /// memory (0 disables in-memory retention entirely; coalescing
    /// still works because Running entries are exempt from eviction).
    pub fn new(mem_max: usize) -> Self {
        SingleFlight {
            state: Mutex::new(Table {
                entries: BTreeMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                mem_max,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table<V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A non-claiming peek: `Some` only when the cell is already Done
    /// in memory, which also marks it most recently served.
    pub fn peek(&self, fp: u128) -> Option<Arc<V>> {
        self.lock().serve(fp)
    }

    /// Claims `fp` without blocking. `Failed` entries are taken over:
    /// the caller becomes the new leader.
    pub fn claim(&self, fp: u128) -> Claim<V> {
        let mut table = self.lock();
        if let Some(value) = table.serve(fp) {
            return Claim::Ready(value);
        }
        match table.entries.get(&fp) {
            Some(FlightState::Running) => Claim::Pending,
            _ => {
                table.entries.insert(fp, FlightState::Running);
                Claim::Leader
            }
        }
    }

    /// Publishes the value for a cell the caller leads (or recovered
    /// from cache/journal) and wakes all waiters.
    pub fn publish(&self, fp: u128, value: Arc<V>) {
        let mut table = self.lock();
        let tick = table.tick;
        table.tick += 1;
        let previous = table.entries.insert(fp, FlightState::Done(value, tick));
        if let Some(FlightState::Done(_, old)) = previous {
            table.lru.remove(&old);
        }
        table.lru.insert(tick, fp);
        table.evict();
        drop(table);
        self.cv.notify_all();
    }

    /// Marks a led cell failed and wakes waiters so one can take over.
    pub fn abandon(&self, fp: u128) {
        let mut table = self.lock();
        if matches!(table.entries.get(&fp), Some(FlightState::Running)) {
            table.entries.insert(fp, FlightState::Failed);
        }
        drop(table);
        self.cv.notify_all();
    }

    /// Blocks until `fp` resolves. Returns the value on `Done`, or
    /// `None` on `Failed` / entry-evicted — the caller should re-claim
    /// (possibly becoming the new leader).
    pub fn wait(&self, fp: u128) -> Option<Arc<V>> {
        let mut table = self.lock();
        loop {
            match table.entries.get(&fp) {
                Some(FlightState::Done(value, _)) => return Some(Arc::clone(value)),
                Some(FlightState::Failed) | None => return None,
                Some(FlightState::Running) => {
                    table = self
                        .cv
                        .wait(table)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl<V> Table<V> {
    /// The Done value for `fp`, re-stamped as most recently served.
    fn serve(&mut self, fp: u128) -> Option<Arc<V>> {
        let Some(FlightState::Done(value, stamp)) = self.entries.get_mut(&fp) else {
            return None;
        };
        self.lru.remove(stamp);
        *stamp = self.tick;
        self.lru.insert(self.tick, fp);
        self.tick += 1;
        Some(Arc::clone(value))
    }

    fn evict(&mut self) {
        while self.lru.len() > self.mem_max {
            if let Some((_, stale)) = self.lru.pop_first() {
                self.entries.remove(&stale);
            }
        }
    }
}

/// RAII guard: abandons every claimed-but-unpublished fingerprint if
/// the leader unwinds or errors between claim and publish.
pub struct LeaderGuard<'a, V> {
    flight: &'a SingleFlight<V>,
    pending: Vec<u128>,
}

impl<'a, V> LeaderGuard<'a, V> {
    /// Creates a guard over the fingerprints the caller leads.
    pub fn new(flight: &'a SingleFlight<V>, pending: Vec<u128>) -> Self {
        LeaderGuard { flight, pending }
    }

    /// Records that `fp` was published; it will not be abandoned.
    pub fn published(&mut self, fp: u128) {
        self.pending.retain(|p| *p != fp);
    }
}

impl<V> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        for fp in self.pending.drain(..) {
            self.flight.abandon(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn coalesces_to_one_leader() {
        let flight = Arc::new(SingleFlight::new(16));
        let computations = Arc::new(AtomicUsize::new(0));
        let fp = 42u128;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let flight = Arc::clone(&flight);
            let computations = Arc::clone(&computations);
            handles.push(std::thread::spawn(move || loop {
                match flight.claim(fp) {
                    Claim::Leader => {
                        computations.fetch_add(1, Ordering::SeqCst);
                        flight.publish(fp, Arc::new(vec![7, 7, 7]));
                        return vec![7, 7, 7];
                    }
                    Claim::Ready(bytes) => return bytes.as_ref().clone(),
                    Claim::Pending => {
                        if let Some(bytes) = flight.wait(fp) {
                            return bytes.as_ref().clone();
                        }
                        // Failed: loop and re-claim.
                    }
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("thread"), vec![7, 7, 7]);
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn abandoned_leader_hands_over() {
        let flight = SingleFlight::new(16);
        let fp = 9u128;
        assert!(matches!(flight.claim(fp), Claim::Leader));
        {
            let _guard = LeaderGuard::new(&flight, vec![fp]);
            // Guard dropped without publish → abandon.
        }
        // A new claimant takes over leadership.
        assert!(matches!(flight.claim(fp), Claim::Leader));
        flight.publish(fp, Arc::new(vec![1]));
        assert!(matches!(flight.claim(fp), Claim::Ready(_)));
    }

    #[test]
    fn done_entries_evict_oldest_first() {
        let flight = SingleFlight::new(2);
        for fp in [1u128, 2, 3] {
            assert!(matches!(flight.claim(fp), Claim::Leader));
            flight.publish(fp, Arc::new(vec![fp as u8]));
        }
        // 1 evicted; 2 and 3 retained.
        assert!(matches!(flight.claim(1), Claim::Leader));
        flight.abandon(1);
        assert!(matches!(flight.claim(2), Claim::Ready(_)));
        assert!(matches!(flight.claim(3), Claim::Ready(_)));
    }

    #[test]
    fn served_entries_outlive_newer_unserved_ones() {
        let flight = SingleFlight::new(2);
        for fp in [1u128, 2] {
            assert!(matches!(flight.claim(fp), Claim::Leader));
            flight.publish(fp, Arc::new(vec![fp as u8]));
        }
        // Serving 1 makes 2 the least recently served...
        assert!(flight.peek(1).is_some());
        assert!(matches!(flight.claim(3), Claim::Leader));
        flight.publish(3, Arc::new(vec![3]));
        // ...so publishing 3 evicts 2, not the older-published 1.
        assert!(flight.peek(2).is_none());
        assert!(flight.peek(1).is_some());
        // A claim hit counts as serving too: 3 now outlives 1.
        assert!(matches!(flight.claim(3), Claim::Ready(_)));
        assert!(matches!(flight.claim(4), Claim::Leader));
        flight.publish(4, Arc::new(vec![4]));
        assert!(flight.peek(1).is_none());
        assert!(flight.peek(3).is_some());
    }
}
