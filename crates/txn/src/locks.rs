//! A per-site lock manager with strict two-phase locking and wait-die
//! deadlock avoidance.
//!
//! Wait-die orders transactions by id (smaller id = older): an older
//! transaction may wait for a younger lock holder, but a younger requester
//! conflicting with an older holder *dies* immediately. Deadlock is
//! impossible (waits only go old → young), and a died transaction's site
//! votes no in the commit protocol — the paper's organic source of
//! unilateral aborts.
//!
//! This manager resolves requests eagerly: because the scheduler takes a
//! transaction's locks synchronously at admission, "waiting" surfaces as
//! [`LockOutcome::Wait`] and the caller retries after the conflicting
//! transaction finishes.

use std::collections::BTreeMap;

/// Lock modes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Result of a lock request.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// Lock granted.
    Granted,
    /// The requester is older than every conflicting holder: it may wait.
    Wait,
    /// The requester is younger than some conflicting holder: wait-die
    /// kills it; its site votes no.
    Die,
}

#[derive(Debug, Default, Clone)]
struct Entry {
    /// `(txn, mode)` holders; multiple holders only when all shared.
    holders: Vec<(u64, LockMode)>,
}

/// One site's lock table.
#[derive(Debug, Default, Clone)]
pub struct LockManager {
    table: BTreeMap<Vec<u8>, Entry>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `mode` on `key` for `txn`.
    pub fn request(&mut self, txn: u64, key: &[u8], mode: LockMode) -> LockOutcome {
        let entry = self.table.entry(key.to_vec()).or_default();
        // Re-entrant / upgrade handling.
        if let Some(pos) = entry.holders.iter().position(|&(t, _)| t == txn) {
            let held = entry.holders[pos].1;
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return LockOutcome::Granted;
            }
            // Upgrade shared -> exclusive: conflicts with other holders.
            let others: Vec<u64> =
                entry.holders.iter().filter(|&&(t, _)| t != txn).map(|&(t, _)| t).collect();
            if others.is_empty() {
                entry.holders[pos].1 = LockMode::Exclusive;
                return LockOutcome::Granted;
            }
            return wait_die(txn, &others);
        }

        let conflicting: Vec<u64> = entry
            .holders
            .iter()
            .filter(|&&(_, held)| held == LockMode::Exclusive || mode == LockMode::Exclusive)
            .map(|&(t, _)| t)
            .collect();
        if conflicting.is_empty() {
            entry.holders.push((txn, mode));
            return LockOutcome::Granted;
        }
        wait_die(txn, &conflicting)
    }

    /// Release every lock held by `txn` (strict 2PL: at commit/abort).
    pub fn release_all(&mut self, txn: u64) {
        self.table.retain(|_, entry| {
            entry.holders.retain(|&(t, _)| t != txn);
            !entry.holders.is_empty()
        });
    }

    /// Locks currently held by `txn`.
    pub fn held_by(&self, txn: u64) -> usize {
        self.table.values().filter(|e| e.holders.iter().any(|&(t, _)| t == txn)).count()
    }

    /// Total number of locked keys.
    pub fn locked_keys(&self) -> usize {
        self.table.len()
    }
}

fn wait_die(requester: u64, conflicting: &[u64]) -> LockOutcome {
    // Older (smaller id) requester waits; younger dies.
    if conflicting.iter().all(|&holder| requester < holder) {
        LockOutcome::Wait
    } else {
        LockOutcome::Die
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(2, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.locked_keys(), 1);
    }

    #[test]
    fn exclusive_conflicts_wait_die() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(2, b"k", LockMode::Exclusive), LockOutcome::Granted);
        // Older requester (1) waits.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Wait);
        // Younger requester (3) dies.
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Die);
        // Shared request against exclusive also conflicts.
        assert_eq!(lm.request(3, b"k", LockMode::Shared), LockOutcome::Die);
    }

    #[test]
    fn release_unblocks() {
        let mut lm = LockManager::new();
        lm.request(2, b"k", LockMode::Exclusive);
        lm.release_all(2);
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.locked_keys(), 1);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        // Sole holder upgrades in place.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Granted);
        // Exclusive holder asking for shared is a no-op.
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
    }

    #[test]
    fn upgrade_with_other_sharers_is_wait_die() {
        let mut lm = LockManager::new();
        lm.request(1, b"k", LockMode::Shared);
        lm.request(3, b"k", LockMode::Shared);
        // 1 is older than 3: it waits for the upgrade.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Wait);
        // 3 is younger than 1: it dies trying to upgrade.
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Die);
    }

    #[test]
    fn held_by_counts() {
        let mut lm = LockManager::new();
        lm.request(1, b"a", LockMode::Shared);
        lm.request(1, b"b", LockMode::Exclusive);
        lm.request(2, b"c", LockMode::Exclusive);
        assert_eq!(lm.held_by(1), 2);
        assert_eq!(lm.held_by(2), 1);
        lm.release_all(1);
        assert_eq!(lm.held_by(1), 0);
        assert_eq!(lm.locked_keys(), 1);
    }
}
