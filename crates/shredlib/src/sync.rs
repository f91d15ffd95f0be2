//! Shred synchronization objects.
//!
//! ShredLib implements the POSIX-style synchronization suite over shared
//! memory (Section 4.2).  The model keeps the two objects the modelled
//! workloads execute: mutexes and barriers.  Section 4.2's counting
//! semaphores, condition variables and events are not modelled, because no
//! workload, scenario or competitor program waits on one; the
//! [`compat`](crate::compat) tables still map the legacy calls to them.
//!
//! The objects here are *descriptions of waiting relationships*, not
//! host-level locks — blocking a shred means parking it until another
//! shred's operation readies it again, at which point the gang scheduler
//! puts it back on the work queue.

use misp_types::{ArenaMap, LockId, MispError, Result, ShredId};
use std::collections::VecDeque;

/// The outcome of a synchronization operation.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// `true` if the calling shred must block.
    pub block: bool,
    /// Shreds that became ready as a result of the operation.
    pub wake: Vec<ShredId>,
}

impl SyncOutcome {
    fn proceed() -> Self {
        SyncOutcome::default()
    }

    fn blocked() -> Self {
        SyncOutcome {
            block: true,
            wake: Vec::new(),
        }
    }

    fn waking(wake: Vec<ShredId>) -> Self {
        SyncOutcome { block: false, wake }
    }
}

/// One synchronization object.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SyncObject {
    /// A mutual-exclusion lock.
    Mutex {
        /// The shred currently holding the mutex.
        holder: Option<ShredId>,
        /// Shreds waiting to acquire it, in arrival order.
        waiters: VecDeque<ShredId>,
    },
    /// A barrier for a fixed number of participants.
    Barrier {
        /// Number of participants required to release the barrier.
        parties: usize,
        /// Shreds that have arrived and are waiting.
        arrived: Vec<ShredId>,
    },
}

/// The table of all synchronization objects of one process.
///
/// Lock ids are small dense integers allocated by the program, so the table
/// is an [`ArenaMap`]: lookups on the runtime-op path are an index, not a
/// hash.
#[derive(Debug, Default, Clone)]
pub struct SyncTable {
    objects: ArenaMap<LockId, SyncObject>,
}

impl SyncTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        SyncTable::default()
    }

    /// Pre-registers a barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn create_barrier(&mut self, id: LockId, parties: usize) {
        assert!(parties > 0, "a barrier needs at least one participant");
        self.objects.insert(
            id,
            SyncObject::Barrier {
                parties,
                arrived: Vec::new(),
            },
        );
    }

    /// Acquires mutex `id` for `shred`.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::SynchronizationMisuse`] if `id` names an object of
    /// a different type or the shred already holds the mutex.
    pub fn mutex_lock(&mut self, id: LockId, shred: ShredId) -> Result<SyncOutcome> {
        let entry = self.objects.get_or_insert_with(id, || SyncObject::Mutex {
            holder: None,
            waiters: VecDeque::new(),
        });
        match entry {
            SyncObject::Mutex { holder, waiters } => match holder {
                None => {
                    *holder = Some(shred);
                    Ok(SyncOutcome::proceed())
                }
                Some(h) if *h == shred => Err(MispError::SynchronizationMisuse(format!(
                    "shred {shred} attempted to re-acquire mutex {id} it already holds"
                ))),
                Some(_) => {
                    waiters.push_back(shred);
                    Ok(SyncOutcome::blocked())
                }
            },
            SyncObject::Barrier { .. } => Err(MispError::SynchronizationMisuse(format!(
                "{id} is not a mutex"
            ))),
        }
    }

    /// Releases mutex `id`, which must be held by `shred`.  If another shred
    /// is waiting, ownership transfers to it and it is woken.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::SynchronizationMisuse`] if the mutex is not held
    /// by `shred` or `id` is not a mutex.
    pub fn mutex_unlock(&mut self, id: LockId, shred: ShredId) -> Result<SyncOutcome> {
        match self.objects.get_mut(id) {
            Some(SyncObject::Mutex { holder, waiters }) => {
                if *holder != Some(shred) {
                    return Err(MispError::SynchronizationMisuse(format!(
                        "shred {shred} released mutex {id} it does not hold"
                    )));
                }
                if let Some(next) = waiters.pop_front() {
                    *holder = Some(next);
                    Ok(SyncOutcome::waking(vec![next]))
                } else {
                    *holder = None;
                    Ok(SyncOutcome::proceed())
                }
            }
            // A mutex comes into being at its first lock, so an id nobody
            // ever locked is a mutex no shred holds.
            None => Err(MispError::SynchronizationMisuse(format!(
                "shred {shred} released mutex {id} it does not hold"
            ))),
            Some(SyncObject::Barrier { .. }) => Err(MispError::SynchronizationMisuse(format!(
                "{id} is not a mutex"
            ))),
        }
    }

    /// Arrives at barrier `id`.  The last arriving shred releases everyone.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::SynchronizationMisuse`] if the barrier was not
    /// created with [`SyncTable::create_barrier`] or `id` is not a barrier.
    pub fn barrier_wait(&mut self, id: LockId, shred: ShredId) -> Result<SyncOutcome> {
        match self.objects.get_mut(id) {
            Some(SyncObject::Barrier { parties, arrived }) => {
                if arrived.len() + 1 == *parties {
                    Ok(SyncOutcome::waking(std::mem::take(arrived)))
                } else {
                    arrived.push(shred);
                    Ok(SyncOutcome::blocked())
                }
            }
            Some(SyncObject::Mutex { .. }) => Err(MispError::SynchronizationMisuse(format!(
                "{id} is not a barrier"
            ))),
            None => Err(MispError::SynchronizationMisuse(format!(
                "barrier {id} was never created"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LockId {
        LockId::new(i)
    }
    fn s(i: u32) -> ShredId {
        ShredId::new(i)
    }

    #[test]
    fn uncontended_mutex_proceeds() {
        let mut t = SyncTable::new();
        let out = t.mutex_lock(l(0), s(0)).unwrap();
        assert!(!out.block);
        let out = t.mutex_unlock(l(0), s(0)).unwrap();
        assert!(out.wake.is_empty());
    }

    #[test]
    fn contended_mutex_blocks_and_transfers_ownership() {
        let mut t = SyncTable::new();
        assert!(!t.mutex_lock(l(0), s(0)).unwrap().block);
        assert!(t.mutex_lock(l(0), s(1)).unwrap().block);
        assert!(t.mutex_lock(l(0), s(2)).unwrap().block);
        // Unlock hands the mutex to the first waiter.
        let out = t.mutex_unlock(l(0), s(0)).unwrap();
        assert_eq!(out.wake, vec![s(1)]);
        // s1 now holds it; s1 unlocking wakes s2.
        let out = t.mutex_unlock(l(0), s(1)).unwrap();
        assert_eq!(out.wake, vec![s(2)]);
    }

    #[test]
    fn mutex_misuse_is_detected() {
        let mut t = SyncTable::new();
        t.mutex_lock(l(0), s(0)).unwrap();
        assert!(t.mutex_lock(l(0), s(0)).is_err(), "recursive lock");
        assert!(t.mutex_unlock(l(0), s(1)).is_err(), "unlock by non-holder");
        t.create_barrier(l(1), 2);
        assert!(t.mutex_lock(l(1), s(0)).is_err(), "type confusion");
        assert!(t.barrier_wait(l(0), s(0)).is_err(), "type confusion");
    }

    /// Unlocking an id that was never locked is an unlock of a mutex the
    /// shred does not hold, not a type confusion.
    #[test]
    fn unlocking_a_never_locked_mutex_names_the_missing_hold() {
        let mut t = SyncTable::new();
        let err = t.mutex_unlock(l(3), s(1)).unwrap_err();
        assert_eq!(
            err,
            MispError::SynchronizationMisuse(format!(
                "shred {} released mutex {} it does not hold",
                s(1),
                l(3)
            ))
        );
        t.create_barrier(l(4), 2);
        let err = t.mutex_unlock(l(4), s(1)).unwrap_err();
        assert_eq!(
            err,
            MispError::SynchronizationMisuse(format!("{} is not a mutex", l(4)))
        );
    }

    #[test]
    fn barrier_releases_when_full() {
        let mut t = SyncTable::new();
        t.create_barrier(l(0), 3);
        assert!(t.barrier_wait(l(0), s(0)).unwrap().block);
        assert!(t.barrier_wait(l(0), s(1)).unwrap().block);
        let out = t.barrier_wait(l(0), s(2)).unwrap();
        assert!(!out.block, "last arrival proceeds");
        assert_eq!(out.wake, vec![s(0), s(1)]);
        // The barrier resets for the next generation.
        assert!(t.barrier_wait(l(0), s(0)).unwrap().block);
    }

    #[test]
    fn barrier_must_be_created() {
        let mut t = SyncTable::new();
        assert!(t.barrier_wait(l(5), s(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_party_barrier_panics() {
        let mut t = SyncTable::new();
        t.create_barrier(l(0), 0);
    }
}
