//! Shred-local storage.
//!
//! The paper highlights that ShredLib supports Thread Local Storage for shreds
//! without recompilation (Section 4.2).  In the simulator, shred-local storage
//! is a small key/value service the runtime exposes so ported applications can
//! keep per-shred state; the workload models use it to verify that the
//! thread-to-shred mapping preserves TLS semantics.

use misp_types::{FxHashMap, ShredId};

/// A shred-local storage arena: per-shred values indexed by small integer
/// keys, mirroring `TlsAlloc`/`TlsSetValue` and `pthread_key_create`.
///
/// # Examples
///
/// ```
/// use shredlib::ShredLocalStorage;
/// use misp_types::ShredId;
///
/// let mut tls = ShredLocalStorage::new();
/// let key = tls.allocate_key();
/// tls.set(ShredId::new(0), key, 42);
/// tls.set(ShredId::new(1), key, 7);
/// assert_eq!(tls.get(ShredId::new(0), key), Some(42));
/// assert_eq!(tls.get(ShredId::new(1), key), Some(7));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ShredLocalStorage {
    next_key: u32,
    freed: Vec<u32>,
    values: FxHashMap<(ShredId, u32), u64>,
}

impl ShredLocalStorage {
    /// Creates an empty storage arena.
    #[must_use]
    pub fn new() -> Self {
        ShredLocalStorage::default()
    }

    /// Allocates a new key, reusing freed keys when available.
    pub fn allocate_key(&mut self) -> u32 {
        if let Some(k) = self.freed.pop() {
            k
        } else {
            let k = self.next_key;
            self.next_key += 1;
            k
        }
    }

    /// Frees a key, removing every shred's value stored under it.
    pub fn free_key(&mut self, key: u32) {
        #[allow(
            clippy::disallowed_methods,
            reason = "pure key filter; visit order cannot be observed"
        )]
        self.values.retain(|(_, k), _| *k != key);
        self.freed.push(key);
    }

    /// Stores `value` for `shred` under `key`.
    pub fn set(&mut self, shred: ShredId, key: u32, value: u64) {
        self.values.insert((shred, key), value);
    }

    /// Reads the value `shred` stored under `key`.
    #[must_use]
    pub fn get(&self, shred: ShredId, key: u32) -> Option<u64> {
        self.values.get(&(shred, key)).copied()
    }

    /// Removes all values belonging to `shred` (called when a shred exits).
    pub fn clear_shred(&mut self, shred: ShredId) {
        #[allow(
            clippy::disallowed_methods,
            reason = "pure shred filter; visit order cannot be observed"
        )]
        self.values.retain(|(s, _), _| *s != shred);
    }

    /// Number of live (shred, key) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no values are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shred_isolation() {
        let mut tls = ShredLocalStorage::new();
        let key = tls.allocate_key();
        tls.set(ShredId::new(0), key, 1);
        tls.set(ShredId::new(1), key, 2);
        assert_eq!(tls.get(ShredId::new(0), key), Some(1));
        assert_eq!(tls.get(ShredId::new(1), key), Some(2));
        assert_eq!(tls.get(ShredId::new(2), key), None);
    }

    #[test]
    fn key_allocation_and_reuse() {
        let mut tls = ShredLocalStorage::new();
        let a = tls.allocate_key();
        let b = tls.allocate_key();
        assert_ne!(a, b);
        tls.set(ShredId::new(0), a, 10);
        tls.free_key(a);
        assert_eq!(tls.get(ShredId::new(0), a), None);
        let c = tls.allocate_key();
        assert_eq!(c, a, "freed keys are reused");
    }

    #[test]
    fn clear_shred_removes_only_that_shred() {
        let mut tls = ShredLocalStorage::new();
        let key = tls.allocate_key();
        tls.set(ShredId::new(0), key, 1);
        tls.set(ShredId::new(1), key, 2);
        tls.clear_shred(ShredId::new(0));
        assert!(tls.get(ShredId::new(0), key).is_none());
        assert_eq!(tls.get(ShredId::new(1), key), Some(2));
        assert_eq!(tls.len(), 1);
        assert!(!tls.is_empty());
    }
}
