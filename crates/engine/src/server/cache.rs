//! A small, dependency-free LRU cache with hit/miss/eviction counters.
//!
//! The daemon keeps three of these (compiled-plan, query-result and
//! search-result caches; see [`super::Server`]).  Capacities are small —
//! the fxi-style default is 128 entries — so the implementation favors
//! simplicity and auditability over asymptotics: entries live in a
//! `HashMap` stamped with a monotonic use counter, and eviction scans for
//! the least recently used entry (`O(capacity)` on insert-when-full,
//! `O(1)` otherwise).  True LRU semantics: both hits and inserts refresh
//! the stamp.
//!
//! The cache is not internally synchronized; the server wraps it in a
//! `Mutex`.  Counters are part of the cache (not the metrics sink) so a
//! cache and its statistics can never drift apart.

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used cache of bounded capacity, counting hits,
/// misses and evictions.
///
/// ```
/// use sxsi_engine::server::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// assert_eq!(cache.get(&"a"), Some(&1)); // refreshes "a"
/// cache.insert("c", 3);                  // evicts "b", the LRU entry
/// assert_eq!(cache.get(&"b"), None);
/// assert_eq!(cache.counters().evictions, 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, Entry<V>>,
    counters: CacheCounters,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

/// Monotonic counters describing a cache's lifetime behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to make room for an insert.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hit fraction in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<K: Hash + Eq, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.  A zero
    /// capacity disables the cache: every lookup misses, inserts are
    /// dropped (counted as neither hit nor eviction).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::with_capacity(capacity.min(1024)),
            counters: CacheCounters::default(),
        }
    }

    /// The maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hit/miss/eviction counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Looks `key` up, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.counters.hits += 1;
                Some(&entry.value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry when the cache is full and `key` is new.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.value = value;
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            // O(capacity) scan; capacities are on the order of hundreds.
            if let Some(lru) = self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.counters.evictions += 1;
            }
        }
        self.entries.insert(key, Entry { value, last_used: self.tick });
    }

    /// Removes every entry (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_accounting() {
        let mut cache: LruCache<&str, u32> = LruCache::new(4);
        assert_eq!(cache.get(&"x"), None);
        cache.insert("x", 7);
        assert_eq!(cache.get(&"x"), Some(&7));
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.evictions), (1, 1, 0));
        assert!((counters.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(3);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("c", 3);
        assert_eq!(cache.get(&"a"), Some(&1)); // refresh a: b is now LRU
        cache.insert("d", 4);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.get(&"d"), Some(&4));
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn replacing_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert("a", 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.counters().misses, 1);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn insert_refreshes_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 3); // refresh a: b is LRU
        cache.insert("c", 4);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&3));
    }
}
