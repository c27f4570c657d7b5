#![warn(missing_docs)]

//! Cross-query result cache for nested-query evaluation.
//!
//! Nested iteration re-runs the same inner block for every outer row, and
//! — without a cache — for every query that repeats it. This crate keeps
//! one kind of entry alive across queries: a [`BlockEntry`], an inner query
//! block's result keyed on a normalized block signature plus the
//! correlation-binding tuple (Guravannavar-style binding-keyed reuse), the
//! FROM table's generation, and the owning catalog's epoch.
//!
//! Eviction is byte-budgeted LRU. Invalidation is precise: every DML path
//! bumps the affected table's generation stamp (so stale entries can never
//! match) *and* proactively drops entries that read the table (so the
//! budget is returned immediately and the invalidation is observable in
//! [`CacheStats`]).

use nsql_types::{Relation, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default byte budget: generous enough for the paper-scale workloads,
/// small enough that runaway workloads converge (4 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 4 << 20;

/// Approximate retained bytes of one tuple (storage width plus per-tuple
/// bookkeeping). Shared with the nested-iteration per-binding memo so both
/// budgets are measured with the same yardstick.
pub fn approx_tuple_bytes(t: &Tuple) -> usize {
    t.storage_width() + 16
}

/// Approximate retained bytes of a relation's tuples.
pub fn approx_relation_bytes(rel: &Relation) -> usize {
    rel.tuples().iter().map(approx_tuple_bytes).sum::<usize>() + 64
}

/// Snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Entries dropped by DML/reopen invalidation.
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Estimated retained bytes.
    pub bytes: u64,
}

/// A cached inner-block result under one correlation binding.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Normalized block signature (aliases canonicalized, outer references
    /// replaced by ordinal placeholders).
    pub signature: String,
    /// The correlation-binding values, in placeholder order (empty for
    /// uncorrelated blocks).
    pub binding: Tuple,
    /// The single FROM table the block scans.
    pub table: String,
    /// That table's generation stamp at publication.
    pub generation: u64,
    /// Owning catalog epoch.
    pub epoch: u64,
    /// The block's result (post SELECT phase).
    pub rel: Relation,
}

impl BlockEntry {
    fn bytes(&self) -> usize {
        self.signature.len()
            + approx_tuple_bytes(&self.binding)
            + approx_relation_bytes(&self.rel)
            + 96
    }
}

struct Slot {
    bytes: usize,
    last_used: u64,
    entry: Arc<BlockEntry>,
}

struct Inner {
    slots: Vec<Slot>,
    tick: u64,
    bytes: usize,
}

/// The shared cross-query cache. Cheap to share (`Arc`), internally
/// synchronized; all counters are monotonic.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl QueryCache {
    /// A cache with the given byte budget.
    pub fn new(budget: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner { slots: Vec::new(), tick: 0, bytes: 0 }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// A cache with the default budget.
    pub fn with_defaults() -> QueryCache {
        QueryCache::new(DEFAULT_CACHE_BUDGET)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up an inner-block result. Bumps the hit/miss counters.
    pub fn find_block(
        &self,
        signature: &str,
        binding: &Tuple,
        table: &str,
        generation: u64,
        epoch: u64,
    ) -> Option<Arc<BlockEntry>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        for slot in inner.slots.iter_mut() {
            let e = &slot.entry;
            if e.epoch == epoch
                && e.generation == generation
                && e.table == table
                && e.signature == signature
                && &e.binding == binding
            {
                slot.last_used = tick;
                let hit = Arc::clone(e);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(hit);
            }
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publish an inner-block result, evicting LRU-first down to the byte
    /// budget. An entry larger than the whole budget is not admitted: it
    /// would evict every other entry and then itself.
    pub fn publish_block(&self, entry: BlockEntry) {
        let bytes = entry.bytes();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        inner.bytes += bytes;
        inner.slots.push(Slot { bytes, last_used, entry: Arc::new(entry) });
        let mut evicted = 0u64;
        while inner.bytes > self.budget {
            let lru = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("bytes > 0 implies a live slot");
            let gone = inner.slots.swap_remove(lru);
            inner.bytes -= gone.bytes;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drop every entry whose FROM table is `table`. Called by the catalog
    /// on every DML path, so budget is returned immediately.
    pub fn invalidate_table(&self, table: &str) {
        let table = table.to_ascii_uppercase();
        let mut inner = self.lock();
        let before = inner.slots.len();
        inner.slots.retain(|s| s.entry.table != table);
        inner.bytes = inner.slots.iter().map(|s| s.bytes).sum();
        let dropped = (before - inner.slots.len()) as u64;
        drop(inner);
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: inner.slots.len() as u64,
            bytes: inner.bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_types::{Column, ColumnType, Schema, Value};

    fn int(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    /// A block entry for `sig` under binding `b` over `table`, holding
    /// `rows` one-column rows.
    fn block(sig: &str, b: i64, table: &str, generation: u64, rows: i64) -> BlockEntry {
        let schema = Schema::new(vec![Column::new("A", ColumnType::Int)]);
        BlockEntry {
            signature: sig.into(),
            binding: int(b),
            table: table.into(),
            generation,
            epoch: 0,
            rel: Relation::new(schema, (0..rows).map(int).collect()).unwrap(),
        }
    }

    #[test]
    fn block_entries_key_on_binding_and_generation() {
        let c = QueryCache::with_defaults();
        c.publish_block(block("sig", 3, "SUPPLY", 1, 0));
        assert!(c.find_block("sig", &int(3), "SUPPLY", 1, 0).is_some());
        assert!(c.find_block("sig", &int(4), "SUPPLY", 1, 0).is_none());
        assert!(c.find_block("other", &int(3), "SUPPLY", 1, 0).is_none());
        assert!(c.find_block("sig", &int(3), "SUPPLY", 2, 0).is_none(), "stale generation");
        assert!(c.find_block("sig", &int(3), "SUPPLY", 1, 1).is_none(), "other epoch");
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let one = block("sig", 1, "SUPPLY", 1, 4).bytes();
        let c = QueryCache::new(2 * one + one / 2);
        c.publish_block(block("sig", 1, "SUPPLY", 1, 4));
        c.publish_block(block("sig", 2, "SUPPLY", 1, 4));
        // Touch binding 1 so binding 2 is the LRU victim when 3 overflows.
        assert!(c.find_block("sig", &int(1), "SUPPLY", 1, 0).is_some());
        c.publish_block(block("sig", 3, "SUPPLY", 1, 4));
        let stats = c.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2), "{stats:?}");
        assert!(stats.bytes as usize <= c.budget(), "budget respected: {stats:?}");
        assert!(c.find_block("sig", &int(2), "SUPPLY", 1, 0).is_none(), "LRU was the victim");
        assert!(c.find_block("sig", &int(1), "SUPPLY", 1, 0).is_some());
        assert!(c.find_block("sig", &int(3), "SUPPLY", 1, 0).is_some());
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let c = QueryCache::new(4096);
        c.publish_block(block("sig", 1, "SUPPLY", 1, 1));
        let big = block("sig", 2, "SUPPLY", 1, 1000);
        assert!(big.bytes() > c.budget());
        c.publish_block(big);
        let stats = c.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0), "{stats:?}");
        assert!(c.find_block("sig", &int(1), "SUPPLY", 1, 0).is_some(), "small entry survives");
        assert!(c.find_block("sig", &int(2), "SUPPLY", 1, 0).is_none());
    }

    #[test]
    fn invalidation_drops_matching_tables_only() {
        let c = QueryCache::with_defaults();
        c.publish_block(block("sig", 1, "SUPPLY", 1, 2));
        c.publish_block(block("sig", 2, "SUPPLY", 1, 2));
        c.publish_block(block("sig", 1, "PARTS", 1, 2));
        c.invalidate_table("supply");
        let stats = c.stats();
        assert_eq!((stats.invalidations, stats.entries), (2, 1), "{stats:?}");
        assert_eq!(stats.bytes as usize, block("sig", 1, "PARTS", 1, 2).bytes());
        assert!(c.find_block("sig", &int(1), "PARTS", 1, 0).is_some());
        assert!(c.find_block("sig", &int(1), "SUPPLY", 1, 0).is_none());
    }
}
