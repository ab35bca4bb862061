//! Per-shard allocation on top of the global [`BlockStore`].
//!
//! Each shard owns a private coalescing [`FreeLists`] pool.  A mutator
//! pinned to shard *S* (and a sweep claimant — collector worker or, in
//! the lazy back-end, another mutator — flushing a batch whose runs land
//! in *S*-owned blocks) synchronizes only on *S*'s pool lock; the store
//! lock is taken only to lease or return whole blocks.
//!
//! ## Ownership invariants (DESIGN.md §4.5)
//!
//! 1. Every granule sitting in shard *S*'s pool lies in a block whose
//!    owner-map entry is *S* — chunks enter the pool either as carve
//!    remainders of a lease to *S* or as frees routed here *by* the
//!    owner map, and pool coalescing therefore never merges across
//!    differently-owned blocks.
//! 2. A block is returned to the store only when all of its granules
//!    are in the owning shard's pool at once.  A free in flight targets
//!    allocated granules, which by (1) cannot be in the pool — so no
//!    free can race an ownership change, and a routed free always lands
//!    in a stable owner.
//! 3. Chunks handed out by [`ShardedAlloc::alloc`] may come from a
//!    sibling shard's pool (stealing on a tight heap).  The granules
//!    keep their block owner; when freed they return to the *owner's*
//!    pool, not the allocating shard's — membership and ownership stay
//!    aligned.

use crate::block::{BlockStore, BLOCK_GRANULES};
use crate::freelist::{Chunk, FreeLists};

/// A coalesced free run is returned to the store only when its
/// whole-block-aligned middle is at least this many granules (4 blocks),
/// so small frees stay in the shard as working memory instead of
/// bouncing lease/return traffic through the store lock.
const EXTRACT_MIN_GRANULES: u32 = (4 * BLOCK_GRANULES) as u32;

/// The sharded allocation back-end: N private pools over one block store.
#[derive(Debug)]
pub struct ShardedAlloc {
    shards: Vec<FreeLists>,
    store: BlockStore,
}

impl ShardedAlloc {
    /// A sharded allocator with `shard_count` shards over `max_granules`
    /// of arena.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(shard_count: usize, max_granules: usize) -> ShardedAlloc {
        assert!(shard_count > 0, "at least one shard");
        ShardedAlloc {
            shards: (0..shard_count).map(|_| FreeLists::new()).collect(),
            store: BlockStore::new(max_granules),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Allocates at least `min` granules (preferring `preferred`) on
    /// behalf of `shard`: the home pool first, then a whole-block lease
    /// from the store, then stealing from sibling pools.  Granule 0 is
    /// reserved for null and never handed out.
    pub fn alloc(
        &self,
        shard: usize,
        min: u32,
        preferred: u32,
        committed_granules: usize,
    ) -> Option<Chunk> {
        self.shards[shard]
            .alloc(min, preferred)
            .or_else(|| self.lease_or_steal(shard, min, preferred, committed_granules))
    }

    /// A LAB's visit (DESIGN.md §4.13): up to `budget` granules of the
    /// home pool in one [`FreeLists::exchange`], and when that pool has
    /// nothing of `min` granules, one chunk the way [`alloc`](Self::alloc)
    /// would go on to find it.  (What the LAB gives back has its owners
    /// to go to: the caller routes it through
    /// [`free_batch`](Self::free_batch) first.)
    pub fn exchange(
        &self,
        shard: usize,
        min: u32,
        budget: u32,
        committed_granules: usize,
        out: &mut Vec<Chunk>,
    ) {
        self.shards[shard].exchange(&[], min, budget, out);
        if out.is_empty() {
            out.extend(self.lease_or_steal(shard, min, budget, committed_granules));
        }
    }

    /// Past the home pool: a whole-block lease, then sibling pools.
    fn lease_or_steal(
        &self,
        shard: usize,
        min: u32,
        preferred: u32,
        committed_granules: usize,
    ) -> Option<Chunk> {
        let home = &self.shards[shard];
        // Lease whole blocks.  A lease starting at block 0 loses granule
        // 0 to the null reservation; if the trimmed run is then too
        // short, park it in the home pool and lease again (block 0 is
        // leased at most once ever, so this loops at most twice).
        let min_blocks = (min as usize).div_ceil(BLOCK_GRANULES);
        let pref_blocks = (preferred as usize)
            .div_ceil(BLOCK_GRANULES)
            .max(min_blocks);
        let committed_blocks = committed_granules / BLOCK_GRANULES;
        for _ in 0..2 {
            let Some(lease) = self
                .store
                .lease(shard, min_blocks, pref_blocks, committed_blocks)
            else {
                break;
            };
            let (start, len) = if lease.start == 0 {
                (1, lease.len - 1)
            } else {
                (lease.start, lease.len)
            };
            if len < min {
                home.insert(Chunk::new(start, len));
                continue;
            }
            let take = preferred.min(len).max(min);
            if len > take {
                home.insert(Chunk::new(start + take, len - take));
            }
            return Some(Chunk::new(start, take));
        }
        // Tight heap: scavenge sibling pools.
        let n = self.shards.len();
        for i in 1..n {
            if let Some(c) = self.shards[(shard + i) % n].alloc(min, preferred) {
                return Some(c);
            }
        }
        None
    }

    /// Returns one chunk to its owning shard(s).
    pub fn free(&self, chunk: Chunk) {
        self.free_batch(std::slice::from_ref(&chunk));
    }

    /// Returns many chunks, grouped so each owning shard's lock is taken
    /// once.  Chunks spanning differently-owned blocks (sweep runs that
    /// coalesced across a lease boundary) are split at the boundary.
    /// Runs that coalesce into whole blocks go back to the store.
    pub fn free_batch(&self, chunks: &[Chunk]) {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<Chunk>> = vec![Vec::new(); n];
        for &c in chunks {
            self.route(c, &mut buckets);
        }
        let mut extracted: Vec<Chunk> = Vec::new();
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.shards[i].insert_batch_extracting(
                bucket,
                BLOCK_GRANULES as u32,
                EXTRACT_MIN_GRANULES,
                &mut extracted,
            );
            for &e in &extracted {
                self.store.give_back(e);
            }
            extracted.clear();
        }
    }

    /// Splits `c` into maximal same-owner segments and buckets them.
    fn route(&self, c: Chunk, buckets: &mut [Vec<Chunk>]) {
        let end = c.end() as usize;
        let mut seg_start = c.start as usize;
        let mut seg_owner = self.owner_or_default(seg_start);
        let mut pos = (seg_start / BLOCK_GRANULES + 1) * BLOCK_GRANULES;
        while pos < end {
            let o = self.owner_or_default(pos);
            if o != seg_owner {
                buckets[seg_owner].push(Chunk::new(seg_start as u32, (pos - seg_start) as u32));
                seg_start = pos;
                seg_owner = o;
            }
            pos += BLOCK_GRANULES;
        }
        buckets[seg_owner].push(Chunk::new(seg_start as u32, (end - seg_start) as u32));
    }

    fn owner_or_default(&self, g: usize) -> usize {
        // A freed granule was allocated, hence leased; an unowned block
        // here means a caller freed something never handed out (test
        // misuse) — route it to shard 0 rather than corrupt the store.
        let o = self.store.owner_of_granule(g);
        debug_assert!(o.is_some(), "free of never-leased granule {g}");
        o.unwrap_or(0)
    }

    /// Free granules across every shard pool and the store.
    pub fn free_granules(&self) -> u64 {
        self.shards.iter().map(|s| s.free_granules()).sum::<u64>() + self.store.free_granules()
    }

    /// Free granules in shard `i`'s private pool.
    pub fn shard_free_granules(&self, i: usize) -> u64 {
        self.shards[i].free_granules()
    }

    /// Free granules held by the global block store.
    pub fn store_free_granules(&self) -> u64 {
        self.store.free_granules()
    }

    /// Every free chunk across shards and store (diagnostics / heap
    /// verification).
    pub fn snapshot(&self) -> Vec<Chunk> {
        let mut out: Vec<Chunk> = self.shards.iter().flat_map(|s| s.snapshot()).collect();
        out.extend(self.store.snapshot());
        out.sort_by_key(|c| c.start);
        out
    }

    /// The parse bound: one past the highest granule any lease covered.
    #[inline]
    pub fn frontier_granule(&self) -> usize {
        self.store.frontier_granule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: usize = BLOCK_GRANULES;
    const BG: u32 = BLOCK_GRANULES as u32;

    fn sharded(n: usize, blocks: usize) -> (ShardedAlloc, usize) {
        (ShardedAlloc::new(n, blocks * B), blocks * B)
    }

    #[test]
    fn first_alloc_skips_null_granule() {
        let (s, committed) = sharded(4, 64);
        let c = s.alloc(0, 4, 4, committed).unwrap();
        assert_eq!(c.start, 1);
        assert_eq!(c.len, 4);
        // The lease remainder stays in shard 0's pool.
        assert_eq!(s.shard_free_granules(0), (B - 1 - 4) as u64);
        assert_eq!(s.store_free_granules(), 0);
    }

    #[test]
    fn shards_lease_disjoint_blocks() {
        let (s, committed) = sharded(2, 64);
        let a = s.alloc(0, 4, 4, committed).unwrap();
        let b = s.alloc(1, 4, 4, committed).unwrap();
        assert!(a.end() <= b.start || b.end() <= a.start);
        // Each shard's next small alloc comes from its own pool, not a
        // fresh lease.
        let a2 = s.alloc(0, 2, 2, committed).unwrap();
        let b2 = s.alloc(1, 2, 2, committed).unwrap();
        assert_eq!(a2.start as usize / B, a.start as usize / B);
        assert_eq!(b2.start as usize / B, b.start as usize / B);
    }

    #[test]
    fn free_routes_to_owning_shard() {
        let (s, committed) = sharded(2, 64);
        let a = s.alloc(0, 8, 8, committed).unwrap();
        let before0 = s.shard_free_granules(0);
        let before1 = s.shard_free_granules(1);
        s.free(a);
        assert_eq!(s.shard_free_granules(0), before0 + 8);
        assert_eq!(s.shard_free_granules(1), before1);
    }

    #[test]
    fn steal_when_store_exhausted() {
        // One block committed: shard 0 leases it all; shard 1 must steal.
        let (s, _) = sharded(2, 64);
        let committed = B; // only one block committed
        let a = s.alloc(0, 16, 16, committed).unwrap();
        assert_eq!(a.start, 1);
        let b = s.alloc(1, 16, 16, committed).unwrap();
        assert_eq!(b.start, 17, "stolen from shard 0's remainder");
        // The stolen chunk still frees back to shard 0 (block owner).
        let f0 = s.shard_free_granules(0);
        s.free(b);
        assert_eq!(s.shard_free_granules(0), f0 + 16);
        assert_eq!(s.shard_free_granules(1), 0);
    }

    #[test]
    fn whole_block_runs_return_to_store() {
        let (s, committed) = sharded(2, 64);
        // An exact 8-block request cannot use the trimmed block-0 lease
        // (one granule short): that run parks in the pool and a second
        // lease satisfies the request.
        let c = s.alloc(0, 8 * BG, 8 * BG, committed).unwrap();
        assert_eq!(c.start as usize, 8 * B);
        assert_eq!(s.shard_free_granules(0), (8 * B - 1) as u64);
        s.free(c);
        // The freed run coalesces with the parked lease into [1, 16B);
        // its aligned middle [B, 16B) = 15 blocks ≥ the extraction
        // threshold returns to the store, the ragged head stays local.
        assert_eq!(s.store_free_granules(), 15 * B as u64);
        assert_eq!(s.shard_free_granules(0), (B - 1) as u64);
        // Returned blocks are leasable by the other shard.
        let d = s.alloc(1, 4 * BG, 4 * BG, committed).unwrap();
        assert_eq!(d.start as usize, B);
    }

    #[test]
    fn small_frees_stay_in_shard() {
        let (s, committed) = sharded(2, 64);
        let c = s.alloc(0, 2 * BG, 2 * BG, committed).unwrap();
        s.free(c);
        // 2-block run < 4-block extraction floor: stays local.
        assert_eq!(s.store_free_granules(), 0);
        assert!(s.shard_free_granules(0) >= 2 * B as u64 - 1);
    }

    #[test]
    fn batch_spanning_owner_boundary_splits() {
        let (s, committed) = sharded(2, 64);
        // Adjacent leases to different shards.
        let a = s.alloc(0, BG, BG, committed).unwrap(); // blocks 0 (granule 1..)
        let b = s.alloc(1, BG, BG, committed).unwrap(); // block 1
        assert_eq!(b.start as usize, a.end() as usize);
        // One coalesced chunk spanning both leases (as a sweep run
        // covering two adjacent dead objects would).
        let spanning = Chunk::new(a.start, a.len + b.len);
        s.free_batch(&[spanning]);
        // Shard 0 regains its block plus the parked block-0 remainder
        // (an exact one-block request cannot use the granule-0-trimmed
        // first lease); shard 1 regains exactly its block.
        assert_eq!(s.shard_free_granules(0), (2 * B - 1) as u64);
        assert_eq!(s.shard_free_granules(1), B as u64);
    }

    #[test]
    fn conservation_under_churn() {
        let (s, committed) = sharded(4, 64);
        let total = committed as u64 - 1; // granule 0 reserved
        let mut held: Vec<Chunk> = Vec::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let shard = (state >> 33) as usize % 4;
            let n = 1 + ((state >> 40) % 96) as u32;
            if i % 3 == 2 && !held.is_empty() {
                let idx = (state >> 10) as usize % held.len();
                s.free(held.swap_remove(idx));
            } else if let Some(c) = s.alloc(shard, n, n, committed) {
                held.push(c);
            }
            let out: u64 = held.iter().map(|c| c.len as u64).sum();
            let frontier = s.frontier_granule() as u64;
            let never_leased = committed as u64 - frontier;
            assert_eq!(
                s.free_granules() + out + never_leased,
                total,
                "granule conservation at step {i}"
            );
        }
        for c in held.drain(..) {
            s.free(c);
        }
        let frontier = s.frontier_granule() as u64;
        assert_eq!(s.free_granules(), frontier - 1);
        // No overlapping free chunks anywhere.
        let snap = s.snapshot();
        for w in snap.windows(2) {
            assert!(w[0].end() <= w[1].start, "overlap: {:?} / {:?}", w[0], w[1]);
        }
    }
}
