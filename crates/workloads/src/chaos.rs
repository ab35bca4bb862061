//! *Chaos* — an error-tolerant churn workload for fault-injection runs.
//!
//! The paper's benchmarks (and their re-creations in this crate) treat an
//! allocation failure as a test failure: they `unwrap` every `alloc`.
//! Under an injected fault plan that is exactly wrong — forced
//! heap-pressure failures (`heap.alloc_chunk` refusing chunks) and a
//! deliberately panicked collector are *expected* outcomes a schedule
//! must survive.  This workload exercises every mutator-facing surface
//! (allocation, the write barrier with old→young stores, shadow-stack
//! roots, `cooperate`, `parked`) while treating [`AllocError`] as data:
//!
//! * [`OutOfMemory`](AllocError::OutOfMemory) → drop the oldest retained
//!   roots (releasing memory to the next collection) and keep going;
//! * [`CollectorUnavailable`](AllocError::CollectorUnavailable) → the
//!   collector is gone; stop cleanly so the harness can assert on the
//!   poisoned state.
//!
//! The *call sequence* per `(thread, seed)` is deterministic whenever
//! every allocation succeeds, so a single-threaded run under a
//! delay/yield-only fault plan hits each injection point an identical
//! number of times — the property the byte-for-byte reproducibility
//! tests build on.

use otf_gc::{AllocError, Mutator, ObjShape};

use crate::toolkit::rng_for;
use crate::Workload;

/// The chaos workload: seeded allocate/store/drop churn that tolerates
/// injected allocation failures.
#[derive(Clone, Debug)]
pub struct Chaos {
    /// Number of mutator threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops: usize,
    /// Maximum shadow-stack roots retained per thread (the live set).
    pub max_roots: usize,
}

impl Chaos {
    /// Default configuration: 2 threads, modest churn.
    pub fn new() -> Chaos {
        Chaos {
            threads: 2,
            ops: 30_000,
            max_roots: 256,
        }
    }

    /// Sets the number of mutator threads.
    pub fn with_threads(mut self, n: usize) -> Chaos {
        self.threads = n.max(1);
        self
    }

    /// Scales the number of operations per thread.
    pub fn scaled(mut self, scale: f64) -> Chaos {
        self.ops = ((self.ops as f64 * scale) as usize).max(1);
        self
    }
}

impl Default for Chaos {
    fn default() -> Self {
        Chaos::new()
    }
}

impl Workload for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&self, thread: usize, seed: u64, m: &mut Mutator) {
        let mut rng = rng_for(seed, thread as u64);
        let node = ObjShape::new(2, 1);
        let mut ops_done = 0u64;
        for op in 0..self.ops {
            let r = match m.alloc(&node) {
                Ok(r) => r,
                Err(AllocError::CollectorUnavailable { .. }) => return,
                Err(AllocError::OutOfMemory { .. }) => {
                    // Shed half the live set and retry later; the freed
                    // objects are exactly what the next cycle reclaims.
                    let keep = m.root_len() / 2;
                    m.root_truncate(keep);
                    m.cooperate();
                    continue;
                }
            };
            m.write_data(r, 0, op as u64);
            // Link the new node to a retained survivor: once the survivor
            // is promoted this is an old→young store, the write-barrier
            // traffic the card-marking protocol exists for.
            if m.root_len() > 0 {
                let parent = m.root_get(rng.random_range(0..m.root_len()));
                m.write_ref(parent, rng.random_range(0..2usize), r);
                m.write_ref(r, 0, parent);
            }
            if m.root_len() < self.max_roots {
                m.root_push(r);
            } else {
                // Replace a random retained root (its old value may die).
                let slot = rng.random_range(0..self.max_roots);
                m.root_set(slot, r);
            }
            ops_done += 1;
            if op % 64 == 0 {
                m.cooperate();
            }
            if op % 4096 == 0 {
                // A short park: the collector handshakes on our behalf.
                m.parked(|| std::hint::black_box(0));
            }
        }
        std::hint::black_box(ops_done);
        m.root_truncate(0);
    }
}
