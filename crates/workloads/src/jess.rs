//! `_202_jess` (paper §8.2, SPECjvm98) — the anti-generational benchmark.
//!
//! An expert-system shell: a large working memory of facts that are
//! continually asserted and retracted.  The paper singles this benchmark
//! out as the one where generations *hurt* (−3.7% multiprocessor, −2.5%
//! uniprocessor, Figure 9) for two measured reasons:
//!
//! 1. **heavy inter-generational traffic** — 36.2% of the objects scanned
//!    during partial collections are dirty objects in the old generation
//!    (Figure 11: 1373 old objects per partial), and over 60% of cards are
//!    dirty at block-marking sizes (Figure 22);
//! 2. **objects die right after tenuring** — the facts that do survive a
//!    young-generation collection get promoted and then die, so only full
//!    collections get them back (87.2% of objects freed in fulls,
//!    Figure 12), even though partials still free ~98% of the young.
//!
//! The model: working memory is a set of small *bucket* objects (old,
//! spread over the heap, mutated on every assert — heavy card traffic)
//! holding facts with a bimodal lifetime: hot slots are overwritten well
//! inside the young budget, cold slots only after it.

use otf_gc::{Mutator, ObjectRef};

use crate::toolkit::{alloc_array, alloc_data, alloc_node, mix, pick, rng_for};
use crate::Workload;

/// Slot 0 of a bucket holds *hot* facts (overwritten within a fraction of
/// the young budget — they die young); slot 1 holds *cold* facts
/// (overwritten only after several megabytes of allocation — they survive
/// one partial collection, get tenured, and then die).
const HOT_SLOT: usize = 0;
const COLD_SLOT: usize = 1;

/// The jess workload.
#[derive(Clone, Debug)]
pub struct Jess {
    /// Number of working-memory buckets (long-lived, mutated constantly).
    pub buckets: usize,
    /// Facts asserted per activation round (each replaces a random slot).
    pub asserts_per_round: usize,
    /// Activation rounds.
    pub rounds: usize,
    /// Percentage of asserts that hit cold slots (the paper's
    /// die-after-tenure residue).
    pub cold_percent: u32,
}

impl Jess {
    /// The default configuration, calibrated to the paper's Figure 12:
    /// ~98% of facts are retracted quickly (die young), while the cold
    /// residue lives ≈ 9 MB of allocation — past the 4 MB young budget,
    /// so it tenures and then dies, reclaimable only by full collections.
    pub fn new() -> Jess {
        Jess {
            buckets: 2500,
            asserts_per_round: 4000,
            rounds: 600,
            cold_percent: 3,
        }
    }

    /// Scales the amount of work.
    pub fn scaled(mut self, scale: f64) -> Jess {
        self.rounds = ((self.rounds as f64 * scale) as usize).max(1);
        self
    }
}

impl Default for Jess {
    fn default() -> Self {
        Jess::new()
    }
}

impl Workload for Jess {
    fn name(&self) -> &'static str {
        "_202_jess"
    }

    fn run(&self, thread: usize, seed: u64, m: &mut Mutator) {
        let mut rng = rng_for(seed, thread as u64);

        // Working memory: many small bucket objects, spread across the
        // young heap region at startup and promoted by the first
        // collection.  Their slots are overwritten for the whole run,
        // dirtying cards all over the old generation.
        let spine: ObjectRef = alloc_array(m, self.buckets);
        m.root_push(spine);
        for b in 0..self.buckets {
            let bucket = alloc_node(m, 2, 1);
            m.write_data(bucket, 0, b as u64);
            m.write_ref(spine, b, bucket);
            // Interleave small allocations so buckets are not perfectly
            // contiguous (jess's dirty objects are spread, unlike db's).
            if b % 7 == 0 {
                let _pad = alloc_data(m, rng.random_range(1..6));
            }
        }

        let mut fired = 0u64;
        for round in 0..self.rounds {
            for a in 0..self.asserts_per_round {
                // A fresh fact: a node with a detail payload chained on.
                let fact = alloc_node(m, 1, 2);
                m.root_push(fact);
                m.write_data(fact, 0, (round * 100_000 + a) as u64);
                let detail = alloc_data(m, 2);
                m.write_data(detail, 0, a as u64);
                m.write_ref(fact, 0, detail);
                m.root_pop();
                // Rule network evaluation for the new fact.
                fired = fired.wrapping_add(mix((round * 100_000 + a) as u64, 256));

                // Assert it into a random working-memory slot, retracting
                // (dropping) whatever was there — an old-generation
                // pointer write nearly every time.
                let slot = if rng.random_range(0..100) < self.cold_percent {
                    COLD_SLOT
                } else {
                    HOT_SLOT
                };
                let bucket = m.read_ref(spine, pick(&mut rng, self.buckets));
                m.write_ref(bucket, slot, fact);
            }
            // Rule evaluation: probe random facts.
            for _ in 0..64 {
                let bucket = m.read_ref(spine, pick(&mut rng, self.buckets));
                let fact = m.read_ref(bucket, pick(&mut rng, 2));
                if !fact.is_null() {
                    fired = fired.wrapping_add(m.read_data(fact, 0));
                }
            }
            m.cooperate();
        }
        std::hint::black_box(fired);
        m.root_pop();
    }
}
