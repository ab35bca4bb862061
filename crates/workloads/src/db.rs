//! `_209_db` (paper §8.2, SPECjvm98).
//!
//! An in-memory database: a large long-lived index of records, probed and
//! occasionally updated by a stream of operations.
//!
//! Generational signature reproduced (Figures 10–12, 22–23): GC is a
//! small fraction of the run (~2–3%), operation temporaries die young
//! (99.8% freed in partials), updates write into the *old* record region
//! — but the records were allocated together, so the dirty objects are
//! **concentrated** and the area scanned for dirty cards is almost
//! independent of the card size (Figure 23: 2696 → 2893 across 16→4096
//! bytes), with ~20% of cards dirty at every card size (Figure 22).
//! Generations are roughly performance-neutral (−0.9%/+0.7%, Figure 9).

use otf_gc::{Mutator, ObjectRef};

use crate::toolkit::{alloc_array, alloc_data, alloc_node, fill_data, mix, pick, rng_for};
use crate::Workload;

/// Records per index chunk.
const CHUNK: usize = 1024;

/// The database workload.
#[derive(Clone, Debug)]
pub struct Db {
    /// Number of records in the database (long-lived).
    pub records: usize,
    /// Operations to execute.
    pub operations: usize,
    /// Percentage of operations that are updates (the rest are lookups).
    pub update_percent: u32,
}

impl Db {
    /// The default configuration.
    pub fn new() -> Db {
        Db {
            records: 40_000,
            operations: 2_500_000,
            update_percent: 3,
        }
    }

    /// Scales the amount of work.
    pub fn scaled(mut self, scale: f64) -> Db {
        self.operations = ((self.operations as f64 * scale) as usize).max(1);
        self
    }
}

impl Default for Db {
    fn default() -> Self {
        Db::new()
    }
}

impl Workload for Db {
    fn name(&self) -> &'static str {
        "_209_db"
    }

    fn run(&self, thread: usize, seed: u64, m: &mut Mutator) {
        let mut rng = rng_for(seed, thread as u64);

        // Build the database: an index of chunks, each chunk an array of
        // record references; every record points at its value object.
        // Everything is allocated together, so the record region is
        // spatially concentrated — the paper's explanation for db's
        // card-size insensitivity.
        let n_chunks = self.records.div_ceil(CHUNK);
        let index: ObjectRef = alloc_array(m, n_chunks);
        m.root_push(index);
        for c in 0..n_chunks {
            let chunk = alloc_array(m, CHUNK);
            m.write_ref(index, c, chunk);
            for i in 0..CHUNK.min(self.records - c * CHUNK) {
                let record = alloc_node(m, 1, 2);
                m.write_data(record, 0, (c * CHUNK + i) as u64);
                // Store the record before allocating its value: allocation
                // is a safe point, and an unrooted, unstored ref does not
                // survive one.
                m.write_ref(chunk, i, record);
                let value = alloc_data(m, 2);
                fill_data(m, value, 2, (c * CHUNK + i) as u64);
                m.write_ref(record, 0, value);
            }
            m.cooperate();
        }

        let mut checksum = 0u64;
        for op in 0..self.operations {
            let r = pick(&mut rng, self.records);
            let chunk = m.read_ref(index, r / CHUNK);
            let record = m.read_ref(chunk, r % CHUNK);
            // Every operation allocates a couple of short-lived
            // temporaries (cursor, result holder).
            let cursor = alloc_data(m, 2);
            m.write_data(cursor, 0, mix(op as u64, 192));
            if rng.random_range(0..100) < self.update_percent {
                // Update: a fresh value object stored into the *old*
                // record — an inter-generational pointer write.
                let value = alloc_data(m, 2);
                fill_data(m, value, 2, op as u64);
                m.write_ref(record, 0, value);
            } else {
                let value = m.read_ref(record, 0);
                checksum = checksum.wrapping_add(m.read_data(value, 0));
            }
            if op % 512 == 0 {
                m.cooperate();
            }
        }
        std::hint::black_box(checksum);
        m.root_pop();
    }
}
