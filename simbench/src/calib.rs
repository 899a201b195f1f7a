//! Host-speed reference.
//!
//! The shared host this benchmark was sized on changes speed by up to 2x
//! within a minute, for identical work, and process CPU time tracks wall
//! time, so neither clock alone can compare two runs minutes apart. The
//! benchmark therefore times a fixed reference loop next to every cell and
//! charges each cell's host time at the reference's speed: a cell that
//! took `t` seconds while the reference took `r` counts as
//! `t * REFERENCE_NOMINAL_S / r` calibrated seconds. The loop is the
//! benchmark's own code — hashing, ordered-map and sort work over fresh
//! allocations, the same kind of work the simulator does — so a change to
//! the simulator cannot move it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Operations in one reference sample.
const OPS: u64 = 400_000;

/// The reference sample's median time over 400 samples on the host the
/// benchmark was sized on (2 vCPUs of a 2.1 GHz Xeon). It only sets the
/// scale of a calibrated second; any fixed value ranks builds the same.
pub const REFERENCE_NOMINAL_S: f64 = 0.035;

/// Runs one reference sample and returns its host seconds.
pub fn reference_sample() -> f64 {
    let t = Instant::now();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut queue: Vec<u64> = Vec::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 50_000;
        match x % 7 {
            0 | 1 => {
                hashed.insert(key, i);
            }
            2 => acc = acc.wrapping_add(hashed.get(&key).copied().unwrap_or(0)),
            3 => {
                ordered.insert(key, i);
            }
            4 => acc = acc.wrapping_add(ordered.range(key..).next().map_or(0, |(_, v)| *v)),
            5 => {
                queue.push(x);
                if queue.len() > 4096 {
                    queue.sort_unstable();
                    queue.truncate(1024);
                }
            }
            _ => {
                acc = if x & 1 == 0 {
                    acc ^ key
                } else {
                    acc.rotate_left(3)
                }
            }
        }
    }
    black_box((acc, hashed.len(), ordered.len(), queue.len()));
    t.elapsed().as_secs_f64()
}
