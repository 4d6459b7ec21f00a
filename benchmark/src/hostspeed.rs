//! A host-speed probe: two fixed slices of CPU work that use no code of
//! the program, timed between the program's own calls.
//!
//! On a shared host the same binary runs up to a third slower for minutes
//! at a time (presumably other tenants on the shared cores and caches),
//! and the campaign timings follow; no steal time shows it. The probe's
//! time moves with the host and never with the program, so a campaign
//! timing multiplied by [`Probe::take_scale`] is the timing at a fixed
//! host speed: a change to the program still moves it in full, a slow
//! phase of the host much less.
//!
//! The two kernels are, of eight candidates, the two whose times tracked
//! the campaign most closely over 46 campaigns on a 2-vCPU Xeon host
//! (correlation 0.87 and 0.88 with the search-phase time per evaluation;
//! scaling by their geometric mean cut that time's spread from 0.138 to
//! 0.055 of its mean): a small-batch dense layer, like training and the
//! GP, and random lookups in a table of a few MiB, like the scheduler
//! memo.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// About the dense kernel's time on a quiet 2.1 GHz Xeon vCPU.
pub const DENSE_NOMINAL_NS: f64 = 1.0e6;
/// About the lookup kernel's time on the same vCPU.
pub const LOOKUP_NOMINAL_NS: f64 = 1.5e6;

/// A hash map with fixed keys, so every process probes the same layout.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Entries of the lookup table.
const TABLE_LEN: u64 = 200_000;
/// Lookups per sample.
const LOOKUPS: usize = 20_000;

/// The probe's table and the samples taken since the last
/// [`Probe::take_scale`].
#[derive(Debug, Clone)]
pub struct Probe {
    table: Table,
    dense_ns: Vec<f64>,
    lookup_ns: Vec<f64>,
}

impl Probe {
    /// Builds the lookup table (a few tens of milliseconds).
    pub fn new() -> Self {
        let mut next = xorshift(5);
        let table = (0..TABLE_LEN)
            .map(|i| (next() % (2 * TABLE_LEN), i))
            .collect();
        Probe {
            table,
            dense_ns: Vec::new(),
            lookup_ns: Vec::new(),
        }
    }

    /// A probe that takes no samples and holds no table (its scale is
    /// always `1.0`).
    pub fn disabled() -> Self {
        Probe {
            table: Table::default(),
            dense_ns: Vec::new(),
            lookup_ns: Vec::new(),
        }
    }

    /// Runs both kernels once and records their wall times (nothing when
    /// disabled).
    pub fn sample(&mut self) {
        if self.table.is_empty() {
            return;
        }
        let t0 = Instant::now();
        black_box(dense(black_box(7)));
        self.dense_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        black_box(lookups(&self.table, black_box(7)));
        self.lookup_ns.push(t0.elapsed().as_nanos() as f64);
    }

    /// The factor that turns a timing taken among the samples since the
    /// last call into one at the nominal host speed: the geometric mean of
    /// the two kernels' nominal over median times (`1.0` with no samples).
    /// Clears the samples.
    pub fn take_scale(&mut self) -> f64 {
        if self.dense_ns.is_empty() {
            return 1.0;
        }
        let dense = DENSE_NOMINAL_NS / crate::stats::median(&self.dense_ns);
        let lookup = LOOKUP_NOMINAL_NS / crate::stats::median(&self.lookup_ns);
        self.dense_ns.clear();
        self.lookup_ns.clear();
        (dense * lookup).sqrt()
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Forward passes of a 24→64 tanh layer over a batch of 64 rows.
fn dense(seed: u64) -> u64 {
    const B: usize = 64;
    const I: usize = 24;
    const H: usize = 64;
    let mut next = xorshift(seed);
    let x: Vec<f64> = (0..B * I).map(|_| (next() % 1000) as f64 * 1e-3).collect();
    let w: Vec<f64> = (0..I * H)
        .map(|_| (next() % 1000) as f64 * 1e-3 - 0.5)
        .collect();
    let mut acc = 0.0;
    for _ in 0..10 {
        let mut h = vec![0.0f64; B * H];
        for b in 0..B {
            for i in 0..I {
                let xv = x[b * I + i];
                for o in 0..H {
                    h[b * H + o] += xv * w[i * H + o];
                }
            }
        }
        acc += h.iter().map(|v| v.tanh()).sum::<f64>();
    }
    acc.to_bits()
}

/// Random lookups, about half of them hits.
fn lookups(table: &Table, seed: u64) -> u64 {
    let mut next = xorshift(seed);
    let mut acc = 0u64;
    for _ in 0..LOOKUPS {
        acc = acc.wrapping_add(*table.get(&(next() % (2 * TABLE_LEN))).unwrap_or(&1));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_deterministic_and_the_scale_resets() {
        let mut p = Probe::new();
        assert_eq!(dense(5), dense(5));
        assert_eq!(lookups(&p.table, 5), lookups(&p.table, 5));
        assert_eq!(p.take_scale(), 1.0);
        p.sample();
        let s = p.take_scale();
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(p.take_scale(), 1.0);
        let mut off = Probe::disabled();
        off.sample();
        assert_eq!(off.take_scale(), 1.0);
    }
}
