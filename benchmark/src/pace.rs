//! Host-speed pacing: a product-code-free calibration slice run alongside
//! the measured work, so host time can be reported on a reference host.
//!
//! On a shared machine the same computation takes up to 1.5× longer for
//! seconds at a time (a neighbour contending for the memory system). No
//! median over a ten-second run removes that: measured on the build host,
//! the medians of identical runs differed by 12–24 % of their median in
//! such periods. Memory-bound work slows by the same factor whoever's it
//! is, so the drivers call [`Pacer::pace`] from their loops; every
//! [`INTERVAL`] it runs one fixed slice of simulator-shaped work (event
//! heap, packet-buffer churn, flow-table hashing) and records how long the
//! slice took. A rep's wall time, less the slices, divided by how many
//! times longer than [`REFERENCE_SLICE`] its slices ran, is the rep's time
//! on a host that runs a slice in exactly that long. Over three ten-run
//! batteries per workload the calibrated medians spread by 1.1–8.3 % of
//! their median (worst: `failover`); the README has every figure, and the
//! three calibration designs tried and dropped before this one.
//!
//! The FNV loop `perf` and `scale` calibrate with is recorded in every
//! result file too, but it is latency-bound and does not feel the
//! contention, so it cannot cancel it (its correlation with rep time was
//! 0.5; this slice's is 0.9 with slope 1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often the measured work yields to one calibration slice.
const INTERVAL: Duration = Duration::from_millis(20);

/// What a slice takes on the reference host, in seconds: about what the
/// build host takes undisturbed, so calibrated seconds read like wall
/// seconds there.
pub const REFERENCE_SLICE: f64 = 1.0e-3;

/// Rigs the slices rotate over. Where a rig's pages land in the caches
/// differs from process to process and shifts its slice time by a few per
/// cent; several rigs average that out.
const RIGS: usize = 4;

const PACKETS: usize = 512;
const PACKET_BYTES: usize = 1024;
const FLOW_KEYS: u64 = 4096;

/// One calibration workload's state, kept warm between slices.
struct Rig {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    packets: Vec<Vec<u8>>,
    flows: HashMap<u64, u64>,
    rng: u64,
    now: u64,
    sink: u64,
}

impl Rig {
    fn new() -> Self {
        Rig {
            heap: (0..PACKETS as u32)
                .map(|i| Reverse((u64::from(i) * 7, i)))
                .collect(),
            packets: (0..PACKETS)
                .map(|i| vec![(i % 251) as u8; PACKET_BYTES])
                .collect(),
            // Eight keys in nine present: where one removal per eight
            // updates settles, so the table neither fills nor drains while
            // the run goes on.
            flows: (0..FLOW_KEYS)
                .filter(|k| k % 9 != 0)
                .map(|k| (k, k))
                .collect(),
            rng: 88_172_645_463_325_252,
            now: 0,
            sink: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One slice: a fixed number of pop-copy-checksum-reschedule steps and
    /// of flow-table updates. The work is the same every time; only the
    /// state it walks differs.
    fn slice(&mut self) {
        for _ in 0..1500 {
            let Reverse((at, id)) = self.heap.pop().expect("heap keeps its population");
            self.now = at;
            let x = self.next();
            let old = std::mem::take(&mut self.packets[id as usize]);
            self.sink = self
                .sink
                .wrapping_add(old.iter().map(|&b| u64::from(b)).sum::<u64>());
            let mut fresh = Vec::with_capacity(PACKET_BYTES + (x & 63) as usize);
            fresh.extend_from_slice(&old[..PACKET_BYTES]);
            fresh[0] = fresh[0].wrapping_add((x & 1) as u8);
            self.packets[id as usize] = fresh;
            self.heap
                .push(Reverse((self.now + 1 + (x >> 40) % 5000, id)));
        }
        for _ in 0..15_000 {
            let x = self.next();
            *self.flows.entry(x % FLOW_KEYS).or_insert(0) += x;
            if x & 7 == 0 {
                self.flows.remove(&((x >> 8) % FLOW_KEYS));
            }
        }
        black_box((self.sink, self.now, self.flows.len()));
    }
}

/// Host time of one measured section, raw and calibrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall seconds, calibration slices excluded.
    pub raw_s: f64,
    /// Mean slice time over [`REFERENCE_SLICE`]: how many times slower
    /// than the reference host this host ran during the section.
    pub slowdown: f64,
}

impl Timing {
    /// Seconds the section takes on the reference host.
    pub fn calibrated_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }
}

pub struct Pacer {
    rigs: Vec<Rig>,
    started: Instant,
    last_slice: Instant,
    /// Slice time spent inside the current section: not the section's work.
    inside: Duration,
    /// Every slice of the current section, the opening and closing ones
    /// included.
    slices: u32,
    slice_time: Duration,
}

impl std::fmt::Debug for Pacer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pacer")
            .field("slices", &self.slices)
            .finish()
    }
}

impl Pacer {
    pub fn new() -> Self {
        let rigs = (0..RIGS)
            .map(|_| {
                let mut rig = Rig::new();
                // Warm it: the first slices fault pages in.
                for _ in 0..10 {
                    rig.slice();
                }
                rig
            })
            .collect();
        let now = Instant::now();
        Pacer {
            rigs,
            started: now,
            last_slice: now,
            inside: Duration::ZERO,
            slices: 0,
            slice_time: Duration::ZERO,
        }
    }

    fn run_slice(&mut self) -> Duration {
        let t = Instant::now();
        self.rigs[self.slices as usize % RIGS].slice();
        self.last_slice = Instant::now();
        let took = self.last_slice - t;
        self.slices += 1;
        self.slice_time += took;
        took
    }

    /// Starts a measured section with a slice, so even a section shorter
    /// than [`INTERVAL`] has calibration on both sides.
    pub fn start(&mut self) {
        self.inside = Duration::ZERO;
        self.slices = 0;
        self.slice_time = Duration::ZERO;
        self.run_slice();
        self.started = Instant::now();
    }

    /// Called from the drivers' loops: runs a slice when one is due.
    #[inline]
    pub fn pace(&mut self) {
        if self.last_slice.elapsed() >= INTERVAL {
            let took = self.run_slice();
            self.inside += took;
        }
    }

    /// Ends the section with a closing slice.
    pub fn finish(&mut self) -> Timing {
        let wall = self.started.elapsed();
        self.run_slice();
        Timing {
            raw_s: (wall - self.inside).as_secs_f64(),
            slowdown: self.slice_time.as_secs_f64() / f64::from(self.slices) / REFERENCE_SLICE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_section_is_timed_less_its_slices() {
        let mut p = Pacer::new();
        p.start();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(70) {
            p.pace();
        }
        let timing = p.finish();
        // 70 ms of spinning with a slice due every 20 ms: two or three
        // inside, one at each end.
        assert!((4..=6).contains(&p.slices), "{} slices", p.slices);
        assert!(timing.raw_s < 0.070, "slices are not the section's work");
        assert!(timing.raw_s > 0.040);
        assert!(timing.slowdown > 0.1 && timing.slowdown < 50.0);
        assert!((timing.calibrated_s() * timing.slowdown - timing.raw_s).abs() < 1e-12);
    }

    #[test]
    fn a_slice_is_fixed_work() {
        // Same pops, copies and table updates every time, whatever state
        // the rig is in: the population and packet sizes never drift.
        let mut rig = Rig::new();
        for _ in 0..5 {
            rig.slice();
            assert_eq!(rig.heap.len(), PACKETS);
            assert!(rig.packets.iter().all(|p| p.len() == PACKET_BYTES));
            assert!(rig.flows.len() <= FLOW_KEYS as usize);
        }
    }
}
