//! Input generators. `--seed` reaches the workloads only through these (and
//! as the simulator seed): the same seed gives the same inputs, and the
//! program under test receives nothing but the generated inputs.

use hydranet_netsim::rng::SimRng;
use hydranet_netsim::time::{SimDuration, SimTime};

/// One flow of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Exponential gap since the previous arrival, in nanoseconds.
    pub gap_ns: f64,
    pub size: u64,
    pub service: usize,
}

/// Draws a bounded-Pareto size by inverse CDF (same draw as
/// `crates/bench/src/scale.rs`, so a seed produces the same flows there and
/// here).
pub fn bounded_pareto(rng: &mut SimRng, lo: u64, hi: u64, alpha: f64) -> u64 {
    let u = rng.unit();
    let l = lo as f64;
    let h = hi as f64;
    let ratio = (l / h).powf(alpha);
    let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    (x as u64).clamp(lo, hi)
}

/// Shape of an open-loop flow schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleShape {
    pub flows: usize,
    /// The arrivals' mean rate is `flows / window`.
    pub window: SimDuration,
    pub min_bytes: u64,
    pub max_bytes: u64,
    pub alpha: f64,
    pub services: usize,
}

/// A Poisson arrival schedule: an exponential gap, a bounded-Pareto size
/// and a uniformly chosen service per flow, drawn in the order
/// `scale::run_cell` draws them.
pub fn poisson_schedule(seed: u64, shape: &ScheduleShape) -> Vec<Arrival> {
    let mut rng = SimRng::seed_from(seed);
    let rate = shape.flows as f64 / shape.window.as_nanos().max(1) as f64; // per ns
    (0..shape.flows)
        .map(|_| Arrival {
            gap_ns: -(1.0 - rng.unit()).ln() / rate,
            size: bounded_pareto(&mut rng, shape.min_bytes, shape.max_bytes, shape.alpha),
            service: rng.range(0, shape.services as u64) as usize,
        })
        .collect()
}

/// The instants a schedule's flows fall due when it starts at `start`
/// (gaps accumulate in `f64` from `start`, as `scale::run_cell` sums them,
/// so the two agree to the nanosecond).
pub fn due_times(start: SimTime, schedule: &[Arrival]) -> Vec<SimTime> {
    let mut t = start.as_nanos() as f64;
    schedule
        .iter()
        .map(|a| {
            t += a.gap_ns;
            SimTime::from_nanos(t as u64)
        })
        .collect()
}

/// Per-seed offset of a fault's injection time inside a 40 ms window, so a
/// fault class hits different phases of the transfer (the chaos soak's draw).
pub fn fault_jitter(seed: u64) -> SimDuration {
    SimDuration::from_nanos(SimRng::seed_from(seed).next_u64() % 40_000_000)
}

/// Per-seed cable lengths for the Figure 4 testbed: each link's propagation
/// delay is `base` stretched by up to ±5 %. A closed-loop transfer on fixed
/// links has no other random input, and without one every seed would replay
/// the identical run.
pub fn link_delays(seed: u64, base: SimDuration, links: usize) -> Vec<SimDuration> {
    let mut rng = SimRng::seed_from(seed ^ 0x6c69_6e6b_5f64_6c79); // "link_dly"
    (0..links)
        .map(|_| {
            let stretch = 0.95 + 0.10 * rng.unit();
            SimDuration::from_nanos((base.as_nanos() as f64 * stretch) as u64)
        })
        .collect()
}

/// `len` bytes of the position-determined filler every transfer streams
/// (byte `i` is `i % 251`), so a receiver can check any prefix without
/// holding the original.
pub fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Whether `chunk`, received at stream offset `offset`, is the filler.
/// Compares against a static window of the (251-periodic) filler, so the
/// check costs a `memcmp`, not a division per byte.
pub fn pattern_matches(offset: u64, chunk: &[u8]) -> bool {
    const WINDOW: usize = 16 * 1024;
    static FILLER: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let filler = FILLER.get_or_init(|| pattern(251 + WINDOW));
    chunk
        .chunks(WINDOW)
        .zip((offset..).step_by(WINDOW))
        .all(|(piece, at)| {
            let phase = (at % 251) as usize;
            piece == &filler[phase..phase + piece.len()]
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ScheduleShape = ScheduleShape {
        flows: 500,
        window: SimDuration::from_millis(400),
        min_bytes: 512,
        max_bytes: 32_768,
        alpha: 1.2,
        services: 8,
    };

    #[test]
    fn schedule_is_seed_stable_and_seed_sensitive() {
        let a = poisson_schedule(70_000, &SHAPE);
        let b = poisson_schedule(70_000, &SHAPE);
        let c = poisson_schedule(70_001, &SHAPE);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Pinned draws: a toolchain or generator change that moves the
        // inputs must show here, not as a mystery in the metrics.
        assert_eq!(a.len(), 500);
        let total: u64 = a.iter().map(|x| x.size).sum();
        let due = due_times(SimTime::from_millis(50), &a);
        let fingerprint = a.iter().zip(&due).fold(0u64, |h, (x, at)| {
            (h ^ at.as_nanos() ^ (x.size << 20) ^ x.service as u64)
                .wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((total, fingerprint), pinned_schedule());
    }

    fn pinned_schedule() -> (u64, u64) {
        (846_571, 3_292_825_694_265_919_350)
    }

    #[test]
    fn schedule_respects_its_shape() {
        let a = poisson_schedule(3, &SHAPE);
        let due = due_times(SimTime::from_millis(50), &a);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(due[0] >= SimTime::from_millis(50));
        assert!(a.iter().all(|x| (512..=32_768).contains(&x.size)));
        assert!(a.iter().all(|x| x.service < 8));
        // 500 arrivals at 1250/s span about 400 ms.
        let span_ms = (due[499].as_nanos() - due[0].as_nanos()) / 1_000_000;
        assert!((300..500).contains(&span_ms), "span {span_ms} ms");
    }

    #[test]
    fn pareto_is_heavy_tailed_within_bounds() {
        let mut rng = SimRng::seed_from(9);
        let draws: Vec<u64> = (0..20_000)
            .map(|_| bounded_pareto(&mut rng, 512, 32_768, 1.2))
            .collect();
        assert!(draws.iter().all(|&x| (512..=32_768).contains(&x)));
        let mut sorted = draws.clone();
        sorted.sort_unstable();
        let median = sorted[10_000];
        let mean = draws.iter().sum::<u64>() / 20_000;
        // Median of a Pareto(α=1.2) from 512 is 512·2^(1/1.2) ≈ 912.
        assert!((850..980).contains(&median), "median {median}");
        assert!(2 * mean > 3 * median, "mean {mean} vs median {median}");
        assert!(sorted[19_999] > 30_000, "tail reaches the ceiling");
    }

    #[test]
    fn jitter_and_delays_are_seed_stable() {
        assert_eq!(fault_jitter(7000), fault_jitter(7000));
        assert_ne!(fault_jitter(7000), fault_jitter(7001));
        assert!(fault_jitter(7000) < SimDuration::from_millis(40));
        let base = SimDuration::from_micros(200);
        let d = link_delays(11, base, 3);
        assert_eq!(d, link_delays(11, base, 3));
        assert_ne!(d, link_delays(12, base, 3));
        assert!(d
            .iter()
            .all(|x| (190_000..=210_000).contains(&x.as_nanos())));
    }

    #[test]
    fn pattern_checks_by_offset() {
        let p = pattern(1000);
        assert!(pattern_matches(0, &p));
        assert!(pattern_matches(300, &p[300..700]));
        assert!(!pattern_matches(301, &p[300..700]));
        assert!(pattern_matches(12_345, &[]));
        let long = pattern(100_000);
        assert!(pattern_matches(0, &long));
        assert!(pattern_matches(40_000, &long[40_000..]));
        let mut bad = long.clone();
        bad[77_777] ^= 1;
        assert!(!pattern_matches(0, &bad));
    }
}
