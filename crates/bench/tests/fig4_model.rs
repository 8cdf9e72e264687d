//! Figure 4's cost model: what the simulation charges, written down from
//! `Fig4Params` alone and held against `run_point`.
//!
//! In the three unreplicated configurations one CPU is the bottleneck: the
//! 486 router (the redirector in `primary_only`) in the middle of the
//! chain. It forwards every data packet and every ACK and charges each
//!
//! ```text
//! c(w) = router_fixed (+ hydranet_overhead unless clean) + router_per_byte · w
//! ```
//!
//! for a packet of `w` bytes. One write of `s` bytes is one TCP segment,
//! an IP payload of `s + 20` bytes cut into fragments of at most
//! `mtu − 20` payload bytes, each carrying 20 B of IP header; the receiver
//! answers with one 40 B ACK. So one write costs
//! `T(s) = Σ_fragments c(chunk + 20) + c(40)` and the model's throughput is
//! `s / T(s)` in kB/s (1 kB = 1,000 B).
//!
//! Everything else — the hosts' own CPU, serialisation on the 10 Mb/s
//! links, the tunnel's 20 B of IP-in-IP on the redirector → primary link —
//! overlaps with the router's work and does not show: `no_redirect` and
//! `primary_only` differ by less than 0.1 %.

use hydranet_bench::fig4::{extended_write_sizes, run_point, Fig4Config, Fig4Params};
use hydranet_bench::runner::{run_tasks, Task};

const IP_HEADER: usize = 20;
const TCP_HEADER: usize = 20;

/// The worst relative distance the model may sit from a measured cell.
const TOLERANCE: f64 = 0.04;

/// Nanoseconds the bottleneck router spends on one `w`-byte packet.
fn router_cost(config: Fig4Config, p: &Fig4Params, w: usize) -> f64 {
    let overhead = match config {
        Fig4Config::Clean => 0,
        _ => p.hydranet_overhead.as_nanos(),
    };
    let per_byte = p.router_per_byte.as_nanos() as f64;
    (p.router_fixed.as_nanos() + overhead) as f64 + per_byte * w as f64
}

/// The model's throughput at write size `s`, in kB/s.
fn model_kbps(config: Fig4Config, p: &Fig4Params, s: usize) -> f64 {
    let mut nanos = router_cost(config, p, IP_HEADER + TCP_HEADER);
    let mut rest = s + TCP_HEADER;
    while rest > 0 {
        let chunk = rest.min(p.mtu - IP_HEADER);
        nanos += router_cost(config, p, chunk + IP_HEADER);
        rest -= chunk;
    }
    s as f64 / nanos * 1e9 / 1e3
}

#[test]
fn unreplicated_cells_match_the_bottleneck_router_model() {
    let configs = [
        Fig4Config::Clean,
        Fig4Config::NoRedirection,
        Fig4Config::PrimaryOnly,
    ];
    let cells: Vec<(Fig4Config, usize)> = extended_write_sizes()
        .into_iter()
        .flat_map(|s| configs.map(|c| (c, s)))
        .collect();
    let tasks = cells
        .iter()
        .map(|&(config, s)| -> Task<_> {
            Box::new(move || run_point(config, s, &Fig4Params::default(), 42))
        })
        .collect();
    let points = run_tasks(tasks, 2);
    assert_eq!(points.len(), 30);
    let p = Fig4Params::default();
    let mut worst = (0.0, "", 0);
    let mut report = String::new();
    for point in &points {
        assert!(
            point.completed,
            "{:?} @ {} B",
            point.config, point.write_size
        );
        let model = model_kbps(point.config, &p, point.write_size);
        let residual = (point.throughput_kbps - model) / model;
        report += &format!(
            "{:>14} {:>5} B: measured {:8.3} model {:8.3} ({:+.2} %)\n",
            point.config.label(),
            point.write_size,
            point.throughput_kbps,
            model,
            residual * 100.0
        );
        if residual.abs() > f64::abs(worst.0) {
            worst = (residual, point.config.label(), point.write_size);
        }
    }
    eprint!("{report}");
    eprintln!(
        "worst: {} @ {} B, {:+.2} %",
        worst.1,
        worst.2,
        worst.0 * 100.0
    );
    assert!(worst.0.abs() <= TOLERANCE, "{report}");
}
