//! # hydranet-bench
//!
//! The experiment harness that regenerates the paper's evaluation:
//!
//! - [`fig4`] — the §5 `ttcp` throughput measurements (Figure 4): four
//!   configurations (*clean kernel*, *no redirection*, *to primary only*,
//!   *primary and backup*) swept over write sizes.
//! - [`ablations`] — design-space experiments the paper discusses in prose:
//!   detector-threshold trade-off (A1), fail-over disruption (A2), chain
//!   length scaling (A3), and ack-channel loss (A4).
//! - [`chaos`] — scripted fault plans swept over seeds, with hard
//!   invariants (stream intact, survivors intact, chain reconverges, false
//!   alarms absorbed) and the fail-over latency distributions.
//! - [`scale`] — many-flow engine scaling: open-loop Poisson arrivals with
//!   heavy-tailed flow sizes across replicated services through shared
//!   redirectors, reporting events per byte, per-flow memory, and
//!   completion tail latency.
//!
//! Binaries (`fig4`, `detector_sweep`, `failover_latency`, `chain_scaling`,
//! `ackchan_loss`) print paper-style tables; `chaos` and `scale` run on the
//! parallel engine's soak driver ([`runner::run_soak`]) and write
//! `BENCH_*.json`. Everything this crate prints or writes is a function of
//! seeds and flags; wall-clock figures are the `benchmark/` harness's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod chaos;
pub mod fig4;
pub mod runner;
pub mod scale;

pub use runner::{run_tasks, Task};

/// Nearest-rank `p`-quantile (`0..=1`) of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// Renders a simple aligned table: a header row then data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&render_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bee".into()],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a'));
        assert!(lines[3].contains("20000"));
    }
}
