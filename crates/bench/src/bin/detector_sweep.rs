//! A1: failure-detector threshold vs. detection latency / false positives.

use hydranet_bench::ablations::{detector_sweep, DetectorGridConfig};
use hydranet_bench::render_table;

fn main() {
    println!("HydraNet-FT reproduction — A1: detector threshold trade-off");
    println!("crash scenario: primary fails 50 ms into a bulk transfer");
    println!(
        "false-positive scenario: healthy run, 3% loss on the redirector→primary link (60 s)\n"
    );
    let thresholds = [1, 2, 3, 4, 5, 6, 8, 10];
    let points = detector_sweep(&thresholds, &DetectorGridConfig::default(), 11, 1);
    let header = vec![
        "threshold".to_string(),
        "detection latency".to_string(),
        "false reports".to_string(),
        "false reconfigs".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threshold.to_string(),
                p.detection_latency
                    .map_or("not detected".into(), |d| format!("{d}")),
                p.false_reports.to_string(),
                p.false_reconfigurations.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    println!("(paper §4.3: thresholds must clear TCP's triple-dup-ack machinery;");
    println!(" low thresholds misfire under ordinary loss — the redirector's");
    println!(" probe round absorbs misfires, at the cost of probe traffic)");
}
