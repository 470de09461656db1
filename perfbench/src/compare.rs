//! `perfbench compare PARENT.jsonl CHANGE.jsonl`: one row per (workload,
//! end-to-end metric), pairing the two sides' runs by seed.
//!
//! Verdicts, in order:
//!
//! * `improved` — the change wins at least 90 % of the pairs (ties count
//!   for neither side) and its median beats the parent's by more than the
//!   parent's interquartile range;
//! * `unresolved` — either side's spread (IQR / median) is wider than the
//!   metric's bound, so "no regression" cannot be claimed;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `same` — otherwise.

use crate::calibrate::Record;
use crate::manifest::{Manifest, MetricSpec};
use crate::stats::{median, quartiles, relative_spread};

/// Fewer pairs per workload than this cannot support a verdict.
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim an improvement.
const WIN_SHARE: f64 = 0.9;

fn verdict(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (&'static str, f64) {
    let better = |c: f64, p: f64| if spec.higher_is_better() { c > p } else { c < p };
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let share = wins as f64 / parent.len() as f64;
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let bound = spec.bound.unwrap_or(0.0);
    let worse_by = if spec.higher_is_better() { (mp - mc) / mp } else { (mc - mp) / mp };
    let v = if share >= WIN_SHARE && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        "improved"
    } else if relative_spread(parent) > bound || relative_spread(change) > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "same"
    };
    (v, share)
}

fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let parent = Record::load(parent_path)?;
    let change = Record::load(change_path)?;
    println!(
        "{:<14} {:<12} {:>30} {:>30} {:>6} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for workload in &manifest.workloads {
        let pairs: Vec<(&Record, &Record)> = parent
            .iter()
            .filter(|r| &r.workload == workload)
            .filter_map(|p| {
                change.iter().find(|c| &c.workload == workload && c.seed == p.seed).map(|c| (p, c))
            })
            .collect();
        if pairs.len() < MIN_PAIRS {
            return Err(format!(
                "{workload}: {} paired runs (same seed on both sides); at least {MIN_PAIRS} \
                 alternating pairs are needed",
                pairs.len()
            ));
        }
        for spec in &manifest.end_to_end {
            let values = |side: usize| -> Result<Vec<f64>, String> {
                pairs
                    .iter()
                    .map(|pair| {
                        let run = if side == 0 { pair.0 } else { pair.1 };
                        run.metric(&spec.name).ok_or_else(|| {
                            format!("{workload}: a run lacks the metric {:?}", spec.name)
                        })
                    })
                    .collect()
            };
            let (p, c) = (values(0)?, values(1)?);
            let (v, share) = verdict(spec, &p, &c);
            regressed |= v == "regressed";
            let side = |x: &[f64]| {
                let [q1, _, q3] = quartiles(x);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(x))
            };
            println!(
                "{workload:<14} {:<12} {:>30} {:>30} {:>5.0}% {v}",
                spec.name,
                side(&p),
                side(&c),
                100.0 * share
            );
        }
    }
    Ok(!regressed)
}

/// Entry point of `perfbench compare`; exits 1 when any pair regressed.
pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: perfbench compare PARENT.jsonl CHANGE.jsonl");
        return 2;
    };
    match compare(parent, change) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &str) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "s".into(), better: better.into(), bound: Some(0.05) }
    }

    #[test]
    fn verdicts() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&spec("lower"), &base, &faster).0, "improved");
        assert_eq!(verdict(&spec("lower"), &base, &slower).0, "regressed");
        assert_eq!(verdict(&spec("higher"), &base, &slower).0, "improved");
        assert_eq!(verdict(&spec("lower"), &base, &base).0, "same");
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(verdict(&spec("lower"), &noisy, &noisy).0, "unresolved");
    }
}
