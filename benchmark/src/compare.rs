//! `aitf-benchmark compare A.json B.json`: two result sets, metric by
//! metric, against the benchmark's own bounds.
//!
//! A is the parent (or the first set), B the change (or the second set).
//! For every (end-to-end metric, workload) it prints both medians and
//! quartiles, how much worse B is as a share of A's median, the bound, and
//! a verdict. Where a side's spread is wider than the bound the verdict is
//! `unresolved`, not `unchanged` — unless every sample of B beats every
//! sample of A. Simulated values and counts of the traced runs must be
//! identical between the sets.

use crate::json::{parse, Json};
use crate::metrics::{self, Better};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples reduced to what the table shows.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative =
/// better), and the verdict under `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let signed = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let worse = if sa.median == 0.0 {
        if signed == 0.0 {
            0.0
        } else {
            signed.signum() * f64::INFINITY
        }
    } else {
        signed / sa.median.abs()
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_wins_every_pair = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let spread = sa.spread().max(sb.spread());
    // A gain must exceed the runs' own spread; a single value per side has
    // no spread to show, so there it must exceed the bound.
    let noise = if a.len() < 2 || b.len() < 2 {
        bound
    } else {
        spread
    };
    let verdict = if spread > bound {
        if b_wins_every_pair {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > noise && b_wins_every_pair {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// The samples behind one metric of one run: the per-pass list when the
/// run kept one, else the single reported value.
fn samples_of(run: &Json, metric: &str) -> Option<Vec<f64>> {
    let listed = run
        .get("samples")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|vs| !vs.is_empty());
    listed.or_else(|| {
        let v = run.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
        Some(vec![v])
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn ops(run: &Json) -> (f64, f64) {
    let n = |k| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    (n("attempted"), n("failed"))
}

/// Prints the comparison; `Ok(true)` when nothing regressed, no operation
/// failed and every exact value is identical.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no \"workloads\" object: not a results.json")?
            .to_vec())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut clean = true;
    let mut tally = [0usize; 4];
    println!(
        "{:<18} {:<27} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "worse%",
        "bound%"
    );
    for (name, runs_a) in &wa {
        let Some((_, runs_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from {path_b}");
            clean = false;
            continue;
        };
        let (ua, ub) = (runs_a.get("untraced"), runs_b.get("untraced"));
        let (Some(ua), Some(ub)) = (ua, ub) else {
            println!("{name}: no untraced run in one of the sets");
            clean = false;
            continue;
        };
        for (def, bound) in metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (samples_of(ua, def.name), samples_of(ub, def.name)) else {
                println!("{name:<18} {:<27} missing", def.name);
                clean = false;
                continue;
            };
            let (worse, verdict) = judge(&sa, &sb, def.better, bound);
            let (x, y) = (Summary::of(&sa), Summary::of(&sb));
            let range = |s: Summary| format!("[{:.6}, {:.6}]", s.q1, s.q3);
            println!(
                "{name:<18} {:<27} {:>12.6} {:>25} {:>12.6} {:>25} {:>+8.2} {:>6.1}  {}",
                def.name,
                x.median,
                range(x),
                y.median,
                range(y),
                worse * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
            tally[verdict as usize] += 1;
            clean &= verdict != Verdict::Regressed;
        }
        // Exact values: every simulated quantity and count of the traced
        // runs, and the sim_* of the untraced ones.
        let mut moved = Vec::new();
        for (kind, ra, rb) in [
            ("untraced", Some(ua), Some(ub)),
            ("traced", runs_a.get("traced"), runs_b.get("traced")),
        ] {
            let (Some(ra), Some(rb)) = (ra, rb) else {
                continue;
            };
            let exact = |d: &metrics::Def| {
                d.name.starts_with("sim_") || matches!(d.unit, "count" | "B" | "entries")
            };
            let all = metrics::END_TO_END
                .iter()
                .map(|(d, _)| d)
                .chain(metrics::PER_LAYER.iter());
            for d in all.filter(|d| exact(d) && !d.name.starts_with("harness.")) {
                let v = |r: &Json| r.get("metrics")?.get(d.name)?.get("value")?.as_f64();
                if let (Some(x), Some(y)) = (v(ra), v(rb)) {
                    if x.to_bits() != y.to_bits() {
                        moved.push(format!("{kind} {} {x} -> {y}", d.name));
                    }
                }
            }
            let ((att_a, fail_a), (att_b, fail_b)) = (ops(ra), ops(rb));
            println!(
                "{name:<18} {kind} failed operations: A {fail_a}/{att_a} ({:.2}%), B {fail_b}/{att_b} ({:.2}%)",
                100.0 * fail_a / att_a.max(1.0),
                100.0 * fail_b / att_b.max(1.0)
            );
            clean &= fail_a == 0.0 && fail_b == 0.0;
        }
        if moved.is_empty() {
            println!("{name:<18} simulated values and counts: identical");
        } else {
            println!("{name:<18} simulated values and counts MOVED: {moved:?}");
            clean = false;
        }
    }
    println!(
        "improved {}, unchanged {}, regressed {}, unresolved {}",
        tally[Verdict::Improved as usize],
        tally[Verdict::Unchanged as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn within_bound_is_unchanged_and_beyond_it_regressed() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 1.03).collect();
        let (worse, v) = judge(&TIGHT_A, &b, Better::Lower, 0.05);
        assert!((worse - 0.03).abs() < 1e-9);
        assert_eq!(v, Verdict::Unchanged);
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 1.08).collect();
        assert_eq!(
            judge(&TIGHT_A, &b, Better::Lower, 0.05).1,
            Verdict::Regressed
        );
        // Direction: a throughput that rises 8% is not a regression.
        assert_eq!(
            judge(&TIGHT_A, &b, Better::Higher, 0.05).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&b, &TIGHT_A, Better::Higher, 0.05).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_clear_win_is_improved_and_a_marginal_one_is_not() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.80).collect();
        let (worse, v) = judge(&TIGHT_A, &b, Better::Lower, 0.05);
        assert!(worse < -0.19);
        assert_eq!(v, Verdict::Improved);
        // Better by less than the runs' own spread: unchanged.
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.995).collect();
        assert_eq!(
            judge(&TIGHT_A, &b, Better::Lower, 0.05).1,
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9, 1.2, 0.7];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.01).collect();
        assert_eq!(
            judge(&noisy, &shifted, Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // Even a median far past the bound is unresolved, not regressed.
        let far: Vec<f64> = noisy.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&noisy, &far, Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // ...but every run of B beating every run of A resolves it.
        let wins: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_eq!(
            judge(&noisy, &wins, Better::Lower, 0.05).1,
            Verdict::Improved
        );
    }

    #[test]
    fn single_exact_values_compare_by_the_bound_alone() {
        assert_eq!(
            judge(&[8.0], &[8.0], Better::Lower, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[8.0], &[9.0], Better::Lower, 0.1).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.1).0, 0.0);
        assert_eq!(
            judge(&[0.0], &[1.0], Better::Lower, 0.1).1,
            Verdict::Regressed
        );
        // One value a side shows no spread: only a gain past the bound counts.
        assert_eq!(
            judge(&[441.47], &[441.46], Better::Lower, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[8.0], &[7.0], Better::Lower, 0.1).1,
            Verdict::Improved
        );
    }
}
