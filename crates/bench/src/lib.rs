//! `cras-bench` — the regeneration harness.
//!
//! One entry point regenerates every evaluation artifact
//! (`cargo run -p cras-bench --release --bin all`): it prints the
//! paper-style rows/series, writes JSON under `results/` and, on a full
//! run, the committed `BENCH_<name>.json` baselines at the repo root.
//! `report` summarizes `results/`. Micro-benchmarks live in `benches/`
//! on the in-tree [`timer`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod timer;

use std::fs;
use std::path::Path;

/// Every deterministic artifact `all` emits, in emission order. Each
/// has a committed `BENCH_<name>.json` baseline that `--check` holds
/// the fresh run to byte for byte. The wall-clock artifact,
/// `workloads`, is not listed.
#[rustfmt::skip]
pub const ARTIFACTS: [&str; 34] = [
    "table4", "table3", "fig12", "capacity", "ablate",
    "fig6", "fig7", "fig8", "fig9", "fig10",
    "frag", "vbr", "qos", "faults",
    "failover", "failover_rebuild", "parity_failover", "parity_failover_rebuild",
    "steered_reads", "net_delivery",
    "cache_sharing", "cache_sharing_admitted", "cluster_scaling", "cluster_scaling_served",
    "catalog_scaling", "interval_overlap", "interval_overlap_span",
    "measured_capacity", "capacity_scaling", "deploy", "disk_sched", "multi", "editing",
    "buffer_ablation",
];

/// Writes a JSON artifact under `results/`, creating the directory.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_result(name: &str, json: &str) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json).expect("write result file");
    eprintln!("wrote {}", path.display());
}

/// Returns true when `--quick` was passed (reduced sweeps for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Returns true when `--check` was passed (compare against committed
/// baselines instead of rewriting them).
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Returns true when `--strict` was passed alongside `--check`: a
/// mismatch, a missing baseline or a sweep-mode mismatch exits nonzero
/// instead of merely printing. CI runs `all -- --check --strict`.
pub fn strict_mode() -> bool {
    std::env::args().any(|a| a == "--strict")
}

/// Wraps an artifact's payload as `{"quick":…,"data":…}`, so a `--check`
/// run can refuse to compare across sweep modes.
fn wrap(json: &str, quick: bool) -> String {
    format!("{{\"quick\":{quick},\"data\":{json}}}")
}

/// Writes a perf-trajectory artifact, wrapped by sweep mode, under
/// `results/` as `BENCH_<name>.json`. A full run also writes it at the
/// repo root, where the committed baselines live; a `--quick` run never
/// touches them.
///
/// # Panics
///
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_bench(name: &str, json: &str, quick: bool) {
    let wrapped = wrap(json, quick);
    if !quick {
        let file = format!("BENCH_{name}.json");
        fs::write(&file, &wrapped).expect("write BENCH artifact");
        eprintln!("wrote {file}");
    }
    write_result(&format!("BENCH_{name}"), &wrapped);
}

/// Pulls every numeric token out of a JSON string, in order. Good
/// enough for baseline comparison of our hand-rolled artifacts (no
/// serde dependency): the emitters are deterministic, so two runs of
/// the same code produce tokens in the same order.
fn numeric_tokens(json: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let start = i;
            i += 1;
            while i < bytes.len()
                && matches!(bytes[i] as char, '0'..='9' | '.' | 'e' | 'E' | '-' | '+')
            {
                i += 1;
            }
            out.push(&json[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// How a fresh artifact is held against its committed baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Simulated results: byte for byte.
    Exact,
    /// Wall-clock step timings (`{"steps":[{"name","wall_secs"}…],
    /// "total_wall_secs"}`): the total and every step whose baseline
    /// took at least 0.1 s within ±20%; shorter steps, where a
    /// millisecond of jitter is a large fraction, are listed as info.
    Timing,
}

/// The shortest baseline step time the [`Gate::Timing`] band applies to.
const BANDED_SECS: f64 = 0.1;

/// Compares a freshly generated artifact against the committed
/// `BENCH_<name>.json` baseline and prints one `OK` or `DIFF` line.
/// Returns `false` on a mismatch under `gate`, a missing baseline or a
/// baseline from the other sweep mode; callers turn that into a
/// nonzero exit under [`strict_mode`].
pub fn check_bench(name: &str, json_now: &str, quick: bool, gate: Gate) -> bool {
    let baseline = fs::read_to_string(format!("BENCH_{name}.json")).ok();
    let verdict = compare(baseline.as_deref(), json_now, quick, gate);
    match &verdict {
        Ok(msg) => println!("OK:   {name}: {msg}"),
        Err(msg) => println!("DIFF: {name}: {msg}"),
    }
    verdict.is_ok()
}

/// The verdict behind [`check_bench`], on the baseline file's contents.
fn compare(baseline: Option<&str>, now: &str, quick: bool, gate: Gate) -> Result<String, String> {
    let baseline = baseline.ok_or("no committed baseline")?;
    let base = baseline
        .strip_prefix(&format!("{{\"quick\":{quick},\"data\":"))
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or("baseline was generated in a different sweep mode")?;
    match gate {
        Gate::Timing => compare_timing(base, now),
        Gate::Exact if base == now => Ok("byte-identical".into()),
        Gate::Exact => {
            let (b, n) = (numeric_tokens(base), numeric_tokens(now));
            Err(match b.iter().zip(&n).position(|(x, y)| x != y) {
                Some(i) => format!("numeric field #{i}: baseline {} vs now {}", b[i], n[i]),
                None if b.len() != n.len() => {
                    format!("{} numeric fields vs baseline {}", n.len(), b.len())
                }
                None => "non-numeric content differs".into(),
            })
        }
    }
}

/// The [`Gate::Timing`] verdict on a step-timing artifact's payloads.
/// The first line holds the verdict; a second `INFO:` line lists the
/// steps too short to band, baseline -> now.
fn compare_timing(base: &str, now: &str) -> Result<String, String> {
    const TOLERANCE: f64 = 0.20;
    let (b, n) = (timing_fields(base)?, timing_fields(now)?);
    if !b.iter().map(|f| &f.0).eq(n.iter().map(|f| &f.0)) {
        return Err("artifact shape changed (step list differs from the baseline)".into());
    }
    let (mut worst, mut worst_at, mut banded, mut info) = (0.0f64, "", 0, Vec::new());
    for (i, ((name, was), (_, is))) in b.iter().zip(&n).enumerate() {
        // The last field is the total, which is always banded.
        if *was >= BANDED_SECS || i == b.len() - 1 {
            let drift = (is - was).abs() / was.max(1e-9);
            if drift >= worst {
                (worst, worst_at) = (drift, name);
            }
            banded += 1;
        } else {
            info.push(format!("{name} {was:.3}->{is:.3}"));
        }
    }
    let mut msg = format!(
        "worst drift {:+.1}% ({worst_at}) over {banded} fields (steps of at least {BANDED_SECS} s, and the total)",
        worst * 100.0
    );
    let outside = worst > TOLERANCE;
    if outside {
        msg += &format!(" — outside +/-{:.0}%", TOLERANCE * 100.0);
    }
    if !info.is_empty() {
        msg += &format!(
            "\nINFO: {} steps under {BANDED_SECS} s, not banded (s): {}",
            info.len(),
            info.join(", ")
        );
    }
    if outside {
        Err(msg)
    } else {
        Ok(msg)
    }
}

/// A step-timing payload as `(name, wall seconds)` per step, in order,
/// then `("total", total_wall_secs)`.
fn timing_fields(json: &str) -> Result<Vec<(String, f64)>, String> {
    let bad = || "not a step-timing artifact".to_string();
    let v = cras_sim::json::parse(json).map_err(|e| format!("unparsable timing artifact: {e}"))?;
    let mut out = Vec::new();
    for step in v.get("steps").and_then(|s| s.as_array()).ok_or_else(bad)? {
        let name = step.get("name").and_then(|n| n.as_str()).ok_or_else(bad)?;
        let secs = step
            .get("wall_secs")
            .and_then(|w| w.as_f64())
            .ok_or_else(bad)?;
        out.push((name.to_string(), secs));
    }
    let total = v
        .get("total_wall_secs")
        .and_then(|t| t.as_f64())
        .ok_or_else(bad)?;
    out.push(("total".into(), total));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn quick_mode_defaults_off() {
        assert!(!quick_mode());
    }

    #[test]
    fn artifact_list_matches_the_committed_baselines() {
        let unique: BTreeSet<&str> = ARTIFACTS.iter().copied().collect();
        assert_eq!(unique.len(), ARTIFACTS.len(), "duplicate artifact name");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed: BTreeSet<String> = fs::read_dir(root)
            .expect("read repo root")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|f| Some(f.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
            .filter(|n| n != "workloads")
            .collect();
        let listed: BTreeSet<String> = unique.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            listed, committed,
            "orphaned baseline or unregistered artifact"
        );
    }

    #[test]
    fn exact_gate_names_the_first_differing_field() {
        let base = wrap(r#"{"n":3,"xs":[1.5,2.25,7]}"#, false);
        let ok = compare(
            Some(&base),
            r#"{"n":3,"xs":[1.5,2.25,7]}"#,
            false,
            Gate::Exact,
        );
        assert_eq!(ok, Ok("byte-identical".into()));
        let err = compare(
            Some(&base),
            r#"{"n":3,"xs":[1.5,2.26,7]}"#,
            false,
            Gate::Exact,
        );
        assert_eq!(
            err,
            Err("numeric field #2: baseline 2.25 vs now 2.26".into())
        );
        // A change far inside the old ±20% band still fails.
        let err = compare(
            Some(&base),
            r#"{"n":3,"xs":[1.5,2.25,7.0001]}"#,
            false,
            Gate::Exact,
        );
        assert!(err.unwrap_err().contains("#3"));
        let err = compare(
            Some(&base),
            r#"{"n":3,"xs":[1.5,2.25,7],"y":1}"#,
            false,
            Gate::Exact,
        );
        assert_eq!(err, Err("5 numeric fields vs baseline 4".into()));
        let err = compare(
            Some(&base),
            r#"{"n":3,"ys":[1.5,2.25,7]}"#,
            false,
            Gate::Exact,
        );
        assert_eq!(err, Err("non-numeric content differs".into()));
    }

    /// A step-timing payload: steps `a` and `b`, then the total.
    fn timings(a: f64, b: f64, total: f64) -> String {
        format!(
            r#"{{"steps":[{{"name":"a","wall_secs":{a}}},{{"name":"b","wall_secs":{b}}}],"total_wall_secs":{total}}}"#
        )
    }

    #[test]
    fn timing_gate_tolerates_twenty_percent() {
        let base = wrap(&timings(1.0, 0.5, 1.5), false);
        let timing = |now: String| compare(Some(&base), &now, false, Gate::Timing);
        assert!(timing(timings(1.15, 0.5, 1.5)).is_ok());
        assert!(timing(timings(1.3, 0.5, 1.5)).is_err());
        assert!(
            timing(timings(1.0, 0.5, 1.9)).is_err(),
            "the total is banded"
        );
    }

    #[test]
    fn timing_gate_lists_steps_under_a_tenth_of_a_second_as_info() {
        let base = wrap(&timings(1.0, 0.002, 0.05), false);
        let timing = |now: String| compare(Some(&base), &now, false, Gate::Timing);
        // Step `b` tripled, but its baseline is under 0.1 s: info only.
        let msg = timing(timings(1.1, 0.006, 0.05)).unwrap();
        assert!(msg.contains("over 2 fields"), "{msg}");
        assert!(msg.contains("\nINFO: 1 steps under 0.1 s") && msg.contains("b 0.002->0.006"));
        // The total is banded even when it is short.
        assert!(timing(timings(1.0, 0.002, 0.07)).is_err());
        // A renamed or added step is a shape change.
        let renamed = timings(1.0, 0.002, 0.05).replace("\"b\"", "\"c\"");
        assert!(timing(renamed).unwrap_err().contains("shape changed"));
    }

    #[test]
    fn missing_baseline_or_other_sweep_mode_fails() {
        let json = r#"{"n":1}"#;
        for gate in [Gate::Exact, Gate::Timing] {
            assert!(compare(None, json, false, gate).is_err());
            let full = wrap(json, false);
            assert!(compare(Some(&full), json, true, gate).is_err());
            let quick = wrap(json, true);
            assert!(compare(Some(&quick), json, false, gate).is_err());
        }
    }
}
