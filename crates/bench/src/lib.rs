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
    /// Wall-clock timings: every numeric field within ±20%.
    Timing,
}

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
    const TOLERANCE: f64 = 0.20;
    let baseline = baseline.ok_or("no committed baseline")?;
    let base = baseline
        .strip_prefix(&format!("{{\"quick\":{quick},\"data\":"))
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or("baseline was generated in a different sweep mode")?;
    if gate == Gate::Exact && base == now {
        return Ok("byte-identical".into());
    }
    let (b, n) = (numeric_tokens(base), numeric_tokens(now));
    if gate == Gate::Exact {
        return Err(match b.iter().zip(&n).position(|(x, y)| x != y) {
            Some(i) => format!("numeric field #{i}: baseline {} vs now {}", b[i], n[i]),
            None if b.len() != n.len() => {
                format!("{} numeric fields vs baseline {}", n.len(), b.len())
            }
            None => "non-numeric content differs".into(),
        });
    }
    if b.len() != n.len() {
        return Err(format!(
            "artifact shape changed ({} numeric fields vs baseline {})",
            n.len(),
            b.len()
        ));
    }
    let parse = |t: &str| t.parse::<f64>().unwrap_or(f64::NAN);
    let worst = b
        .iter()
        .zip(&n)
        .map(|(b, n)| (parse(n) - parse(b)).abs() / parse(b).abs().max(1e-9))
        .fold(0.0f64, f64::max);
    let drift = format!("worst field drift {:+.1}%", worst * 100.0);
    if worst > TOLERANCE {
        Err(format!("{drift} — outside +/-{:.0}%", TOLERANCE * 100.0))
    } else {
        Ok(drift)
    }
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

    #[test]
    fn timing_gate_tolerates_twenty_percent() {
        let base = wrap(r#"{"wall_secs":1.0}"#, false);
        assert!(compare(Some(&base), r#"{"wall_secs":1.15}"#, false, Gate::Timing).is_ok());
        assert!(compare(Some(&base), r#"{"wall_secs":1.3}"#, false, Gate::Timing).is_err());
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
