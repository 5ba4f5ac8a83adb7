//! End-to-end runs of the `all` harness in a throwaway working
//! directory: a `--quick` run never writes root `BENCH_*.json`
//! baselines, and a strict check fails when a baseline is missing or
//! comes from the other sweep mode.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use cras_bench::ARTIFACTS;

fn run_all(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the all binary")
}

fn root_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read working dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn quick_run_stays_under_results_and_strict_check_needs_matching_baselines() {
    let dir = std::env::temp_dir().join(format!("cras-bench-quick-run-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let out = run_all(&dir, &["--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        root_files(&dir),
        ["results"],
        "--quick wrote outside results/"
    );
    let results = dir.join("results");
    for name in ARTIFACTS {
        assert!(results.join(format!("{name}.json")).is_file(), "{name}");
        assert!(
            results.join(format!("BENCH_{name}.json")).is_file(),
            "{name}"
        );
    }

    // No baselines at all: the strict check fails instead of skipping.
    let out = run_all(&dir, &["--check", "--strict", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "strict check passed with no baselines"
    );
    assert!(
        stdout.contains("DIFF: table4: no committed baseline"),
        "{stdout}"
    );

    // Quick baselines in place, one relabelled as a full-sweep run: only
    // that one fails, and it fails the strict check.
    for name in ARTIFACTS {
        let file = format!("BENCH_{name}.json");
        fs::copy(results.join(&file), dir.join(&file)).unwrap();
    }
    let fig6 = dir.join("BENCH_fig6.json");
    let relabelled =
        fs::read_to_string(&fig6)
            .unwrap()
            .replacen("{\"quick\":true,", "{\"quick\":false,", 1);
    fs::write(&fig6, relabelled).unwrap();
    let out = run_all(&dir, &["--check", "--strict", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "strict check passed across sweep modes"
    );
    assert!(stdout.contains("OK:   fig7: byte-identical"), "{stdout}");
    assert!(
        stdout.contains("DIFF: fig6: baseline was generated in a different sweep mode"),
        "{stdout}"
    );
    assert!(stdout.contains("MISMATCH: fig6\n"), "{stdout}");

    fs::remove_dir_all(&dir).unwrap();
}
