//! Emits a Markdown summary of every artifact under `results/` — the
//! mechanical cross-check for EXPERIMENTS.md.

use std::fs;

use cras_bench::report::summarize;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let Ok(entries) = fs::read_dir(&dir) else {
        eprintln!("no {dir}/ directory; run `--bin all` first");
        std::process::exit(1);
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    println!("# Result summary ({} artifacts)\n", paths.len());
    for p in paths {
        let Ok(text) = fs::read_to_string(&p) else {
            continue;
        };
        let Ok(v) = cras_sim::json::parse(&text) else {
            eprintln!("skipping unparsable {}", p.display());
            continue;
        };
        match summarize(&v) {
            Some(s) => println!("{s}"),
            None => eprintln!("skipping unknown shape {}", p.display()),
        }
    }
}
