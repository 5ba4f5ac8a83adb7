//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <catalog_storm|net_fanout|degraded_rebuild>
//!           --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]
//! ```
//!
//! Runs the named workload, built from `--seed`, once to warm up and then
//! over and over (at least three times) for about `--seconds` of host
//! time, checks every run, and prints each metric by name with its unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` untraced and traced
//! runs alternate, and the metrics are the per-layer ones from the traced
//! runs. Host times are scaled to nominal host speed by a reference
//! kernel run between workload steps (see `reference.rs`). `--repeat N`
//! runs the benchmark N times in child processes with seeds
//! `seed..seed+N` and prints each end-to-end metric's median and
//! quartiles. See `README.md` beside this crate.

mod catalog_storm;
mod degraded_rebuild;
mod layers;
mod net_fanout;
mod outcome;
mod reference;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant as HostInstant;

use outcome::Outcome;
use stats::{median, peak_rss_mb, quartiles, tail};
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["catalog_storm", "net_fanout", "degraded_rebuild"];

/// Measured runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// End-to-end metrics and their units, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("sim_speed", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("open_fail_ratio", "ratio"),
    ("frame_ontime_ratio", "ratio"),
    ("frames_shown", "frames"),
    ("startup_p50_ms", "ms"),
    ("startup_tail_ms", "ms"),
];

/// Per-layer metrics and their units, in report order.
const PER_LAYER: [(&str, &str); 74] = [
    ("cluster.open.calls", "count"),
    ("cluster.open.busy_s", "s"),
    ("cluster.open.p50_us", "us"),
    ("cluster.open.p99_us", "us"),
    ("cluster.close.calls", "count"),
    ("cluster.close.busy_s", "s"),
    ("cluster.close.p50_us", "us"),
    ("cluster.close.p99_us", "us"),
    ("cluster.step.calls", "count"),
    ("cluster.step.busy_s", "s"),
    ("cluster.step.p50_us", "us"),
    ("cluster.step.p99_us", "us"),
    ("cluster.retry.queued", "count"),
    ("cluster.retry.admitted", "count"),
    ("cluster.retry.expired", "count"),
    ("cluster.retry.resumed", "count"),
    ("cluster.retry.admit_ratio", "ratio"),
    ("cluster.pending.peak", "count"),
    ("cluster.parked.peak", "count"),
    ("bench.harness_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.sim_speed_traced", "s/s"),
    ("bench.sim_per_wall", "s/s"),
    ("bench.ref_ratio", "ratio"),
    ("sys.events", "count"),
    ("sys.ns_per_event", "ns"),
    ("sys.run.calls", "count"),
    ("sys.run.busy_s", "s"),
    ("sys.run.p50_us", "us"),
    ("sys.run.p99_us", "us"),
    ("sys.open.calls", "count"),
    ("sys.open.busy_s", "s"),
    ("sys.open.p50_us", "us"),
    ("sys.open.p99_us", "us"),
    ("sys.start.calls", "count"),
    ("sys.start.busy_s", "s"),
    ("sys.start.p50_us", "us"),
    ("sys.start.p99_us", "us"),
    ("sys.overruns", "count"),
    ("sys.parked_streams", "count"),
    ("sys.resumed_streams", "count"),
    ("sys.net_parks", "count"),
    ("sys.rebuild.sim_s", "s"),
    ("sys.rebuild.mb", "MB"),
    ("sim.pending.peak", "count"),
    ("core.intervals", "count"),
    ("core.reads_issued", "count"),
    ("core.chunks_posted", "count"),
    ("core.streams.peak", "count"),
    ("core.disk_streams.peak", "count"),
    ("core.memory_mb.peak", "MB"),
    ("core.degraded_reads", "count"),
    ("core.lost_reads", "count"),
    ("core.steered_reads", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.prefix_admitted", "count"),
    ("core.cache.joined", "count"),
    ("core.cache.cache_admitted", "count"),
    ("core.cache.deferred_drained", "count"),
    ("core.cache.interval_breaks", "count"),
    ("core.cache.peak_mb", "MB"),
    ("disk.cras_read_mb", "MB"),
    ("disk.cras_read_busy_s", "s"),
    ("disk.cras_write_mb", "MB"),
    ("disk.span_p50_ms", "ms"),
    ("disk.span_tail_ms", "ms"),
    ("net.link_mb", "MB"),
    ("net.multicast_saved_mb", "MB"),
    ("net.retransmit_mb", "MB"),
    ("net.packets", "count"),
    ("net.queue_delay_ms_mean", "ms"),
    ("net.max_queued_kb", "KB"),
    ("net.naks", "count"),
    ("net.late_frames", "count"),
];

const USAGE: &str = "usage: perfbench --workload <catalog_storm|net_fanout|degraded_rebuild> \
                     --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]";

/// Parsed command line.
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let seconds = num("seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let repeat = match kv.get("repeat") {
        Some(r) => r.parse::<usize>().map_err(|e| format!("--repeat: {e}"))?,
        None => 0,
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "repeat"].contains(&k.as_str()) {
            return Err(format!("unknown option --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn run_workload(name: &str, seed: u64, tr: &mut Tracer) -> Outcome {
    match name {
        "catalog_storm" => catalog_storm::run(seed, tr),
        "net_fanout" => net_fanout::run(seed, tr),
        "degraded_rebuild" => degraded_rebuild::run(seed, tr),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// Runs the workload once with a tracer that records (`on`) or not, and
/// stores the reference kernel's time in the outcome.
fn run_once(name: &str, seed: u64, on: bool) -> (Outcome, Tracer) {
    let mut tr = Tracer::new(on);
    let mut o = run_workload(name, seed, &mut tr);
    (o.ref_s, o.ref_calls) = tr.reference();
    (o, tr)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / (den as f64).max(1.0)
}

fn median_of(runs: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of the untraced runs. The simulated-time ones
/// are identical across runs (checked), so the first run supplies them.
fn end_to_end(runs: &[Outcome], rss_mb: f64) -> Vec<f64> {
    let first = &runs[0];
    let f = first.frames;
    let t = tail(&first.startup_ms).expect("checked: every admitted viewer has a sample");
    vec![
        median_of(runs, Outcome::sim_speed),
        median_of(runs, |o| o.setup_s),
        rss_mb,
        ratio(first.opens.unserved(), first.opens.attempted),
        ratio(f.shown, f.due()),
        f.shown as f64,
        median(&first.startup_ms),
        t.value,
    ]
}

/// The per-layer metrics: each traced run's span timings, gauges and
/// counters (median over traced runs), plus ratios against the untraced
/// runs.
fn per_layer(untraced: &[Outcome], traced: &[(Outcome, Tracer)]) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (o, tr) in traced {
        let mut put = |k: &str, v: f64| samples.entry(k.to_string()).or_default().push(v);
        for (k, v) in tr.metrics() {
            put(&k, v);
        }
        for &(k, v) in &o.counters {
            put(k, v);
        }
        put("bench.harness_s", o.work_s() - tr.busy_total());
        put("bench.sim_speed_traced", o.sim_speed());
    }
    let mut m: BTreeMap<String, f64> = samples.into_iter().map(|(k, v)| (k, median(&v))).collect();
    let plain = median_of(untraced, Outcome::sim_speed);
    m.insert(
        "bench.trace_overhead".into(),
        plain / m["bench.sim_speed_traced"],
    );
    m.insert(
        "bench.sim_per_wall".into(),
        median_of(untraced, Outcome::sim_per_wall),
    );
    m.insert(
        "bench.ref_ratio".into(),
        median_of(untraced, Outcome::ref_ratio),
    );
    let events = untraced[0].events;
    m.insert("sys.events".into(), events as f64);
    m.insert(
        "sys.ns_per_event".into(),
        median_of(untraced, |o| {
            o.work_s() / o.ref_ratio() * 1e9 / events as f64
        }),
    );
    m
}

fn json_metrics(values: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number: {v}"));
        }
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    s.push('}');
    Ok(s)
}

/// Runs the measurement loop of one invocation and prints its report.
/// A warm-up run comes first: it is checked but not measured. A new run
/// starts only if the last one would still fit in `--seconds`.
fn measure(args: &Args) -> ExitCode {
    let started = HostInstant::now();
    let (warm, _) = run_once(args.workload, args.seed, false);
    let mut last_run_s = started.elapsed().as_secs_f64();
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<(Outcome, Tracer)> = Vec::new();
    let mut i = 0;
    while i < MIN_RUNS || started.elapsed().as_secs_f64() + last_run_s < args.seconds {
        let t0 = HostInstant::now();
        let on = args.trace && i % 2 == 1;
        let (o, tr) = run_once(args.workload, args.seed, on);
        last_run_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "run {i}{}: setup {:.4} s, timed {:.3} s, reference ratio {:.3}, sim_speed {:.3}, \
             {:.1} sim s, {} events, fingerprint {:016x}",
            if on { " (traced)" } else { "" },
            o.setup_s,
            o.timed_s,
            o.ref_ratio(),
            o.sim_speed(),
            o.sim_s,
            o.events,
            o.fingerprint
        );
        if on {
            traced.push((o, tr));
        } else {
            untraced.push(o);
        }
        i += 1;
    }
    let rss_mb = peak_rss_mb().unwrap_or(f64::NAN);

    let all: Vec<&Outcome> = std::iter::once(&warm)
        .chain(&untraced)
        .chain(traced.iter().map(|t| &t.0))
        .collect();
    let mut problems: Vec<String> = all.iter().filter_map(|o| o.check().err()).collect();
    if all.iter().any(|o| o.fingerprint != all[0].fingerprint) {
        problems.push("runs of one seed produced different fingerprints".into());
    }
    let attempted: u64 = all.iter().map(|o| o.opens.attempted).sum();
    let failed: u64 = all.iter().map(|o| o.opens.errors).sum();
    problems.sort();
    problems.dedup();

    let first = untraced.first().expect("the first run is untraced");
    println!(
        "workload {} seed {} runs {} ({} traced) after a warm-up run, fingerprint {:016x}, {} events",
        args.workload,
        args.seed,
        all.len() - 1,
        traced.len(),
        first.fingerprint,
        first.events
    );
    let f = first.frames;
    println!(
        "opens: {:?}; frames: {:?}; frame_miss_ratio = {}",
        first.opens,
        f,
        ratio(f.dropped + f.late, f.due())
    );
    let values: Vec<(&str, f64, &str)> = if args.trace {
        let m = per_layer(&untraced, &traced);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else if problems.is_empty() {
        let v = end_to_end(&untraced, rss_mb);
        END_TO_END
            .iter()
            .zip(v)
            .map(|(&(name, unit), x)| (name, x, unit))
            .collect()
    } else {
        Vec::new()
    };
    for (name, v, unit) in &values {
        println!("{name} = {v} {unit}");
    }
    if !args.trace && problems.is_empty() {
        let t = tail(&first.startup_ms).expect("checked");
        println!(
            "startup_tail_ms is p{} of {} viewers, {} beyond it; \
             sim_per_wall as measured = {} s/s at reference ratio {}",
            t.pct,
            t.samples,
            t.beyond,
            median_of(&untraced, Outcome::sim_per_wall),
            median_of(&untraced, Outcome::ref_ratio)
        );
    }
    let metrics = match json_metrics(&values) {
        Ok(m) => m,
        Err(e) => {
            problems.push(e);
            "{}".into()
        }
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `args.repeat` child invocations with consecutive seeds and prints
/// each end-to-end metric's median, quartiles and quartile spread.
fn repeat(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for k in 0..args.repeat as u64 {
        let seed = args.seed.wrapping_add(k);
        let out = Command::new(&exe)
            .args(["--workload", args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("seed {seed}: child failed with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: cannot run child: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        let parsed = cras_sim::json::parse(last);
        let Some(metrics) = parsed.as_ref().ok().and_then(|j| j.get("metrics")) else {
            eprintln!("seed {seed}: unreadable result line {last:?}");
            return ExitCode::FAILURE;
        };
        let mut line = format!("seed {seed}:");
        for (name, _) in END_TO_END {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN);
            line.push_str(&format!(" {name}={v:.6}"));
            values.entry(name.to_string()).or_default().push(v);
        }
        println!("{line}");
    }
    println!(
        "metric                 unit      median          q1              q3              spread"
    );
    for (name, unit) in END_TO_END {
        let v = &values[name];
        match quartiles(v) {
            Some((q1, q2, q3)) => println!(
                "{name:<22} {unit:<9} {q2:<15.6} {q1:<15.6} {q3:<15.6} {:.4}",
                (q3 - q1) / q2
            ),
            None => println!("{name:<22} {unit:<9} {:<15.6} (one sample)", v[0]),
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        repeat(&args)
    } else {
        measure(&args)
    }
}
