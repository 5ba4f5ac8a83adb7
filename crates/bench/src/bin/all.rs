//! The regeneration harness: runs every figure/table experiment in
//! sequence, each configured once here, and checks each experiment's
//! acceptance bar in every mode.
//!
//! ```text
//! cargo run --release -p cras-bench --bin all [-- --quick] [-- --check [--strict]]
//! ```
//!
//! A full run writes every artifact in [`ARTIFACTS`] as a committed
//! `BENCH_<name>.json` baseline at the repo root (plus copies under
//! `results/`) and collects per-step wall timings into
//! `BENCH_workloads.json`. `--quick` runs reduced sweeps and writes
//! only under `results/`. With `--check`, the suite re-runs and each
//! artifact is compared byte for byte against its baseline instead of
//! being rewritten; the wall-clock timings of steps that take at least
//! 0.1 s, and the total, get a ±20% band (shorter steps are listed as
//! info) and never fail the run. Adding `--strict` turns any mismatch, missing baseline
//! or sweep-mode mismatch into a nonzero exit.

use cras_bench::{
    check_bench, check_mode, quick_mode, strict_mode, write_bench, write_result, Gate, ARTIFACTS,
};
use cras_sim::Duration;
use cras_sys::IssueMode;
use cras_workload as wl;

/// Routes each artifact to stdout plus the BENCH trajectory (write or
/// check), collecting per-step wall timings along the way.
struct Emitter {
    quick: bool,
    check: bool,
    strict: bool,
    mismatched: Vec<&'static str>,
    started: std::time::Instant,
    last: std::time::Instant,
    steps: Vec<(&'static str, f64)>,
}

impl Emitter {
    fn new() -> Emitter {
        let now = std::time::Instant::now();
        Emitter {
            quick: quick_mode(),
            check: check_mode(),
            strict: strict_mode(),
            mismatched: Vec::new(),
            started: now,
            last: now,
            steps: Vec::new(),
        }
    }

    /// Prints the rendered artifact and emits its JSON. Artifacts come
    /// in [`ARTIFACTS`] order. The wall time since the previous emit is
    /// attributed to this step, so a step producing two artifacts
    /// charges the compute to the first.
    fn emit(&mut self, name: &'static str, text: &str, json: &str) {
        assert_eq!(
            ARTIFACTS.get(self.steps.len()),
            Some(&name),
            "emitted out of order"
        );
        println!("{text}");
        self.steps.push((name, self.last.elapsed().as_secs_f64()));
        self.last = std::time::Instant::now();
        if self.check {
            if !check_bench(name, json, self.quick, Gate::Exact) {
                self.mismatched.push(name);
            }
        } else {
            write_result(name, json);
            write_bench(name, json, self.quick);
        }
    }

    /// Emits the per-step timing artifact. Timings are the noisiest
    /// numbers in the suite, so under `--check` the total and the steps
    /// of at least 0.1 s are compared within ±20%, shorter steps are
    /// only listed, and none feed the `--strict` exit code. With
    /// `--check --strict`, any data artifact that is not byte-identical
    /// to its baseline exits nonzero.
    fn finish(self) {
        assert_eq!(
            self.steps.len(),
            ARTIFACTS.len(),
            "an artifact was never emitted"
        );
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|(name, secs)| format!("{{\"name\":\"{name}\",\"wall_secs\":{secs:.3}}}"))
            .collect();
        let json = format!(
            "{{\"steps\":[{}],\"total_wall_secs\":{:.3}}}",
            steps.join(","),
            self.started.elapsed().as_secs_f64()
        );
        if self.check {
            check_bench("workloads", &json, self.quick, Gate::Timing);
            if !self.mismatched.is_empty() {
                println!("MISMATCH: {}", self.mismatched.join(", "));
                if self.strict {
                    std::process::exit(1);
                }
            }
        } else {
            write_bench("workloads", &json, self.quick);
        }
    }
}

fn main() {
    let mut em = Emitter::new();
    let quick = em.quick;
    let secs = |q: u64, f: u64| Duration::from_secs(if quick { q } else { f });

    let cal = wl::fig12::run_calibration();
    let t = wl::fig12::table4(&cal);
    em.emit("table4", &t.render(), &t.to_json());
    let t = wl::capacity::table3(cal.params);
    em.emit("table3", &t.render(), &t.to_json());
    let f = wl::fig12::fig12(&cal);
    em.emit("fig12", &f.render(), &f.to_json());
    let (alpha_us, beta_ms) = (cal.fit.0 * 1e6, cal.fit.1 * 1e3);
    println!("# linear fit: alpha = {alpha_us:.3} us/cyl, beta = {beta_ms:.3} ms");
    let f = wl::capacity::figure(cal.params);
    em.emit("capacity", &f.render(), &f.to_json());
    println!("# paper claim: 3 s initial delay supports >25 MPEG1 streams (~70% of bandwidth)");
    let (t, _) = wl::ablate::run(cal.params);
    em.emit("ablate", &t.render(), &t.to_json());

    let fig6 = wl::fig6::run(&wl::fig6::Fig6Config {
        max_streams: if quick { 13 } else { 25 },
        step: if quick { 4 } else { 1 },
        measure: secs(10, 20),
        ..wl::fig6::Fig6Config::default()
    });
    em.emit("fig6", &fig6.render(), &fig6.to_json());
    for s in &fig6.series {
        let y = s.last_y().unwrap_or(0.0);
        let (mb, share) = (y / 1e6, 100.0 * y / 6.5e6);
        println!(
            "# {}: final {mb:.2} MB/s = {share:.0}% of disk rate",
            s.name
        );
    }

    let (fig7, c7, u7) = wl::fig7::run(&wl::fig7::Fig7Config {
        trace: secs(15, 60),
        ..wl::fig7::Fig7Config::default()
    });
    em.emit("fig7", &fig7.render(), &fig7.to_json());
    println!(
        "# CRAS delay mean/max: {:.4}/{:.4}s; UFS: {:.4}/{:.4}s",
        c7.0, c7.1, u7.0, u7.1
    );

    for (name, mut cfg) in [
        ("fig8", wl::admission_acc::AccuracyConfig::fig8()),
        ("fig9", wl::admission_acc::AccuracyConfig::fig9()),
    ] {
        if quick {
            cfg.measure = Duration::from_secs(10);
            cfg.step = if name == "fig8" { 4 } else { 2 };
        }
        let f = wl::admission_acc::run(&cfg);
        em.emit(name, &f.render(), &f.to_json());
    }

    let (fig10, fp, rr) = wl::fig10::run(&wl::fig10::Fig10Config {
        trace: secs(15, 60),
        ..wl::fig10::Fig10Config::default()
    });
    em.emit("fig10", &fig10.render(), &fig10.to_json());
    println!("# FP max {:.4}s vs RR max {:.4}s", fp.1, rr.1);

    let (frag_t, _) = wl::frag::run(if quick { 6 } else { 8 }, secs(10, 20), 0x5EED);
    em.emit("frag", &frag_t.render(), &frag_t.to_json());

    let (vbr_t, _, _) = wl::vbr::run(secs(10, 30), 0x5BB);
    em.emit("vbr", &vbr_t.render(), &vbr_t.to_json());

    let (qos_t, _) = wl::qos::run(secs(12, 30), secs(6, 15), 0x05);
    em.emit("qos", &qos_t.render(), &qos_t.to_json());

    let (faults_t, _) = wl::faults::sweep(&[0.0, 0.01, 0.05, 0.2, 0.6], 8, secs(10, 20), 0xFA17);
    em.emit("faults", &faults_t.render(), &faults_t.to_json());

    let fo_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8, 12] };
    let (fo_t, fo_f, _) = wl::failover::sweep(fo_counts, 4, secs(10, 20), 0xF417);
    em.emit("failover", &fo_t.render(), &fo_t.to_json());
    em.emit("failover_rebuild", &fo_f.render(), &fo_f.to_json());

    let (pf_t, pf_f, _) = wl::parity_failover::sweep(fo_counts, 4, secs(10, 20), 0x9417);
    em.emit("parity_failover", &pf_t.render(), &pf_t.to_json());
    em.emit("parity_failover_rebuild", &pf_f.render(), &pf_f.to_json());

    let (sr_t, sr_f, sr_outs) =
        wl::steered_reads::contrast(if quick { 3 } else { 4 }, 4, 3, secs(8, 16), 0x57E3);
    let sr_json = wl::steered_reads::points_json(&sr_outs);
    em.emit("steered_reads", &sr_t.render(), &sr_json);
    println!("{}", sr_f.render());
    // Bar: steering bypasses the hot spindle and cuts the tail span
    // without changing what is delivered.
    let [direct, steered] = sr_outs.as_slice() else {
        panic!("expected two outcomes, got {sr_outs:?}");
    };
    for o in [direct, steered] {
        assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
        assert_eq!(o.lost_reads, 0, "reads lost with no failure: {o:?}");
    }
    assert!(
        steered.steered_stream_intervals > 0,
        "hot spindle never bypassed: {steered:?}"
    );
    assert!(
        steered.tail_span < direct.tail_span,
        "steered p95 {:.4}s not below direct {:.4}s",
        steered.tail_span,
        direct.tail_span
    );
    assert_eq!(
        direct.delivered, steered.delivered,
        "steering altered delivered frames/bytes"
    );

    let net_p = wl::net_delivery::NetParams {
        measure: secs(12, 30),
        ..wl::net_delivery::NetParams::default()
    };
    let (net_t, net_f, net_outs) = wl::net_delivery::suite(&net_p);
    let net_json = wl::net_delivery::points_json(&net_outs);
    em.emit("net_delivery", &net_t.render(), &net_json);
    println!("{}", net_f.render());
    // Bar: unicast oversubscribes the wire, multicast fixes it, a slow
    // client parks only itself, and NAKs repair injected loss.
    let [uni, multi, slow, clean, loss1, loss4] = net_outs.as_slice() else {
        panic!("expected six outcomes, got {} modes", net_outs.len());
    };
    assert!(
        uni.late > 0,
        "oversubscribed unicast never missed a deadline: {uni:?}"
    );
    assert!(
        multi.link_bytes < uni.link_bytes,
        "multicast did not cut wire bytes: {} vs {}",
        multi.link_bytes,
        uni.link_bytes
    );
    assert_eq!(
        multi.late, 0,
        "multicast went late on an uncontended wire: {multi:?}"
    );
    let sc = slow.slow_client.expect("slow mode has a slow client");
    for s in &slow.per_session {
        if s.client == sc {
            assert!(s.parks > 0, "slow drain never parked: {s:?}");
        } else {
            assert_eq!(s.parks, 0, "victim session parked: {s:?}");
            assert_eq!(s.late, 0, "victim session went late: {s:?}");
        }
    }
    assert_eq!(clean.naks, 0, "zero-probability injector NAKed: {clean:?}");
    assert_eq!(clean.late, 0);
    for o in [loss1, loss4] {
        assert!(o.retransmits > 0, "loss never repaired: {o:?}");
        assert!(
            o.late * 50 <= o.played,
            "{}: late {} of {} played — retransmission is not repairing",
            o.mode,
            o.late,
            o.played
        );
    }

    let cache_budgets: &[u64] = if quick {
        &[0, 64 << 20]
    } else {
        &[0, 16 << 20, 32 << 20, 64 << 20, 128 << 20]
    };
    let (cache_t, cache_f, cache_outs) = wl::cache_sharing::sweep(
        cache_budgets,
        if quick { 24 } else { 30 },
        10,
        Duration::from_millis(1500),
        secs(10, 20),
        0xCA5E,
    );
    em.emit("cache_sharing", &cache_t.render(), &cache_t.to_json());
    let (text, json) = (cache_f.render(), cache_f.to_json());
    em.emit("cache_sharing_admitted", &text, &json);
    // Bar: the cache admits viewers past the disk bound and every
    // admitted stream keeps every deadline.
    let (base, best) = (&cache_outs[0], &cache_outs[cache_outs.len() - 1]);
    assert_eq!(base.cache_admitted, 0, "budget 0 must be the baseline");
    assert!(
        best.cache_admitted > 0 && best.admitted > base.admitted,
        "cache never admitted past the disk bound: {cache_outs:?}"
    );
    assert!(
        cache_outs.iter().all(|o| o.dropped == 0 && o.overruns == 0),
        "deadline violations: {cache_outs:?}"
    );

    let mut cluster_p = wl::cluster_scaling::ClusterParams::standard();
    let cluster_counts: &[usize] = if quick { &[160] } else { &[240, 480, 960] };
    if quick {
        cluster_p.shards = 3;
        cluster_p.volumes = 2;
        cluster_p.titles = 120;
        cluster_p.stagger = Duration::from_millis(300);
        cluster_p.measure = Duration::from_secs(12);
    }
    let (cl_t, cl_f, cl_outs) = wl::cluster_scaling::sweep(&cluster_p, cluster_counts);
    em.emit("cluster_scaling", &cl_t.render(), &cl_t.to_json());
    em.emit("cluster_scaling_served", &cl_f.render(), &cl_f.to_json());
    // Bar: killing the busiest shard costs no frame and no deadline.
    for o in &cl_outs {
        assert_eq!(o.dropped, 0, "dropped frames at {} viewers", o.requested);
        assert_eq!(
            o.overruns, 0,
            "deadline warnings at {} viewers",
            o.requested
        );
    }

    let (cat_p, cat_counts) = wl::catalog_scaling::bench_shape(quick);
    let (cat_t, cat_f, cat_bound, cat_outs) = wl::catalog_scaling::sweep(&cat_p, &cat_counts);
    let cat_json = wl::catalog_scaling::points_json(cat_bound, &cat_outs);
    em.emit("catalog_scaling", &cat_t.render(), &cat_json);
    println!("{}", cat_f.render());
    // Bar: admitted viewers grow 5x while disk streams stay pinned near
    // the spindle bound.
    for o in &cat_outs {
        assert_eq!(o.dropped, 0, "dropped frames at {} viewers", o.requested);
        assert!(
            o.peak_disk_streams as f64 <= 1.2 * cat_bound as f64,
            "disk streams past the spindle bound at {} viewers",
            o.requested
        );
    }
    let (first, last) = (&cat_outs[0], &cat_outs[cat_outs.len() - 1]);
    assert!(
        last.admitted as f64 >= 5.0 * first.admitted as f64,
        "admitted viewers failed to grow 5x: {} -> {}",
        first.admitted,
        last.admitted
    );
    assert!(
        last.peak_disk_streams as f64 >= 0.8 * cat_bound as f64,
        "the sweep never loaded the spindles: peak {} vs bound {cat_bound}",
        last.peak_disk_streams
    );

    let ov_counts: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let (ov_t, ov_f, ov_outs) = wl::interval_overlap::sweep(ov_counts, 4, secs(12, 20), 0x0E);
    em.emit("interval_overlap", &ov_t.render(), &ov_t.to_json());
    em.emit("interval_overlap_span", &ov_f.render(), &ov_f.to_json());
    // Bar: pipelined issue tracks the slowest spindle, not the sum, and
    // keeps every deadline; the serial baseline may miss deadlines at
    // heavy load. The issue mode never changes admission.
    for o in ov_outs.iter().filter(|o| o.mode == IssueMode::Pipelined) {
        assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
        assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
        assert!(
            o.span_over_max <= 1.15,
            "span strayed from the slowest spindle: {o:?}"
        );
        assert!(
            o.span_over_calc <= 1.0,
            "span exceeded the admission bound: {o:?}"
        );
    }
    for pair in ov_outs.chunks(2) {
        let [p, s] = pair else { unreachable!() };
        assert_eq!(
            p.admitted, s.admitted,
            "issue mode changed admission: {p:?} vs {s:?}"
        );
    }

    let intervals: &[f64] = if quick {
        &[0.5]
    } else {
        &[0.25, 0.5, 1.0, 1.5]
    };
    let (mc_t, _) = wl::measured_capacity::validate(intervals, 3, secs(10, 20), 0xCA11);
    em.emit("measured_capacity", &mc_t.render(), &mc_t.to_json());

    let (cs_fig, cs_points) = wl::capacity_scaling::run(&[1, 2, 4], secs(6, 12), 0xCA9A);
    em.emit("capacity_scaling", &cs_fig.render(), &cs_fig.to_json());
    for p in &cs_points {
        println!(
            "# N={}: round-robin={} striped={} drops={} warnings={}",
            p.volumes,
            p.admitted_round_robin,
            p.admitted_striped,
            p.dropped_at_admitted,
            p.overruns
        );
    }

    let (deploy_t, _) = wl::deploy::run(30.0);
    em.emit("deploy", &deploy_t.render(), &deploy_t.to_json());

    let (ds_t, _) = wl::disk_sched::run(if quick { 300 } else { 2000 }, 16, 0xD15C);
    em.emit("disk_sched", &ds_t.render(), &ds_t.to_json());

    let (multi_t, _, _) = wl::multi::run(secs(12, 30), 0x2C25);
    em.emit("multi", &multi_t.render(), &multi_t.to_json());

    let (edit_t, _, _) = wl::editing::run(secs(12, 30), 0xED17);
    em.emit("editing", &edit_t.render(), &edit_t.to_json());

    let (buf_t, _, _) = wl::buffer_ablation::run(if quick { 15.0 } else { 30.0 }, 10.0, 0xB0F);
    em.emit("buffer_ablation", &buf_t.render(), &buf_t.to_json());

    em.finish();
}
