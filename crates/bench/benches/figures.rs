//! Reduced-scale timings of every paper figure, so `cargo bench`
//! exercises the entire regeneration harness. (Full-resolution figures
//! come from `cargo run -p cras-bench --release --bin all`.)

use std::hint::black_box;

use cras_bench::timer::bench;
use cras_sim::Duration;
use cras_workload as wl;

fn bench_fig6() {
    let cfg = wl::fig6::Fig6Config {
        max_streams: 5,
        step: 4,
        measure: Duration::from_secs(5),
        seed: 61,
    };
    bench("figures/fig6_reduced", || {
        black_box(wl::fig6::run(&cfg));
    });
}

fn bench_fig7() {
    let cfg = wl::fig7::Fig7Config {
        trace: Duration::from_secs(6),
        ..wl::fig7::Fig7Config::default()
    };
    bench("figures/fig7_reduced", || {
        black_box(wl::fig7::run(&cfg));
    });
}

fn bench_fig8_fig9() {
    let mut f8 = wl::admission_acc::AccuracyConfig::fig8();
    f8.max_streams = 4;
    f8.step = 3;
    f8.measure = Duration::from_secs(5);
    bench("figures/fig8_reduced", || {
        black_box(wl::admission_acc::run(&f8));
    });
    let mut f9 = wl::admission_acc::AccuracyConfig::fig9();
    f9.max_streams = 2;
    f9.measure = Duration::from_secs(5);
    bench("figures/fig9_reduced", || {
        black_box(wl::admission_acc::run(&f9));
    });
}

fn bench_fig10() {
    let cfg = wl::fig10::Fig10Config {
        trace: Duration::from_secs(6),
        ..wl::fig10::Fig10Config::default()
    };
    bench("figures/fig10_reduced", || {
        black_box(wl::fig10::run(&cfg));
    });
}

fn bench_fig12_table4() {
    bench("figures/fig12_table4_calibration", || {
        let cal = wl::fig12::run_calibration();
        black_box((wl::fig12::fig12(&cal), wl::fig12::table4(&cal)));
    });
}

fn bench_tables_and_ablations() {
    let cal = wl::fig12::run_calibration();
    let params = cal.params;
    bench("figures/table3_capacity", || {
        black_box((wl::capacity::table3(params), wl::capacity::figure(params)));
    });
    bench("figures/ablate", || {
        black_box(wl::ablate::run(params));
    });
    bench("figures/frag_reduced", || {
        black_box(wl::frag::run(4, Duration::from_secs(5), 13));
    });
    bench("figures/vbr_reduced", || {
        black_box(wl::vbr::run(Duration::from_secs(5), 14));
    });
    bench("figures/qos_reduced", || {
        black_box(wl::qos::run(
            Duration::from_secs(8),
            Duration::from_secs(4),
            15,
        ));
    });
    bench("figures/disk_sched_reduced", || {
        black_box(wl::disk_sched::run(150, 8, 16));
    });
    bench("figures/faults_reduced", || {
        black_box(wl::faults::sweep(
            &[0.0, 0.2],
            4,
            Duration::from_secs(5),
            17,
        ));
    });
    bench("figures/multi_reduced", || {
        black_box(wl::multi::run(Duration::from_secs(6), 18));
    });
    bench("figures/editing_reduced", || {
        black_box(wl::editing::run(Duration::from_secs(6), 19));
    });
    bench("figures/measured_capacity_reduced", || {
        black_box(wl::measured_capacity::validate(
            &[0.5],
            2,
            Duration::from_secs(5),
            20,
        ));
    });
    bench("figures/capacity_scaling_reduced", || {
        black_box(wl::capacity_scaling::run(
            &[1, 2],
            Duration::from_secs(4),
            21,
        ));
    });
}

fn main() {
    bench_fig6();
    bench_fig7();
    bench_fig8_fig9();
    bench_fig10();
    bench_fig12_table4();
    bench_tables_and_ablations();
}
