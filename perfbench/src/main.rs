//! End-to-end and per-layer benchmark of the BPVeC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cnn-infer|rnn-infer|verify|fleet-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one closed-loop caller thread. `--trace 0` builds the
//! workload's fixture, warms up, then calls it back to back for
//! `--seconds`, timing batches of fixture builds between some calls. It
//! reports the median build (`setup_s`), the median wall and CPU time of
//! one call, each scaled by a calibration kernel timed around it (see
//! `calib.rs`), and the peak resident memory. `--trace 1`
//! times every layer of all four workloads from spans the benchmark puts
//! around its own calls into the program; the named workload gets every
//! round after the first. Each call's output is checked, and a failed
//! check counts as a failed call. The last line of stdout is the JSON
//! result; `README.md` beside this file explains the choices.

mod calib;
mod pins;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use calib::{Relative, Sample};
use trace::{peak_rss_mib, rss_mib, Tracer};
use workloads::{Metrics, Size, Stats, WORKLOADS};

/// Set-up is timed in batches of back-to-back builds, each batch taking
/// at least [`SETUP_SAMPLE_S`] (at most [`SETUP_BATCH_MAX`] builds), so
/// that a set-up of microseconds is still timed over a steady stretch.
/// `setup_s` is the median batch over its builds. A batch follows each
/// timed call while there have been fewer than [`SETUP_MIN_REPS`] batches,
/// or while set-up has taken less than [`SETUP_SHARE`] of the timed time,
/// so that batches see the same machine as the calls do.
const SETUP_SAMPLE_S: f64 = 0.3;
const SETUP_BATCH_MAX: usize = 20_000;
const SETUP_MIN_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.2;

/// Untimed calls before timing starts, at least one.
const WARMUP_S: f64 = 1.0;

/// Variables that change which kernel or event queue the program
/// dispatches to; both sides of a comparison must run the defaults.
const GUARDED_ENV: [&str; 3] = ["BPVEC_KERNEL", "BPVEC_FORCE_SCALAR", "BPVEC_EVENT_QUEUE"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(pins::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints as its last line.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Counts calls and checks each one's simulated statistics against the
/// pinned values and against the first call of the run.
struct Checker {
    label: &'static str,
    pins: Vec<(String, String)>,
    first: Option<Stats>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(label: &'static str, pins: Vec<(String, String)>) -> Self {
        Checker {
            label,
            pins,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{}: failed: {e}", self.label);
                None
            }
        }
    }

    fn record_call(&mut self, result: Result<Stats, String>) {
        let verdict = result.and_then(|stats| self.check(stats));
        self.record(verdict);
    }

    fn check(&mut self, stats: Stats) -> Result<(), String> {
        for (name, pinned) in &self.pins {
            match stats.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == pinned => {}
                Some((_, got)) => return Err(format!("{name} = {got}, pinned {pinned}")),
                None => return Err(format!("{name} is pinned but was not reported")),
            }
        }
        match &self.first {
            Some(first) if *first != stats => Err(format!(
                "statistics changed between calls: {first:?} then {stats:?}"
            )),
            Some(_) => Ok(()),
            None => {
                for (name, value) in &stats {
                    println!("stat {} {name} {value}", self.label);
                }
                self.first = Some(stats);
                Ok(())
            }
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The untraced run: set-up, warm-up, then timed calls back to back,
/// with timed batches of set-ups between some of them. Every timed call
/// and batch is scaled by the calibration runs around it (see `calib.rs`).
fn run_untraced(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    size: Size,
    pins: Vec<(String, String)>,
) -> Report {
    // The kernel's buffers stay resident for the whole run; their share of
    // the peak is taken off, so `peak_rss_mib` is the program's.
    let before = rss_mib();
    let mut timer = Relative::default();
    let calibrator_mib = rss_mib() - before;
    let first = Instant::now();
    let mut bench = Some(workloads::build(workload, seed, size));
    let batch = ((SETUP_SAMPLE_S / first.elapsed().as_secs_f64()).ceil() as usize)
        .clamp(1, SETUP_BATCH_MAX);
    let mut checker = Checker::new(workload, pins);

    let warm = Instant::now();
    loop {
        checker.record_call(bench.as_mut().expect("fixture").call());
        if warm.elapsed().as_secs_f64() >= WARMUP_S {
            break;
        }
    }

    let (mut raw_calls, mut calls, mut raw_setups, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    loop {
        let fixture = bench.as_mut().expect("fixture");
        let (result, raw, scaled) = timer.time(|| fixture.call());
        checker.record_call(result);
        raw_calls.push(raw);
        calls.push(scaled);
        let spent: f64 = raw_setups.iter().sum();
        if setups.len() < SETUP_MIN_REPS || spent < SETUP_SHARE * timed.elapsed().as_secs_f64() {
            // Drop the old fixture first, so only one is ever resident.
            drop(bench.take());
            let (fixture, raw, scaled) = timer.time(|| {
                let mut fixture = workloads::build(workload, seed, size);
                for _ in 1..batch {
                    drop(fixture);
                    fixture = workloads::build(workload, seed, size);
                }
                fixture
            });
            bench = Some(fixture);
            raw_setups.push(raw.wall_s);
            setups.push(scaled.wall_s / batch as f64);
        }
        if timed.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = |v: &[Sample]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let cpu = |v: &[Sample]| median(&v.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
    println!(
        "calls {} setup_batches {} of {batch} raw_call_s {} raw_call_cpu_s {} raw_setup_s {} calibration_s {}",
        calls.len(),
        setups.len(),
        wall(&raw_calls),
        cpu(&raw_calls),
        median(&raw_setups) / batch as f64,
        median(timer.calibrations()),
    );
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("setup_s".into(), "s", median(&setups)),
            ("call_s".into(), "s", wall(&calls)),
            ("call_cpu_s".into(), "s", cpu(&calls)),
            (
                "peak_rss_mib".into(),
                "MiB",
                peak_rss_mib() - calibrator_mib,
            ),
        ],
    }
}

/// The traced run: one round over all four workloads, then rounds of the
/// named one until `seconds` have passed. Each round makes an untraced
/// call (the base of the tracing overhead) and a traced one per workload.
fn run_traced(workload: &'static str, seed: u64, seconds: f64, size: Size) -> (Report, Tracer) {
    let mut benches: Vec<_> = WORKLOADS
        .iter()
        .map(|&w| {
            let mut bench = workloads::build(w, seed, size);
            bench.prepare_trace();
            let pins = if size == Size::Full {
                pins::pins(w, seed)
            } else {
                Vec::new()
            };
            let mut checker = Checker::new(w, pins);
            checker.record_call(bench.call());
            (w, bench, checker)
        })
        .collect();
    let mut tracer = Tracer::default();
    let mut rounds: Vec<Metrics> = Vec::new();
    let started = Instant::now();
    loop {
        let mut round = Metrics::new();
        for (w, bench, checker) in &mut benches {
            if !rounds.is_empty() && *w != workload {
                continue;
            }
            let call = Instant::now();
            let result = bench.call();
            let untraced_s = call.elapsed().as_secs_f64();
            checker.record_call(result);
            let mark = tracer.mark();
            let Some(metrics) = checker.record(bench.traced(&mut tracer)) else {
                continue;
            };
            round.extend(metrics);
            let p = bench.prefix();
            let root = format!("{p}.call");
            let traced_s = tracer.wall(mark, &root);
            round.push((format!("{p}.traced_call_s"), "s", traced_s));
            round.push((
                format!("{p}.trace_overhead"),
                "ratio",
                traced_s / untraced_s,
            ));
            round.push((
                format!("{p}.unattributed_s"),
                "s",
                tracer.self_time(mark, &root),
            ));
        }
        rounds.push(round);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut metrics = Metrics::new();
    for (name, unit, _) in &rounds[0] {
        let values: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.iter().filter(|(n, _, _)| n == name).map(|m| m.2))
            .collect();
        metrics.push((name.clone(), unit, median(&values)));
    }
    println!("rounds {}", rounds.len());
    let (attempted, failed) = benches
        .iter()
        .fold((0, 0), |(a, f), (_, _, c)| (a + c.attempted, f + c.failed));
    (
        Report {
            attempted,
            failed,
            metrics,
        },
        tracer,
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set; unset it so every run dispatches alike"
        );
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} kernel_tier {} nproc {}",
        args.workload,
        args.seed,
        bpvec::core::kernels::active_tier(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let report = if args.trace {
        let (report, tracer) = run_traced(args.workload, args.seed, args.seconds, Size::Full);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        report
    } else {
        let pins = pins::pins(args.workload, args.seed);
        run_untraced(args.workload, args.seed, args.seconds, Size::Full, pins)
    };
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    //! Self-test at tiny sizes: one AlexNet conv layer, LSTM at sequence
    //! length 4, the LSTM probe with one grid cell, and a 10k-request fleet.
    //! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
    /// which lists one metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn printed(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_end_to_end_metric_is_printed_with_its_unit() {
        let expected = declared("end_to_end");
        for w in WORKLOADS {
            let report = run_untraced(w, 1, 0.0, Size::Tiny, Vec::new());
            assert!(report.correct(), "{w}: {}", report.to_json());
            assert_eq!(printed(&report), expected, "{w}");
        }
    }

    #[test]
    fn traced_metrics_match_the_declared_per_layer_set() {
        let declared = declared("per_layer");
        let (report, tracer) = run_traced("cnn-infer", 1, 0.0, Size::Tiny);
        assert!(report.correct(), "{}", report.to_json());
        assert!(tracer.to_jsonl().lines().count() > 0);
        let printed = printed(&report);
        for metric in &printed {
            assert!(
                declared.contains(metric),
                "{metric:?} not in BENCHMARK.json"
            );
        }
        // Full size names each layer the tiny run leaves out; the rest of
        // the names are the same.
        let mut full: Vec<(String, String)> = printed
            .into_iter()
            .filter(|(n, _)| !n.starts_with("cnn.conv1.") && !n.starts_with("verify.lstm."))
            .collect();
        let s = |n: String, u: &str| (n, u.to_string());
        for l in [
            "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8",
        ] {
            for stage in ["exec_s", "pack_w_s", "pack_a_s", "gemm_s"] {
                full.push(s(format!("cnn.{l}.{stage}"), "s"));
            }
            full.push(s(format!("cnn.{l}.macs"), "count"));
        }
        full.push(s("cnn.pool_s".into(), "s"));
        for p in ["alexnet", "bert", "lstm"] {
            full.push(s(format!("verify.{p}.ref_s"), "s"));
            full.push(s(format!("verify.{p}.exec_s"), "s"));
            full.push(s(format!("verify.{p}.macs"), "count"));
            full.push(s(format!("verify.{p}.diff_s"), "s"));
        }
        full.sort();
        let mut declared = declared;
        declared.sort();
        assert_eq!(full, declared);
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_call() {
        let wrong = vec![("digest".to_string(), "0000000000000000".to_string())];
        let report = run_untraced("cnn-infer", 1, 0.0, Size::Tiny, wrong);
        assert!(report.attempted >= 2);
        assert_eq!(report.failed, report.attempted);
        assert!(report.to_json().starts_with("{\"correct\": false,"));
        assert_eq!(report.metrics.len(), 4);
    }

    #[test]
    fn outputs_equal_the_reference_and_counts_do_not_depend_on_the_seed() {
        // The digests are not required to differ between seeds: the LSTM's
        // output is all zeros for every seed (see README).
        for w in ["cnn-infer", "rnn-infer"] {
            let stats: Vec<Stats> = [1, 2]
                .into_iter()
                .map(|seed| {
                    let stats = workloads::build(w, seed, Size::Tiny).call().expect("call");
                    let digest = &stats.iter().find(|(n, _)| n == "digest").expect("digest").1;
                    let reference = workloads::reference_digest(w, seed, Size::Tiny);
                    assert_eq!(Some(digest), reference.as_ref(), "{w} seed {seed}");
                    stats
                })
                .collect();
            for ((name, a), (_, b)) in stats[0].iter().zip(&stats[1]) {
                if ["macs", "array_macs", "array_cycles"].contains(&name.as_str()) {
                    assert_eq!(a, b, "{w}: {name} depends on the seed");
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload verify --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            ("verify", 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seconds 1",
            "--workload verify",
            "--workload verify --seconds -1",
            "--workload verify --seconds 1 --trace 2",
            "--workload verify --seconds 1 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Prints the pin tables of `pins.rs` for the full-size workloads:
    /// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture`.
    /// The cnn and rnn digests are checked to equal `execute_reference`'s.
    /// A statistic equal on all ten seeds prints as `FIXED`; move it to
    /// `PER_SEED` unless it depends on shapes alone.
    #[test]
    #[ignore = "derives pins at full size; takes minutes"]
    fn derive_pins() {
        const SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        for w in WORKLOADS {
            let runs: Vec<Stats> = SEEDS
                .iter()
                .map(|&seed| {
                    let stats = workloads::build(w, seed, Size::Full).call().expect("call");
                    if let Some(reference) = workloads::reference_digest(w, seed, Size::Full) {
                        let digest = &stats.iter().find(|(n, _)| n == "digest").expect("digest").1;
                        assert_eq!(*digest, reference, "{w} seed {seed}: packed != reference");
                    }
                    stats
                })
                .collect();
            for (i, (name, value)) in runs[0].iter().enumerate() {
                if runs.iter().all(|r| r[i].1 == *value) {
                    println!("FIXED    (\"{w}\", \"{name}\", \"{value}\"),");
                } else {
                    for (seed, r) in SEEDS.iter().zip(&runs) {
                        println!("PER_SEED (\"{w}\", {seed}, \"{name}\", \"{}\"),", r[i].1);
                    }
                }
            }
        }
    }
}
