//! `cvc-benchmark`: one run of one workload against the TCP tier.
//!
//! ```text
//! cvc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! cvc-benchmark --list | --describe
//! ```
//!
//! A run prints every metric as `workload/name value unit` and, as its
//! last line, one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. It exits non-zero when any correctness check failed. `run.sh`
//! builds this binary and runs it; see README.md.

mod affinity;
mod harness;
mod procfs;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use harness::{run_session, SessionConfig, SessionResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median, so that one connect or
/// prefill that lost its CPU does not pass for the run's set-up time.
const SETUPS: usize = 7;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Where a traced run writes `trace_<workload>.json`.
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: cvc-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]\n\
         \x20      cvc-benchmark --list | --describe\n\
         workloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut name, mut trace) = (None, None);
    let (mut seed, mut seconds) = (1u64, f64::from(report::RUN_SECONDS));
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => name = Some(workload::find(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: name.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        seed,
        seconds,
        smoke,
        // `run.sh` runs the binary from the repository root.
        out_dir: PathBuf::from("benchmark/out"),
    })
}

/// Run the measured session plus the extra set-ups, print the metrics and
/// the result line. `Ok(true)` when every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // A smoke run is a twentieth of the work: it shows the harness runs,
    // its numbers mean nothing.
    let scale: u32 = if args.smoke { 20 } else { 1 };
    let measure = Duration::from_secs_f64(args.seconds / f64::from(scale));
    let warmup_ops = w.warmup_ops / u64::from(scale);
    // Read before the first session pins this thread.
    let cpus = affinity::allowed_cpus().map_err(|e| format!("cpu list: {e}"))?;
    println!(
        "# {}: {} clients ({} writers), window {}, block {}, target {} chars; \
         closed loop on loopback, no injected delay; seed {}, {:.2} s measured, trace {}; \
         cpus {:?}, generator pinned to the last",
        w.name,
        w.clients,
        w.writers,
        w.window,
        w.block,
        w.target_len,
        args.seed,
        measure.as_secs_f64(),
        u8::from(args.trace),
        cpus,
    );

    // The measured session goes first, on a fresh heap, so the memory it
    // reports is its own; the set-up repeats after it.
    let measured = SessionConfig {
        workload: w,
        seed: args.seed,
        measure,
        trace: args.trace,
        warmup_ops,
        cpus: &cpus,
    };
    let s: SessionResult = run_session(&measured)?;
    let mut failures = s.failures.clone();
    let mut setups = vec![s.setup_s];
    for _ in 1..SETUPS {
        let extra = run_session(&SessionConfig {
            measure: Duration::ZERO,
            trace: false,
            ..measured
        })?;
        failures.extend(extra.failures.iter().map(|f| format!("extra set-up: {f}")));
        setups.push(extra.setup_s);
    }
    if s.samples_dropped > 0 {
        println!(
            "# {} latency samples did not fit their window buffer",
            s.samples_dropped
        );
    }

    let json = if args.trace {
        let r = replay::replay(
            w.clients,
            w.writers..w.clients,
            &s.report.integration_log,
            s.doc_checksum,
        );
        failures.extend(r.failures.iter().map(|f| format!("replay: {f}")));
        let path = args.out_dir.join(format!("trace_{}.json", w.name));
        match s.tracer.write_chrome_trace(&path) {
            Ok(n) => println!("# {n} spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        let timer_ns = Tracer::pair_cost_ns(Instant::now());
        let metrics = report::per_layer(&s, &r, timer_ns);
        report::emit(w.name, &report::PER_LAYER, &metrics, &mut failures)
    } else {
        let metrics = report::end_to_end(&s, &setups, failures.is_empty());
        report::emit(w.name, &report::END_TO_END, &metrics, &mut failures)
    };

    for f in &failures {
        println!("# FAILED: {f}");
    }
    let correct = failures.is_empty();
    let failed = if correct {
        s.issued - s.acked
    } else {
        // A run that did not converge delivered none of its ops.
        s.issued.max(1)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {json}}}",
        s.issued.max(1),
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for w in &workload::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("--describe") => {
            print!("{}", report::describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cvc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload paste_n8 --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("paste_n8", 42, 20.0, true)
        );
        assert!(!a.smoke);
        for bad in [
            "--workload nope --trace 0",
            "--workload typing_n8",
            "--trace 0",
            "--workload typing_n8 --trace 2",
            "--workload typing_n8 --trace 0 --seconds 0",
            "--workload typing_n8 --trace 0 --seed",
            "--workload typing_n8 --trace 0 --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The whole path on real sockets, a twentieth of the size: both kinds
    /// of run converge, verify, and produce every metric of their table.
    #[test]
    fn smoke_runs_are_correct_and_complete() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        for trace in [false, true] {
            let args = Args {
                workload: workload::find("typing_n8").unwrap(),
                seed: 3,
                seconds: 20.0,
                trace,
                smoke: true,
                out_dir: out.clone(),
            };
            assert_eq!(run(&args), Ok(true), "trace {trace}");
        }
        let trace = std::fs::read_to_string(out.join("trace_typing_n8.json")).unwrap();
        assert!(trace.contains("\"name\":\"reduce.client.exec\""));
    }
}
