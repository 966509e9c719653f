//! Reproduce the paper's figures and quantified claims.
//!
//! ```text
//! repro all               # run every experiment (parallel workers)
//! repro all --threads 4   # cap the worker pool
//! repro e3                # one experiment; `e16-smoke` for its CI-sized sweep
//! repro list              # what exists (the registry in `experiments.rs`)
//! repro check [FILE…]     # gate committed artefacts (default: all of them)
//! ```
//!
//! `all` fans the virtual-time experiments out across a scoped worker
//! pool (default: the machine's parallelism, override with `--threads N`
//! or `REPRO_THREADS=N`), then runs the wall-clock ones (`repro list`
//! marks them) sequentially. Output is always in registry order and, for
//! the virtual-time experiments, bit-identical at any worker count.
//!
//! An experiment that writes an artefact writes it to its committed name
//! in the working directory, or to `$BENCH_PRn_OUT` when that is set —
//! point it elsewhere for a run that is not meant to re-baseline.
//!
//! `check` applies each experiment's gate to its committed artefact and,
//! for the virtual-time ones (`BENCH_PR2.json`, `BENCH_PR7.json`),
//! regenerates it and demands the same bytes.
//!
//! Exit status: 0 when every gate holds; 1 when any experiment or check
//! reports a `FAILED:` line; 2 on usage errors.

use cvc_bench::experiments::{self, Experiment, EXPERIMENTS};
use cvc_bench::report::Report;

fn usage(msg: String) -> ! {
    eprintln!("{msg}; try `repro list`");
    std::process::exit(2)
}

/// Where `artifact` goes: `BENCH_PR3.json` → `$BENCH_PR3_OUT`, else itself.
fn out_path(artifact: &str) -> String {
    let var = format!("{}_OUT", artifact.trim_end_matches(".json"));
    std::env::var(var).unwrap_or_else(|_| artifact.to_string())
}

/// One experiment's section of stdout; writes its artefact on the way.
fn emit(e: &Experiment, report: &Report) -> String {
    let mut out = report.render();
    if let Some(artifact) = e.artifact {
        let path = out_path(artifact);
        out.push_str(&match std::fs::write(&path, report.to_json()) {
            Ok(()) => format!("\nmachine-readable report: {path}\n"),
            Err(err) => format!("\n(could not write {path}: {err})\n"),
        });
    }
    out
}

/// `repro check`: one verdict per file; the findings go to stderr with the
/// exit status.
fn check(files: &[String]) -> Vec<String> {
    let committed = EXPERIMENTS.iter().filter_map(|e| e.artifact);
    let files: Vec<String> = match files {
        [] => committed.map(str::to_string).collect(),
        _ => files.to_vec(),
    };
    let mut failed = Vec::new();
    for file in &files {
        let findings = match std::fs::read_to_string(file) {
            Ok(text) => experiments::check_artifact(file, &text, true),
            Err(e) => vec![format!("{file}: {e}")],
        };
        println!(
            "{file}: {}",
            if findings.is_empty() { "ok" } else { "FAILED" }
        );
        failed.extend(findings);
    }
    failed
}

fn main() {
    let mut threads: Option<usize> = std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0);
    let mut words: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let v = args.next().unwrap_or_default();
            match v.parse::<usize>() {
                Ok(t) if t > 0 => threads = Some(t),
                _ => usage(format!("--threads needs a positive integer, got {v:?}")),
            }
        } else {
            words.push(a);
        }
    }
    let command = words.first().map_or("all", String::as_str);
    if let (true, Some(extra)) = (command != "check", words.get(1)) {
        usage(format!("unexpected argument {extra:?}"));
    }
    let failed: Vec<String> = match command {
        "list" => return print!("{}", experiments::list()),
        "check" => check(&words[1..]),
        _ => {
            let reports = if command == "all" {
                experiments::run_all(threads.unwrap_or_else(experiments::cores))
            } else {
                let Some((e, smoke)) = experiments::lookup(command) else {
                    usage(format!("unknown experiment {command:?}"));
                };
                let baseline = e.artifact.filter(|_| smoke);
                if let Some(missing) = baseline.filter(|a| !std::path::Path::new(a).exists()) {
                    eprintln!("repro: no committed {missing} here: not compared against it");
                }
                vec![(e, experiments::run_gated(e, smoke))]
            };
            let sections: Vec<String> = reports.iter().map(|(e, r)| emit(e, r)).collect();
            println!("{}", sections.join("\n\n"));
            reports.into_iter().flat_map(|(_, r)| r.failed).collect()
        }
    };
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("FAILED: {f}");
        }
        eprintln!("repro: {} verification failure(s)", failed.len());
        std::process::exit(1);
    }
}
