//! `cvc-trace` — end-to-end convergence traces from flight-recorder rings.
//!
//! Stitches per-site flight-recorder rings into per-operation lifecycle
//! traces (generate → send → notifier transform → broadcast → deliver →
//! execute) and prints the slowest ones with a per-stage latency
//! breakdown. Five modes:
//!
//! ```text
//! cvc-trace fig3                         # the paper's Fig. 3 walkthrough
//! cvc-trace run  [--n N] [--ops K] [--loss PCT] [--seed S] [--slowest K]
//! cvc-trace read FILE                    # a ring dump from --dump
//! cvc-trace tail FILE [--n N] [--follow] # stream traces as they close
//! cvc-trace attach HOST:PORT [--follow]  # live server (admin port)
//! ```
//!
//! `tail` consumes a (possibly still growing) ring dump line by line and
//! prints each op's trace the moment its lifecycle closes, so a live run
//! streams convergence traces instead of waiting for the session to end.
//! `--n N` pins the live client set (otherwise membership is learned from
//! the stream and emission is conservative); `--follow` keeps polling for
//! appended lines until the file goes quiet for `--idle` seconds. `read`
//! is `tail` without `--follow`.
//!
//! `attach` is `tail` over the wire: it connects to a `cvc-serve
//! --admin-addr … --trace` admin port and pulls the server's streaming
//! ring dump (`GET /rings?offset=N`) instead of a file, assembling the same
//! lifecycle traces from a live process. The stream ends when the
//! server eof-marks the log at shutdown, the connection drops, or the
//! `--idle` window passes without growth.
//!
//! Every mode accepts `--chrome PATH` (Chrome trace_event JSON, loadable
//! in chrome://tracing or Perfetto) and `--otlp PATH` (an OTLP/JSON
//! `ExportTraceServiceRequest`, the OpenTelemetry file/HTTP-JSON shape —
//! feed it to any OTLP-compatible backend or collector file receiver; no
//! network, no SDK, written offline). `run`/`fig3` also accept
//! `--dump PATH` (the textual ring format `read` consumes).

use cvc_core::site::SiteId;
use cvc_reduce::audit::audit_streams;
use cvc_reduce::recorder::FlightEvent;
use cvc_reduce::registry::MetricsRegistry;
use cvc_reduce::scenario::fig3_walkthrough;
use cvc_reduce::session::{run_session, Deployment, SessionConfig};
use cvc_reduce::trace::{dump_rings, parse_ring_line, TraceAssembler, TraceSet, TraceTailer};
use cvc_sim::prelude::FaultPlan;
use std::process::ExitCode;

const USAGE: &str = "\
cvc-trace: end-to-end convergence traces from flight-recorder rings

USAGE:
  trace fig3 [--slowest K] [--chrome PATH] [--otlp PATH] [--dump PATH]
  trace run  [--n N] [--ops K] [--loss PCT] [--seed S]
             [--slowest K] [--chrome PATH] [--otlp PATH] [--dump PATH]
  trace read FILE [--n N] [--slowest K] [--chrome PATH] [--otlp PATH]
  trace tail FILE [--n N] [--follow] [--idle SECS]
             [--slowest K] [--chrome PATH] [--otlp PATH]
  trace attach HOST:PORT [--n N] [--follow] [--idle SECS]
             [--slowest K] [--chrome PATH] [--otlp PATH]
";

struct Opts {
    n: usize,
    /// `--n` was passed explicitly (tail pins membership only then).
    n_given: bool,
    ops: usize,
    loss: f64,
    seed: u64,
    slowest: usize,
    follow: bool,
    /// Seconds of no file growth before `--follow` gives up (0 = never).
    idle: u64,
    chrome: Option<String>,
    otlp: Option<String>,
    dump: Option<String>,
    file: Option<String>,
}

impl Opts {
    fn default_opts() -> Opts {
        Opts {
            n: 8,
            n_given: false,
            ops: 6,
            loss: 0.0,
            seed: 42,
            slowest: 5,
            follow: false,
            idle: 5,
            chrome: None,
            otlp: None,
            dump: None,
            file: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default_opts();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--n" => {
                o.n = value(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?;
                o.n_given = true;
            }
            "--ops" => o.ops = value(&mut i)?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--loss" => {
                let pct: f64 = value(&mut i)?.parse().map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..=50.0).contains(&pct) {
                    return Err(format!("--loss: {pct} out of range (percent, 0–50)"));
                }
                o.loss = pct / 100.0;
            }
            "--seed" => o.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--slowest" => {
                o.slowest = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--slowest: {e}"))?
            }
            "--follow" => o.follow = true,
            "--idle" => o.idle = value(&mut i)?.parse().map_err(|e| format!("--idle: {e}"))?,
            "--chrome" => o.chrome = Some(value(&mut i)?),
            "--otlp" => o.otlp = Some(value(&mut i)?),
            "--dump" => o.dump = Some(value(&mut i)?),
            _ if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if o.file.is_none() => o.file = Some(flag.to_string()),
            _ => return Err(format!("unexpected argument {flag}")),
        }
        i += 1;
    }
    Ok(o)
}

fn print_set(set: &TraceSet, slowest: usize) {
    let complete = set.complete_traces().count();
    let truncated = set.traces.iter().filter(|t| t.truncated).count();
    let dangling = set.dangling().len();
    println!(
        "{} op trace(s): {complete} complete, {truncated} truncated, {dangling} dangling",
        set.traces.len()
    );
    if !set.quarantined.is_empty() {
        let q: Vec<String> = set.quarantined.iter().map(|s| s.0.to_string()).collect();
        println!("quarantined site(s): {}", q.join(", "));
    }
    if !set.truncated_inputs.is_empty() {
        let t: Vec<String> = set
            .truncated_inputs
            .iter()
            .map(|s| s.0.to_string())
            .collect();
        println!("wrapped ring(s): site {}", t.join(", site "));
    }
    let mut reg = MetricsRegistry::new();
    set.register_summary(&mut reg);
    if let Some(h) = reg.histogram("trace.convergence_us") {
        println!(
            "convergence latency: p50 {} us, p95 {} us, p99 {} us ({} sample(s))",
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.count()
        );
    }
    println!("\nslowest {slowest} trace(s):");
    for t in set.slowest(slowest) {
        print!("{}", t.render());
    }
}

/// The one artefact writer: `--chrome` / `--otlp`, for every mode.
fn write_artifacts(set: &TraceSet, o: &Opts) -> Result<(), String> {
    if let Some(path) = &o.chrome {
        std::fs::write(path, set.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nchrome trace written to {path} (open in chrome://tracing)");
    }
    if let Some(path) = &o.otlp {
        std::fs::write(path, set.to_otlp_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("OTLP/JSON trace written to {path} (ExportTraceServiceRequest)");
    }
    Ok(())
}

/// `--dump`, for the two modes that hold whole rings (`fig3`, `run`).
fn write_dump(rings: &[(SiteId, Vec<FlightEvent>)], o: &Opts) -> Result<(), String> {
    if let Some(path) = &o.dump {
        std::fs::write(path, dump_rings(rings)).map_err(|e| format!("{path}: {e}"))?;
        println!("ring dump written to {path} (re-read with `trace read {path}`)");
    }
    Ok(())
}

fn cmd_fig3(o: &Opts) -> Result<(), String> {
    let t = fig3_walkthrough();
    let set = TraceAssembler::assemble(&t.flight_traces);
    println!(
        "Fig. 3 walkthrough — {} traces (untimed: logical order only)\n",
        set.traces.len()
    );
    for tr in &set.traces {
        print!("{}", tr.render());
    }
    match audit_streams(&t.flight_traces) {
        Ok(report) => println!(
            "\ncausality oracle replay: clean ({} ops, {} verdicts validated, {} executions)",
            report.ops_registered, report.verdicts_validated, report.executions_replayed
        ),
        Err(v) => return Err(format!("causality oracle replay FAILED: {v}")),
    }
    write_artifacts(&set, o)?;
    write_dump(&t.flight_traces, o)
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let mut cfg = SessionConfig::small(Deployment::StarCvc, o.n, o.seed);
    cfg.workload.ops_per_site = o.ops;
    cfg.reliable = true;
    if o.loss > 0.0 {
        cfg.fault_plan = Some(FaultPlan {
            drop: o.loss,
            duplicate: o.loss / 2.0,
            reorder: o.loss / 2.0,
            reorder_extra_us: 50_000,
            ..FaultPlan::NONE
        });
    }
    // Probe untraced first: the notifier's live GC watermark sizes the
    // traced rings far below the worst-case constants, and lifecycles
    // still survive un-wrapped.
    let probe = run_session(&cfg);
    let watermark = probe
        .centre_metrics
        .map(|m| m.hb_high_water)
        .unwrap_or(u64::MAX);
    cfg.flight_recorder = true;
    let (ccap, ncap) =
        cvc_reduce::trace::recommended_capacities_measured(o.n, o.ops, o.loss > 0.0, watermark);
    cfg.flight_recorder_capacity = ccap;
    cfg.flight_recorder_notifier_capacity = ncap;
    let r = run_session(&cfg);
    println!(
        "session: N={} ops/site={} loss={:.1}% seed={} converged={}\n",
        o.n,
        o.ops,
        o.loss * 100.0,
        o.seed,
        r.converged
    );
    let set = TraceAssembler::assemble(&r.flight_traces);
    print_set(&set, o.slowest);
    write_artifacts(&set, o)?;
    write_dump(&r.flight_traces, o)
}

/// Poll cadence while `--follow` waits for the dump to grow.
const TAIL_POLL_MS: u64 = 200;

/// The one line-feeder: ring-dump text in — from a file, a growing file
/// or the admin port, in whatever chunks it arrives — events into the
/// tailer, closed traces printed as they close.
struct Feed {
    tailer: TraceTailer,
    /// A torn final line waits here for its newline — exactly the
    /// reassembly discipline of the wire.
    carry: String,
    line_no: usize,
    streamed: usize,
}

impl Feed {
    fn new(o: &Opts) -> Feed {
        Feed {
            tailer: if o.n_given {
                TraceTailer::with_clients(1..=o.n as u32)
            } else {
                TraceTailer::new()
            },
            carry: String::new(),
            line_no: 0,
            streamed: 0,
        }
    }

    fn push(&mut self, chunk: &str) -> Result<(), String> {
        self.carry.push_str(chunk);
        while let Some(nl) = self.carry.find('\n') {
            let line: String = self.carry.drain(..=nl).collect();
            self.line_no += 1;
            if let Some((site, ev)) =
                parse_ring_line(&line).map_err(|e| format!("line {}: {e}", self.line_no))?
            {
                self.tailer.push(site, &ev);
            }
        }
        for t in self.tailer.drain_complete() {
            self.streamed += 1;
            print!("{}", t.render());
        }
        Ok(())
    }

    /// Report torn input, close the tailer, print the set, write artifacts.
    fn finish(self, o: &Opts) -> Result<(), String> {
        if !self.carry.trim().is_empty() {
            println!("(ignored torn trailing line without newline)");
        }
        let set = self.tailer.finish();
        let (streamed, open) = (self.streamed, set.traces.len() - self.streamed);
        println!("\nstreamed {streamed} complete trace(s); {open} still open at end of stream");
        print_set(&set, o.slowest);
        write_artifacts(&set, o)
    }
}

fn cmd_tail(o: &Opts) -> Result<(), String> {
    use std::io::{Read, Seek, SeekFrom};

    let path = o.file.as_deref().ok_or("read/tail need a FILE argument")?;
    let mut feed = Feed::new(o);
    let mut pos = 0u64;
    let mut idle_ms = 0u64;
    loop {
        let mut fh = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let len = fh.metadata().map_err(|e| format!("{path}: {e}"))?.len();
        if len < pos {
            return Err(format!("{path}: shrank while tailing (rotated?)"));
        }
        if len > pos {
            idle_ms = 0;
            fh.seek(SeekFrom::Start(pos))
                .map_err(|e| format!("{path}: {e}"))?;
            let mut chunk = String::new();
            fh.take(len - pos)
                .read_to_string(&mut chunk)
                .map_err(|e| format!("{path}: {e}"))?;
            pos = len;
            feed.push(&chunk)?;
        } else if !o.follow {
            break;
        } else {
            idle_ms += TAIL_POLL_MS;
            if o.idle > 0 && idle_ms >= o.idle * 1000 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(TAIL_POLL_MS));
        }
    }
    feed.finish(o)
}

fn cmd_attach(o: &Opts) -> Result<(), String> {
    use cvc_net::{parse_rings_response, AdminClient};

    let addr = o
        .file
        .as_deref()
        .ok_or("attach needs a HOST:PORT argument")?;
    let client = AdminClient::new(addr, std::time::Duration::from_secs(5));
    let mut feed = Feed::new(o);
    let mut offset = 0u64;
    let mut idle_ms = 0u64;
    let mut evicted = 0u64;
    loop {
        let payload = match client.get(&format!("/rings?offset={offset}")) {
            Ok((200, body)) => body,
            Ok((code, _)) => return Err(format!("{addr}: /rings answered HTTP {code}")),
            // Nothing was ever read: a wrong address, not a lost stream.
            Err(e) if offset == 0 && idle_ms == 0 => return Err(format!("{addr}: {e}")),
            Err(e) => {
                // The server went away mid-stream (shutdown past its
                // drain window, or a crash): close out with what we have.
                println!("(admin connection lost: {e})");
                break;
            }
        };
        let Some((start, next, eof, body)) = parse_rings_response(&payload) else {
            return Err(format!("{addr}: malformed rings response"));
        };
        if start > offset {
            // The server's bounded ring log evicted lines we never saw.
            evicted += start - offset;
        }
        offset = next;
        if !body.is_empty() {
            idle_ms = 0;
            // The server serves whole lines; the feeder's carry is belt
            // and braces against a lossy UTF-8 boundary.
            feed.push(&String::from_utf8_lossy(body))?;
            if eof {
                break;
            }
            continue;
        }
        if eof || !o.follow {
            break;
        }
        idle_ms += TAIL_POLL_MS;
        if o.idle > 0 && idle_ms >= o.idle * 1000 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(TAIL_POLL_MS));
    }
    if evicted > 0 {
        println!("({evicted} byte(s) of ring dump evicted server-side before they were read)");
    }
    feed.finish(o)
}

fn run_mode(mode: &str, o: Opts) -> Result<(), String> {
    match mode {
        "fig3" => cmd_fig3(&o),
        "run" => cmd_run(&o),
        "read" => cmd_tail(&Opts { follow: false, ..o }),
        "tail" => cmd_tail(&o),
        "attach" => cmd_attach(&o),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown mode {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match parse_opts(&args[1..]).and_then(|o| run_mode(mode, o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cvc-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_bench::report::Json;

    /// What `trace fig3 --chrome` writes is a Chrome `trace_event`
    /// document: well-formed JSON whose spans are complete ("X") events
    /// named after the lifecycle stages.
    #[test]
    fn fig3_chrome_export_is_a_trace_event_document() {
        let set = TraceAssembler::assemble(&fig3_walkthrough().flight_traces);
        let doc = Json::parse(&set.to_chrome_json()).expect("well-formed JSON");
        let events = doc.get("traceEvents").items();
        assert!(!events.is_empty(), "no spans in the chrome export");
        let stages = [
            "enqueue",
            "upstream",
            "notifier-transform",
            "broadcast",
            "deliver",
            "execute",
        ];
        for ev in events {
            assert!(ev.text("ph") == "X" && ev.num("dur") >= 0.0, "{ev:?}");
            assert!(stages.contains(&ev.text("name")), "{ev:?}");
        }
    }

    /// `read` is `tail` without `--follow`: over one `--dump` file both
    /// modes assemble the same set (the printed summary is a function of
    /// it) and write the exports whole-ring assembly writes — stall
    /// attribution included, so the dump is of a lossy run.
    #[test]
    fn read_and_tail_of_one_dump_write_the_same_exports() {
        let dir = std::env::temp_dir().join(format!("cvc-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let run = Opts {
            n: 4,
            loss: 0.2,
            dump: Some(path("rings.txt")),
            chrome: Some(path("run.chrome")),
            otlp: Some(path("run.otlp")),
            ..Opts::default_opts()
        };
        run_mode("run", run).expect("traced run");
        for mode in ["read", "tail"] {
            let o = Opts {
                file: Some(path("rings.txt")),
                chrome: Some(path(&format!("{mode}.chrome"))),
                otlp: Some(path(&format!("{mode}.otlp"))),
                ..Opts::default_opts()
            };
            run_mode(mode, o).expect(mode);
        }
        let bytes = |name: &str| std::fs::read(path(name)).expect(name);
        for export in ["chrome", "otlp"] {
            let whole = bytes(&format!("run.{export}"));
            assert_eq!(bytes(&format!("read.{export}")), whole, "read {export}");
            assert_eq!(bytes(&format!("tail.{export}")), whole, "tail {export}");
        }
        assert!(
            String::from_utf8_lossy(&bytes("tail.otlp")).contains("cvc.retx_stalls"),
            "a tailed lossy run must carry stall attribution"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
