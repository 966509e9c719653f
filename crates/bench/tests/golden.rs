//! "Virtual-time output bit-identical", as a test instead of a sentence.
//!
//! E20's smoke sweep runs entirely on virtual time — crash points, loss,
//! failover, WAL counters — so its table is a pure function of the code.
//! The golden file was captured at the commit *before* the notifier's
//! durability wiring was folded into `NotifierCore`; any refactor of the
//! reliability layer, the WAL, the standby or the core that changes one
//! digit of it has changed behaviour, not just structure. Regenerate it
//! deliberately (`repro e20-smoke`, minus the trailing report-path line)
//! only when a behaviour change is the point of the PR.

use cvc_bench::experiments::e20_failover_smoke;

#[test]
fn e20_failover_smoke_table_is_bit_identical_to_the_golden_file() {
    // The experiment also writes its JSON artefact; keep it out of the tree.
    let json = std::env::temp_dir().join(format!("bench_pr7_golden_{}.json", std::process::id()));
    std::env::set_var("BENCH_PR7_OUT", &json);
    let output = e20_failover_smoke();
    let _ = std::fs::remove_file(&json);

    let table: Vec<&str> = output
        .lines()
        .filter(|l| !l.starts_with("machine-readable failover report:"))
        .collect();
    assert_eq!(
        table.join("\n").trim_end(),
        include_str!("golden/e20_failover_smoke.txt").trim_end(),
        "E20-smoke's virtual-time table moved"
    );
}
