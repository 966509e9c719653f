//! "Virtual-time output bit-identical", as a test instead of a sentence.
//!
//! Every experiment the registry does not mark `timing` runs entirely on
//! virtual time, so its rendered report is a pure function of the code.
//! The files under `golden/` are those reports: `e4`, `e6`, `e12`,
//! `e13`, `e15` and `e20_failover_smoke` were last regenerated when the
//! op codec stopped sending an op's trailing retain, which the receiving
//! door implies from the base it knows (every star op message and WAL op
//! record got shorter; EXPERIMENTS lists every moved cell); `e1` and
//! `e10` when a quiet site's bare-ack interval (`ACK_INTERVAL`) rose
//! from 8 to 64 executed ops (fewer ack messages move every star cell
//! that counts messages or bytes); the rest at the commit before the
//! E-suite moved onto `Report` (from that commit's `repro <id>`, minus the
//! artefact-path line), except `e8.txt`, captured once `verify_mesh`
//! stopped depending on a hasher's iteration order. They are the
//! canonical copy of every virtual-time table in EXPERIMENTS.md. Any
//! refactor that changes one digit of one of them has changed behaviour,
//! not just structure; regenerate a file deliberately (`repro <id>`) only
//! when a behaviour change is the point of the PR.

use cvc_bench::experiments::{lookup, run_gated};

fn assert_golden(id: &str, golden: &str) {
    let (experiment, smoke) = lookup(id).expect("a registered id");
    assert!(!experiment.timing, "{id} is wall-clock: nothing to pin");
    let report = run_gated(experiment, smoke);
    assert_eq!(
        report.render().trim_end(),
        golden.trim_end(),
        "{id}'s virtual-time report moved"
    );
}

macro_rules! golden {
    ($($(#[$attr:meta])* $test:ident: $id:literal => $file:literal;)*) => {$(
        #[test]
        $(#[$attr])*
        fn $test() {
            assert_golden($id, include_str!(concat!("golden/", $file)));
        }
    )*};
}

golden! {
    e1_is_bit_identical_to_the_golden_file: "e1" => "e1.txt";
    e2_is_bit_identical_to_the_golden_file: "e2" => "e2.txt";
    e3_is_bit_identical_to_the_golden_file: "e3" => "e3.txt";
    #[ignore = "77 s in release; CI runs it with --include-ignored"]
    e4_is_bit_identical_to_the_golden_file: "e4" => "e4.txt";
    e5_is_bit_identical_to_the_golden_file: "e5" => "e5.txt";
    #[ignore = "10 s in release; CI runs it with --include-ignored"]
    e6_is_bit_identical_to_the_golden_file: "e6" => "e6.txt";
    e8_is_bit_identical_to_the_golden_file: "e8" => "e8.txt";
    e9_is_bit_identical_to_the_golden_file: "e9" => "e9.txt";
    e10_is_bit_identical_to_the_golden_file: "e10" => "e10.txt";
    e11_is_bit_identical_to_the_golden_file: "e11" => "e11.txt";
    e12_is_bit_identical_to_the_golden_file: "e12" => "e12.txt";
    e13_is_bit_identical_to_the_golden_file: "e13" => "e13.txt";
    e15_is_bit_identical_to_the_golden_file: "e15" => "e15.txt";
    e20_failover_smoke_table_is_bit_identical_to_the_golden_file:
        "e20-smoke" => "e20_failover_smoke.txt";
    failover_walkthrough_is_bit_identical_to_the_golden_file: "failover" => "failover.txt";
}
