//! A timed session is a move list. A fault-free plain star session steps
//! one `StarWorld`, so its interleaving — shaped by real latency draws,
//! the FIFO clamp and the script timers — is a sequence of the world's
//! `Edit` / `Up` / `Down` moves. This file recovers that sequence from
//! the session's own outputs (its scripts and `record_deliveries`), with
//! no hook in the driver, and replays it on a fresh world through
//! `verify::step`, feeding every integration to a `StarAudit`: the
//! Definition-1 audit over interleavings a uniform random walk would not
//! pick, ending in exactly the session's documents. History GC runs as
//! the session's defaults set it: the audit reads each verdict against
//! its own record of what site 0 executed, whatever the notifier has
//! collected.

use cvc_core::site::SiteId;
use cvc_reduce::audit::StarAudit;
use cvc_reduce::session::{run_session, Deployment, SessionConfig};
use cvc_reduce::verify::step;
use cvc_reduce::world::{Move, StarWorld};

/// The session's moves in the order its simulator fired them. Every
/// script timer was scheduled before the first send, so at equal times an
/// edit fires before a delivery, and edits fire in schedule order (site,
/// then script index); deliveries are recorded in firing order. Node 0 is
/// the notifier and node `i` site `i`.
fn moves_of(cfg: &SessionConfig, deliveries: &[cvc_sim::DeliveryRecord]) -> Vec<Move> {
    let mut edits: Vec<(u64, SiteId)> = Vec::new();
    for (i, script) in cfg.workload.generate().iter().enumerate() {
        let site = SiteId::from_client_index(i);
        edits.extend(script.iter().map(|e| (e.at.as_micros(), site)));
    }
    edits.sort_by_key(|&(at, _)| at);
    let mut edits = edits.into_iter().peekable();
    let mut moves = Vec::new();
    for d in deliveries {
        let at = d.delivered_at.as_micros();
        while let Some((_, site)) = edits.next_if(|&(t, _)| t <= at) {
            moves.push(Move::Edit(site));
        }
        moves.push(match (d.from, d.to) {
            (from, 0) => Move::Up(SiteId(from as u32)),
            (_, to) => Move::Down(SiteId(to as u32)),
        });
    }
    moves.extend(edits.map(|(_, site)| Move::Edit(site)));
    moves
}

/// Replay `moves` on a fresh world configured like `cfg`'s through
/// `verify::step`, the way the timed driver steps it (a quiet site queues
/// its bare ack after each down delivery); the final documents, notifier
/// first, and the number of verdicts the audit judged.
fn replay(cfg: &SessionConfig, moves: &[Move]) -> (Vec<String>, usize) {
    let n = cfg.workload.n_sites;
    let scripts = cfg.workload.generate();
    let mut world = StarWorld::for_session(cfg);
    let mut audit = StarAudit::default();
    let mut next_edit = vec![0; n];
    let mut verdicts = 0;
    for &m in moves {
        // Every timed step is one the walks' menu offers: the session is
        // a path through the same move graph an explorer searches.
        let budget: Vec<usize> = (0..n).map(|i| scripts[i].len() - next_edit[i]).collect();
        assert!(world.moves(&budget).contains(&m), "{m:?} not enabled");
        let perform = |w: &mut StarWorld, site: SiteId| {
            let k = &mut next_edit[site.client_index()];
            let intent = &scripts[site.client_index()][*k].intent;
            *k += 1;
            Ok(w.perform(site, intent)?.map(|op| op.stamp))
        };
        let stepped = step(&mut world, &mut audit, m, perform).expect("a valid op or ack");
        let findings = match (m, stepped) {
            (Move::Down(_), None) => panic!("{m:?}: nothing was queued"),
            (_, None) => Vec::new(),
            (_, Some((judged, found))) => {
                verdicts += judged.len();
                found.expect("every op was generated, every broadcast mapped")
            }
        };
        assert!(findings.is_empty(), "{m:?}: {findings:?}");
        if let Move::Down(site) = m {
            world.take_pending_ack(site);
        }
    }
    let mut docs = vec![world.notifier().doc()];
    docs.extend(world.clients().map(|c| c.doc()));
    (docs, verdicts)
}

#[test]
fn a_timed_session_replays_as_a_move_list_with_no_finding() {
    for n in [3, 5] {
        for seed in 0..6 {
            let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
            cfg.record_deliveries = true;
            // Half the runs crowd every edit into one region.
            cfg.workload.hotspot_width = (seed % 2 == 1).then_some(0.2);
            let report = run_session(&cfg);
            assert!(report.converged, "n={n} seed={seed}");
            let moves = moves_of(&cfg, &report.deliveries);
            let (docs, verdicts) = replay(&cfg, &moves);
            assert_eq!(docs, report.final_docs, "n={n} seed={seed}");
            assert!(verdicts > 0, "n={n} seed={seed}: the audit judged nothing");
        }
    }
}
