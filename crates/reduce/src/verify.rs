//! Oracle verification: does the compressed scheme capture causality
//! *exactly*?
//!
//! The paper's Section 5 closes by asserting that the compressed
//! timestamping "indeed correctly captures the causality relationship among
//! all operations as defined by Definition 1". This module turns that
//! sentence into a machine-checked claim (experiment E8): it drives
//! randomized sessions step by step — with full control over interleaving —
//! while maintaining a [`CausalityOracle`] fed only generation/execution
//! events, and compares **every** formula (5)/(7) verdict the engine
//! produces against the oracle's `Definition 1` answer. The same harness
//! verifies the mesh baseline's formula (3) verdicts.
//!
//! Remember the subtlety the paper stresses: at the notifier and clients,
//! the buffered operations are the *transformed* `O'` forms, which count as
//! operations generated at site 0. The oracle is fed accordingly (a
//! transformed broadcast is a fresh operation generated at site 0 whose
//! context is everything the notifier executed).

use crate::client::Client;
use crate::mesh::MeshSite;
use crate::msg::{ClientOpMsg, MeshOpMsg, ServerOpMsg};
use crate::notifier::Notifier;
use cvc_core::oracle::{CausalityOracle, OpRef};
use cvc_core::site::SiteId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Parameters for a verification run.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Number of client sites.
    pub n_clients: usize,
    /// Local operations each client generates.
    pub ops_per_client: usize,
    /// Interleaving seed.
    pub seed: u64,
    /// Shared initial document.
    pub initial_doc: String,
}

impl VerifyConfig {
    /// A modest default run.
    pub fn new(n_clients: usize, ops_per_client: usize, seed: u64) -> Self {
        VerifyConfig {
            n_clients,
            ops_per_client,
            seed,
            initial_doc: "the quick brown fox".into(),
        }
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Operations generated in total.
    pub ops: u64,
    /// Concurrency checks compared against the oracle.
    pub checks: u64,
    /// Checks where the engine and the oracle disagreed (must be 0).
    pub disagreements: u64,
    /// First few disagreements, for diagnosis.
    pub samples: Vec<String>,
    /// All replicas converged at quiescence.
    pub converged: bool,
}

impl VerifyReport {
    fn record(&mut self, engine: bool, oracle: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if engine != oracle {
            self.disagreements += 1;
            if self.samples.len() < 8 {
                self.samples.push(what());
            }
        }
    }
}

/// Verify the star/CVC deployment's formula (5)/(7) verdicts against the
/// oracle over a randomized interleaving.
pub fn verify_star(cfg: &VerifyConfig) -> VerifyReport {
    let n = cfg.n_clients;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = VerifyReport::default();
    let mut oracle = CausalityOracle::new();

    let mut notifier = Notifier::new(n, &cfg.initial_doc);
    let mut clients: Vec<Client> = (1..=n)
        .map(|i| Client::new(SiteId(i as u32), &cfg.initial_doc))
        .collect();

    // Oracle refs mirroring each history buffer. A notifier HB entry has a
    // dual identity, exactly as the paper uses it: the transformed `O'` is
    // "an operation generated at site 0" for cross-site relations, but for
    // the same-site rule the paper writes "O2' ∦ O3 because they were
    // generated at the same site 2" — i.e. it inherits the original op's
    // site identity. We keep both refs and pick per comparison.
    let mut hb_refs_notifier: Vec<(OpRef, OpRef, SiteId)> = Vec::new();
    let mut hb_refs_client: Vec<Vec<OpRef>> = vec![Vec::new(); n];

    // FIFO channels: up[i] client i+1 → notifier; down[i] the reverse.
    let mut up: Vec<VecDeque<(ClientOpMsg, OpRef)>> = vec![VecDeque::new(); n];
    let mut down: Vec<VecDeque<(ServerOpMsg, OpRef)>> = vec![VecDeque::new(); n];
    let mut budget: Vec<usize> = vec![cfg.ops_per_client; n];

    loop {
        // Possible actions: generate at i (budget left), deliver up[i],
        // deliver down[i].
        let mut actions: Vec<(u8, usize)> = Vec::new();
        for i in 0..n {
            if budget[i] > 0 {
                actions.push((0, i));
            }
            if !up[i].is_empty() {
                actions.push((1, i));
            }
            if !down[i].is_empty() {
                actions.push((2, i));
            }
        }
        let Some(&(kind, i)) = actions.get(rng.gen_range(0..actions.len().max(1))).or(None) else {
            break;
        };
        match kind {
            0 => {
                // Generate a local op at client i.
                budget[i] -= 1;
                report.ops += 1;
                let site = SiteId(i as u32 + 1);
                let len = clients[i].doc_len();
                let msg = if len > 0 && rng.gen_bool(0.3) {
                    let pos = rng.gen_range(0..len);
                    clients[i].delete(pos, 1)
                } else {
                    let pos = rng.gen_range(0..=len);
                    let ch = (b'a' + rng.gen_range(0..26)) as char;
                    clients[i].insert(pos, &ch.to_string())
                };
                let op_ref = oracle.record_generation(site, format!("{site}#{}", msg.stamp));
                hb_refs_client[i].push(op_ref);
                up[i].push_back((msg, op_ref));
            }
            1 => {
                // Deliver client i's op to the notifier.
                let (msg, op_ref) = up[i].pop_front().expect("nonempty");
                let origin = SiteId(i as u32 + 1);
                let outcome = notifier
                    .try_on_client_op_outcome(msg)
                    .expect("valid client op");
                // `full_verdicts` materialises the below-watermark prefix
                // too, so the oracle audits every pair, not just the
                // suffix the bounded scan actually touched.
                for (k, verdict) in outcome.full_verdicts().into_iter().enumerate() {
                    let (prime_ref, orig_ref, entry_origin) = hb_refs_notifier[k];
                    // Same-origin pairs are compared through the original
                    // op (the paper's x = y rule); cross-site pairs through
                    // the site-0 transformed form.
                    let ob = if entry_origin == origin {
                        orig_ref
                    } else {
                        prime_ref
                    };
                    let truth = oracle.concurrent(op_ref, ob);
                    report.record(verdict, truth, || {
                        format!(
                            "notifier: {} vs {} engine={verdict} oracle={truth}",
                            oracle.label_of(op_ref),
                            oracle.label_of(ob)
                        )
                    });
                }
                // The notifier executes the original, then "generates" the
                // transformed form as site 0.
                oracle.record_execution(SiteId(0), op_ref);
                let prime =
                    oracle.record_generation(SiteId(0), format!("{}'", oracle.label_of(op_ref)));
                hb_refs_notifier.push((prime, op_ref, origin));
                for (dest, smsg) in outcome.broadcast_msgs() {
                    down[dest.client_index()].push_back((smsg, prime));
                }
            }
            2 => {
                // Deliver a server op to client i.
                let (msg, prime_ref) = down[i].pop_front().expect("nonempty");
                let outcome = clients[i].try_on_server_op(msg).expect("valid server op");
                for (k, &verdict) in outcome.checked.iter().enumerate() {
                    let truth = oracle.concurrent(prime_ref, hb_refs_client[i][k]);
                    report.record(verdict, truth, || {
                        format!(
                            "client {}: {} vs {} engine={verdict} oracle={truth}",
                            i + 1,
                            oracle.label_of(prime_ref),
                            oracle.label_of(hb_refs_client[i][k])
                        )
                    });
                }
                oracle.record_execution(SiteId(i as u32 + 1), prime_ref);
                hb_refs_client[i].push(prime_ref);
            }
            _ => unreachable!(),
        }
    }

    let mut docs: Vec<String> = clients.iter().map(|c| c.doc()).collect();
    docs.push(notifier.doc());
    report.converged = docs.windows(2).all(|w| w[0] == w[1]);
    report
}

/// Verify the star deployment under **dynamic membership**: clients join
/// (receiving the notifier's current document as their snapshot) and leave
/// mid-session, while every concurrency verdict is still compared against
/// the Definition-1 oracle and the active replicas must converge.
pub fn verify_star_dynamic(cfg: &VerifyConfig, max_clients: usize) -> VerifyReport {
    let n0 = cfg.n_clients;
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut report = VerifyReport::default();
    let mut oracle = CausalityOracle::new();

    let mut notifier = Notifier::new(n0, &cfg.initial_doc);
    let mut clients: Vec<Option<Client>> = (1..=n0)
        .map(|i| Some(Client::new(SiteId(i as u32), &cfg.initial_doc)))
        .collect();
    let mut hb_refs_notifier: Vec<(OpRef, OpRef, SiteId)> = Vec::new();
    let mut hb_refs_client: Vec<Vec<OpRef>> = vec![Vec::new(); n0];
    let mut up: Vec<VecDeque<(ClientOpMsg, OpRef)>> = vec![VecDeque::new(); n0];
    let mut down: Vec<VecDeque<(ServerOpMsg, OpRef)>> = vec![VecDeque::new(); n0];
    let mut budget: Vec<usize> = vec![cfg.ops_per_client; n0];
    let mut joins = 0usize;

    loop {
        let mut actions: Vec<(u8, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for (i, c) in clients.iter().enumerate() {
            if c.is_some() {
                if budget[i] > 0 {
                    actions.push((0, i));
                }
                if !up[i].is_empty() {
                    actions.push((1, i));
                }
                if !down[i].is_empty() {
                    actions.push((2, i));
                }
            }
        }
        let active = clients.iter().filter(|c| c.is_some()).count();
        if clients.len() < max_clients {
            actions.push((3, 0)); // join
        }
        if active > 2 {
            actions.push((4, 0)); // leave someone
        }
        // Termination: only structural actions left and no work pending.
        let has_work = actions.iter().any(|&(k, _)| k <= 2);
        if !has_work {
            break;
        }
        let (kind, i) = actions[rng.gen_range(0..actions.len())];
        match kind {
            0 => {
                budget[i] -= 1;
                report.ops += 1;
                let site = SiteId(i as u32 + 1);
                let client = clients[i].as_mut().expect("active");
                let len = client.doc_len();
                let msg = if len > 0 && rng.gen_bool(0.3) {
                    client.delete(rng.gen_range(0..len), 1)
                } else {
                    let ch = (b'a' + rng.gen_range(0..26)) as char;
                    client.insert(rng.gen_range(0..=len), &ch.to_string())
                };
                let op_ref = oracle.record_generation(site, format!("{site}#{}", msg.stamp));
                hb_refs_client[i].push(op_ref);
                up[i].push_back((msg, op_ref));
            }
            1 => {
                let (msg, op_ref) = up[i].pop_front().expect("nonempty");
                let origin = SiteId(i as u32 + 1);
                let outcome = notifier
                    .try_on_client_op_outcome(msg)
                    .expect("active client ops are valid");
                for (k, verdict) in outcome.full_verdicts().into_iter().enumerate() {
                    let (prime_ref, orig_ref, entry_origin) = hb_refs_notifier[k];
                    let ob = if entry_origin == origin {
                        orig_ref
                    } else {
                        prime_ref
                    };
                    let truth = oracle.concurrent(op_ref, ob);
                    report.record(verdict, truth, || {
                        format!(
                            "dyn notifier: {} vs {} engine={verdict} oracle={truth}",
                            oracle.label_of(op_ref),
                            oracle.label_of(ob)
                        )
                    });
                }
                oracle.record_execution(SiteId(0), op_ref);
                let prime =
                    oracle.record_generation(SiteId(0), format!("{}'", oracle.label_of(op_ref)));
                hb_refs_notifier.push((prime, op_ref, origin));
                for (dest, smsg) in outcome.broadcast_msgs() {
                    down[dest.client_index()].push_back((smsg, prime));
                }
            }
            2 => {
                let (msg, prime_ref) = down[i].pop_front().expect("nonempty");
                let client = clients[i].as_mut().expect("active");
                let outcome = client.try_on_server_op(msg).expect("valid broadcast");
                for (k, &verdict) in outcome.checked.iter().enumerate() {
                    let truth = oracle.concurrent(prime_ref, hb_refs_client[i][k]);
                    report.record(verdict, truth, || {
                        format!(
                            "dyn client {}: {} vs {} engine={verdict} oracle={truth}",
                            i + 1,
                            oracle.label_of(prime_ref),
                            oracle.label_of(hb_refs_client[i][k])
                        )
                    });
                }
                oracle.record_execution(SiteId(i as u32 + 1), prime_ref);
                hb_refs_client[i].push(prime_ref);
            }
            3 => {
                // Join: snapshot semantics — the newcomer has causally seen
                // everything the notifier executed so far.
                let (site, snapshot) = notifier.add_client();
                joins += 1;
                let newcomer = Client::new(site, &snapshot);
                for &(prime, _, _) in &hb_refs_notifier {
                    oracle.record_execution(site, prime);
                }
                clients.push(Some(newcomer));
                hb_refs_client.push(Vec::new());
                up.push(VecDeque::new());
                down.push(VecDeque::new());
                budget.push(cfg.ops_per_client);
            }
            4 => {
                // Leave: pick a random active client; drop its channels.
                let victims: Vec<usize> = clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_some())
                    .map(|(i, _)| i)
                    .collect();
                let v = victims[rng.gen_range(0..victims.len())];
                notifier
                    .quarantine(SiteId(v as u32 + 1))
                    .expect("victims are active members");
                clients[v] = None;
                up[v].clear();
                down[v].clear();
                budget[v] = 0;
            }
            _ => unreachable!(),
        }
    }

    let mut docs: Vec<String> = clients
        .iter()
        .filter_map(|c| c.as_ref().map(|c| c.doc()))
        .collect();
    docs.push(notifier.doc());
    report.converged = docs.windows(2).all(|w| w[0] == w[1]);
    // Sanity: the dynamic machinery was actually exercised.
    debug_assert!(joins <= max_clients);
    report
}

/// Verify the mesh baseline's formula (3) verdicts against the oracle.
pub fn verify_mesh(cfg: &VerifyConfig) -> VerifyReport {
    let n = cfg.n_clients;
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xfeed));
    let mut report = VerifyReport::default();
    let mut oracle = CausalityOracle::new();

    let mut sites: Vec<MeshSite> = (1..=n)
        .map(|i| MeshSite::new(SiteId(i as u32), n, &cfg.initial_doc))
        .collect();
    // Per ordered pair (from, to) FIFO channel of broadcast copies, at
    // index `from * n + to`: the action list below is built by walking
    // this, and the seeded RNG indexes that list, so the walk order must
    // not depend on a hasher.
    let mut chans: Vec<VecDeque<MeshOpMsg>> = vec![VecDeque::new(); n * n];
    let mut budget: Vec<usize> = vec![cfg.ops_per_client; n];
    // (origin site, per-origin seq) → oracle ref.
    let mut refs: HashMap<(u32, u64), OpRef> = HashMap::new();

    loop {
        let mut actions: Vec<(u8, usize, usize)> = Vec::new();
        for (i, &left) in budget.iter().enumerate() {
            if left > 0 {
                actions.push((0, i, 0));
            }
        }
        for (i, q) in chans.iter().enumerate() {
            if !q.is_empty() {
                actions.push((1, i / n, i % n));
            }
        }
        if actions.is_empty() {
            break;
        }
        let (kind, a, b) = actions[rng.gen_range(0..actions.len())];
        match kind {
            0 => {
                budget[a] -= 1;
                report.ops += 1;
                let site = SiteId(a as u32 + 1);
                let len = sites[a].doc().chars().count();
                let msg = if len > 0 && rng.gen_bool(0.3) {
                    sites[a].local_delete(rng.gen_range(0..len))
                } else {
                    let ch = (b'a' + rng.gen_range(0..26)) as char;
                    sites[a].local_insert(rng.gen_range(0..=len), ch)
                };
                let seq = msg.vector.get(a);
                let op_ref = oracle.record_generation(site, format!("{site}#{seq}"));
                refs.insert((site.0, seq), op_ref);
                for t in 0..n {
                    if t != a {
                        chans[a * n + t].push_back(msg.clone());
                    }
                }
            }
            1 => {
                let msg = chans[a * n + b].pop_front().expect("nonempty");
                let executed = sites[b].on_remote(msg);
                for rec in executed {
                    let inc_ref = refs[&(rec.origin.0, rec.seq)];
                    for (o_site, o_seq, verdict) in rec.checked {
                        let ob_ref = refs[&(o_site.0, o_seq)];
                        let truth = oracle.concurrent(inc_ref, ob_ref);
                        report.record(verdict, truth, || {
                            format!(
                                "mesh site {}: {} vs {} engine={verdict} oracle={truth}",
                                b + 1,
                                oracle.label_of(inc_ref),
                                oracle.label_of(ob_ref)
                            )
                        });
                    }
                    oracle.record_execution(SiteId(b as u32 + 1), inc_ref);
                }
            }
            _ => unreachable!(),
        }
    }

    report.converged = sites.windows(2).all(|w| w[0].doc() == w[1].doc())
        && sites.iter().all(|s| s.pending_len() == 0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_verdicts_match_oracle_exactly() {
        for seed in 0..10 {
            let r = verify_star(&VerifyConfig::new(4, 15, seed));
            assert!(r.checks > 0);
            assert_eq!(r.disagreements, 0, "seed {seed}: {:#?}", r.samples);
            assert!(r.converged, "seed {seed} did not converge");
        }
    }

    #[test]
    fn star_verdicts_match_oracle_with_more_clients() {
        let r = verify_star(&VerifyConfig::new(8, 10, 42));
        assert_eq!(r.disagreements, 0, "{:#?}", r.samples);
        assert!(r.converged);
        assert_eq!(r.ops, 80);
    }

    #[test]
    fn dynamic_membership_matches_oracle() {
        for seed in 0..10 {
            let r = verify_star_dynamic(&VerifyConfig::new(3, 12, seed), 8);
            assert!(r.checks > 0, "seed {seed}");
            assert_eq!(r.disagreements, 0, "seed {seed}: {:#?}", r.samples);
            assert!(r.converged, "seed {seed} did not converge");
        }
    }

    #[test]
    fn mesh_verdicts_match_oracle_exactly() {
        for seed in 0..10 {
            let r = verify_mesh(&VerifyConfig::new(4, 12, seed));
            assert!(r.checks > 0);
            assert_eq!(r.disagreements, 0, "seed {seed}: {:#?}", r.samples);
            assert!(r.converged, "seed {seed} did not converge");
        }
    }

    #[test]
    fn mesh_verification_is_a_function_of_its_seed() {
        // E8's mesh rows are only replayable if the explored interleaving
        // depends on the seed alone — not on a hasher's iteration order.
        let sweep = || -> Vec<VerifyReport> {
            (0..20)
                .map(|seed| verify_mesh(&VerifyConfig::new(5, 15, seed)))
                .collect()
        };
        assert_eq!(sweep(), sweep());
    }

    #[test]
    fn reports_count_work() {
        let r = verify_star(&VerifyConfig::new(3, 5, 1));
        assert_eq!(r.ops, 15);
        assert!(r.checks >= r.ops, "every delivery checks the HB");
    }
}
