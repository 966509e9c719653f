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
//! operations generated at site 0. The star walks feed a
//! [`StarAudit`], which states that rule and its companions once.
//!
//! Every move on the star goes through one function, [`step`]: the
//! seeded walks here, the timed-session replays, the standby star
//! crashed after every prefix, and [`explore`], the memoized search over
//! every interleaving of a small [`Scope`] — whose checked form also
//! checks, at every state, that the log alone rebuilds the notifier.

use crate::audit::{Findings, StarAudit};
use crate::client::Client;
use crate::core::NotifierCore;
use crate::error::ProtocolError;
use crate::mesh::MeshSite;
use crate::msg::{ClientAckMsg, ClientOpMsg, EditorMsg, MeshOpMsg, Payload};
use crate::notifier::{Notifier, NotifierHbEntry, ScanMode};
use crate::standby::Standby;
use crate::wal::{Wal, WalRecovery};
use crate::world::{Move, StarWorld};
use cvc_core::oracle::{CausalityOracle, OpRef};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

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
    /// Clients that joined mid-session (dynamic membership only).
    pub joins: u64,
    /// Clients that left mid-session (dynamic membership only).
    pub leaves: u64,
}

impl VerifyReport {
    /// `checks` verdicts were compared with the oracle, which contradicted
    /// the ones `disagreements` describes.
    fn record(&mut self, checks: usize, disagreements: impl IntoIterator<Item = String>) {
        self.checks += checks as u64;
        for d in disagreements {
            self.disagreements += 1;
            if self.samples.len() < 8 {
                self.samples.push(d);
            }
        }
    }
}

/// Verify the star/CVC deployment's formula (5)/(7) verdicts against the
/// oracle over a randomized interleaving.
pub fn verify_star(cfg: &VerifyConfig) -> VerifyReport {
    walk_star(cfg, cfg.seed, None)
}

/// Verify the star deployment under **dynamic membership**: clients join
/// (receiving the notifier's current document as their snapshot) and leave
/// mid-session, while every concurrency verdict is still compared against
/// the Definition-1 oracle and the active replicas must converge.
pub fn verify_star_dynamic(cfg: &VerifyConfig, max_clients: usize) -> VerifyReport {
    let seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    walk_star(cfg, seed, Some(max_clients))
}

/// One enabled step of [`walk_star`]: the world's work, or a membership
/// change.
#[derive(Clone, Copy)]
enum Action {
    Work(Move),
    Join,
    Leave,
}

fn letter(rng: &mut SmallRng) -> char {
    (b'a' + rng.gen_range(0..26)) as char
}

/// The seeded random walk over a [`StarWorld`] behind both star
/// verifiers: each step is drawn uniformly from the enabled ones (the
/// world's [`StarWorld::moves`], then any membership change), and each
/// move goes through [`step`]. `max_clients` turns on membership changes
/// — joins up to that many sites, leaves while more than two members
/// remain — and with them the dynamic walk's draw order (an insert's
/// character before its position), which E11's golden pins as E8's pins
/// the other.
fn walk_star(cfg: &VerifyConfig, seed: u64, max_clients: Option<usize>) -> VerifyReport {
    let n = cfg.n_clients;
    let tag = if max_clients.is_some() { "dyn " } else { "" };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = VerifyReport::default();
    let mut audit = StarAudit::default();
    let core = NotifierCore::new(Notifier::new(n, &cfg.initial_doc), None, None);
    let mut world = StarWorld::new(core);
    let mut budget: Vec<usize> = vec![cfg.ops_per_client; n];

    loop {
        let sites = world.notifier().n_clients();
        let work = world.moves(&budget).into_iter().map(Action::Work);
        let mut actions: Vec<Action> = work.collect();
        // Termination: no work pending, only membership changes left.
        if actions.is_empty() {
            break;
        }
        if let Some(max) = max_clients {
            if sites < max {
                actions.push(Action::Join);
            }
            if world.clients().count() > 2 {
                actions.push(Action::Leave);
            }
        }
        match actions[rng.gen_range(0..actions.len())] {
            Action::Work(m) => {
                if let Move::Edit(site) = m {
                    budget[site.client_index()] -= 1;
                    report.ops += 1;
                }
                let edit = |c: &mut Client| {
                    let len = c.doc_len();
                    Ok(if len > 0 && rng.gen_bool(0.3) {
                        c.delete(rng.gen_range(0..len), 1)
                    } else {
                        let first = max_clients.map(|_| letter(&mut rng));
                        let pos = rng.gen_range(0..=len);
                        let ch = first.unwrap_or_else(|| letter(&mut rng));
                        c.insert(pos, &ch.to_string())
                    })
                };
                let user = |w: &mut StarWorld, site| w.edit(site, edit).map(Some);
                let stepped = step(&mut world, &mut audit, m, user).expect("members' moves");
                let (verdicts, found) = stepped.expect("queued");
                let found = found.expect("the walk generated and broadcast it");
                let found = found.iter().map(|f| format!("{tag}{m:?}: {f}"));
                report.record(verdicts.len(), found);
            }
            Action::Join => {
                let site = world.join().expect("a world's core has no log");
                report.joins += 1;
                audit.join(site);
                budget.push(cfg.ops_per_client);
            }
            Action::Leave => {
                // A random member leaves; whatever it had in flight goes.
                let members: Vec<SiteId> = world.clients().map(Client::site).collect();
                let v = members[rng.gen_range(0..members.len())];
                world.leave(v).expect("members can leave");
                report.leaves += 1;
                budget[v.client_index()] = 0;
            }
        }
    }

    let doc = world.notifier().doc();
    report.converged = world.clients().all(|c| c.doc() == doc);
    report
}

/// The one step every star driver takes: move `m` through `world`, its
/// outcome fed to `audit`. An edit is `user`'s at the site — the stamp of
/// the op it sent, if any; a delivery up or down is the head of that
/// FIFO. Returns the verdicts the move took — one per history entry, in
/// buffer order; none for an edit — and the audit's findings on them, or
/// `None` when the move did nothing the audit sees: an edit that sent
/// nothing, an ack or a skipped repeat delivered, an empty FIFO.
pub fn step(
    world: &mut StarWorld,
    audit: &mut StarAudit,
    m: Move,
    user: impl FnOnce(&mut StarWorld, SiteId) -> Result<Option<CompressedStamp>, ProtocolError>,
) -> Result<Option<(Vec<bool>, Findings)>, ProtocolError> {
    judge(world, audit, m, user, &mut false)
}

/// [`step`], flipping the first verdict before the audit sees it while
/// `flip` is set, which then clears: the mutation a sound audit must
/// catch.
fn judge(
    world: &mut StarWorld,
    audit: &mut StarAudit,
    m: Move,
    user: impl FnOnce(&mut StarWorld, SiteId) -> Result<Option<CompressedStamp>, ProtocolError>,
    flip: &mut bool,
) -> Result<Option<(Vec<bool>, Findings)>, ProtocolError> {
    let mut mutate = |verdicts: &mut Vec<bool>| {
        if let (true, Some(v)) = (*flip, verdicts.first_mut()) {
            (*v, *flip) = (!*v, false);
        }
    };
    Ok(match m {
        Move::Edit(site) => user(world, site)?.map(|stamp| {
            audit.generate((site, stamp.get(2)));
            (Vec::new(), Ok(Vec::new()))
        }),
        Move::Up(site) => world.deliver_up(site)?.map(|mut out| {
            (out.first_checked, out.checked) = (0, out.full_verdicts());
            mutate(&mut out.checked);
            let seq = world.notifier().state_vector().received_from(site);
            let op = (site, seq.expect("a member's op integrated"));
            let found = audit.notifier_integrated(op, &out);
            (out.checked, found)
        }),
        Move::Down(site) => world.deliver_down(site)?.map(|mut out| {
            mutate(&mut out.checked);
            let client = world
                .client(site)
                .expect("a streaming member integrated it");
            let found = audit.client_integrated(client, &out);
            (out.checked, found)
        }),
    })
}

/// An edit a search offers every site with budget left, made with the
/// site's letter (`a` at site 1, `b` at site 2, …) or its wide letter
/// (`α` at site 1, `β` at site 2, …) — or a message that spends the same
/// budget and travels the same up FIFO while the replica edits nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Insert the letter at position 0.
    LetterAtStart,
    /// Insert the letter at the end.
    LetterAtEnd,
    /// Delete the first character; not offered on an empty document.
    DeleteFirst,
    /// Insert the wide letter, a scalar above U+00FF, at the end: the
    /// first one widens each replica's document (`cvc_ot::buffer`).
    /// Not in [`Edit::MENU`].
    WideAtEnd,
    /// A courtesy bare ack of every broadcast the site has received.
    Ack,
    /// The letter at position 0, sent with its stamp's `T[k]` zeroed (`k`
    /// is 1 or 2): the mutations that show each of the two integers is
    /// needed. A zeroed `T[1]` is offered only once the site has received
    /// a broadcast, so it always says something false.
    Zeroed(usize),
    /// A message the notifier must refuse; its delivery evicts the site.
    Hostile(Hostile),
}

/// What a hostile site sends ([`Edit::Hostile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostile {
    /// The site's last op again, by its `T[2]`; offered once it sent one.
    Duplicate,
    /// An op one sequence number past the next.
    FifoGap,
    /// An op inserting past the end of any document it could be based on.
    WrongBase,
    /// An op from a site outside the session.
    UnknownSite,
    /// An op in another member's name.
    ForgedOrigin,
    /// An ack of broadcasts the notifier never sent.
    AckOverrun,
}

impl Hostile {
    /// Every hostile message.
    pub const ALL: [Hostile; 6] = [
        Hostile::Duplicate,
        Hostile::FifoGap,
        Hostile::WrongBase,
        Hostile::UnknownSite,
        Hostile::ForgedOrigin,
        Hostile::AckOverrun,
    ];
}

impl Edit {
    /// Every edit of the menu.
    pub const MENU: [Edit; 3] = [Edit::LetterAtStart, Edit::LetterAtEnd, Edit::DeleteFirst];

    /// Whether a site whose replica is `c` is offered this edit.
    fn offered(self, c: &Client) -> bool {
        match self {
            Edit::DeleteFirst => c.doc_len() > 0,
            Edit::Zeroed(1) => c.state_vector().received() > 0,
            Edit::Hostile(Hostile::Duplicate) => c.state_vector().generated() > 0,
            _ => true,
        }
    }

    /// The kind of [`ProtocolError`] the hub must refuse this edit's
    /// message with, evicting the site, when it arrives with `acked` of
    /// the site's broadcasts acknowledged; `None` if it must integrate it.
    fn refusal(self, acked: u64) -> Option<&'static str> {
        Some(match self {
            Edit::Zeroed(1) if acked > 0 => "ack-regression",
            Edit::Zeroed(2) | Edit::Hostile(Hostile::Duplicate | Hostile::FifoGap) => {
                "fifo-violation"
            }
            Edit::Hostile(Hostile::WrongBase) => "bad-operation",
            Edit::Hostile(Hostile::UnknownSite | Hostile::ForgedOrigin) => "forged-origin",
            Edit::Hostile(Hostile::AckOverrun) => "ack-overrun",
            _ => return None,
        })
    }

    /// The message a site whose replica is `c`, in a session of `n`
    /// sites, sends for this edit without editing: a courtesy ack, or a
    /// hostile message made from what the site knows when it sends, so
    /// that one check refuses it when it arrives, whatever arrived
    /// between. `None` for an edit of the replica.
    fn message(self, c: &Client, n: usize) -> Option<EditorMsg> {
        let (site, len, sv) = (c.site(), c.doc_len(), c.state_vector());
        let (received, next) = (sv.received(), sv.generated() + 1);
        let op = |origin, t2, op| {
            let stamp = CompressedStamp::new(received, t2);
            let cursor = None;
            let op = ClientOpMsg {
                origin,
                stamp,
                op,
                cursor,
            };
            Some(EditorMsg::ClientOp(op))
        };
        let ack = |received| {
            Some(EditorMsg::ClientAck(ClientAckMsg {
                origin: site,
                received,
            }))
        };
        let (past, nothing) = (len + 999, SeqOp::identity(len));
        let h = match self {
            Edit::Ack => return ack(received),
            Edit::Hostile(h) => h,
            _ => return None,
        };
        match h {
            Hostile::Duplicate => op(site, next - 1, nothing),
            Hostile::FifoGap => op(site, next + 1, nothing),
            Hostile::WrongBase => op(site, next, SeqOp::from_pos(&PosOp::insert(past, "x"), past)),
            Hostile::UnknownSite => op(SiteId(n as u32 + 1), 1, nothing),
            Hostile::ForgedOrigin => {
                let other = SiteId::from_client_index((site.client_index() + 1) % n);
                op(other, 1, nothing)
            }
            Hostile::AckOverrun => ack(received + 999),
        }
    }

    /// Make this edit at `site`: the stamp of the op its replica
    /// generated, as the replica counted it, if it generated one.
    fn make(
        self,
        w: &mut StarWorld,
        site: SiteId,
    ) -> Result<Option<CompressedStamp>, ProtocolError> {
        let n = w.notifier().n_clients();
        let c = w.client(site).ok_or(ProtocolError::DepartedSite { site })?;
        if let Some(msg) = self.message(c, n) {
            return w.send(site, &msg).map(|()| None);
        }
        let mut generated = None;
        w.edit(site, |c| {
            let mut op = self.op(c);
            generated = Some(op.stamp);
            let (t1, t2) = op.stamp.as_pair();
            op.stamp = match self {
                Edit::Zeroed(1) => CompressedStamp::new(0, t2),
                Edit::Zeroed(_) => CompressedStamp::new(t1, 0),
                _ => op.stamp,
            };
            Ok(op)
        })?;
        Ok(generated)
    }

    /// The op this edit generates at `c`: the letter at 0 unless it says
    /// otherwise.
    fn op(self, c: &mut Client) -> ClientOpMsg {
        let index = c.site().client_index() as u8;
        let letter = char::from(b'a' + index).to_string();
        match self {
            Edit::LetterAtEnd => c.insert(c.doc_len(), &letter),
            Edit::DeleteFirst => c.delete(0, 1),
            Edit::WideAtEnd => {
                let wide =
                    char::from_u32(u32::from('α') + u32::from(index)).expect("Greek or Cyrillic");
                c.insert(c.doc_len(), &wide.to_string())
            }
            _ => c.insert(0, &letter),
        }
    }
}

/// What a search ([`explore`]) covers: `sites` clients on an empty
/// document, each making `ops` edits from `menu`, in every interleaving
/// with the deliveries they cause. With `flip_first` the first verdict
/// each path feeds the audit is flipped: a mutated run, which must find
/// one contradiction on every path.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Client sites.
    pub sites: usize,
    /// Edits each site makes.
    pub ops: usize,
    /// The edits each site chooses from.
    pub menu: Vec<Edit>,
    /// Flip the first verdict fed to the audit.
    pub flip_first: bool,
}

/// What a search found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Explored {
    /// Distinct states reached, terminal ones included.
    pub states: u64,
    /// States with no move left.
    pub terminal_states: u64,
    /// Paths to a terminal state, by the findings along them: none, one,
    /// two or more. A terminal state whose survivors diverged counts as a
    /// finding.
    pub paths: [u64; 3],
    /// Terminal states where a member's document is not the notifier's.
    pub diverged: u64,
    /// States whose log ([`explore_checked`]) opens with a snapshot cut
    /// while history was in flight.
    pub busy_snapshots: u64,
    /// States whose notifier ([`explore_checked`]) has collected history.
    pub collected: u64,
}

/// A state of a search: the star, its audit, what each site may still
/// edit, whether the next verdict is flipped, and the edit behind each
/// message a site has queued up.
#[derive(Clone)]
struct Node {
    world: StarWorld,
    audit: StarAudit,
    budget: Vec<usize>,
    flip: bool,
    sent: Vec<VecDeque<Edit>>,
}

/// An enabled move of a search, with the edit it makes.
type Choice = (Move, Option<Edit>);

/// How [`explore_checked`] rebuilds a notifier from a scanned image — a
/// log's, or one snapshot's alone — of a session of `n` sites.
type Rebuild = fn(&WalRecovery, usize) -> Notifier;

/// What [`explore_checked`] keeps: the first node at each digest, and
/// how it rebuilds a notifier.
type Checks = (HashMap<u64, Node>, Rebuild);

impl Node {
    /// The start of a search over `scope`. A checked search's core keeps
    /// a log, cut every two ops, and a warm standby, and collects history
    /// in the notifier and the standby; a plain one's has neither and
    /// collects nothing.
    fn root(scope: &Scope, durable: bool) -> Node {
        let mut notifier = Notifier::new(scope.sites, "");
        notifier.set_auto_gc(durable);
        let core = if durable {
            let mut standby = Standby::new(scope.sites, "", ScanMode::SuffixBounded);
            standby.set_auto_gc(true);
            NotifierCore::new(notifier, Some(Wal::new(2)), Some(standby))
        } else {
            NotifierCore::new(notifier, None, None)
        };
        Node {
            world: StarWorld::new(core),
            audit: StarAudit::default(),
            budget: vec![scope.ops; scope.sites],
            flip: scope.flip_first,
            sent: vec![VecDeque::new(); scope.sites],
        }
    }

    /// The memo's key: a hash of the world's protocol state (`StarWorld`'s
    /// `Hash`), the budgets and the flip. The audit is left out: in a
    /// FIFO star, a replica's history fixes its causal past. So is the
    /// log: it is what each node's recovery check reads, not what the
    /// moves from it do.
    fn digest(&self) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        (&self.world, &self.budget, self.flip).hash(&mut h);
        h.finish()
    }

    /// The world's moves, an edit once per menu entry offered.
    fn choices(&self, menu: &[Edit]) -> Vec<Choice> {
        let mut out = Vec::new();
        for m in self.world.moves(&self.budget) {
            match (m, self.world.client(m.site())) {
                (Move::Edit(_), Some(c)) => {
                    let offered = menu.iter().filter(|e| e.offered(c));
                    out.extend(offered.map(|&e| (m, Some(e))));
                }
                _ => out.push((m, None)),
            }
        }
        out
    }

    /// Take `choice`: the verdicts and findings of [`step`], none for a
    /// move that integrates no op. A delivery up must do what its
    /// message is due: integrate an op or an ack, or be refused. A
    /// refusal evicts the site — one record logged, the document and
    /// state vector untouched — and spends its budget.
    fn step(&mut self, (m, edit): Choice) -> (Vec<bool>, Findings) {
        let i = m.site().client_index();
        let at_hub = |w: &StarWorld| {
            let (core, n) = (w.hub().core(), w.notifier());
            let records = core.wal().map(|w| w.appends() - w.compactions());
            (records, n.doc_checksum(), n.state_vector().clone())
        };
        let before = at_hub(&self.world);
        let acked = self.world.notifier().acked_by()[i];
        let sent = match (m, edit) {
            (Move::Edit(_), Some(e)) => {
                self.budget[i] -= 1;
                self.sent[i].push_back(e);
                None
            }
            (Move::Up(_), _) => self.sent[i].pop_front(),
            _ => None,
        };
        let user = |w: &mut StarWorld, site| edit.expect("an edit carries its edit").make(w, site);
        let judged = judge(&mut self.world, &mut self.audit, m, user, &mut self.flip);
        let refusal = sent.and_then(|e| e.refusal(acked));
        let ok = match (m, &judged) {
            (Move::Up(_), Ok(got)) => {
                refusal.is_none() && got.is_some() == (sent != Some(Edit::Ack))
            }
            (Move::Down(_), Ok(got)) => got.is_some(),
            (Move::Edit(_), Ok(_)) => true,
            (_, Err(e)) => refusal == Some(e.kind_name()),
        };
        assert!(ok, "{m:?} of {sent:?}: {judged:?}");
        if judged.is_err() {
            let n = self.world.notifier();
            assert!(!n.is_active(m.site()), "a refusal evicts the site");
            let (records, text, sv) = before;
            let logged = (records.map(|r| r + 1), text, sv);
            assert_eq!(
                at_hub(&self.world),
                logged,
                "a refusal logs an eviction alone"
            );
            self.budget[i] = 0;
        }
        judged
            .ok()
            .flatten()
            .unwrap_or((Vec::new(), Ok(Vec::new())))
    }

    /// This node with its notifier rebuilt by `rebuild` from the live
    /// one's snapshot bytes alone, which the rebuilt notifier must write
    /// back unchanged.
    fn restored(&self, rebuild: Rebuild) -> Node {
        let live = snapshot(self.world.notifier());
        let image = WalRecovery {
            snapshot: Some(read_own_checkpoint(&live)),
            ..WalRecovery::default()
        };
        let notifier = rebuild(&image, self.budget.len());
        assert_eq!(
            snapshot(&notifier),
            live,
            "a restored notifier writes other bytes"
        );
        let world = self.world.with_notifier(notifier);
        Node {
            world,
            ..self.clone()
        }
    }

    /// Cold = warm = live ([`promotes_to`]): a standby `rebuild` makes
    /// from this node's log image, and the warm one. Whether the image
    /// opens with a snapshot cut while history was in flight; `false` on
    /// a core without a log.
    fn recovers(&self, rebuild: Rebuild) -> bool {
        let core = self.world.hub().core();
        let (Some(wal), Some(warm)) = (core.wal(), core.standby()) else {
            return false;
        };
        let image = Wal::recover(wal.bytes()).expect("a log scans");
        assert!(warm.poisoned().is_none(), "the warm standby is poisoned");
        promotes_to("cold", rebuild(&image, self.budget.len()), core.notifier());
        promotes_to("warm", warm.notifier().clone(), core.notifier());
        image.snapshot.is_some_and(|s| !s.history().is_empty())
    }

    /// What `choice` does from here: its verdicts and findings, and the
    /// bytes then queued on every FIFO, up and down.
    fn outcome(&self, choice: Choice) -> (Vec<bool>, Findings, Vec<Vec<Payload>>) {
        let mut next = self.clone();
        let (verdicts, findings) = next.step(choice);
        let w = &mut next.world;
        let queues = (0..self.budget.len()).flat_map(|i| {
            let site = SiteId::from_client_index(i);
            let up: Vec<Payload> = std::iter::from_fn(|| w.pop_up(site)).collect();
            [up, std::iter::from_fn(|| w.pop_down(i)).collect()]
        });
        (verdicts, findings, queues.collect())
    }
}

/// `replica` stands in for `live` after a crash: the same document, state
/// vector and membership; each member's ack frontier at or below the
/// live one's; once both collect, the history of `live` or a longer one,
/// the same when every member's frontier is level; and the same snapshot
/// bytes when every site's is.
fn promotes_to(what: &str, mut replica: Notifier, live: &Notifier) {
    assert_eq!(replica.doc(), live.doc(), "{what}: document");
    assert_eq!(replica.state_vector(), live.state_vector(), "{what}");
    let (mut level, mut every_level) = (true, true);
    for (i, (&got, &now)) in replica.acked_by().iter().zip(live.acked_by()).enumerate() {
        let site = SiteId::from_client_index(i);
        let member = live.is_active(site);
        assert_eq!(
            replica.is_active(site),
            member,
            "{what}: membership of {site}"
        );
        assert!(
            got <= now || !member,
            "{what}: {site} acked {got}, ahead of {now}"
        );
        (level, every_level) = (level && (got == now || !member), every_level && got == now);
    }
    let mut live = live.clone();
    live.gc();
    replica.gc();
    let entries = |n: &Notifier| {
        let entry = |e: &NotifierHbEntry| (e.origin, e.width_at, e.total_after, e.op.clone());
        n.history().iter().map(entry).collect::<Vec<_>>()
    };
    let (got, want) = (entries(&replica), entries(&live));
    assert!(got.ends_with(&want), "{what}: history lost");
    assert!(!level || got == want, "{what}: level, yet more history");
    if every_level {
        assert_eq!(snapshot(&replica), snapshot(&live), "{what}: snapshot");
    }
}

/// Search every interleaving of `scope` depth first, every move through
/// [`step`], memoized on each state's digest: a state reached again adds
/// the paths counted below it the first time, by findings, without
/// walking them again. Each terminal state's surviving members are
/// checked against the notifier's document.
pub fn explore(scope: &Scope) -> Explored {
    search(Node::root(scope, false), scope, None)
}

/// [`explore`] on a durable core, checking the memo, the snapshot and the
/// log as it goes: at every state reached again, each enabled move's
/// outcome — its verdicts, its findings and the bytes it leaves queued —
/// must equal its outcome from the first node that reached that state; at
/// every new state, the notifier read back from its own snapshot bytes
/// must write the same bytes, and each enabled move's outcome from the
/// world with that notifier must equal its outcome from the live one; and
/// at every node, a cold standby rebuilt from its log image and the warm
/// standby must both stand in for the live notifier ([`promotes_to`]).
/// Otherwise the search panics. It keeps every node, so it is for small
/// scopes.
pub fn explore_checked(scope: &Scope) -> Explored {
    let checks = (HashMap::new(), cold_standby as Rebuild);
    search(Node::root(scope, true), scope, Some(checks))
}

/// The bytes `notifier` writes as its snapshot.
fn snapshot(notifier: &Notifier) -> Vec<u8> {
    let mut bytes = Vec::new();
    notifier.write_checkpoint(&mut bytes);
    bytes
}

/// A notifier read from the bytes it wrote, every byte read.
fn read_own_checkpoint(mut bytes: &[u8]) -> Notifier {
    let notifier = Notifier::read_checkpoint(&mut bytes).expect("a notifier reads its own bytes");
    assert!(bytes.is_empty(), "{} snapshot bytes unread", bytes.len());
    notifier
}

/// A cold standby of `n` sites: `image` replayed, unpoisoned, promoted,
/// and collecting as the live notifier does (a snapshot carries no
/// settings).
fn cold_standby(image: &WalRecovery, n: usize) -> Notifier {
    let mut standby = Standby::from_recovery(image, n, "");
    standby.set_auto_gc(true);
    standby.promote().expect("a cold standby is unpoisoned")
}

fn search(root: Node, scope: &Scope, mut checks: Option<Checks>) -> Explored {
    let (mut explored, mut memo) = (Explored::default(), HashMap::new());
    explored.paths = below(&root, scope, &mut memo, &mut checks, &mut explored);
    explored.states = memo.len() as u64;
    explored
}

/// The terminal paths below `node`, by the findings along them.
fn below(
    node: &Node,
    scope: &Scope,
    memo: &mut HashMap<u64, [u64; 3]>,
    checks: &mut Option<Checks>,
    explored: &mut Explored,
) -> [u64; 3] {
    let (key, choices) = (node.digest(), node.choices(&scope.menu));
    let seen = memo.get(&key).copied();
    if let Some((firsts, rebuild)) = checks {
        if let Some(first) = firsts.get(&key) {
            assert_eq!(first.choices(&scope.menu), choices, "one digest, two menus");
            for &c in &choices {
                let (a, b) = (first.outcome(c), node.outcome(c));
                assert_eq!(a, b, "one digest, two outcomes of {c:?}");
            }
        } else {
            let restored = node.restored(*rebuild);
            for &c in &choices {
                let (a, b) = (node.outcome(c), restored.outcome(c));
                assert_eq!(a, b, "a restored notifier goes on otherwise after {c:?}");
            }
        }
        let busy = node.recovers(*rebuild);
        if seen.is_none() {
            explored.busy_snapshots += u64::from(busy);
            explored.collected += u64::from(node.world.notifier().history_trimmed() > 0);
        }
    }
    if let Some(paths) = seen {
        return paths;
    }
    let mut paths = [0; 3];
    if choices.is_empty() {
        explored.terminal_states += 1;
        let n = node.world.notifier();
        let mut members = node.world.clients().filter(|c| n.is_active(c.site()));
        let diverged = !members.all(|c| c.doc() == n.doc());
        explored.diverged += u64::from(diverged);
        paths[usize::from(diverged)] = 1;
    }
    for &c in &choices {
        let mut next = node.clone();
        let found = next
            .step(c)
            .1
            .expect("every op was generated and broadcast");
        let sub = below(&next, scope, memo, checks, explored);
        for (k, n) in sub.into_iter().enumerate() {
            paths[(k + found.len()).min(2)] += n;
        }
    }
    memo.insert(key, paths);
    if let Some((firsts, _)) = checks {
        firsts.insert(key, node.clone());
    }
    paths
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
                    let ch = letter(&mut rng);
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
                        let (inc, ob) = (oracle.label_of(inc_ref), oracle.label_of(ob_ref));
                        let site = b + 1;
                        let what = || {
                            format!(
                                "mesh site {site}: {inc} vs {ob} engine={verdict} oracle={truth}"
                            )
                        };
                        report.record(1, (verdict != truth).then(what));
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
    use crate::wal::WalRecord;

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
        let (mut joins, mut leaves) = (0, 0);
        for seed in 0..10 {
            let r = verify_star_dynamic(&VerifyConfig::new(3, 12, seed), 8);
            assert!(r.checks > 0, "seed {seed}");
            assert_eq!(r.disagreements, 0, "seed {seed}: {:#?}", r.samples);
            assert!(r.converged, "seed {seed} did not converge");
            (joins, leaves) = (joins + r.joins, leaves + r.leaves);
        }
        // The walk really changed membership.
        assert!(joins > 0 && leaves > 0, "{joins} joins, {leaves} leaves");
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

    /// Two sites, one letter each: small enough to run checked in a test.
    fn two_letters() -> Scope {
        Scope {
            sites: 2,
            ops: 1,
            menu: vec![Edit::LetterAtStart],
            flip_first: false,
        }
    }

    /// A checked search of `scope` from `root`, rebuilding with `rebuild`.
    fn checked(root: Node, scope: &Scope, rebuild: Rebuild) -> Explored {
        search(root, scope, Some((HashMap::new(), rebuild)))
    }

    /// Each site's edit, up and the other's down form a chain: C(6, 3)
    /// interleavings.
    #[test]
    fn the_snapshot_check_passes_an_honest_restore() {
        let scope = two_letters();
        let explored = checked(Node::root(&scope, true), &scope, cold_standby);
        assert_eq!((explored.states, explored.paths), (26, [20, 0, 0]));
    }

    /// A restore that loses nothing but reads one client's acknowledgement
    /// one broadcast ahead is caught by the bytes it writes back.
    #[test]
    #[should_panic(expected = "a restored notifier writes other bytes")]
    fn the_snapshot_check_catches_a_restore_one_ack_ahead() {
        fn one_ack_ahead(image: &WalRecovery, n: usize) -> Notifier {
            let mut n = cold_standby(image, n);
            for i in 0..n.n_clients() {
                let origin = SiteId::from_client_index(i);
                let (_, sent, _) = n.resync_snapshot_for(origin).expect("a member");
                let received = n.acked_by()[i] + 1;
                if received <= sent {
                    n.try_on_client_ack(ClientAckMsg { origin, received })
                        .expect("within what was sent");
                    break;
                }
            }
            n
        }
        let scope = two_letters();
        checked(Node::root(&scope, true), &scope, one_ack_ahead);
    }

    /// A restore that writes the same bytes but not the same settings is
    /// caught by what the moves after it do.
    #[test]
    #[should_panic(expected = "a restored notifier goes on otherwise")]
    fn the_snapshot_check_catches_a_restore_that_goes_on_otherwise() {
        fn acking(image: &WalRecovery, n: usize) -> Notifier {
            let mut n = cold_standby(image, n);
            n.set_send_acks(true);
            n
        }
        let scope = two_letters();
        checked(Node::root(&scope, true), &scope, acking);
    }

    /// A rebuild that forgets every eviction record fails the log check
    /// of the hostile scope (`star_exhaustive`'s). The snapshot check
    /// alone, the same rebuild given snapshot images, passes it: a
    /// snapshot holds the membership, and no record to drop.
    #[test]
    #[should_panic(expected = "cold: membership of")]
    fn the_log_check_catches_a_rebuild_that_forgets_evictions() {
        fn forgetting_evictions(image: &WalRecovery, n: usize) -> Notifier {
            let mut image = image.clone();
            image.tail.retain(|r| !matches!(r, WalRecord::Evict(_)));
            cold_standby(&image, n)
        }
        let mut menu = vec![Edit::LetterAtStart];
        menu.extend(Hostile::ALL.map(Edit::Hostile));
        let scope = Scope {
            sites: 2,
            ops: 2,
            menu,
            flip_first: false,
        };
        let durable = Node::root(&scope, true);
        let world = durable
            .world
            .with_notifier(durable.world.notifier().clone());
        let log_less = Node {
            world,
            ..durable.clone()
        };
        let alone = checked(log_less, &scope, forgetting_evictions);
        assert_eq!((alone.states, alone.paths), (10_255, [405_030, 0, 0]));
        checked(durable, &scope, forgetting_evictions);
    }

    #[test]
    fn reports_count_work() {
        let r = verify_star(&VerifyConfig::new(3, 5, 1));
        assert_eq!(r.ops, 15);
        assert!(r.checks >= r.ops, "every delivery checks the HB");
    }
}
