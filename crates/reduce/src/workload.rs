//! Reproducible editing workloads.
//!
//! The paper demonstrates its scheme on a live editing session; we
//! substitute seeded synthetic sessions that exercise the same behaviours:
//! typing bursts (runs of inserts at adjacent positions), scattered
//! single-character edits, deletions, and optional *hotspots* where several
//! users hammer the same region (maximising concurrency and transformation
//! load).
//!
//! Intents are positions-as-fractions so they stay meaningful whatever the
//! document length is when they fire; the site materialises an intent into
//! a concrete operation against its current replica at fire time.

use crate::client::Client;
use crate::msg::ClientOpMsg;
use cvc_sim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An abstract edit, independent of the document state it will meet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EditIntent {
    /// Insert `ch` at `frac · doc_len`.
    InsertChar {
        /// Position as a fraction of the document length in `[0,1]`.
        frac: f64,
        /// Character to insert.
        ch: char,
    },
    /// Delete the character at `frac · (doc_len − 1)` (skipped if empty).
    DeleteChar {
        /// Position as a fraction of the document length in `[0,1]`.
        frac: f64,
    },
    /// Insert a whole string at `frac · doc_len` — one operation on the
    /// star (string ops are native there), one operation *per character*
    /// on the char-based mesh baseline.
    InsertText {
        /// Position as a fraction of the document length in `[0,1]`.
        frac: f64,
        /// Text to insert.
        text: String,
    },
    /// Undo this site's most recent local operation (star/CVC sessions
    /// only; the mesh baseline has no undo and skips these).
    Undo,
}

impl EditIntent {
    /// Concrete character position for a document of `len` chars.
    /// Returns `None` when the intent cannot apply (deleting from empty).
    pub fn position(&self, len: usize) -> Option<usize> {
        match self {
            EditIntent::InsertChar { frac, .. } | EditIntent::InsertText { frac, .. } => {
                Some(((len as f64 + 1.0) * *frac) as usize % (len + 1))
            }
            EditIntent::DeleteChar { frac } => {
                if len == 0 {
                    None
                } else {
                    Some((*frac * len as f64) as usize % len)
                }
            }
            EditIntent::Undo => None,
        }
    }

    /// Materialise this intent against a star/CVC replica as it stands
    /// now: the local edit is executed and the message to propagate comes
    /// back. `None` when nothing applies (deleting from an empty
    /// document, nothing left to undo).
    pub fn apply_to(&self, client: &mut Client) -> Option<ClientOpMsg> {
        let pos = self.position(client.doc_len());
        match self {
            EditIntent::InsertChar { ch, .. } => Some(client.insert(pos?, &ch.to_string())),
            EditIntent::InsertText { text, .. } => Some(client.insert(pos?, text)),
            EditIntent::DeleteChar { .. } => Some(client.delete(pos?, 1)),
            EditIntent::Undo => client.undo_last_local(),
        }
    }
}

/// One scheduled edit of a site's script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEdit {
    /// When the user performs the edit.
    pub at: SimTime,
    /// What they do.
    pub intent: EditIntent,
}

/// Workload shape parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of client sites.
    pub n_sites: usize,
    /// Operations each site generates.
    pub ops_per_site: usize,
    /// RNG seed; every script is a pure function of this config.
    pub seed: u64,
    /// Mean think-time between a site's consecutive edits (µs).
    pub mean_gap_us: u64,
    /// Fraction of edits that delete instead of insert.
    pub delete_fraction: f64,
    /// Mean length of a typing burst (consecutive inserts at advancing
    /// positions). `1` disables bursts.
    pub burst_len: usize,
    /// If set, all edits target a window of this width (as a fraction of
    /// the document) at a random centre per site — a contention hotspot.
    pub hotspot_width: Option<f64>,
    /// Fraction of edits that undo the site's previous operation
    /// (star/CVC sessions only).
    pub undo_fraction: f64,
    /// Emit typing bursts as single whole-string inserts instead of runs
    /// of single-character inserts.
    pub string_ops: bool,
}

impl WorkloadConfig {
    /// A small default workload.
    pub fn small(n_sites: usize, seed: u64) -> Self {
        WorkloadConfig {
            n_sites,
            ops_per_site: 20,
            seed,
            mean_gap_us: 30_000,
            delete_fraction: 0.25,
            burst_len: 4,
            hotspot_width: None,
            undo_fraction: 0.0,
            string_ops: false,
        }
    }

    /// Generate per-site edit scripts (index 0 = site 1).
    pub fn generate(&self) -> Vec<Vec<ScheduledEdit>> {
        assert!(self.n_sites > 0 && self.mean_gap_us > 0);
        let mut scripts = Vec::with_capacity(self.n_sites);
        for site in 0..self.n_sites {
            let mut rng = SmallRng::seed_from_u64(
                self.seed ^ (site as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let (hs_lo, hs_hi) = match self.hotspot_width {
                Some(w) => {
                    let w = w.clamp(0.01, 1.0);
                    let centre = rng.gen_range(0.0..1.0);
                    ((centre - w / 2.0).max(0.0), (centre + w / 2.0).min(1.0))
                }
                None => (0.0, 1.0),
            };
            let mut edits = Vec::with_capacity(self.ops_per_site);
            let mut t = SimTime::ZERO;
            let mut burst_remaining = 0usize;
            let mut burst_frac = 0.0f64;
            while edits.len() < self.ops_per_site {
                // Think time: exponential-ish via uniform doubling.
                let gap = rng.gen_range(self.mean_gap_us / 2..=self.mean_gap_us * 3 / 2);
                t += SimDuration::from_micros(gap.max(1));
                let intent =
                    if burst_remaining == 0 && rng.gen_bool(self.undo_fraction.clamp(0.0, 1.0)) {
                        EditIntent::Undo
                    } else if burst_remaining > 0 {
                        burst_remaining -= 1;
                        // Nudge the anchor rightward as if typing a word.
                        burst_frac = (burst_frac + 0.01).min(hs_hi);
                        EditIntent::InsertChar {
                            frac: burst_frac,
                            ch: random_char(&mut rng),
                        }
                    } else if rng.gen_bool(self.delete_fraction.clamp(0.0, 1.0)) {
                        EditIntent::DeleteChar {
                            frac: rng.gen_range(hs_lo..=hs_hi),
                        }
                    } else if self.string_ops && self.burst_len > 1 {
                        let len = 1 + rng.gen_range(0..self.burst_len);
                        let text: String = (0..len).map(|_| random_char(&mut rng)).collect();
                        EditIntent::InsertText {
                            frac: rng.gen_range(hs_lo..=hs_hi),
                            text,
                        }
                    } else {
                        if self.burst_len > 1 {
                            burst_remaining = rng.gen_range(0..self.burst_len);
                        }
                        burst_frac = rng.gen_range(hs_lo..=hs_hi);
                        EditIntent::InsertChar {
                            frac: burst_frac,
                            ch: random_char(&mut rng),
                        }
                    };
                edits.push(ScheduledEdit { at: t, intent });
            }
            scripts.push(edits);
        }
        scripts
    }
}

fn random_char<R: Rng>(rng: &mut R) -> char {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz ";
    ALPHABET[rng.gen_range(0..ALPHABET.len())] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let cfg = WorkloadConfig::small(3, 7);
        assert_eq!(cfg.generate(), cfg.generate());
        let other = WorkloadConfig::small(3, 8);
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn scripts_have_requested_shape() {
        let cfg = WorkloadConfig {
            n_sites: 4,
            ops_per_site: 50,
            seed: 1,
            mean_gap_us: 10_000,
            delete_fraction: 0.3,
            burst_len: 3,
            hotspot_width: None,
            undo_fraction: 0.0,
            string_ops: false,
        };
        let scripts = cfg.generate();
        assert_eq!(scripts.len(), 4);
        for s in &scripts {
            assert_eq!(s.len(), 50);
            // Times strictly increase.
            assert!(s.windows(2).all(|w| w[0].at < w[1].at));
        }
        // Sites differ from each other.
        assert_ne!(scripts[0], scripts[1]);
    }

    #[test]
    fn hotspot_constrains_positions() {
        let cfg = WorkloadConfig {
            n_sites: 2,
            ops_per_site: 100,
            seed: 3,
            mean_gap_us: 1_000,
            delete_fraction: 0.5,
            burst_len: 1,
            hotspot_width: Some(0.1),
            undo_fraction: 0.0,
            string_ops: false,
        };
        for script in cfg.generate() {
            let fracs: Vec<f64> = script
                .iter()
                .filter_map(|e| match &e.intent {
                    EditIntent::InsertChar { frac, .. }
                    | EditIntent::DeleteChar { frac }
                    | EditIntent::InsertText { frac, .. } => Some(*frac),
                    EditIntent::Undo => None,
                })
                .collect();
            let lo = fracs.iter().cloned().fold(f64::MAX, f64::min);
            let hi = fracs.iter().cloned().fold(f64::MIN, f64::max);
            assert!(hi - lo <= 0.11, "hotspot window too wide: {lo}..{hi}");
        }
    }

    #[test]
    fn intent_positions_are_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let frac = rng.gen_range(0.0..1.0f64);
            let len = rng.gen_range(0..50usize);
            if let Some(p) = (EditIntent::InsertChar { frac, ch: 'x' }).position(len) {
                assert!(p <= len);
            }
            match (EditIntent::DeleteChar { frac }).position(len) {
                Some(p) => assert!(p < len),
                None => assert_eq!(len, 0),
            }
        }
    }

    #[test]
    fn undo_fraction_produces_undo_intents() {
        let cfg = WorkloadConfig {
            n_sites: 1,
            ops_per_site: 200,
            seed: 11,
            mean_gap_us: 1_000,
            delete_fraction: 0.2,
            burst_len: 1,
            hotspot_width: None,
            undo_fraction: 0.3,
            string_ops: false,
        };
        let script = &cfg.generate()[0];
        let undos = script
            .iter()
            .filter(|e| matches!(e.intent, EditIntent::Undo))
            .count();
        let frac = undos as f64 / script.len() as f64;
        assert!((0.15..0.45).contains(&frac), "undo fraction {frac}");
    }

    #[test]
    fn string_ops_mode_emits_text_intents() {
        let cfg = WorkloadConfig {
            n_sites: 1,
            ops_per_site: 100,
            seed: 21,
            mean_gap_us: 1_000,
            delete_fraction: 0.2,
            burst_len: 5,
            hotspot_width: None,
            undo_fraction: 0.0,
            string_ops: true,
        };
        let script = &cfg.generate()[0];
        let texts = script
            .iter()
            .filter(|e| matches!(e.intent, EditIntent::InsertText { .. }))
            .count();
        assert!(texts > 20, "only {texts} text intents");
        // And no single-char bursts in this mode.
        assert!(script
            .iter()
            .all(|e| !matches!(e.intent, EditIntent::InsertChar { .. })));
        // Text lengths bounded by burst_len.
        for e in script {
            if let EditIntent::InsertText { text, .. } = &e.intent {
                assert!((1..=5).contains(&text.chars().count()));
            }
        }
    }

    #[test]
    fn delete_fraction_zero_means_all_inserts() {
        let cfg = WorkloadConfig {
            n_sites: 1,
            ops_per_site: 30,
            seed: 5,
            mean_gap_us: 1_000,
            delete_fraction: 0.0,
            burst_len: 1,
            hotspot_width: None,
            undo_fraction: 0.0,
            string_ops: false,
        };
        let script = &cfg.generate()[0];
        assert!(script
            .iter()
            .all(|e| matches!(e.intent, EditIntent::InsertChar { .. })));
    }
}
