//! Deterministic domain-name generation.
//!
//! The world generator needs hundreds of thousands of distinct, plausibly
//! shaped registrable domains. Names are built from consonant-vowel
//! syllables plus an optional numeric suffix, over a weighted TLD mix that
//! loosely matches the population of real top lists (.com-heavy with a
//! ccTLD tail).

use dnssim::Name;
use rand::Rng;
use std::collections::HashSet;

const CONSONANTS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "st",
    "tr", "ch", "br", "pl", "cr",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"];

/// Weighted TLD mix (rough top-list shape).
const TLDS: &[(&str, u32)] = &[
    ("com", 48),
    ("net", 8),
    ("org", 8),
    ("io", 4),
    ("co.uk", 3),
    ("de", 3),
    ("ru", 2),
    ("jp", 2),
    ("fr", 2),
    ("com.br", 2),
    ("nl", 2),
    ("com.au", 1),
    ("in", 1),
    ("it", 1),
    ("pl", 1),
    ("es", 1),
    ("info", 1),
    ("xyz", 1),
    ("dev", 1),
    ("app", 1),
    ("cloud", 1),
    ("online", 1),
    ("net.il", 1),
    ("co.jp", 1),
    ("com.cn", 1),
    ("tv", 1),
];

/// Subdomain labels weighted towards the ones real sites use.
const SUBDOMAIN_LABELS: &[&str] = &[
    "www",
    "cdn",
    "static",
    "img",
    "assets",
    "api",
    "media",
    "app",
    "blog",
    "shop",
    "mail",
    "login",
    "edge",
    "data",
    "files",
    "video",
    "js",
    "css",
    "track",
    "ads",
    "analytics",
    "content",
    "secure",
    "m",
    "news",
    "docs",
    "status",
    "web",
    "origin",
    "portal",
];

/// A deterministic, collision-free domain-name generator.
#[derive(Debug, Clone)]
pub struct NameGenerator {
    used: HashSet<Name>,
}

impl NameGenerator {
    /// A fresh generator (no names used yet).
    pub fn new() -> NameGenerator {
        NameGenerator {
            used: HashSet::new(),
        }
    }

    /// Generate a unique registrable domain (eTLD+1) using `rng`.
    pub fn registrable<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Name {
        loop {
            let label = Self::word(rng);
            let tld = Self::pick_tld(rng);
            let candidate = Name::new(&format!("{label}.{tld}"));
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }

    /// A plausible subdomain label (may repeat across parents — uniqueness
    /// only matters for registrable domains).
    pub fn subdomain_label<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
        SUBDOMAIN_LABELS[rng.gen_range(0..SUBDOMAIN_LABELS.len())]
    }

    /// Number of distinct registrable names handed out.
    pub fn issued(&self) -> usize {
        self.used.len()
    }

    /// Mark a name as taken (for hand-curated catalog entries) so random
    /// generation never collides with it. Returns false if already taken.
    pub fn reserve(&mut self, name: Name) -> bool {
        self.used.insert(name)
    }

    fn word<R: Rng + ?Sized>(rng: &mut R) -> String {
        let syllables = rng.gen_range(2..=4);
        let mut s = String::new();
        for _ in 0..syllables {
            s.push_str(CONSONANTS[rng.gen_range(0..CONSONANTS.len())]);
            s.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        }
        if rng.gen_bool(0.12) {
            s.push_str(&rng.gen_range(1..100u32).to_string());
        }
        s
    }

    fn pick_tld<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
        let total: u32 = TLDS.iter().map(|(_, w)| w).sum();
        let mut roll = rng.gen_range(0..total);
        for (tld, w) in TLDS {
            if roll < *w {
                return tld;
            }
            roll -= w;
        }
        unreachable!("weights cover the range")
    }
}

impl Default for NameGenerator {
    fn default() -> Self {
        NameGenerator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psl::Psl;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn names_are_unique() {
        let mut g = NameGenerator::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        for _ in 0..5000 {
            assert!(seen.insert(g.registrable(&mut rng)));
        }
        assert_eq!(g.issued(), 5000);
    }

    #[test]
    fn names_are_registrable_domains() {
        let psl = Psl::builtin();
        let mut g = NameGenerator::new();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..2000 {
            let n = g.registrable(&mut rng);
            assert_eq!(
                psl.etld_plus_one(&n),
                Some(n.clone()),
                "{n} must be exactly an eTLD+1"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gen_seq = |seed| {
            let mut g = NameGenerator::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50).map(|_| g.registrable(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(gen_seq(7), gen_seq(7));
        assert_ne!(gen_seq(7), gen_seq(8));
    }

    #[test]
    fn reserve_blocks_collisions() {
        let mut g = NameGenerator::new();
        assert!(g.reserve(Name::new("doubleclick.test")));
        assert!(!g.reserve(Name::new("doubleclick.test")));
    }
}
