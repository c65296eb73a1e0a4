//! Property tests for the web model: PSL laws, the PSL matcher against a
//! reference implementation, and top-list sampling.

use dnssim::Name;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use webmodel::psl::{Psl, BUILTIN_RULES};
use webmodel::toplist::TopList;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z]{1,8}".prop_map(|s| s)
}

fn arb_name() -> impl Strategy<Value = Name> {
    (
        proptest::collection::vec(arb_label(), 1..5),
        prop_oneof![
            Just("com".to_string()),
            Just("co.uk".to_string()),
            Just("net.il".to_string()),
            Just("unknowntld".to_string()),
            Just("test".to_string()),
        ],
    )
        .prop_map(|(labels, tld)| Name::new(&format!("{}.{tld}", labels.join("."))))
}

/// The reference matcher: the publicsuffix.org algorithm written the
/// plain way, with one rule set per kind, the name's labels collected into
/// a `Vec`, and a joined `String` probed per suffix position and per
/// wildcard tail. [`Psl`] must answer exactly as it does.
struct Reference {
    exact: HashSet<String>,
    wildcard: HashSet<String>,
    exception: HashSet<String>,
}

impl Reference {
    fn new(rules: &[&str]) -> Reference {
        let mut r = Reference {
            exact: HashSet::new(),
            wildcard: HashSet::new(),
            exception: HashSet::new(),
        };
        for rule in rules {
            let rule = rule.trim().to_ascii_lowercase();
            if rule.is_empty() {
                continue;
            }
            if let Some(rest) = rule.strip_prefix('!') {
                r.exception.insert(rest.to_string());
            } else if let Some(rest) = rule.strip_prefix("*.") {
                r.wildcard.insert(rest.to_string());
            } else {
                r.exact.insert(rule);
            }
        }
        r
    }

    /// Length (in labels) of the public suffix of `name`.
    fn suffix_label_count(&self, name: &Name) -> usize {
        let labels: Vec<&str> = name.labels().collect();
        let n = labels.len();
        let mut best = 1;
        for start in 0..n {
            let candidate = labels[start..].join(".");
            if self.exception.contains(&candidate) {
                return n - start - 1;
            }
            if self.exact.contains(&candidate) {
                best = best.max(n - start);
            }
            if start + 1 < n && self.wildcard.contains(&labels[start + 1..].join(".")) {
                best = best.max(n - start);
            }
        }
        best
    }

    /// The last `n` labels joined, or `name` itself when it has no more.
    fn suffix(name: &Name, n: usize) -> Name {
        let labels: Vec<&str> = name.labels().collect();
        if n >= labels.len() {
            return name.clone();
        }
        Name::new(&labels[labels.len() - n..].join("."))
    }

    fn public_suffix(&self, name: &Name) -> Name {
        Reference::suffix(name, self.suffix_label_count(name))
    }

    fn etld_plus_one(&self, name: &Name) -> Option<Name> {
        let count = self.suffix_label_count(name);
        if name.label_count() <= count {
            return None;
        }
        Some(Reference::suffix(name, count + 1))
    }

    fn same_site(&self, a: &Name, b: &Name) -> bool {
        match (self.etld_plus_one(a), self.etld_plus_one(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// Labels the oracle names are built from: rule suffixes of the built-in
/// and the custom rule sets, unknown TLDs, and `""`, which makes a leading
/// dot or a `..` (a trailing one is trimmed by [`Name::new`]).
const LABELS: &[&str] = &[
    "", "www", "city", "kawasaki", "jp", "ck", "co", "uk", "com", "example", "net", "il", "a", "x",
    "zz", "nope",
];

/// Overlapping custom rules: exact, wildcard and exception rules on the
/// same suffixes, and single-label exceptions (an empty public suffix).
const RULE_POOL: &[&str] = &[
    "kawasaki.jp",
    "*.kawasaki.jp",
    "!city.kawasaki.jp",
    "jp",
    "*.jp",
    "ck",
    "*.ck",
    "!www.ck",
    "uk",
    "co.uk",
    "*.uk",
    "!www.co.uk",
    "com",
    "*.com",
    "!example.com",
    "a.com",
    "*.a.com",
    "!x",
    "zz",
    "*.zz",
];

fn arb_oracle_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(0..LABELS.len(), 0..6).prop_map(|ix| {
        let labels: Vec<&str> = ix.iter().map(|&i| LABELS[i]).collect();
        Name::new(&labels.join("."))
    })
}

fn arb_rules() -> impl Strategy<Value = BTreeSet<usize>> {
    proptest::collection::btree_set(0..RULE_POOL.len(), 0..10)
}

/// Every answer of `psl` on `a` and `b` (and on `a` under a new label)
/// equals the reference's.
fn assert_matches_reference(psl: &Psl, reference: &Reference, a: &Name, b: &Name) {
    let child = Name::new(&format!("sub.{a}"));
    for n in [a, b, &child] {
        assert_eq!(
            psl.public_suffix(n),
            reference.public_suffix(n),
            "public_suffix({n:?})"
        );
        let etld1 = reference.etld_plus_one(n);
        assert_eq!(psl.etld_plus_one(n), etld1, "etld_plus_one({n:?})");
        assert_eq!(
            psl.registrable_domain(n).as_deref(),
            etld1.as_ref().map(Name::as_str),
            "registrable_domain({n:?})"
        );
    }
    for (x, y) in [(a, b), (b, a), (a, a), (&child, a), (a, &child)] {
        let same = reference.same_site(x, y);
        assert_eq!(psl.same_site(x, y), same, "same_site({x:?}, {y:?})");
        if let Some(d) = psl.registrable_domain(y) {
            assert_eq!(
                psl.has_registrable_domain(x, &d),
                same,
                "has_registrable_domain({x:?}, {d:?})"
            );
        }
    }
}

#[test]
fn matcher_matches_reference_on_fixed_cases() {
    let names = [
        "www.ck",
        "foo.www.ck",
        "shop.site.whatever.ck",
        "ck",
        ".www.ck",
        "a..www.ck",
        ".example.com",
        "www.example..com",
        "..a.b.example.co.uk",
        "foo.bar.unknowntld",
        "unknowntld",
        "",
        "city.kawasaki.jp",
        "www.city.kawasaki.jp",
        "x.kawasaki.jp",
        "kawasaki.jp",
    ];
    let custom = [
        "kawasaki.jp",
        "*.kawasaki.jp",
        "!city.kawasaki.jp",
        "!x",
        "*.zz",
    ];
    let builtin = (Psl::builtin(), Reference::new(BUILTIN_RULES));
    let custom = (Psl::new(custom), Reference::new(&custom));
    for a in names {
        for b in names {
            let (a, b) = (Name::new(a), Name::new(b));
            assert_matches_reference(&builtin.0, &builtin.1, &a, &b);
            assert_matches_reference(&custom.0, &custom.1, &a, &b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The built-in rules against the reference, on names with empty
    /// labels, `*.ck` / `!www.ck`, and unknown TLDs.
    #[test]
    fn builtin_matcher_matches_reference(a in arb_oracle_name(), b in arb_oracle_name()) {
        assert_matches_reference(&Psl::builtin(), &Reference::new(BUILTIN_RULES), &a, &b);
    }

    /// Random overlapping custom rule sets against the reference.
    #[test]
    fn custom_matcher_matches_reference(
        pick in arb_rules(),
        a in arb_oracle_name(),
        b in arb_oracle_name(),
    ) {
        let rules: Vec<&str> = pick.iter().map(|&i| RULE_POOL[i]).collect();
        let psl = Psl::new(rules.iter().copied());
        assert_matches_reference(&psl, &Reference::new(&rules), &a, &b);
    }
}

proptest! {
    /// eTLD+1 laws: the registrable domain is a suffix of the name, is
    /// itself its own eTLD+1 (idempotence), and shares the public suffix.
    #[test]
    fn etld1_laws(name in arb_name()) {
        let psl = Psl::builtin();
        if let Some(etld1) = psl.etld_plus_one(&name) {
            prop_assert!(name.is_subdomain_of(&etld1), "{name} vs {etld1}");
            prop_assert_eq!(psl.etld_plus_one(&etld1), Some(etld1.clone()));
            prop_assert_eq!(
                psl.public_suffix(&name),
                psl.public_suffix(&etld1)
            );
            // Exactly one label more than the public suffix.
            prop_assert_eq!(
                etld1.label_count(),
                psl.public_suffix(&name).label_count() + 1
            );
        } else {
            // Only bare suffixes lack a registrable domain.
            prop_assert_eq!(psl.public_suffix(&name).label_count(), name.label_count());
        }
    }

    /// same_site is an equivalence on names sharing an eTLD+1.
    #[test]
    fn same_site_reflexive_symmetric(a in arb_name(), b in arb_name()) {
        let psl = Psl::builtin();
        if psl.etld_plus_one(&a).is_some() {
            prop_assert!(psl.same_site(&a, &a));
        }
        prop_assert_eq!(psl.same_site(&a, &b), psl.same_site(&b, &a));
    }

    /// Zipf sampling stays in range and prefers the head.
    #[test]
    fn zipf_sampling_in_range(n in 10usize..500, seed in any::<u64>()) {
        use rand::SeedableRng;
        let list = TopList::new(
            (0..n).map(|i| Name::new(&format!("s{i}.test"))).collect(),
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut head = 0usize;
        for _ in 0..300 {
            let r = list.sample_rank(&mut rng);
            prop_assert!((1..=n).contains(&r));
            if r <= n / 2 {
                head += 1;
            }
        }
        // Top half should get well over half the draws for Zipf s=1.
        prop_assert!(head > 150, "head draws {head}/300");
    }
}
