//! Public Suffix List matching and eTLD+1 extraction.
//!
//! Implements the [publicsuffix.org](https://publicsuffix.org) algorithm:
//! exact rules, wildcard rules (`*.ck`), and exception rules (`!www.ck`).
//! The longest matching rule wins; exception rules beat everything; names
//! with no matching rule fall back to the implicit `*` rule (the TLD is the
//! public suffix).
//!
//! The rules compile into one map from suffix to rule-kind bits (exact,
//! wildcard, exception). A lookup walks the label starts of the name's own
//! text with one map probe per label position: the wildcard tail of the
//! candidate at one position is the candidate at the next. On names without
//! empty labels, [`Psl::registrable_domain`], [`Psl::same_site`] and
//! [`Psl::has_registrable_domain`] allocate nothing, and
//! [`Psl::etld_plus_one`] and [`Psl::public_suffix`] allocate only the
//! [`Name`] they return. A name with empty labels (a leading dot or `..`)
//! is normalised once, then walked the same way.
//!
//! The embedded rule set covers the common ICANN suffixes appearing in the
//! paper's domain tables (appendix D includes `net.il`, `com.au`, `com.br`,
//! `co.uk`-style names) plus the reserved `test`/`example` TLDs used by the
//! synthetic world.

use dnssim::Name;
use iputil::sym::FxBuild;
use std::borrow::Cow;
use std::collections::HashMap;

/// Built-in ICANN-style suffix rules (subset sufficient for the suite), in
/// PSL syntax: the rules of [`Psl::builtin`].
pub const BUILTIN_RULES: &[&str] = &[
    // Generic TLDs.
    "com",
    "net",
    "org",
    "io",
    "info",
    "biz",
    "dev",
    "app",
    "edu",
    "gov",
    "mil",
    "int",
    "cloud",
    "online",
    "site",
    "store",
    "tech",
    "xyz",
    "top",
    "club",
    "tv",
    "me",
    "cc",
    "us",
    "eu",
    // Reserved for testing/documentation (RFC 2606) — the synthetic world
    // lives here.
    "test",
    "example",
    "invalid",
    "localhost",
    // Country codes with common second-level registrations.
    "uk",
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "au",
    "com.au",
    "net.au",
    "org.au",
    "br",
    "com.br",
    "net.br",
    "jp",
    "co.jp",
    "ne.jp",
    "or.jp",
    "cn",
    "com.cn",
    "net.cn",
    "in",
    "co.in",
    "net.in",
    "il",
    "co.il",
    "net.il",
    "nz",
    "co.nz",
    "net.nz",
    "za",
    "co.za",
    "kr",
    "co.kr",
    "tw",
    "com.tw",
    "hk",
    "com.hk",
    "sg",
    "com.sg",
    "th",
    "co.th",
    "my",
    "com.my",
    "mx",
    "com.mx",
    "ar",
    "com.ar",
    "vn",
    "com.vn",
    "id",
    "co.id",
    "ph",
    "com.ph",
    "tr",
    "com.tr",
    "ru",
    "de",
    "fr",
    "nl",
    "es",
    "it",
    "pl",
    "se",
    "no",
    "fi",
    "dk",
    "gr",
    "pt",
    "hu",
    "be",
    "at",
    "ch",
    "cz",
    "ro",
    "sk",
    "ca",
    "ie",
    "lu",
    // Wildcard + exception examples from the PSL spec (kept for fidelity and
    // exercised by tests).
    "*.ck",
    "!www.ck",
];

/// Rule-kind bits of a suffix in [`Psl`]'s rule map: a suffix can be named
/// by an exact rule, a wildcard rule and an exception rule at once.
const EXACT: u8 = 1;
/// `*.X`, stored under `X`.
const WILDCARD: u8 = 2;
/// `!X`, stored under `X`.
const EXCEPTION: u8 = 4;

/// A compiled Public Suffix List.
#[derive(Debug, Clone)]
pub struct Psl {
    /// Each rule's suffix (without `*.` or `!`) and the kinds of rule that
    /// name it.
    by_suffix: HashMap<Box<str>, u8, FxBuild>,
}

/// Where a name splits, as byte offsets into its text without empty labels.
struct Split {
    /// Start of the public suffix (the text's length for an empty suffix).
    suffix: usize,
    /// Start of the registrable domain; `None` for a bare public suffix.
    registrable: Option<usize>,
}

impl Psl {
    /// Compile a rule list (PSL syntax: one rule per string).
    pub fn new<'a, I: IntoIterator<Item = &'a str>>(rules: I) -> Psl {
        let mut by_suffix: HashMap<Box<str>, u8, FxBuild> = HashMap::default();
        for rule in rules {
            let rule = rule.trim().to_ascii_lowercase();
            if rule.is_empty() {
                continue;
            }
            let (suffix, kind) = if let Some(rest) = rule.strip_prefix('!') {
                (rest, EXCEPTION)
            } else if let Some(rest) = rule.strip_prefix("*.") {
                (rest, WILDCARD)
            } else {
                (rule.as_str(), EXACT)
            };
            *by_suffix.entry(suffix.into()).or_default() |= kind;
        }
        Psl { by_suffix }
    }

    /// The built-in rule set.
    pub fn builtin() -> Psl {
        Psl::new(BUILTIN_RULES.iter().copied())
    }

    /// The matcher: split `text`, a name without empty labels, into its
    /// registrable domain and public suffix.
    ///
    /// The candidate suffixes are the tails of `text` at each label start,
    /// probed left to right, one map lookup each. A wildcard rule `*.X`
    /// matching `<label>.X` is the `WILDCARD` bit on the candidate one label
    /// to the right of that match. The leftmost exception wins outright;
    /// otherwise the leftmost exact or wildcard match is the longest, and a
    /// name no rule matches falls back to the implicit `*` rule.
    fn split(&self, text: &str) -> Split {
        // The starts of the two labels left of `at`, nearest first.
        let (mut prev, mut prev2) = (None, None);
        let mut best = None;
        let mut at = 0;
        loop {
            let next = text[at..].find('.').map(|i| at + i + 1);
            let kinds = self.by_suffix.get(&text[at..]).copied().unwrap_or(0);
            if kinds & EXCEPTION != 0 {
                // The public suffix is the candidate minus its leftmost label.
                return Split {
                    suffix: next.unwrap_or(text.len()),
                    registrable: Some(at),
                };
            }
            if best.is_none() {
                best = match prev {
                    Some(p) if kinds & WILDCARD != 0 => Some(Split {
                        suffix: p,
                        registrable: prev2,
                    }),
                    _ if kinds & EXACT != 0 => Some(Split {
                        suffix: at,
                        registrable: prev,
                    }),
                    _ => None,
                };
            }
            let Some(next) = next else { break };
            (prev2, prev) = (prev, Some(at));
            at = next;
        }
        best.unwrap_or(Split {
            suffix: at,
            registrable: prev,
        })
    }

    /// The public suffix of `name` (e.g. `co.uk` for `www.example.co.uk`).
    pub fn public_suffix(&self, name: &Name) -> Name {
        let text = without_empty_labels(name);
        match self.split(&text).suffix {
            0 => name.clone(),
            at => Name::new(&text[at..]),
        }
    }

    /// The registrable domain of `name` (its eTLD+1) as text: a slice of
    /// `name` unless an empty label of `name` (a leading dot or `..`) falls
    /// inside it. `None` when the name *is* a public suffix (or shorter).
    /// Allocation-free on names without empty labels.
    pub fn registrable_domain<'a>(&self, name: &'a Name) -> Option<Cow<'a, str>> {
        let text = without_empty_labels(name);
        match self.split(&text).registrable? {
            0 => Some(Cow::Borrowed(name.as_str())),
            at => Some(match text {
                Cow::Borrowed(t) => Cow::Borrowed(&t[at..]),
                Cow::Owned(t) => Cow::Owned(t[at..].to_owned()),
            }),
        }
    }

    /// The registrable domain (eTLD+1): the public suffix plus one label.
    /// `None` when the name *is* a public suffix (or shorter).
    pub fn etld_plus_one(&self, name: &Name) -> Option<Name> {
        let domain = self.registrable_domain(name)?;
        Some(if domain.len() == name.as_str().len() {
            name.clone()
        } else {
            Name::new(&domain)
        })
    }

    /// Are two names part of the same registrable domain? Names that lack a
    /// registrable domain (bare suffixes) never match anything.
    pub fn same_site(&self, a: &Name, b: &Name) -> bool {
        match (self.registrable_domain(a), self.registrable_domain(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Is `domain` the registrable domain of `name`? With `domain` the
    /// [`registrable_domain`](Psl::registrable_domain) of some name `b`, this
    /// is `same_site(name, b)`, for many names against one `b` without
    /// recomputing `b`'s side.
    ///
    /// Equal registrable domains imply that `name` is `domain` or ends with
    /// `.domain`, unless `name` has an empty label; so that byte test is
    /// exact as a pre-check, and names outside `domain` skip the walk.
    pub fn has_registrable_domain(&self, name: &Name, domain: &str) -> bool {
        let text = name.as_str();
        let inside = text
            .strip_suffix(domain)
            .is_some_and(|head| head.is_empty() || head.ends_with('.'));
        if !inside && !has_empty_label(text) {
            return false;
        }
        self.registrable_domain(name).is_some_and(|d| d == domain)
    }
}

/// Does `text` (a name: no trailing dot) have an empty label?
fn has_empty_label(text: &str) -> bool {
    text.starts_with('.') || text.contains("..")
}

/// `name`'s text with its empty labels dropped, which is what
/// [`Name::labels`] yields joined by dots. Borrowed unless there are any.
fn without_empty_labels(name: &Name) -> Cow<'_, str> {
    let text = name.as_str();
    if has_empty_label(text) {
        Cow::Owned(name.labels().collect::<Vec<_>>().join("."))
    } else {
        Cow::Borrowed(text)
    }
}

impl Default for Psl {
    fn default() -> Self {
        Psl::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> Psl {
        Psl::builtin()
    }

    #[test]
    fn simple_tld() {
        let p = psl();
        assert_eq!(p.public_suffix(&"www.example.com".into()).as_str(), "com");
        assert_eq!(
            p.etld_plus_one(&"www.example.com".into()).unwrap().as_str(),
            "example.com"
        );
        assert_eq!(
            p.etld_plus_one(&"a.b.c.example.com".into())
                .unwrap()
                .as_str(),
            "example.com"
        );
    }

    #[test]
    fn second_level_suffixes() {
        let p = psl();
        assert_eq!(
            p.public_suffix(&"www.example.co.uk".into()).as_str(),
            "co.uk"
        );
        assert_eq!(
            p.etld_plus_one(&"www.example.co.uk".into())
                .unwrap()
                .as_str(),
            "example.co.uk"
        );
        // The paper's appendix D has netvision.net.il.
        assert_eq!(
            p.etld_plus_one(&"dialup.netvision.net.il".into())
                .unwrap()
                .as_str(),
            "netvision.net.il"
        );
    }

    #[test]
    fn bare_suffix_has_no_etld_plus_one() {
        let p = psl();
        assert_eq!(p.etld_plus_one(&"com".into()), None);
        assert_eq!(p.etld_plus_one(&"co.uk".into()), None);
    }

    #[test]
    fn unknown_tld_falls_back_to_star_rule() {
        let p = psl();
        assert_eq!(
            p.public_suffix(&"foo.bar.unknowntld".into()).as_str(),
            "unknowntld"
        );
        assert_eq!(
            p.etld_plus_one(&"foo.bar.unknowntld".into())
                .unwrap()
                .as_str(),
            "bar.unknowntld"
        );
    }

    #[test]
    fn wildcard_and_exception_rules() {
        let p = psl();
        // *.ck: every <label>.ck is a public suffix...
        assert_eq!(
            p.etld_plus_one(&"shop.site.whatever.ck".into())
                .unwrap()
                .as_str(),
            "site.whatever.ck"
        );
        // ...except www.ck (exception rule), which is registrable itself.
        assert_eq!(
            p.etld_plus_one(&"www.ck".into()).unwrap().as_str(),
            "www.ck"
        );
        assert_eq!(
            p.etld_plus_one(&"foo.www.ck".into()).unwrap().as_str(),
            "www.ck"
        );
    }

    #[test]
    fn same_site_relation() {
        let p = psl();
        assert!(p.same_site(&"a.example.com".into(), &"b.example.com".into()));
        assert!(p.same_site(&"example.com".into(), &"cdn.example.com".into()));
        assert!(!p.same_site(&"a.example.com".into(), &"a.example.org".into()));
        assert!(!p.same_site(&"a.foo.co.uk".into(), &"a.bar.co.uk".into()));
        assert!(!p.same_site(&"com".into(), &"com".into()));
    }

    #[test]
    fn custom_rules() {
        let p = Psl::new(["platform.test", "*.hosted.test"]);
        assert_eq!(
            p.etld_plus_one(&"tenant1.platform.test".into())
                .unwrap()
                .as_str(),
            "tenant1.platform.test"
        );
        assert_eq!(
            p.etld_plus_one(&"x.y.eu.hosted.test".into())
                .unwrap()
                .as_str(),
            "y.eu.hosted.test"
        );
    }
}
