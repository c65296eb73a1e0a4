//! Domain names: normalized, comparable, cheap to clone — and internable.
//!
//! Names are stored lowercase without a trailing dot. The type is used
//! pervasively (every site, resource, CNAME target and reverse mapping), so
//! it wraps an `Arc<str>` — clones are reference bumps.
//!
//! Comparing and hashing a [`Name`] still walks the whole string, which is
//! what the hot attribution paths (crawl FQDN dedup, per-domain flow
//! aggregation, top-list ranking) used to pay per record. A [`NameTable`]
//! interns names into dense [`NameId`]s (`u32` symbols, first-seen order)
//! so those paths hash each distinct string once and key everything else by
//! integer.

use iputil::sym::{Sym, SymbolTable};
use std::fmt;
use std::sync::Arc;

/// A normalized DNS name (lowercase, no trailing dot).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// Normalize and wrap a name. Empty input becomes the root name `""`.
    pub fn new(s: &str) -> Name {
        let trimmed = s.trim_end_matches('.');
        if trimmed
            .chars()
            .all(|c| c.is_ascii_lowercase() || !c.is_ascii_alphabetic())
        {
            Name(Arc::from(trimmed))
        } else {
            Name(Arc::from(trimmed.to_ascii_lowercase().as_str()))
        }
    }

    /// The textual form (lowercase, no trailing dot).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels from leftmost (most specific) to rightmost (TLD).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The parent domain (`www.example.com` → `example.com`), or `None` at a
    /// single label.
    pub fn parent(&self) -> Option<Name> {
        let (_, rest) = self.0.split_once('.')?;
        Some(Name::new(rest))
    }

    /// True if `self` equals `suffix` or ends with `.suffix`.
    pub fn is_subdomain_of(&self, suffix: &Name) -> bool {
        if self.0.len() == suffix.0.len() {
            return self.0 == suffix.0;
        }
        self.0.len() > suffix.0.len()
            && self.0.ends_with(suffix.0.as_ref())
            && self.0.as_bytes()[self.0.len() - suffix.0.len() - 1] == b'.'
    }

    /// Prepend a label: `Name("example.com").child("www")` → `www.example.com`.
    pub fn child(&self, label: &str) -> Name {
        debug_assert!(!label.contains('.'), "child label must be a single label");
        Name::new(&format!("{label}.{}", self.0))
    }

    /// The last `n` labels as a suffix name (`a.b.c.d`.suffix(2) → `c.d`).
    /// Returns `self` when it has no more than `n` labels. Empty labels
    /// (a leading dot or `..`) are skipped, as in [`Name::labels`].
    pub fn suffix(&self, n: usize) -> Name {
        let text = self.as_str();
        let mut start = text.len();
        for _ in 0..n {
            let head = text[..start].trim_end_matches('.');
            if head.is_empty() {
                return self.clone();
            }
            start = head.rfind('.').map_or(0, |i| i + 1);
        }
        if text[..start].bytes().all(|b| b == b'.') {
            return self.clone();
        }
        let tail = &text[start..];
        if tail.contains("..") {
            Name::new(
                &tail
                    .split('.')
                    .filter(|l| !l.is_empty())
                    .collect::<Vec<_>>()
                    .join("."),
            )
        } else {
            Name::new(tail)
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

/// The interned id of a [`Name`] in a [`NameTable`]: a dense `u32` symbol,
/// valid only against the table that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(Sym);

impl NameId {
    /// The dense index (0-based, first-interned order).
    pub fn index(self) -> usize {
        self.0.index()
    }

    /// Reconstruct an id from a dense index (caller asserts provenance).
    pub fn from_index(index: usize) -> NameId {
        NameId(Sym::from_index(index))
    }
}

/// An interning table over [`Name`]s: each distinct name gets a dense
/// [`NameId`] in first-seen order.
///
/// ```
/// use dnssim::{Name, NameTable};
/// let mut t = NameTable::new();
/// let a = t.intern(&Name::new("example.com"));
/// let b = t.intern(&Name::new("example.org"));
/// assert_eq!(t.intern(&Name::new("example.com")), a);
/// assert_ne!(a, b);
/// assert_eq!(t.resolve(a).as_str(), "example.com");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    table: SymbolTable<Name>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Intern a name (idempotent; the id is stable for the table's life).
    pub fn intern(&mut self, name: &Name) -> NameId {
        NameId(self.table.intern(name))
    }

    /// [`NameTable::intern`] plus whether the name was new — the interned
    /// replacement for `HashSet<Name>::insert` dedup.
    pub fn intern_full(&mut self, name: &Name) -> (NameId, bool) {
        let (sym, new) = self.table.intern_full(name);
        (NameId(sym), new)
    }

    /// The id of an already-interned name.
    pub fn lookup(&self, name: &Name) -> Option<NameId> {
        self.table.lookup(name).map(NameId)
    }

    /// The name behind an id.
    ///
    /// # Panics
    /// Panics when the id did not come from this table.
    pub fn resolve(&self, id: NameId) -> &Name {
        self.table.resolve(id.0)
    }

    /// All interned names, in id order.
    pub fn as_slice(&self) -> &[Name] {
        self.table.as_slice()
    }

    /// Iterate `(id, name)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &Name)> {
        self.table.iter().map(|(sym, name)| (NameId(sym), name))
    }
}

impl serde::Serialize for Name {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Name {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Name, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Name::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_case_and_trailing_dot() {
        assert_eq!(Name::new("WWW.Example.COM.").as_str(), "www.example.com");
        assert_eq!(Name::new("already.lower").as_str(), "already.lower");
    }

    #[test]
    fn labels_and_parent() {
        let n = Name::new("a.b.example.com");
        assert_eq!(
            n.labels().collect::<Vec<_>>(),
            vec!["a", "b", "example", "com"]
        );
        assert_eq!(n.label_count(), 4);
        assert_eq!(n.parent().unwrap().as_str(), "b.example.com");
        assert_eq!(Name::new("com").parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let base = Name::new("example.com");
        assert!(Name::new("example.com").is_subdomain_of(&base));
        assert!(Name::new("www.example.com").is_subdomain_of(&base));
        assert!(Name::new("a.b.example.com").is_subdomain_of(&base));
        assert!(!Name::new("badexample.com").is_subdomain_of(&base));
        assert!(!Name::new("example.org").is_subdomain_of(&base));
        assert!(!Name::new("com").is_subdomain_of(&base));
    }

    #[test]
    fn child_and_suffix() {
        let n = Name::new("example.com");
        assert_eq!(n.child("cdn").as_str(), "cdn.example.com");
        let deep = Name::new("x.y.z.example.com");
        assert_eq!(deep.suffix(2).as_str(), "example.com");
        assert_eq!(deep.suffix(99).as_str(), "x.y.z.example.com");
        assert_eq!(deep.suffix(0).as_str(), "");
    }

    #[test]
    fn suffix_skips_empty_labels() {
        // Shorter suffixes join the labels; a suffix that covers every
        // label is the name itself, leading dot included.
        let n = Name::new(".a..b.example...com");
        assert_eq!(n.suffix(1).as_str(), "com");
        assert_eq!(n.suffix(2).as_str(), "example.com");
        assert_eq!(n.suffix(3).as_str(), "b.example.com");
        assert_eq!(n.suffix(4).as_str(), ".a..b.example...com");
        assert_eq!(Name::new("").suffix(1).as_str(), "");
        assert_eq!(Name::new("").suffix(0).as_str(), "");
    }

    #[test]
    fn interning_is_dense_and_normalized() {
        let mut t = NameTable::new();
        let a = t.intern(&Name::new("WWW.Example.COM."));
        let b = t.intern(&Name::new("other.test"));
        // Normalized equal names share an id.
        let (a2, new) = t.intern_full(&Name::new("www.example.com"));
        assert_eq!(a, a2);
        assert!(!new);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a).as_str(), "www.example.com");
        assert_eq!(t.lookup(&Name::new("other.test")), Some(b));
        assert_eq!(t.lookup(&Name::new("absent.test")), None);
        let order: Vec<&str> = t.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(order, vec!["www.example.com", "other.test"]);
    }

    #[test]
    fn display_roundtrip() {
        let n = Name::new("Foo.Bar.");
        assert_eq!(format!("{n}"), "foo.bar");
        assert_eq!(Name::from("foo.bar"), n);
    }
}
