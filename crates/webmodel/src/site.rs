//! Websites, pages and embedded resources.
//!
//! A page's fetches name their FQDN by [`NameId`]: an id in the
//! [`dnssim::NameTable`] of the world that generated the site, which
//! resolves it back to a [`Name`].

use crate::resource::ResourceType;
use dnssim::{Name, NameId};
use iputil::sym::FxBuild;
use std::collections::HashSet;

/// A reference to an embedded resource: the FQDN it loads from and its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceRef {
    /// FQDN the browser fetches from, interned in the world's name table.
    pub fqdn: NameId,
    /// Request type.
    pub rtype: ResourceType,
}

const _: () = assert!(std::mem::size_of::<ResourceRef>() == 8);

/// One page of a website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Resources embedded in the rendered page (after all dependency
    /// resolution — the synthetic equivalent of a full browser load).
    pub resources: Vec<ResourceRef>,
}

/// A website on the top list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Website {
    /// 1-based rank on the top list.
    pub rank: usize,
    /// The listed domain (eTLD+1, like Tranco entries).
    pub domain: Name,
    /// The FQDN the main page actually lives at after HTTP redirects
    /// (commonly `www.<domain>`; sometimes another site entirely).
    pub serving_fqdn: Name,
    /// Pages; index 0 is the main page, which links to every other page
    /// (the crawler clicks up to five of them).
    pub pages: Vec<Page>,
}

impl Website {
    /// All distinct resource FQDNs across the given pages (main page plus
    /// clicked links), preserving first-seen order. Ids come from one name
    /// table, so equal ids are equal names.
    pub fn resource_fqdns(&self, page_indices: &[usize]) -> Vec<&ResourceRef> {
        let mut seen = HashSet::with_hasher(FxBuild::default());
        let mut out = Vec::new();
        for &pi in page_indices {
            if let Some(page) = self.pages.get(pi) {
                for r in &page.resources {
                    if seen.insert(r.fqdn) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::NameTable;

    fn site() -> (Website, NameTable) {
        let mut names = NameTable::new();
        let mut fetch = |fqdn: &str, rtype| ResourceRef {
            fqdn: names.intern(&Name::new(fqdn)),
            rtype,
        };
        let pages = vec![
            Page {
                resources: vec![
                    fetch("static.example.test", ResourceType::Image),
                    fetch("ads.tracker.test", ResourceType::Script),
                ],
            },
            Page {
                resources: vec![
                    fetch("static.example.test", ResourceType::Image),
                    fetch("fonts.assets.test", ResourceType::Font),
                ],
            },
        ];
        let site = Website {
            rank: 1,
            domain: Name::new("example.test"),
            serving_fqdn: Name::new("www.example.test"),
            pages,
        };
        (site, names)
    }

    #[test]
    fn resource_fqdns_deduplicate_across_pages() {
        let (s, names) = site();
        let all = s.resource_fqdns(&[0, 1]);
        let fqdns: Vec<&str> = all.iter().map(|r| names.resolve(r.fqdn).as_str()).collect();
        assert_eq!(
            fqdns,
            vec![
                "static.example.test",
                "ads.tracker.test",
                "fonts.assets.test"
            ]
        );
        // The first fetch of a name is the one kept.
        assert!(std::ptr::eq(all[0], &s.pages[0].resources[0]));
    }

    #[test]
    fn main_page_only_misses_deeper_resources() {
        let (s, _) = site();
        let main_only = s.resource_fqdns(&[0]);
        assert_eq!(
            main_only.len(),
            2,
            "the font dependency is only found by clicking"
        );
    }

    #[test]
    fn out_of_range_pages_ignored() {
        let (s, _) = site();
        assert_eq!(s.resource_fqdns(&[0, 7]).len(), 2);
    }
}
