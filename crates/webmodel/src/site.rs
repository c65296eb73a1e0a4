//! Websites, pages, embedded resources and internal links.

use crate::resource::ResourceType;
use dnssim::Name;
use serde::{Deserialize, Serialize};

/// A reference to an embedded resource: the FQDN it loads from and its type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceRef {
    /// FQDN the browser fetches from.
    pub fqdn: Name,
    /// Request type.
    pub rtype: ResourceType,
    /// True when the resource's eTLD+1 equals the site's (first-party).
    pub first_party: bool,
}

/// One page of a website.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Page {
    /// Path identifier (e.g. `"/"`, `"/about"`).
    pub path: String,
    /// Resources embedded in the rendered page (after all dependency
    /// resolution — the synthetic equivalent of a full browser load).
    pub resources: Vec<ResourceRef>,
    /// Indices (into [`Website::pages`]) of same-site pages this page links
    /// to; the crawler clicks up to five of them.
    pub links: Vec<usize>,
}

/// A website on the top list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Website {
    /// 1-based rank on the top list.
    pub rank: usize,
    /// The listed domain (eTLD+1, like Tranco entries).
    pub domain: Name,
    /// The FQDN the main page actually lives at after HTTP redirects
    /// (commonly `www.<domain>`; sometimes another site entirely).
    pub serving_fqdn: Name,
    /// Pages; index 0 is the main page.
    pub pages: Vec<Page>,
}

impl Website {
    /// All distinct resource FQDNs across the given pages (main page plus
    /// clicked links), preserving first-seen order.
    pub fn resource_fqdns(&self, page_indices: &[usize]) -> Vec<&ResourceRef> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &pi in page_indices {
            if let Some(page) = self.pages.get(pi) {
                for r in &page.resources {
                    if seen.insert(&r.fqdn) {
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

    fn site() -> Website {
        Website {
            rank: 1,
            domain: Name::new("example.test"),
            serving_fqdn: Name::new("www.example.test"),
            pages: vec![
                Page {
                    path: "/".into(),
                    resources: vec![
                        ResourceRef {
                            fqdn: Name::new("static.example.test"),
                            rtype: ResourceType::Image,
                            first_party: true,
                        },
                        ResourceRef {
                            fqdn: Name::new("ads.tracker.test"),
                            rtype: ResourceType::Script,
                            first_party: false,
                        },
                    ],
                    links: vec![1],
                },
                Page {
                    path: "/about".into(),
                    resources: vec![
                        ResourceRef {
                            fqdn: Name::new("static.example.test"),
                            rtype: ResourceType::Image,
                            first_party: true,
                        },
                        ResourceRef {
                            fqdn: Name::new("fonts.assets.test"),
                            rtype: ResourceType::Font,
                            first_party: false,
                        },
                    ],
                    links: vec![],
                },
            ],
        }
    }

    #[test]
    fn resource_fqdns_deduplicate_across_pages() {
        let s = site();
        let all = s.resource_fqdns(&[0, 1]);
        let names: Vec<&str> = all.iter().map(|r| r.fqdn.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "static.example.test",
                "ads.tracker.test",
                "fonts.assets.test"
            ]
        );
    }

    #[test]
    fn main_page_only_misses_deeper_resources() {
        let s = site();
        let main_only = s.resource_fqdns(&[0]);
        assert_eq!(
            main_only.len(),
            2,
            "the font dependency is only found by clicking"
        );
    }

    #[test]
    fn out_of_range_pages_ignored() {
        let s = site();
        assert_eq!(s.resource_fqdns(&[0, 7]).len(), 2);
    }
}
