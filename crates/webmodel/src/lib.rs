//! # webmodel — the synthetic web
//!
//! Structural model of the web that §4 and §5 of the paper crawl and
//! classify:
//!
//! * [`psl`] — a Public Suffix List implementation (exact, wildcard and
//!   exception rules) with eTLD+1 extraction. The paper uses eTLD+1 to keep
//!   link clicks on-site, to split first- from third-party resources, and to
//!   define multi-cloud tenants.
//! * [`resource`] — resource types (image, script, sub_frame, ... — the axes
//!   of Fig 18) and third-party domain categories (ads, trackers, CDN,
//!   analytics, ... — the categories of Fig 9, VirusTotal-style).
//! * [`site`] — websites, pages, embedded resources and
//!   redirects: what the OpenWPM-style crawler walks.
//! * [`namegen`] — deterministic pronounceable domain-name generation with a
//!   weighted TLD mix, used by the world generator.
//! * [`toplist`] — a Tranco-like ranked top list with Zipf popularity
//!   sampling.
//!
//! This crate is purely structural: *which* names have `AAAA` records lives
//! in the DNS zone built by `worldgen`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod namegen;
pub mod psl;
pub mod resource;
pub mod site;
pub mod toplist;

pub use namegen::NameGenerator;
pub use psl::Psl;
pub use resource::{DomainCategory, ResourceType};
pub use site::{Page, ResourceRef, Website};
pub use toplist::TopList;
