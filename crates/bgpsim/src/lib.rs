//! # bgpsim — a BGP-shaped routing information base
//!
//! The paper attributes traffic and hosted domains to operators in two hops:
//!
//! 1. **address → origin AS** from BGP routing tables (§3.4, §5.1), and
//! 2. **AS → organization** from CAIDA's AS-to-Organization dataset (§5.1).
//!
//! This crate models both. The [`rib::Rib`] stores announced prefixes in
//! longest-prefix-match tables (one per family) and answers `origin_of`
//! queries; the [`registry::Registry`] stores AS metadata (name, category
//! for Fig 4 grouping) and the AS→Org mapping — including the mapping's
//! real-world warts the paper highlights: the same company split across
//! multiple org entries (Akamai International B.V. vs Akamai Technologies,
//! Inc.) and partnerships that cross org lines (Bunnyway on Datacamp
//! infrastructure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod rib;

pub use registry::{AsCategory, AsId, AsInfo, OrgId, Organization, Registry};
pub use rib::Rib;
