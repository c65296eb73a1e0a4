//! # ipv6view-core — the non-binary view of IPv6 adoption
//!
//! The paper's primary contribution, implemented as a library: instead of
//! the binary "can this user/site/tenant do IPv6 at all?", every analysis
//! here answers *how much* IPv6 is actually present:
//!
//! * [`classify`] — graded website classification (loading-failure /
//!   IPv4-only / IPv6-partial / IPv6-full, plus actual browser protocol
//!   use), with the pre-existing *binary* metric kept as a baseline (Fig 5).
//! * [`readiness`] — classification by popularity bucket (Fig 6).
//! * [`influence`] — which resources hold websites back: per-site IPv4-only
//!   counts and fractions (Fig 7), per-domain span and median contribution
//!   (Fig 8), heavy-hitter categories (Fig 9) and the resource-type heatmap
//!   (Fig 18).
//! * [`whatif`] — the adoption-ordering simulation: how many IPv6-partial
//!   sites become IPv6-full as IPv4-only domains enable IPv6 in descending
//!   span order (Fig 10).
//! * [`client`] — client-side traffic analysis: Table 1, daily-fraction
//!   CDFs (Fig 1/16), AS-level and domain-level lead/lag (Fig 3/4/17).
//! * [`seasonal`] — MSTL wrappers for the hourly/daily IPv6-fraction series
//!   (Fig 2/13/14/15).
//! * [`cloud`] — cloud attribution: per-org readiness (Fig 11/Table 3),
//!   multi-cloud tenant extraction and the pairwise Wilcoxon effect matrix
//!   (Fig 12), CNAME-based service identification and the policy table
//!   (Table 2), and the §5 ease-vs-adoption correlation.
//! * [`tiers`] — translated-adoption tiers: access lines graded from
//!   "no IPv6" through native dual-stack and DS-Lite to IPv6-only with
//!   NAT64/464XLAT, from flow records alone (the client-side analogue of
//!   the graded website classes).
//! * [`report`] — plain-text rendering of tables, CDFs and boxplots with
//!   paper-vs-measured columns.
//!
//! Measurement code never reads generation ground truth: every number is
//! re-derived from crawl reports, flow logs, DNS answers, the RIB and the
//! AS→Org table — the same inputs the paper's pipelines had.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod client;
pub mod cloud;
pub mod influence;
pub mod readiness;
pub mod report;
pub mod seasonal;
pub mod tiers;
pub mod whatif;

pub use classify::{classify_site, ClassCounts, SiteClass};
pub use influence::{DomainInfluence, InfluenceReport};
pub use readiness::ReadinessBuckets;
pub use tiers::{analyze_transition_agg, AdoptionTier, TransitionAnalysis};
pub use whatif::WhatIfCurve;
