//! # `experiments` — the library-first experiment engine behind `repro`.
//!
//! This crate packages the paper's methodology — one synthetic Internet
//! interrogated from client, server, cloud and transition-technology
//! vantage points — as an embeddable library. The `repro` binary is a thin
//! CLI over three public pieces:
//!
//! * [`Session`] — the shared state scenarios run in: a world generated
//!   from a typed [`RunConfig`] (sites / seed / days / thread fan-out),
//!   plus memoized views of the expensive derived artifacts (crawls and
//!   their analyses, streaming aggregate passes). A sequence of scenarios
//!   pays for each view once.
//! * [`Scenario`] — a named, describable experiment:
//!   `run(&mut Session) -> Report`. The static [`registry`] holds every
//!   built-in scenario in paper order and is the single source of truth
//!   for dispatch, `repro list`, `repro all` and the CI smoke loop.
//! * [`Report`] — the structured result: typed elements (headings, tables,
//!   paper-vs-measured comparisons, exportable datasets) consumed by all
//!   three output paths — stdout rendering ([`Report::render`]), `--json`
//!   (`Report` is `Serialize`), and `repro export`
//!   ([`export::export_all`] writes the [`Element::Dataset`] members).
//!
//! ## Embedding
//!
//! ```
//! use experiments::{find, registry, RunConfig, Session};
//!
//! // Scenarios are values: enumerate them, or look one up by name.
//! assert!(registry().len() >= 30);
//! let scenario = find("fig6").expect("registered");
//!
//! // A tiny world; scale the same code up with `.full()`.
//! let mut session = Session::new(RunConfig::default().sites(200).seed(7).days(2));
//! let report = scenario.run(&mut session);
//! assert_eq!(report.scenario, "fig6");
//! assert!(!report.render().is_empty());
//! ```
//!
//! Custom experiments implement [`Scenario`] and drive the same `Session`;
//! every view the built-ins read ([`Session::crawl`], [`Session::hosted`],
//! [`Session::influence`], …) is public and takes `&self`.

#![forbid(unsafe_code)]

pub mod asfrac_exps;
pub mod client_exps;
pub mod cloud_exps;
pub mod export;
pub mod fault_exps;
pub mod millsubs_exps;
pub mod report;
pub mod scenario;
pub mod server_exps;
pub mod session;
pub mod telemetry;
pub mod transition_exps;

pub use export::export_all;
pub use report::{Comparison, Dataset, Element, Report};
pub use scenario::{find, registry, Scenario};
pub use session::{RunConfig, Session, StreamedClient};
pub use telemetry::append_metrics;
