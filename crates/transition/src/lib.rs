//! # transition — IPv6 transition technologies as first-class access paths
//!
//! The paper's thesis is that IPv6 adoption is not a bit but a spectrum —
//! and in deployed networks the middle of that spectrum is *implemented*
//! with transition technologies. A subscriber line is rarely "dual-stack or
//! IPv4-only": it is IPv6-only behind NAT64/DNS64, IPv6-only with a CLAT
//! (464XLAT), or native-IPv6-with-tunneled-IPv4 (DS-Lite). Each mechanism
//! leaves a different fingerprint in flow logs, DNS answers and Happy
//! Eyeballs outcomes, so modeling them explicitly opens a family of
//! scenarios the binary view cannot express. The mechanisms and their
//! trade-offs follow the comparative literature (Albkerat & Issac, *Analysis
//! of IPv6 Transition Technologies*; Cui et al., *A Comprehensive Study of
//! Accelerating IPv6 Deployment*).
//!
//! The crate provides the four pieces, bottom-up:
//!
//! * [`rfc6052`] — the address-mapping algorithm everything else shares:
//!   embed/extract of IPv4 addresses under the well-known `64:ff9b::/96` or
//!   a network-specific prefix, all six legal prefix lengths.
//! * [`dns64`] — a DNS64 view over the [`dnssim`] stub resolver that
//!   synthesizes `AAAA` answers from `A` records (never shadowing native
//!   `AAAA`, never resurrecting NXDOMAIN). Because it implements
//!   [`dnssim::ResolveAddrs`], the Happy Eyeballs engine races over
//!   synthesized answers with zero changes — including the pathological
//!   case where DNS64 makes an IPv4-only service look IPv6 and wins the
//!   race through the gateway.
//! * [`nat64`] — the stateful element: the capacity- and timeout-bounded
//!   [`nat64::BindingTable`] whose exhaustion is an experiment scenario. A
//!   NAT64 gateway (RFC 6146) binds each flow in one and dials the RFC 6052
//!   mapping of its IPv4 destination; a DS-Lite AFTR's NAT44 on tunneled
//!   flows is a bare binding table.
//! * [`provider`] — the provider-shared deployment of those elements:
//!   [`provider::ProviderGateway`] holds one NAT64 + AFTR pool pair per
//!   ISP, persistent across days and shared by all subscribers, replayed
//!   deterministically over the streaming flow pipeline.
//! * [`tech`] — [`AccessTech`], the per-residence dimension `worldgen`/
//!   `trafficgen` use to pick a provisioning, and the predicate helpers
//!   (`v6_only_wire`, `uses_dns64`, `uses_gateway`) the synthesizer keys
//!   off.
//!
//! ## Mapping onto the paper's non-binary tiers
//!
//! The paper grades websites IPv4-only / partial / full; the analogous
//! client-side grading falls out of these mechanisms: a **V4Only** line has
//! no IPv6 traffic at all; a **DS-Lite** line is native-IPv6 *plus*
//! IPv4-as-a-service (v4 bytes survive, tunneled); a **dual-stack** line
//! splits per service exactly as §3 measures; and the **IPv6-only** techs
//! are "beyond full" — even bytes destined to IPv4-only services cross the
//! access wire as IPv6, visible only by their RFC 6052 destination prefix.
//! `ipv6view-core` turns that into translated-adoption tiers; this crate
//! supplies the ground mechanics.
//!
//! Everything is deterministic: no ambient randomness, no wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dns64;
pub mod nat64;
pub mod provider;
pub mod rfc6052;
pub mod tech;

pub use dns64::Dns64;
pub use nat64::{BindError, BindingTable, GatewayConfig, GatewayStats};
pub use provider::{Admission, OutageStats, ProviderDayStats, ProviderGateway, ProviderPool};
pub use rfc6052::{Nat64Prefix, PrefixError, WELL_KNOWN_PREFIX};
pub use tech::AccessTech;
