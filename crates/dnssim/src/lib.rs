//! # dnssim — a DNS simulator for measurement pipelines
//!
//! Server-side classification (§4 of the paper) and cloud service
//! identification (§5.3) both hinge on DNS behaviour:
//!
//! * a site is **IPv4-only** iff its apex/`www` name has an `A` record but no
//!   `AAAA`;
//! * crawl **loading failures** split into `NXDOMAIN` and other errors
//!   (SERVFAIL, timeouts);
//! * cloud *services* are identified by following **CNAME chains** to suffixes
//!   like `*.s3.amazonaws.com` (He et al., IMC 2013);
//! * client-side service attribution (§3.4) uses **reverse DNS** on
//!   destination addresses.
//!
//! This crate models exactly those mechanics: a [`zone::ZoneDb`] mapping
//! [`name::Name`]s to records ([`record::RecordData`]: `A`, `AAAA`, `CNAME`,
//! `PTR`, `NS`, `TXT`), failure injection per name, and a
//! [`resolver::Resolver`] whose one CNAME walk answers a name's `A` and
//! `AAAA` queries together as one [`resolver::Lookup`], the way a
//! dual-stack browser sends both. The walk is bounded by
//! [`resolver::MAX_CNAME_DEPTH`] (loops end as SERVFAIL there) and records
//! the chain it followed when asked. Every other resolution path (DNS64,
//! the fault plane) wraps it behind [`resolver::ResolveAddrs`]. Reverse
//! lookups read the zone's PTR map ([`zone::ZoneDb::reverse_lookup`]).
//!
//! Like the rest of the suite it is deterministic and offline: the "network"
//! is a lookup table, not sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod name;
pub mod record;
pub mod resolver;
pub mod zone;

pub use name::{Name, NameId, NameTable};
pub use record::RecordData;
pub use resolver::{AddrsOutcome, Lookup, ResolveAddrs, Resolver};
pub use zone::{FailureMode, ZoneDb};
