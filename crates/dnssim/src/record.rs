//! DNS record types.

use crate::name::Name;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The data of one resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// IPv4 address record.
    A(Ipv4Addr),
    /// IPv6 address record.
    Aaaa(Ipv6Addr),
    /// Canonical-name alias.
    Cname(Name),
    /// Reverse pointer.
    Ptr(Name),
    /// Delegation.
    Ns(Name),
    /// Free-form text (used by tests and examples).
    Txt(String),
}
