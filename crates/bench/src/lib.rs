//! The ipv6view benchmarks: the [`probes`] catalogue of every ledgered row,
//! which the criterion target and `repro bench-snapshot` both time.

#![forbid(unsafe_code)]

pub mod probes;
