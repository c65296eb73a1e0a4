//! The criterion target: every probe of the catalogue
//! (`ipv6view_bench::probes`), ledger by ledger. The closures and inputs
//! are the ones `repro bench-snapshot` records; this harness prints the
//! shim's `BENCH{...}` lines instead of appending to a ledger. A name
//! filter skips the other rows' timing, not their groups' set-up.

use criterion::{criterion_group, criterion_main, Criterion};
use ipv6view_bench::probes::LEDGERS;

fn bench_catalogue(c: &mut Criterion) {
    for (ledger, group) in LEDGERS {
        let probes = group().unwrap_or_else(|e| panic!("{ledger}: {e}"));
        for mut p in probes {
            c.bench_function(p.name, |b| {
                b.iter(|| (p.run)().unwrap_or_else(|e| panic!("{}: {e}", p.name)))
            });
        }
    }
}

criterion_group!(benches, bench_catalogue);
criterion_main!(benches);
