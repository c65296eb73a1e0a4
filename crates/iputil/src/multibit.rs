//! The flattened multibit LPM engine (Poptrie/DXR-style): the one lookup
//! structure behind [`Lpm4`](crate::Lpm4) and [`Lpm6`](crate::Lpm6).
//!
//! # Layout
//!
//! [`FrozenLpm::from_map`] compiles an ordered `(key, plen) → value` map
//! into an immutable lookup structure optimised for exactly one thing:
//! resolving addresses against a table that is not changing. The `Lpm`
//! tables compile lazily, on the first lookup after a change.
//!
//! * **Direct root table** — the first [`Bits::ROOT_BITS`] (16) address bits
//!   index a `2^16`-entry array whose slots hold either a final result id or
//!   a tagged multibit-node index. Prefixes shorter than the root stride are
//!   *leaf-pushed*: painted over every slot they cover, deepest-wins, so a
//!   root hit already carries the correct fallback (the DIR-24-8 trick, done
//!   once at compile time).
//! * **Stride-6 popcount nodes** — below the root, each node consumes the
//!   next 6 address bits. A node is two `u64` bitmaps plus two base indices:
//!   `vector` marks which of the 64 chunks continue into a child node, and
//!   children live contiguously at `base_children + popcount(vector below
//!   chunk)` — the Poptrie compression. Chunks that *don't* continue resolve
//!   to a leaf-pushed result; consecutive equal results are run-length
//!   collapsed via `leafvec` (a bit marks each run start), and the result id
//!   lives at `base_leaves + popcount(leafvec through chunk) - 1`.
//! * **Path-compressed skips** — a node whose subtree agrees on a run of
//!   address bits (the usual shape of sparse tables: one `/48` alone under
//!   a root slot) verifies the whole run with a single 64-bit compare
//!   (`skip_key`) instead of walking a chain of single-child stride levels;
//!   a mismatch resolves to the covering result from above. Subtrees that
//!   collapse to a single result are stored as *uniform* nodes with the
//!   result id inline, skipping the leaf-array load entirely.
//!
//! Leaf-pushing means the longest match is always resolved *downward*: a
//! lookup is a short loop of `bitmap → popcount-rank → array index` steps
//! over three dense arrays, never backtracking and never chasing per-prefix
//! heap nodes. A lone IPv6 /48 resolves in 1 root load + 1 uniform node +
//! 1 result row, while dense subtrees (a routing table's sequential
//! allocations) resolve in stride-6 hops over arrays small enough to stay
//! cache-hot; a 100k-prefix RIB flattens to a few MB of contiguous memory.
//!
//! Tables of at most a dozen entries (a small test RIB) compile to a
//! sorted linear scan and never allocate the root table.
//!
//! # Batched lookups and prefetch
//!
//! [`FrozenLpm::longest_match_many`] and [`FrozenLpm::values_many`] resolve
//! a batch through an interleaved walker: `LANES` (16) addresses advance
//! one node level per round, issuing a software prefetch for each lane's
//! next node, so the DRAM latency of up to 16 independent walks overlaps
//! instead of serialising. Every address is walked, so the answers and the
//! `lpm.frozen_lookups` counter depend only on the addresses, never on
//! where a batch starts or ends.
//!
//! ```
//! use iputil::FrozenLpm;
//! use std::collections::BTreeMap;
//! let mut map: BTreeMap<(u32, u8), &str> = BTreeMap::new();
//! map.insert((0x0a00_0000, 8), "10/8");
//! map.insert((0x0a09_0000, 16), "10.9/16");
//! let frozen = FrozenLpm::from_map(&map);
//! assert_eq!(frozen.longest_match(0x0a09_0404), Some((16, &"10.9/16")));
//! assert_eq!(frozen.longest_match(0x0a01_0203), Some((8, &"10/8")));
//! assert_eq!(frozen.longest_match(0x0b00_0000), None);
//! // Batched lookups answer exactly what scalar lookups do.
//! let addrs = [0x0a09_0404, 0x0b00_0000, 0x0a09_0404];
//! let batched: Vec<_> = addrs.iter().map(|&a| frozen.longest_match(a)).collect();
//! assert_eq!(frozen.longest_match_many(&addrs), batched);
//! ```

use std::collections::BTreeMap;

/// Key types of a [`FrozenLpm`]: fixed-width big-endian bit strings.
pub trait Bits: Copy + Eq + Ord + std::fmt::Debug {
    /// Width of the key in bits (32 for IPv4, 128 for IPv6).
    const WIDTH: u8;

    /// Stride of the direct root table (root slots = `2^ROOT_BITS`).
    const ROOT_BITS: u8 = 16;

    /// Zero out everything past the first `len` bits.
    fn truncate(self, len: u8) -> Self;

    /// The top [`Bits::ROOT_BITS`] bits, as a root-table index.
    fn root_slot(self) -> usize;

    /// Number of leading bits shared with `other` (capped at `WIDTH`).
    fn common_prefix_len(self, other: Self) -> u8;

    /// The `stride` bits starting `depth` bits from the most-significant
    /// end, as an index (`depth + stride` must not exceed `WIDTH`). Lookups
    /// walk the address in these chunks.
    fn chunk(self, depth: u8, stride: u8) -> usize;

    /// The `count` (1..=64) bits starting `depth` bits from the
    /// most-significant end, right-aligned in a `u64` (`depth + count` must
    /// not exceed `WIDTH`). Path-compressed nodes verify a skipped bit run
    /// with it in one compare.
    fn bits_at(self, depth: u8, count: u8) -> u64;
}

impl Bits for u32 {
    const WIDTH: u8 = 32;

    fn truncate(self, len: u8) -> u32 {
        self & crate::prefix::mask32(len)
    }

    fn root_slot(self) -> usize {
        (self >> (32 - Self::ROOT_BITS)) as usize
    }

    fn common_prefix_len(self, other: u32) -> u8 {
        (self ^ other).leading_zeros().min(32) as u8
    }

    fn chunk(self, depth: u8, stride: u8) -> usize {
        debug_assert!(depth + stride <= 32);
        (self >> (32 - depth - stride)) as usize & ((1 << stride) - 1)
    }

    fn bits_at(self, depth: u8, count: u8) -> u64 {
        debug_assert!(count >= 1 && depth + count <= 32);
        (self >> (32 - depth - count)) as u64 & (u64::MAX >> (64 - count))
    }
}

impl Bits for u128 {
    const WIDTH: u8 = 128;

    fn truncate(self, len: u8) -> u128 {
        self & crate::prefix::mask128(len)
    }

    fn root_slot(self) -> usize {
        (self >> (128 - Self::ROOT_BITS)) as usize
    }

    fn common_prefix_len(self, other: u128) -> u8 {
        (self ^ other).leading_zeros().min(128) as u8
    }

    fn chunk(self, depth: u8, stride: u8) -> usize {
        debug_assert!(depth + stride <= 128);
        (self >> (128 - depth - stride)) as usize & ((1 << stride) - 1)
    }

    fn bits_at(self, depth: u8, count: u8) -> u64 {
        debug_assert!((1..=64).contains(&count) && depth + count <= 128);
        (self >> (128 - depth - count)) as u64 & (u64::MAX >> (64 - count))
    }
}

/// Entry count up to which a table compiles to a linear scan: a handful of
/// compares beats a root-table load at these sizes, and the `2^ROOT_BITS`
/// root array (256 KiB) is never allocated.
const SMALL_MAX: usize = 12;

/// Bits consumed per multibit node below the root table.
const STRIDE: u8 = 6;

/// "No result" marker: an untagged entry equal to this means no covering
/// prefix exists. Tables are limited to `2^31 - 1` results/nodes (a full
/// IPv4 routing table is ~1M).
const RES_NONE: u32 = 0x7fff_ffff;

/// High bit tagging a root/walk entry as a multibit-node index rather than
/// a final result id.
const NODE_TAG: u32 = 1 << 31;

/// Interleaved walker width for the batched path: enough independent walks
/// in flight to saturate the core's outstanding-miss capacity (line-fill
/// buffers), few enough that the lane state stays in L1.
const LANES: usize = 16;

/// One flattened multibit node (40 bytes): chunk-occupancy bitmaps, base
/// indices into the contiguous child and leaf arrays, and the node's
/// path-compression run (`skip` address bits verified against `skip_key`
/// before the stride chunk is consumed).
///
/// Two encodings ride on the bitmaps:
/// * `vector == 0 && leafvec == 0` — a *uniform* node: every address that
///   survives the skip check resolves to the result id stored directly in
///   `base_leaves` (no leaf-array load). This is the shape every
///   path-compressed lone prefix collapses to.
/// * otherwise — the regular Poptrie node described on the fields.
#[derive(Debug, Clone, Copy, Default)]
struct MbNode {
    /// Bit `c` set ⇒ chunk `c` continues into child node
    /// `base_children + popcount(vector & (bits below c))`.
    vector: u64,
    /// Bit `c` set ⇒ chunk `c` starts a new leaf run; the run's result id is
    /// `leaves[base_leaves + popcount(leafvec & (bits through c)) - 1]`.
    leafvec: u64,
    /// The `skip` address bits at this node's depth, right-aligned — every
    /// prefix below this node agrees on them, so one compare replaces a
    /// chain of single-child stride levels (classic path compression, so
    /// sparse subtrees stay O(1) loads).
    skip_key: u64,
    /// First child node index (children of one node are contiguous).
    base_children: u32,
    /// First leaf-run slot in the shared leaf array (or the inline result
    /// id when the node is uniform — see the type docs).
    base_leaves: u32,
    /// Result id when the skip compare fails: the best match covering this
    /// subtree from above (`RES_NONE` when nothing covers it).
    miss: u32,
    /// Number of address bits `skip_key` verifies (0 = no compression).
    skip: u8,
}

#[derive(Debug, Clone)]
enum Repr<K> {
    /// Sorted `(key, plen, result id)` linear scan — tables of at most
    /// [`SMALL_MAX`] entries never pay for the root array.
    Small(Vec<(K, u8, u32)>),
    Table {
        /// `2^ROOT_BITS` entries: result id, or `NODE_TAG | node index`.
        root: Vec<u32>,
        nodes: Vec<MbNode>,
        /// Run-length-collapsed leaf result ids, shared across nodes.
        leaves: Vec<u32>,
    },
}

/// An immutable, flattened multibit LPM table compiled from an ordered
/// prefix map.
///
/// Answers exactly what a longest-match scan over the map's entries
/// answers (the differential property tests assert it against a linear
/// scan); a changed map compiles into a fresh table.
#[derive(Debug, Clone)]
pub struct FrozenLpm<K: Bits, V> {
    repr: Repr<K>,
    /// `(plen, value)` per stored prefix, indexed by result id.
    results: Vec<(u8, V)>,
}

impl<K: Bits, V: Clone> FrozenLpm<K, V> {
    /// Compile `(key, plen) → value` entries into the flattened layout.
    /// Keys must be canonical (no bits set past `plen`). The map's in-order
    /// iteration is the `(key, plen)` order the builder relies on: a
    /// shallower prefix precedes the deeper entries it covers. Cost is
    /// O(prefixes · WIDTH/STRIDE) plus the `2^ROOT_BITS` root array. Records
    /// the footprint as `lpm.frozen_nodes` / `lpm.frozen_bytes` high-water
    /// gauges (never a span: a shared table may compile on any worker).
    pub fn from_map(map: &BTreeMap<(K, u8), V>) -> FrozenLpm<K, V> {
        assert!(
            map.len() < RES_NONE as usize,
            "FrozenLpm supports < 2^31 - 1 prefixes"
        );
        let mut results: Vec<(u8, V)> = Vec::with_capacity(map.len());
        let mut entries: Vec<(K, u8, u32)> = Vec::with_capacity(map.len());
        for (id, (&(key, plen), value)) in map.iter().enumerate() {
            debug_assert_eq!(key.truncate(plen), key, "non-canonical key");
            results.push((plen, value.clone()));
            entries.push((key, plen, id as u32));
        }
        let repr = if entries.len() <= SMALL_MAX {
            Repr::Small(entries)
        } else {
            build_table::<K>(&entries)
        };
        let frozen = FrozenLpm { repr, results };
        obs::gauge_max("lpm.frozen_nodes", frozen.node_count() as u64);
        obs::gauge_max("lpm.frozen_bytes", frozen.heap_bytes() as u64);
        frozen
    }
}

impl<K: Bits, V> FrozenLpm<K, V> {
    /// Number of prefixes compiled in.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Flattened multibit nodes (0 in small/linear-scan representation) —
    /// the footprint metric next to [`FrozenLpm::heap_bytes`].
    fn node_count(&self) -> usize {
        match &self.repr {
            Repr::Small(_) => 0,
            Repr::Table { nodes, .. } => nodes.len(),
        }
    }

    /// Heap footprint of the lookup arrays and results, in bytes.
    fn heap_bytes(&self) -> usize {
        let repr = match &self.repr {
            Repr::Small(entries) => std::mem::size_of_val(entries.as_slice()),
            Repr::Table {
                root,
                nodes,
                leaves,
            } => {
                std::mem::size_of_val(root.as_slice())
                    + std::mem::size_of_val(nodes.as_slice())
                    + std::mem::size_of_val(leaves.as_slice())
            }
        };
        repr + std::mem::size_of_val(self.results.as_slice())
    }

    /// Resolve one address to its result id (`RES_NONE` = no match).
    #[inline]
    fn lookup_id(&self, addr: K) -> u32 {
        match &self.repr {
            Repr::Small(entries) => {
                let mut best = RES_NONE;
                let mut best_len = 0u8;
                for &(key, plen, id) in entries {
                    if addr.truncate(plen) == key && (best == RES_NONE || plen >= best_len) {
                        best = id;
                        best_len = plen;
                    }
                }
                best
            }
            Repr::Table {
                root,
                nodes,
                leaves,
            } => {
                let mut entry = root[addr.root_slot()];
                let mut depth = K::ROOT_BITS;
                while entry & NODE_TAG != 0 {
                    let node = &nodes[(entry & !NODE_TAG) as usize];
                    entry = walk_step(node, leaves, addr, &mut depth);
                }
                entry
            }
        }
    }

    #[inline]
    fn result(&self, id: u32) -> Option<(u8, &V)> {
        if id == RES_NONE {
            return None;
        }
        let (plen, value) = &self.results[id as usize];
        Some((*plen, value))
    }

    #[inline]
    fn value(&self, id: u32) -> Option<&V> {
        if id == RES_NONE {
            return None;
        }
        Some(&self.results[id as usize].1)
    }

    /// Longest-prefix-match: the most specific compiled prefix containing
    /// `addr`, as `(prefix_len, &value)`.
    #[inline]
    pub fn longest_match(&self, addr: K) -> Option<(u8, &V)> {
        obs::counter_add("lpm.frozen_lookups", 1);
        self.result(self.lookup_id(addr))
    }

    /// Batched longest-prefix-match preserving input order, resolved by
    /// interleaved prefetching walks.
    pub fn longest_match_many(&self, addrs: &[K]) -> Vec<Option<(u8, &V)>> {
        obs::counter_add("lpm.frozen_lookups", addrs.len() as u64);
        let mut out = Vec::with_capacity(addrs.len());
        self.bulk_append(addrs, &mut out, |id| self.result(id));
        out
    }

    /// Batched value-only lookup (no prefix-length/`Prefix` materialisation)
    /// — the slim path attribution pipelines run on, where only the mapped
    /// value matters and every extra per-record map pass shows up at
    /// 200k-records-per-day scale. Same interleaved walks as
    /// [`FrozenLpm::longest_match_many`]; same answers, minus the plen.
    pub fn values_many(&self, addrs: &[K]) -> Vec<Option<&V>> {
        obs::counter_add("lpm.frozen_lookups", addrs.len() as u64);
        let mut out = Vec::with_capacity(addrs.len());
        self.bulk_append(addrs, &mut out, |id| self.value(id));
        out
    }

    /// Resolve `addrs` with [`LANES`] interleaved walks: every lane
    /// advances one node level per round and prefetches its next node, so
    /// independent cache misses overlap. Resolved ids are materialised
    /// through `map` (full `(plen, value)` rows or bare values).
    fn bulk_append<R, M>(&self, addrs: &[K], out: &mut Vec<R>, map: M)
    where
        M: Fn(u32) -> R,
    {
        let (root, nodes, leaves) = match &self.repr {
            // Small tables are L1-resident linear scans — nothing to hide.
            Repr::Small(_) => {
                out.extend(addrs.iter().map(|&a| map(self.lookup_id(a))));
                return;
            }
            Repr::Table {
                root,
                nodes,
                leaves,
            } => (root, nodes, leaves),
        };
        for group in addrs.chunks(LANES) {
            let mut entry = [RES_NONE; LANES];
            let mut depth = [K::ROOT_BITS; LANES];
            for (lane, &addr) in group.iter().enumerate() {
                entry[lane] = root[addr.root_slot()];
                if entry[lane] & NODE_TAG != 0 {
                    prefetch(nodes, (entry[lane] & !NODE_TAG) as usize);
                }
            }
            loop {
                let mut walking = false;
                for (lane, &addr) in group.iter().enumerate() {
                    if entry[lane] & NODE_TAG == 0 {
                        continue;
                    }
                    walking = true;
                    let node = &nodes[(entry[lane] & !NODE_TAG) as usize];
                    let next = walk_step(node, leaves, addr, &mut depth[lane]);
                    if next & NODE_TAG != 0 {
                        prefetch(nodes, (next & !NODE_TAG) as usize);
                    } else if next != RES_NONE {
                        // Lane resolved: start pulling its result row now so
                        // the `results[id]` reads at flush time are warm.
                        prefetch(&self.results, next as usize);
                    }
                    entry[lane] = next;
                }
                if !walking {
                    break;
                }
            }
            out.extend(entry[..group.len()].iter().map(|&id| map(id)));
        }
    }
}

/// One full node visit: verify the path-compression run, resolve uniform
/// nodes inline, otherwise branch into the child for the next stride chunk
/// or resolve the covering leaf run. Advances `depth` past the consumed
/// bits (skip + stride).
#[inline(always)]
fn walk_step<K: Bits>(node: &MbNode, leaves: &[u32], addr: K, depth: &mut u8) -> u32 {
    if node.skip > 0 {
        if addr.bits_at(*depth, node.skip) != node.skip_key {
            // Diverged inside the compressed run: nothing below can match,
            // the answer is whatever covered this subtree from above.
            return node.miss;
        }
        *depth += node.skip;
    }
    if node.vector == 0 && node.leafvec == 0 {
        // Uniform node: one result covers the whole (post-skip) subtree.
        return node.base_leaves;
    }
    let stride = (K::WIDTH - *depth).min(STRIDE);
    let chunk = addr.chunk(*depth, stride);
    *depth += stride;
    if node.vector >> chunk & 1 == 1 {
        let rank = (node.vector & ((1u64 << chunk) - 1)).count_ones();
        NODE_TAG | (node.base_children + rank)
    } else {
        // Bits 0..=chunk; `1 << 63 << 1` wraps to 0, giving all-ones.
        let through = ((1u64 << chunk) << 1).wrapping_sub(1);
        let rank = (node.leafvec & through).count_ones() - 1;
        leaves[(node.base_leaves + rank) as usize]
    }
}

/// Best-effort prefetch of `slice[idx]` into L1. A hint only: lookups never
/// depend on it, and non-x86_64 targets compile it away.
#[inline(always)]
fn prefetch<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(entry) = slice.get(idx) {
        // SAFETY: `entry` is a valid reference; PREFETCHT0 has no
        // architectural effect beyond cache-line movement.
        #[allow(unsafe_code)]
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                entry as *const T as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, idx);
}

/// Compile sorted `(key, plen, result id)` entries into the flattened
/// root + nodes + leaves arrays.
fn build_table<K: Bits>(entries: &[(K, u8, u32)]) -> Repr<K> {
    let mut root = vec![RES_NONE; 1usize << K::ROOT_BITS];
    let mut nodes: Vec<MbNode> = Vec::new();
    let mut leaves: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let (key, plen, id) = entries[i];
        if plen <= K::ROOT_BITS {
            // Leaf-push the short prefix over every root slot it covers. In
            // (key, plen) order a covering (shallower) prefix paints before
            // anything it covers, so deepest-wins falls out of plain
            // overwrites — and no later short paint can cross a slot already
            // owned by a deep group (the group's covering shorts all sorted
            // earlier).
            let base = key.root_slot();
            let count = 1usize << (K::ROOT_BITS - plen);
            for slot in &mut root[base..base + count] {
                debug_assert_eq!(*slot & NODE_TAG, 0);
                *slot = id;
            }
            i += 1;
        } else {
            // All remaining entries of this root slot are ≥ this key, hence
            // also deep: one contiguous group per subtree.
            let slot = key.root_slot();
            let mut j = i + 1;
            while j < entries.len() && entries[j].0.root_slot() == slot {
                j += 1;
            }
            let inherited = root[slot];
            let node = nodes.len();
            nodes.push(MbNode::default());
            root[slot] = NODE_TAG | node as u32;
            build_node(
                &mut nodes,
                &mut leaves,
                node,
                &entries[i..j],
                K::ROOT_BITS,
                inherited,
            );
            i = j;
        }
    }
    Repr::Table {
        root,
        nodes,
        leaves,
    }
}

/// Build `nodes[at]` covering the subtree rooted `depth` bits deep, from
/// the sorted entries strictly below `depth`. `inherited` is the best match
/// covering the whole subtree from above (leaf-pushing input).
fn build_node<K: Bits>(
    nodes: &mut Vec<MbNode>,
    leaves: &mut Vec<u32>,
    at: usize,
    entries: &[(K, u8, u32)],
    depth: u8,
    inherited: u32,
) {
    let mut depth = depth;
    let mut inherited = inherited;
    let mut entries = entries;
    // Path compression: every entry below this node agrees on the bit run
    // [depth, shared), where `shared` is the keys' common prefix capped at
    // the shallowest prefix length (bits past an entry's plen are padding,
    // not prefix). Nothing is painted inside the run, so a diverging
    // address resolves to the inherited cover — one verified compare
    // replaces what would otherwise be a chain of single-child stride
    // levels. `miss` keeps the pre-absorption cover for exactly that case.
    let miss = inherited;
    let (first, last) = (entries[0].0, entries[entries.len() - 1].0);
    let min_plen = entries.iter().map(|e| e.1).min().unwrap_or(K::WIDTH);
    let shared = first.common_prefix_len(last).min(min_plen);
    let skip = if shared > depth {
        // `skip_key` holds ≤ 64 bits; longer runs chain a second skip node.
        (shared - depth).min(64)
    } else {
        0
    };
    let skip_key = if skip > 0 {
        first.bits_at(depth, skip)
    } else {
        0
    };
    depth += skip;
    // A prefix ending exactly at the compressed depth covers the whole
    // remaining subtree: absorb it as the new inherited (leaf-pushed) cover.
    while let Some((&(_, plen, id), rest)) = entries.split_first() {
        if plen > depth {
            break;
        }
        inherited = id;
        entries = rest;
    }
    let stride = (K::WIDTH - depth).min(STRIDE);
    let nchunks = 1usize << stride;
    // Best match per chunk after painting this level's prefixes over the
    // inherited cover (sorted order ⇒ plain overwrites are deepest-wins).
    let mut best = [RES_NONE; 64];
    best[..nchunks].fill(inherited);
    // Deep entries grouped by chunk: `(chunk, start, end)` into `entries`.
    let mut groups: Vec<(usize, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let (key, plen, id) = entries[i];
        debug_assert!(plen > depth);
        if plen <= depth + stride {
            let first = key.chunk(depth, stride);
            let count = 1usize << (depth + stride - plen);
            best[first..first + count].fill(id);
            i += 1;
        } else {
            let chunk = key.chunk(depth, stride);
            let mut j = i + 1;
            while j < entries.len()
                && entries[j].1 > depth + stride
                && entries[j].0.chunk(depth, stride) == chunk
            {
                j += 1;
            }
            groups.push((chunk, i, j));
            i = j;
        }
    }
    let mut vector = 0u64;
    for &(chunk, ..) in &groups {
        vector |= 1u64 << chunk;
    }
    // Children of one node are contiguous — reserve the block, then recurse.
    let base_children = nodes.len() as u32;
    nodes.resize(nodes.len() + groups.len(), MbNode::default());
    // Run-length collapse the leaf chunks: a bit in `leafvec` per run start.
    let base_leaves = leaves.len() as u32;
    let mut leafvec = 0u64;
    let mut prev: Option<u32> = None;
    for (chunk, &id) in best[..nchunks].iter().enumerate() {
        if vector >> chunk & 1 == 1 {
            prev = None; // a child interrupts the run
            continue;
        }
        if prev != Some(id) {
            leafvec |= 1u64 << chunk;
            leaves.push(id);
            prev = Some(id);
        }
    }
    let mut node = MbNode {
        vector,
        leafvec,
        skip_key,
        base_children,
        base_leaves,
        miss,
        skip,
    };
    if vector == 0 && leaves.len() == base_leaves as usize + 1 {
        // Uniform subtree — a single leaf run and no children. Encode the
        // result id inline (leafvec = 0, id in base_leaves) so lookups skip
        // the leaf-array load; regular nodes can never present this bitmap
        // pair (an all-leaf node always sets a run-start bit).
        node.leafvec = 0;
        node.base_leaves = leaves.pop().expect("single run just pushed");
    }
    nodes[at] = node;
    for (child, &(chunk, start, end)) in groups.iter().enumerate() {
        build_node(
            nodes,
            leaves,
            base_children as usize + child,
            &entries[start..end],
            depth + stride,
            best[chunk],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(entries: &[(u32, u8, u32)]) -> (BTreeMap<(u32, u8), u32>, FrozenLpm<u32, u32>) {
        let map: BTreeMap<(u32, u8), u32> = entries
            .iter()
            .map(|&(key, plen, value)| ((key.truncate(plen), plen), value))
            .collect();
        let frozen = FrozenLpm::from_map(&map);
        (map, frozen)
    }

    /// The reference answer: a linear scan for the longest stored prefix
    /// containing `addr`.
    fn scan<K: Bits, V>(map: &BTreeMap<(K, u8), V>, addr: K) -> Option<(u8, &V)> {
        map.iter()
            .filter(|(&(key, plen), _)| addr.truncate(plen) == key)
            .max_by_key(|(&(_, plen), _)| plen)
            .map(|(&(_, plen), value)| (plen, value))
    }

    /// Enough distinct /16 anchors to push the table out of the linear-scan
    /// representation.
    fn anchors() -> Vec<(u32, u8, u32)> {
        (0..16u32)
            .map(|i| (0xb000_0000 + (i << 16), 16, 900 + i))
            .collect()
    }

    #[test]
    fn frozen_matches_linear_scan_basics() {
        let mut entries = anchors();
        entries.extend([
            (0, 0, 1),            // default route
            (0x0a00_0000, 8, 2),  // short prefix
            (0x0a14_0000, 16, 3), // exactly ROOT_BITS
            (0x0a14_8000, 17, 4), // one past the root stride
            (0x0a14_8080, 26, 5), // mid-stride
            (0xc0a8_0101, 32, 6), // host route
        ]);
        let (map, frozen) = frozen(&entries);
        assert_eq!(frozen.len(), map.len());
        for addr in [
            0u32,
            0x0a00_0001,
            0x0a14_0001,
            0x0a14_8001,
            0x0a14_8081,
            0x0a14_80ff,
            0xc0a8_0101,
            0xc0a8_0102,
            0xffff_ffff,
            0xb003_1234,
        ] {
            assert_eq!(
                frozen.longest_match(addr),
                scan(&map, addr),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn no_default_route_misses() {
        let mut entries = anchors();
        entries.push((0x0a14_8000, 26, 7));
        let (map, frozen) = frozen(&entries);
        assert_eq!(scan(&map, 0x0a14_8100), None);
        assert_eq!(frozen.longest_match(0x0a14_8100), None);
        assert_eq!(frozen.longest_match(0x0a14_8001), Some((26, &7)));
    }

    #[test]
    fn small_tables_stay_linear() {
        let (map, frozen) = frozen(&[(0x0a00_0000, 8, 1), (0, 0, 2)]);
        assert_eq!(frozen.node_count(), 0, "small repr allocates no nodes");
        for addr in [0x0a01_0101u32, 0x0b00_0000, 0] {
            assert_eq!(frozen.longest_match(addr), scan(&map, addr));
        }
    }

    #[test]
    fn batched_matches_scalar_on_dup_and_unique_batches() {
        let mut entries = anchors();
        for i in 0..512u32 {
            // Scattered /24s: multibit nodes several levels deep.
            entries.push((0x1000_0000 + (i * 0x0002_0100), 24, i));
        }
        entries.push((0x1000_0000, 8, 7777));
        // Nested prefixes that cover some of the addresses below and miss
        // others (0x13/8), few enough to stay a linear scan.
        let (small_map, small) = frozen(&[
            (0x1000_0000, 7, 1),
            (0x1000_0000, 9, 2),
            (0x1200_0000, 8, 3),
            (0x1280_0000, 10, 4),
        ]);
        let (map, frozen) = frozen(&entries);
        assert_eq!(small.node_count(), 0, "small repr");
        assert!(frozen.node_count() > 0, "table repr");
        let mut rng = 0x243f_6a88_85a3_08d3u64;
        let mut addrs: Vec<u32> = (0..4096)
            .map(|_| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0x1000_0000 + ((rng >> 33) as u32 % 0x0400_0000)
            })
            .collect();
        let check =
            |map: &BTreeMap<(u32, u8), u32>, frozen: &FrozenLpm<u32, u32>, batch: &[u32]| {
                let got = frozen.longest_match_many(batch);
                let values = frozen.values_many(batch);
                assert_eq!((got.len(), values.len()), (batch.len(), batch.len()));
                for (i, &addr) in batch.iter().enumerate() {
                    let want = scan(map, addr);
                    assert_eq!(got[i], want, "addr {addr:#010x}");
                    assert_eq!(values[i], want.map(|(_, v)| v), "addr {addr:#010x}");
                }
            };
        // Short and partial batches: every length through two full lane
        // groups plus one, on a linear-scan table and a multibit one.
        for len in 0..=2 * LANES + 1 {
            check(&small_map, &small, &addrs[..len]);
            check(&map, &frozen, &addrs[..len]);
        }
        // A unique-heavy batch, then a duplicate-heavy one.
        for batch in [addrs.clone(), {
            addrs.truncate(64);
            addrs.iter().cycle().take(4096).copied().collect()
        }] {
            check(&map, &frozen, &batch);
        }
    }

    #[test]
    fn v6_deep_prefixes_match() {
        let mut map: BTreeMap<(u128, u8), u32> = BTreeMap::new();
        for i in 0..64u128 {
            map.insert((0x2001_0db8 << 96 | i << 80, 48), i as u32);
            map.insert(
                (0x2001_0db8 << 96 | i << 80 | 0xabcd << 64, 64),
                1000 + i as u32,
            );
        }
        map.insert((0x2000 << 112, 3), 424242); // short v6 prefix
        map.insert((0, 0), 1);
        let frozen = FrozenLpm::from_map(&map);
        let mut rng = 0x1337u64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (rng >> 20) as u128 % 64;
            let tail = (rng as u128) << 32 | rng as u128;
            for addr in [
                0x2001_0db8 << 96 | i << 80 | tail & ((1 << 80) - 1),
                0x2001_0db8 << 96 | i << 80 | 0xabcd << 64 | tail & ((1 << 64) - 1),
                tail,
            ] {
                assert_eq!(frozen.longest_match(addr), scan(&map, addr));
            }
        }
    }

    #[test]
    fn footprint_is_reported() {
        let entries: Vec<(u32, u8, u32)> = (0..1000u32).map(|i| (i << 14, 24, i)).collect();
        let (_, frozen) = frozen(&entries);
        assert!(frozen.node_count() > 0);
        // Root table alone is 256 KiB.
        assert!(frozen.heap_bytes() > 1 << 18, "{}", frozen.heap_bytes());
    }

    #[test]
    fn key_helpers() {
        assert_eq!(0xffff_0000u32.common_prefix_len(0xffff_ffff), 16);
        assert_eq!(0u32.common_prefix_len(0), 32);
        assert_eq!(0x0a14_0000u32.root_slot(), 0x0a14);
        assert_eq!(
            crate::v6_to_u128("2001:db8::".parse().unwrap()).root_slot(),
            0x2001
        );
        assert_eq!(0x0a14_8080u32.truncate(17), 0x0a14_8000);
        assert_eq!(0xabcd_0000u32.chunk(16, 6), 0);
        assert_eq!(0x0a14_fc00u32.chunk(16, 6), 0x3f);
        assert_eq!(0x0a14_8080u32.bits_at(16, 8), 0x80);
    }
}
