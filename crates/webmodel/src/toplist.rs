//! A Tranco-like ranked top list.

use dnssim::{Name, NameTable};
use rand::Rng;

/// A ranked list of websites (rank 1 = most popular), with Zipf popularity
/// weights used by the traffic synthesizer to pick destinations.
///
/// The list *is* an interned [`NameTable`]: interning order is rank order,
/// so a domain's dense [`NameId`](dnssim::NameId) index is its 0-based rank
/// — one structure serves ranking, membership and storage where the old
/// implementation kept the entries `Vec` plus a shadow
/// `HashMap<Name, usize>` of every name.
#[derive(Debug, Clone)]
pub struct TopList {
    names: NameTable,
    /// Zipf exponent for popularity sampling.
    pub zipf_s: f64,
}

impl TopList {
    /// Build a list from ranked entries (index 0 = rank 1).
    ///
    /// # Panics
    /// Panics on duplicate entries — a top list ranks each domain once.
    pub fn new(entries: Vec<Name>) -> TopList {
        let mut names = NameTable::new();
        for n in &entries {
            let (_, new) = names.intern_full(n);
            assert!(new, "duplicate top-list entry: {n}");
        }
        TopList { names, zipf_s: 1.0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The 1-based rank of a domain.
    pub fn rank_of(&self, name: &Name) -> Option<usize> {
        self.names.lookup(name).map(|id| id.index() + 1)
    }

    /// Iterate entries in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Name)> {
        self.names.iter().map(|(id, n)| (id.index() + 1, n))
    }

    /// The top `n` entries (or fewer).
    pub fn top(&self, n: usize) -> &[Name] {
        let all = self.names.as_slice();
        &all[..n.min(all.len())]
    }

    /// Sample a rank with a (truncated) Zipf distribution via inverse
    /// transform on the harmonic weights. O(log n) per draw after an O(n)
    /// lazy table build is avoided by using the standard approximation for
    /// s = 1: rank ≈ exp(U · ln(n+1)).
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.names.len().max(1) as f64;
        if (self.zipf_s - 1.0).abs() < 1e-9 {
            let u: f64 = rng.gen();
            let r = ((n + 1.0).powf(u)).floor() as usize;
            r.clamp(1, self.names.len().max(1))
        } else {
            // General s: inverse-CDF on the continuous approximation.
            let s = self.zipf_s;
            let u: f64 = rng.gen();
            let max_cdf = (n.powf(1.0 - s) - 1.0) / (1.0 - s);
            let x = (1.0 + u * max_cdf * (1.0 - s)).powf(1.0 / (1.0 - s));
            (x.floor() as usize).clamp(1, self.names.len().max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn list(n: usize) -> TopList {
        TopList::new(
            (0..n)
                .map(|i| Name::new(&format!("site{i}.test")))
                .collect(),
        )
    }

    #[test]
    fn ranks_are_one_based() {
        let l = list(10);
        assert_eq!(l.rank_of(&Name::new("site4.test")), Some(5));
        assert_eq!(l.rank_of(&Name::new("nope.test")), None);
    }

    #[test]
    fn top_slicing() {
        let l = list(100);
        assert_eq!(l.top(10).len(), 10);
        assert_eq!(l.top(1000).len(), 100);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        TopList::new(vec![Name::new("a.test"), Name::new("a.test")]);
    }

    #[test]
    fn zipf_sampling_favors_head() {
        let l = list(1000);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut head = 0;
        let draws = 20_000;
        for _ in 0..draws {
            let r = l.sample_rank(&mut rng);
            assert!((1..=1000).contains(&r));
            if r <= 100 {
                head += 1;
            }
        }
        // For Zipf s=1 over 1000 ranks, P(rank <= 100) = ln(101)/ln(1001) ≈ 0.67.
        let frac = head as f64 / draws as f64;
        assert!((0.6..0.75).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn iterates_in_rank_order() {
        let l = list(3);
        let ranks: Vec<usize> = l.iter().map(|(r, _)| r).collect();
        assert_eq!(ranks, vec![1, 2, 3]);
    }
}
