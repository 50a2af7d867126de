//! Deterministic random-number plumbing.
//!
//! Every stochastic component (workload generators, disk layout jitter)
//! takes a `u64` seed and derives an independent stream with
//! [`split_seed`], so an entire experiment is reproducible from a single
//! seed. We avoid `rand`'s `thread_rng` everywhere.

/// The concrete RNG used across the workspace. `StdRng` (ChaCha12) is
/// seedable, portable, and fast enough for trace generation.
pub type SimRng = rand::rngs::StdRng;

use rand::SeedableRng;

/// Build the workspace RNG from a seed.
#[inline]
pub fn seeded_rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Derive an independent child seed from `(seed, stream)` with the
/// SplitMix64 finaliser — cheap, well-mixed, and stable across releases
/// (unlike hashing via `DefaultHasher`).
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the *prior run* whose profile drives a history-aware
/// policy (§3.3: the same program, a different execution): the next
/// seed, wrapping at `u64::MAX` so every seed has one.
///
/// ```
/// use ff_base::rng::prior_run_seed;
/// assert_eq!(prior_run_seed(42), 43);
/// assert_eq!(prior_run_seed(u64::MAX), 0);
/// ```
#[inline]
pub fn prior_run_seed(seed: u64) -> u64 {
    seed.wrapping_add(1)
}

/// Derive a per-task seed from a base seed and a canonical task key
/// (the parallel sweep engine uses `"workload/policy/seed"` keys):
/// FNV-1a over the key bytes, folded through [`split_seed`].
///
/// The derivation depends only on `(base, key)` — never on thread
/// count, scheduling order, or platform — so a grid task draws the same
/// stream whether the grid runs on one worker or sixteen. Stability is
/// pinned by a golden fixture in `tests/parallel.rs`.
///
/// ```
/// use ff_base::rng::derive_seed;
/// let a = derive_seed(42, "grep/flexfetch/42");
/// assert_eq!(a, derive_seed(42, "grep/flexfetch/42"));
/// assert_ne!(a, derive_seed(42, "grep/flexfetch/43"));
/// assert_ne!(a, derive_seed(43, "grep/flexfetch/42"));
/// ```
#[inline]
pub fn derive_seed(base: u64, key: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    split_seed(base, h)
}

/// The RNG stream owned by one grid task: [`seeded_rng`] over
/// [`derive_seed`]. Independent of every other task's stream.
#[inline]
pub fn task_rng(base: u64, key: &str) -> SimRng {
    seeded_rng(derive_seed(base, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u32> = (0..16).map(|_| seeded_rng(42).gen()).collect();
        let b: Vec<u32> = (0..16).map(|_| seeded_rng(42).gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn split_seed_is_stable_and_spread() {
        // Regression pin: children must not change across refactors, or
        // every recorded experiment shifts.
        assert_eq!(split_seed(0, 0), split_seed(0, 0));
        let children: Vec<u64> = (0..64).map(|i| split_seed(12345, i)).collect();
        let mut uniq = children.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), children.len(), "child seeds collide");
    }

    #[test]
    fn split_seed_differs_from_parent() {
        assert_ne!(split_seed(7, 0), 7);
        assert_ne!(split_seed(7, 1), split_seed(7, 2));
    }

    #[test]
    fn derive_seed_is_key_sensitive() {
        // Every byte of the key matters, including separators: the grid
        // keys "a/bc" and "ab/c" are different tasks.
        assert_ne!(derive_seed(1, "a/bc"), derive_seed(1, "ab/c"));
        assert_ne!(derive_seed(1, ""), derive_seed(1, "/"));
        assert_eq!(derive_seed(9, "xmms/wnic/7"), derive_seed(9, "xmms/wnic/7"));
    }

    #[test]
    fn task_rng_streams_are_independent() {
        let mut a = task_rng(42, "grep/disk/42");
        let mut b = task_rng(42, "grep/wnic/42");
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
        let mut a2 = task_rng(42, "grep/disk/42");
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        assert_eq!(xs, xs2);
    }
}
