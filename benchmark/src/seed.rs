//! Everything `--seed` decides: the key permutation the map lanes apply and
//! the order lanes run in each round.  The program under test never sees the
//! seed, only the operations generated from it.

/// Width of the key space the registry's Zipf scenarios draw from.
pub const KEY_SPACE: usize = 64;

/// SplitMix64: tiny, seedable, and good enough to shuffle with.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `instance`-th permutation of the key space in the seed's stream:
/// scenario key `k` becomes `permutation[k]`, so which concrete keys are hot
/// (and therefore which buckets and chain positions recycle fastest) varies
/// while the popularity profile does not.  Every map instance the engine
/// builds takes the next permutation: where the hot keys land moves `p50_ns`
/// by ~10 %, and a run that sees a hundred layouts reports the same figure
/// whatever its seed, where a run that sees one does not.
pub fn key_permutation(seed: u64, instance: u64) -> [u32; KEY_SPACE] {
    let mut keys: [u32; KEY_SPACE] = std::array::from_fn(|k| k as u32);
    // A stream of its own, so the lane order never shifts the permutations.
    let stream = seed ^ 0x6B65_795F_7065_726D ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Rng::new(stream).shuffle(&mut keys);
    keys
}

/// The order the `lanes` lanes run in, one entry per round: every round is a
/// fresh shuffle, so no lane always runs first (cold) or last.
pub fn lane_order(rng: &mut Rng, lanes: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lanes).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders(seed: u64, rounds: usize) -> Vec<Vec<usize>> {
        let mut rng = Rng::new(seed);
        (0..rounds).map(|_| lane_order(&mut rng, 5)).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(key_permutation(42, 3), key_permutation(42, 3));
        assert_eq!(orders(42, 16), orders(42, 16));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(key_permutation(1, 0), key_permutation(2, 0));
        assert_ne!(key_permutation(1, 0), key_permutation(1, 1));
        assert_ne!(orders(1, 16), orders(2, 16));
    }

    #[test]
    fn the_permutation_is_a_bijection_on_the_key_space() {
        for seed in 0..8 {
            let mut keys = key_permutation(seed, seed + 1).to_vec();
            keys.sort_unstable();
            let identity: Vec<u32> = (0..KEY_SPACE as u32).collect();
            assert_eq!(keys, identity);
        }
    }

    #[test]
    fn every_round_runs_every_lane_once() {
        for order in orders(7, 32) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }
}
