//! Property-based tests of the RL substrate.

use drcell_rl::{epsilon_greedy, masked_max, EpsilonSchedule, ReplayBuffer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn epsilon_greedy_always_valid(
        q in proptest::collection::vec(-10.0f64..10.0, 1..12),
        mask_bits in proptest::collection::vec(any::<bool>(), 1..12),
        eps in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n = q.len().min(mask_bits.len());
        let q = &q[..n];
        let mask = &mask_bits[..n];
        let mut rng = StdRng::seed_from_u64(seed);
        match epsilon_greedy(|| q.to_vec(), mask, eps, &mut rng) {
            Some(a) => prop_assert!(mask[a], "selected a masked action"),
            None => prop_assert!(mask.iter().all(|&b| !b)),
        }
    }

    #[test]
    fn masked_max_is_max_of_valid(
        q in proptest::collection::vec(-10.0f64..10.0, 1..12),
        mask_bits in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let n = q.len().min(mask_bits.len());
        let q = &q[..n];
        let mask = &mask_bits[..n];
        let expected = q.iter().zip(mask).filter(|(_, &m)| m).map(|(&v, _)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        match masked_max(q, mask) {
            Some(v) => prop_assert_eq!(v, expected),
            None => prop_assert!(mask.iter().all(|&b| !b)),
        }
    }

    #[test]
    fn schedules_always_in_unit_interval(
        start in 0.0f64..=1.0,
        end in 0.0f64..=1.0,
        steps in 1usize..1000,
        step in 0usize..5000,
    ) {
        let (hi, lo) = if start >= end { (start, end) } else { (end, start) };
        let s = EpsilonSchedule::linear(hi, lo, steps).unwrap();
        let v = s.value(step);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn replay_never_exceeds_capacity(
        capacity in 1usize..64,
        pushes in 0usize..200,
    ) {
        let mut buf = ReplayBuffer::new(capacity).unwrap();
        for i in 0..pushes {
            buf.push(i);
        }
        prop_assert!(buf.len() <= capacity);
        prop_assert_eq!(buf.len(), pushes.min(capacity));
    }

    #[test]
    fn replay_sample_returns_recent_items(
        capacity in 1usize..16,
        pushes in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut buf = ReplayBuffer::new(capacity).unwrap();
        for i in 0..pushes {
            buf.push(i);
        }
        let oldest_kept = pushes.saturating_sub(capacity);
        let mut rng = StdRng::seed_from_u64(seed);
        for &&x in &buf.sample(32, &mut rng) {
            prop_assert!(x >= oldest_kept && x < pushes);
        }
    }
}
