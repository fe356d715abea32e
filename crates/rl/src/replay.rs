use rand::Rng;

use crate::RlError;

/// A bounded experience-replay buffer with uniform sampling
/// (paper §4.3: "DQN randomly chooses part of the experiences to learn").
///
/// Oldest experiences are evicted once capacity is reached (ring buffer).
///
/// ```
/// use drcell_rl::ReplayBuffer;
/// use rand::SeedableRng;
///
/// let mut buf = ReplayBuffer::new(3).unwrap();
/// for i in 0..5 {
///     buf.push(i);
/// }
/// assert_eq!(buf.len(), 3); // 0 and 1 were evicted
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sample = buf.sample(2, &mut rng);
/// assert_eq!(sample.len(), 2);
/// assert!(sample.iter().all(|&&x| x >= 2));
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T> {
    items: Vec<T>,
    capacity: usize,
    /// Next write position once the buffer is full.
    write: usize,
}

impl<T> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` experiences.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for zero capacity.
    pub fn new(capacity: usize) -> Result<Self, RlError> {
        if capacity == 0 {
            return Err(RlError::InvalidConfig {
                name: "capacity",
                expected: "> 0",
            });
        }
        Ok(ReplayBuffer {
            items: Vec::with_capacity(capacity.min(1024)),
            capacity,
            write: 0,
        })
    }

    /// Maximum number of experiences retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored experiences.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Stores an experience, evicting the oldest when full, and returns
    /// the storage index it now occupies (a full ring reuses slots).
    pub fn push(&mut self, item: T) -> usize {
        if self.items.len() < self.capacity {
            self.items.push(item);
            self.items.len() - 1
        } else {
            let slot = self.write;
            self.items[slot] = item;
            self.write = (slot + 1) % self.capacity;
            slot
        }
    }

    /// Draws `n` experiences uniformly *with replacement*. Returns fewer
    /// than `n` only when the buffer is empty (then an empty vec).
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<&T> {
        self.sample_indices(n, rng)
            .into_iter()
            .map(|i| &self.items[i])
            .collect()
    }

    /// Draws `n` storage indices uniformly *with replacement* — the
    /// allocation-light sampling path: callers borrow the experiences via
    /// [`ReplayBuffer::get`] instead of cloning them. Draws the same index
    /// sequence as [`ReplayBuffer::sample`] for a given RNG state. Returns
    /// an empty vec when the buffer is empty.
    pub fn sample_indices<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        if self.items.is_empty() {
            return Vec::new();
        }
        (0..n).map(|_| rng.gen_range(0..self.items.len())).collect()
    }

    /// Borrows the experience at storage index `i` (as returned by
    /// [`ReplayBuffer::sample_indices`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &T {
        &self.items[i]
    }

    /// Removes all stored experiences.
    pub fn clear(&mut self) {
        self.items.clear();
        self.write = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_capacity_rejected() {
        assert!(ReplayBuffer::<i32>::new(0).is_err());
    }

    #[test]
    fn fills_then_evicts_fifo() {
        let mut b = ReplayBuffer::new(3).unwrap();
        for i in 0..3 {
            b.push(i);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.push(3), 0, "evicts 0 and reuses its slot");
        assert_eq!(b.push(4), 1, "evicts 1 and reuses its slot");
        let mut rng = StdRng::seed_from_u64(0);
        let all: Vec<i32> = b.sample(100, &mut rng).into_iter().copied().collect();
        assert!(all.iter().all(|&x| x >= 2));
        assert!(all.contains(&3));
        assert!(all.contains(&4));
    }

    #[test]
    fn sample_empty_is_empty() {
        let b = ReplayBuffer::<u8>::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(b.sample(5, &mut rng).is_empty());
    }

    #[test]
    fn sample_uniformity_rough() {
        let mut b = ReplayBuffer::new(4).unwrap();
        for i in 0..4 {
            b.push(i);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for x in b.sample(4000, &mut rng) {
            counts[*x as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (700..=1300).contains(&c),
                "uniform sampling badly skewed: {counts:?}"
            );
        }
    }

    /// A payload that counts how often it is cloned, to pin the
    /// no-copy contract of the index-based sampling path.
    #[derive(Debug)]
    struct CloneCounter(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            CloneCounter(self.0.clone())
        }
    }

    #[test]
    fn index_sampling_never_clones_experiences() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let mut buf = ReplayBuffer::new(100_000).unwrap();
        for _ in 0..100_000 {
            buf.push(CloneCounter(clones.clone()));
        }
        assert_eq!(buf.len(), 100_000);
        assert_eq!(clones.get(), 0, "pushing must move, not clone");
        let mut rng = StdRng::seed_from_u64(3);
        let idxs = buf.sample_indices(1024, &mut rng);
        assert_eq!(idxs.len(), 1024);
        for &i in &idxs {
            let _borrowed: &CloneCounter = buf.get(i);
        }
        assert_eq!(
            clones.get(),
            0,
            "index-based sampling must not copy any experience"
        );
    }

    #[test]
    fn sample_and_sample_indices_draw_identically() {
        let mut buf = ReplayBuffer::new(8).unwrap();
        for i in 0..8 {
            buf.push(i);
        }
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let by_ref: Vec<i32> = buf.sample(16, &mut rng_a).into_iter().copied().collect();
        let by_idx: Vec<i32> = buf
            .sample_indices(16, &mut rng_b)
            .into_iter()
            .map(|i| *buf.get(i))
            .collect();
        assert_eq!(by_ref, by_idx);
    }

    #[test]
    fn clear_resets() {
        let mut b = ReplayBuffer::new(2).unwrap();
        b.push(1);
        b.push(2);
        b.push(3);
        b.clear();
        assert!(b.is_empty());
        b.push(9);
        assert_eq!(b.len(), 1);
    }
}
