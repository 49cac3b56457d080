//! Minibatch index sampling.

use rand::seq::SliceRandom;
use rand::Rng;

/// Cycles through a dataset's indices in shuffled epochs, yielding
/// fixed-size minibatches — the access pattern of the paper's local training
/// loop (batch size 64).
///
/// Indices are `u32`: every vehicle holds one batcher the length of its
/// training split, so the order costs four bytes a sample, not eight. The
/// shuffle draws by position, not by element type, so the batches are the
/// ones a `usize` order would give.
#[derive(Debug, Clone)]
pub struct Minibatcher {
    order: Vec<u32>,
    cursor: usize,
    batch_size: usize,
}

impl Minibatcher {
    /// Creates a batcher over `n` samples.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `n` exceeds `u32::MAX`.
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut batcher = Self { order: Vec::new(), cursor: 0, batch_size };
        batcher.grow(n);
        batcher
    }

    /// Number of samples currently covered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the underlying dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Grows the index range to `n` samples (local datasets expand when
    /// coresets are absorbed). Newly added indices join the current epoch.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn grow(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "a minibatcher indexes at most u32::MAX samples");
        let start = self.order.len() as u32;
        self.order.extend(start..n as u32);
    }

    /// Returns the next minibatch of indices, borrowed from the epoch's
    /// order, reshuffling at epoch boundaries. Returns an empty slice when
    /// the dataset is empty; the final batch of an epoch may be shorter
    /// than `batch_size`.
    pub fn next_batch<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &[u32] {
        if self.order.is_empty() {
            return &[];
        }
        if self.cursor >= self.order.len() {
            self.order.shuffle(rng);
            self.cursor = 0;
        }
        let start = self.cursor;
        self.cursor = (start + self.batch_size).min(self.order.len());
        &self.order[start..self.cursor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn covers_every_index_each_epoch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut mb = Minibatcher::new(10, 3);
        let mut seen = vec![0usize; 10];
        for _ in 0..4 {
            // 4 batches of <=3 = one epoch of 10
            for &i in mb.next_batch(&mut rng) {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "epoch must cover each index once: {seen:?}");
    }

    #[test]
    fn empty_dataset_yields_empty_batches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut mb = Minibatcher::new(0, 4);
        assert!(mb.next_batch(&mut rng).is_empty());
    }

    #[test]
    fn grow_adds_new_indices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut mb = Minibatcher::new(2, 2);
        mb.grow(5);
        assert_eq!(mb.len(), 5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10 {
            for &i in mb.next_batch(&mut rng) {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn batch_size_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut mb = Minibatcher::new(100, 7);
        for _ in 0..50 {
            assert!(mb.next_batch(&mut rng).len() <= 7);
        }
    }
}
