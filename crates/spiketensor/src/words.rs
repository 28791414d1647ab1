//! Word-parallel kernels over the bit-packed spike representation.
//!
//! [`SpikeTensor`](crate::SpikeTensor) packs 64 positions per `u64` with the
//! feature axis fastest-varying, so the feature vector of one `(t, n)`
//! position — a *feature row* — is a contiguous range of `D` bits. Everything
//! in this module exploits that contiguity:
//!
//! * [`RowBits`] is a safe zero-copy view of one feature row (or any feature
//!   sub-range of it, e.g. an attention head's slice). Rows are generally
//!   *not* word-aligned (`D % 64 != 0` offsets every row differently), so the
//!   view carries a bit offset and materialises aligned *logical words* on
//!   the fly from at most two physical words each.
//! * [`RowBits::dot`] computes the binary inner product
//!   `Σ_d a[d] & b[d]` as AND + `popcount` over logical words — the exact
//!   operation the Bishop attention core performs on spiking Q/K, at ~64
//!   positions per instruction instead of one.
//! * [`RowBits::iter_set_bits`] walks only the active positions of a row via
//!   `trailing_zeros`, which is what the select-accumulate kernels
//!   (`S·V`, `spike_matmul`) want: work proportional to spikes, not to `D`.
//!
//! Every kernel here has a scalar `*_reference` twin (here or on the
//! consumer) that is kept for differential testing: the word-parallel path
//! must be bit-for-bit identical to the scalar path on every input,
//! including rows that straddle word boundaries and tensors whose total
//! length is not a multiple of 64.
//!
//! Below the word layer sits [`simd`]: runtime-dispatched AVX2 / AVX-512 /
//! NEON kernels selected once per process. Word-aligned kernels here route
//! through the active [`simd::KernelDispatch`] table when the operand is
//! long enough ([`simd::DISPATCH_MIN_WORDS`]) for the indirect call to pay
//! for itself; shorter rows keep the inlined scalar word loop.

pub mod simd;

/// A zero-copy view of a contiguous bit range of a
/// [`SpikeTensor`](crate::SpikeTensor)'s packed words — typically the
/// feature row of one `(t, n)` position, or a per-head sub-range of it.
///
/// Logical bit `i` of the view is physical bit `offset + i` of `words[0]`'s
/// bit address space. Logical *word* `i` (bits `64·i .. 64·i+64` of the
/// view) is assembled from one or two physical words and masked so that bits
/// at or beyond [`RowBits::len`] read as zero.
///
/// ```
/// use bishop_spiketensor::{SpikeTensor, TensorShape};
///
/// let t = SpikeTensor::from_fn(TensorShape::new(1, 2, 100), |_, n, d| d % (n + 2) == 0);
/// let a = t.row_words(0, 0);
/// let b = t.row_words(0, 1);
/// assert_eq!(a.len(), 100);
/// assert_eq!(a.count_ones(), t.token_count(0, 0));
/// // Binary Q·Kᵀ entry: AND + popcount across the two rows.
/// assert_eq!(a.dot(&b), a.dot_reference(&b));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowBits<'a> {
    words: &'a [u64],
    /// Bit offset of the view's bit 0 inside `words[0]`; always `< 64`.
    offset: u32,
    /// Number of valid bits in the view.
    len: usize,
}

impl<'a> RowBits<'a> {
    /// Creates a view of `len` bits starting at absolute bit `start` of
    /// `words`.
    ///
    /// # Panics
    ///
    /// Panics if the bit range extends past `words`.
    pub fn new(words: &'a [u64], start: usize, len: usize) -> Self {
        let first = start / 64;
        let end_word = (start + len).div_ceil(64).max(first);
        assert!(
            end_word <= words.len(),
            "bit range {start}..{} out of bounds for {} words",
            start + len,
            words.len()
        );
        Self {
            words: &words[first..end_word],
            offset: (start % 64) as u32,
            len,
        }
    }

    /// Number of bits in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of logical 64-bit words covering the view.
    pub fn word_count(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Logical word `i` of the view: bits `64·i .. 64·i+64`, with bits at or
    /// beyond [`RowBits::len`] masked to zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= word_count()`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        let bit = i * 64;
        assert!(bit < self.len, "logical word {i} out of range");
        let value = if self.offset == 0 {
            self.words[i]
        } else {
            let lo = self.words[i] >> self.offset;
            // The high part comes from the next physical word when the view
            // extends into it; a short final word has no successor.
            let hi = self.words.get(i + 1).copied().unwrap_or(0);
            lo | (hi << (64 - self.offset))
        };
        let remaining = self.len - bit;
        if remaining >= 64 {
            value
        } else {
            value & ((1u64 << remaining) - 1)
        }
    }

    /// Reads logical bit `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for row of {}", self.len);
        let bit = self.offset as usize + i;
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Restricts the view to the bit range `start..end` (e.g. one attention
    /// head's features out of a full feature row).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn slice(&self, start: usize, end: usize) -> RowBits<'a> {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for row of {}",
            self.len
        );
        RowBits::new(self.words, self.offset as usize + start, end - start)
    }

    /// Number of set bits in the view, counted word-wise. Long aligned
    /// views take the SIMD popcount over whole physical words.
    pub fn count_ones(&self) -> usize {
        if self.offset == 0 && self.len / 64 >= simd::DISPATCH_MIN_WORDS {
            let full = self.len / 64;
            let mut acc = simd::active().popcount(&self.words[..full]) as usize;
            if !self.len.is_multiple_of(64) {
                acc += self.word(full).count_ones() as usize;
            }
            return acc;
        }
        (0..self.word_count())
            .map(|i| self.word(i).count_ones() as usize)
            .sum()
    }

    /// Binary inner product with `other`: `Σ_i self[i] & other[i]`, computed
    /// as AND + popcount over logical words. This is the integer attention
    /// score a spiking Q row produces against a K row (Eq. 4 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the views have different lengths.
    #[inline]
    pub fn dot(&self, other: &RowBits<'_>) -> u32 {
        assert_eq!(
            self.len, other.len,
            "dot requires equal-length rows ({} vs {})",
            self.len, other.len
        );
        if self.offset == 0 && other.offset == 0 {
            // Aligned fast path: AND whole physical words; only a final
            // partial word (which may hold the next row's bits) needs the
            // masked logical read. Long rows go through the SIMD dispatch
            // table; short ones (a D=128 row is two words) stay inline.
            let full = self.len / 64;
            let mut acc: u32 = if full >= simd::DISPATCH_MIN_WORDS {
                simd::active().and_popcount(&self.words[..full], &other.words[..full]) as u32
            } else {
                self.words[..full]
                    .iter()
                    .zip(&other.words[..full])
                    .map(|(a, b)| (a & b).count_ones())
                    .sum()
            };
            if !self.len.is_multiple_of(64) {
                acc += (self.word(full) & other.word(full)).count_ones();
            }
            return acc;
        }
        let mut acc = 0u32;
        for i in 0..self.word_count() {
            acc += (self.word(i) & other.word(i)).count_ones();
        }
        acc
    }

    /// Scalar reference implementation of [`RowBits::dot`], kept for
    /// differential testing of the word-parallel kernel.
    pub fn dot_reference(&self, other: &RowBits<'_>) -> u32 {
        assert_eq!(
            self.len, other.len,
            "dot requires equal-length rows ({} vs {})",
            self.len, other.len
        );
        (0..self.len)
            .filter(|&i| self.get(i) && other.get(i))
            .count() as u32
    }

    /// Iterates the indices of set bits in increasing order, driven by
    /// `trailing_zeros` so the cost is proportional to the number of spikes.
    pub fn iter_set_bits(&self) -> SetBits<'a> {
        SetBits {
            row: *self,
            next_word: 0,
            current: 0,
            base: 0,
        }
    }
}

/// Iterator over the set-bit positions of a [`RowBits`] view, in increasing
/// order. Created by [`RowBits::iter_set_bits`].
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    row: RowBits<'a>,
    /// Next logical word to load.
    next_word: usize,
    /// Remaining bits of the word currently being drained.
    current: u64,
    /// Bit index of the current word's bit 0.
    base: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            if self.next_word >= self.row.word_count() {
                return None;
            }
            self.base = self.next_word * 64;
            self.current = self.row.word(self.next_word);
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_from(pattern: &[usize], words: usize) -> Vec<u64> {
        let mut v = vec![0u64; words];
        for &b in pattern {
            v[b / 64] |= 1 << (b % 64);
        }
        v
    }

    #[test]
    fn aligned_view_reads_words_directly() {
        let words = bits_from(&[0, 5, 63, 64, 100], 2);
        let row = RowBits::new(&words, 0, 128);
        assert_eq!(row.word_count(), 2);
        assert_eq!(row.word(0), words[0]);
        assert_eq!(row.word(1), words[1]);
        assert_eq!(row.count_ones(), 5);
    }

    #[test]
    fn unaligned_view_straddles_physical_words() {
        let words = bits_from(&[10, 63, 64, 70], 2);
        // View of 20 bits starting at bit 60: covers physical bits 60..80.
        let row = RowBits::new(&words, 60, 20);
        assert_eq!(row.len(), 20);
        assert!(row.get(3)); // physical bit 63
        assert!(row.get(4)); // physical bit 64
        assert!(row.get(10)); // physical bit 70
        assert_eq!(row.count_ones(), 3);
        assert_eq!(row.iter_set_bits().collect::<Vec<_>>(), vec![3, 4, 10]);
    }

    #[test]
    fn tail_bits_read_as_zero() {
        let words = vec![u64::MAX; 2];
        let row = RowBits::new(&words, 3, 70);
        assert_eq!(row.count_ones(), 70);
        assert_eq!(row.word(1).count_ones(), 6);
    }

    #[test]
    fn slice_matches_manual_offsets() {
        let words = bits_from(&[0, 7, 8, 9, 127], 2);
        let row = RowBits::new(&words, 0, 128);
        let sub = row.slice(7, 10);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.iter_set_bits().collect::<Vec<_>>(), vec![0, 1, 2]);
        let tail = row.slice(100, 128);
        assert_eq!(tail.count_ones(), 1);
        assert!(tail.get(27));
    }

    #[test]
    fn dot_matches_reference_across_offsets() {
        let a_words = bits_from(&[1, 3, 64, 65, 90, 120], 3);
        let b_words = bits_from(&[1, 64, 90, 91, 119], 3);
        for start in [0usize, 1, 37, 63, 64] {
            for len in [0usize, 1, 5, 64, 65, 100] {
                let a = RowBits::new(&a_words, start, len);
                let b = RowBits::new(&b_words, start, len);
                assert_eq!(a.dot(&b), a.dot_reference(&b), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn empty_view_is_well_behaved() {
        let words = bits_from(&[0], 1);
        let row = RowBits::new(&words, 5, 0);
        assert!(row.is_empty());
        assert_eq!(row.word_count(), 0);
        assert_eq!(row.count_ones(), 0);
        assert_eq!(row.iter_set_bits().count(), 0);
        assert_eq!(row.dot(&row), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_past_storage_is_rejected() {
        let words = vec![0u64; 1];
        RowBits::new(&words, 60, 10);
    }

    #[test]
    #[should_panic(expected = "equal-length rows")]
    fn dot_rejects_mismatched_lengths() {
        let words = vec![0u64; 2];
        let a = RowBits::new(&words, 0, 10);
        let b = RowBits::new(&words, 0, 11);
        a.dot(&b);
    }
}
