//! Chunk bookkeeping of the irregular path (§5.1): per-bank free lists as
//! run-length stacks, and the liveness bits behind `free_aff`'s
//! `UnknownAddress` errors.
//!
//! A pool hands out interleave-sized chunks; chunk `c` lives on bank
//! `c mod banks` (Eq 1). When the pool cursor skips ahead to reach a target
//! bank it donates every skipped chunk to its own bank's free list, so
//! successive donations to one list differ by exactly the bank count. A
//! [`ChunkStack`] stores a list as runs of such arithmetic progressions:
//! Min-Hop's one-bank pile-up, which donates `banks − 1` chunks per call,
//! extends one run per list instead of storing one entry per chunk.

/// One arithmetic progression of a [`ChunkStack`], bottom to top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// The bottom-most value.
    first: u64,
    /// Number of values, at least 1.
    len: u64,
    /// Whether values step down by the stride going up the stack (up
    /// otherwise). Meaningless while `len == 1`.
    desc: bool,
}

impl Run {
    fn single(v: u64) -> Self {
        Run {
            first: v,
            len: 1,
            desc: false,
        }
    }

    fn at(&self, i: u64, stride: u64) -> u64 {
        if self.desc {
            self.first - i * stride
        } else {
            self.first + i * stride
        }
    }

    fn last(&self, stride: u64) -> u64 {
        self.at(self.len - 1, stride)
    }

    /// The direction a step from `from` to `to` takes, if it is one stride.
    fn step(from: u64, to: u64, stride: u64) -> Option<bool> {
        if from.checked_add(stride) == Some(to) {
            Some(false)
        } else if from.checked_sub(stride) == Some(to) {
            Some(true)
        } else {
            None
        }
    }

    /// Extend the run upward by `v` if it continues the progression.
    fn try_append(&mut self, v: u64, stride: u64) -> bool {
        match Run::step(self.last(stride), v, stride) {
            Some(desc) if self.len == 1 || desc == self.desc => {
                self.desc = desc;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    /// Extend the run downward by `v` if it continues the progression.
    fn try_prepend(&mut self, v: u64, stride: u64) -> bool {
        match Run::step(v, self.first, stride) {
            Some(desc) if self.len == 1 || desc == self.desc => {
                self.desc = desc;
                self.first = v;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    fn index_of(&self, v: u64, stride: u64) -> Option<u64> {
        let dist = if self.desc {
            self.first.checked_sub(v)
        } else {
            v.checked_sub(self.first)
        }?;
        (dist.is_multiple_of(stride) && dist / stride < self.len).then_some(dist / stride)
    }

    /// How many values of the run exceed `v`.
    fn count_above(&self, v: u64, stride: u64) -> u64 {
        if self.desc {
            // first − i·stride > v  ⇔  i < (first − v) / stride, rounded up.
            self.first.saturating_sub(v).div_ceil(stride).min(self.len)
        } else {
            // first + i·stride > v  ⇔  i > (v − first) / stride.
            match v.checked_sub(self.first) {
                None => self.len,
                Some(d) => self.len.saturating_sub(d / stride + 1),
            }
        }
    }
}

/// A stack of chunk indices with the observable behaviour of a `Vec<u64>`
/// (index 0 is the bottom), stored as runs of progressions with a fixed
/// stride. `push`/`pop` touch only the top run; the index-based operations
/// the cold paths need walk the runs, splitting and re-merging them, and
/// keep exactly the element order a `Vec` would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkStack {
    stride: u64,
    runs: Vec<Run>,
}

impl ChunkStack {
    /// An empty stack whose runs step by `stride` (the bank count).
    pub(crate) fn new(stride: u64) -> Self {
        assert!(stride > 0, "a run stride of zero cannot tell values apart");
        ChunkStack {
            stride,
            runs: Vec::new(),
        }
    }

    /// Number of chunks on the stack.
    pub(crate) fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// Push onto the top (`Vec::push`).
    pub(crate) fn push(&mut self, v: u64) {
        if let Some(top) = self.runs.last_mut() {
            if top.try_append(v, self.stride) {
                return;
            }
        }
        self.runs.push(Run::single(v));
    }

    /// Pop the top (`Vec::pop`).
    pub(crate) fn pop(&mut self) -> Option<u64> {
        let top = self.runs.last_mut()?;
        let v = top.last(self.stride);
        top.len -= 1;
        if top.len == 0 {
            self.runs.pop();
        }
        Some(v)
    }

    /// Index of the first (bottom-most) occurrence of `v`
    /// (`iter().position`).
    pub(crate) fn position(&self, v: u64) -> Option<u64> {
        let mut base = 0;
        for r in &self.runs {
            if let Some(i) = r.index_of(v, self.stride) {
                return Some(base + i);
            }
            base += r.len;
        }
        None
    }

    /// Insert `v` where a descending stack keeps its order
    /// (`insert(partition_point(|&c| c > v), v)`): the coalescing free
    /// lists' sorted insert, which makes `pop` lowest-chunk-first.
    pub(crate) fn insert_sorted_desc(&mut self, v: u64) {
        let mut pos = 0;
        for r in &self.runs {
            let above = r.count_above(v, self.stride);
            pos += above;
            if above < r.len {
                break;
            }
        }
        self.insert(pos, v);
    }

    /// Insert `v` at index `pos` (`Vec::insert`).
    ///
    /// # Panics
    ///
    /// If `pos > len()`.
    pub(crate) fn insert(&mut self, pos: u64, v: u64) {
        let stride = self.stride;
        let Some((mut r, off)) = self.locate(pos) else {
            assert_eq!(pos, self.len(), "insert index out of bounds");
            self.push(v);
            return;
        };
        if off == 0 {
            if r > 0 && self.runs[r - 1].try_append(v, stride) {
                self.merge(r - 1);
                return;
            }
            if self.runs[r].try_prepend(v, stride) {
                if r > 0 {
                    self.merge(r - 1);
                }
                return;
            }
        } else {
            let run = self.runs[r];
            self.runs[r].len = off;
            let right = Run {
                first: run.at(off, stride),
                len: run.len - off,
                desc: run.desc,
            };
            self.runs.insert(r + 1, right);
            r += 1;
        }
        self.runs.insert(r, Run::single(v));
        self.merge(r);
        if r > 0 {
            self.merge(r - 1);
        }
    }

    /// Remove and return the value at index `pos` (`Vec::remove`).
    ///
    /// # Panics
    ///
    /// If `pos >= len()`.
    pub(crate) fn remove(&mut self, pos: u64) -> u64 {
        let stride = self.stride;
        let (r, off) = self.locate(pos).expect("remove index out of bounds");
        let run = self.runs[r];
        let v = run.at(off, stride);
        if run.len == 1 {
            self.runs.remove(r);
            if r > 0 {
                self.merge(r - 1);
            }
        } else if off == 0 {
            self.runs[r].first = run.at(1, stride);
            self.runs[r].len -= 1;
        } else if off + 1 == run.len {
            self.runs[r].len -= 1;
        } else {
            self.runs[r].len = off;
            let right = Run {
                first: run.at(off + 1, stride),
                len: run.len - off - 1,
                desc: run.desc,
            };
            self.runs.insert(r + 1, right);
        }
        v
    }

    /// Remove the value at index `pos`, moving the top into its place
    /// (`Vec::swap_remove`).
    ///
    /// # Panics
    ///
    /// If `pos >= len()`.
    pub(crate) fn swap_remove(&mut self, pos: u64) -> u64 {
        let top = self.pop().expect("swap_remove on an empty stack");
        if pos == self.len() {
            return top;
        }
        let v = self.remove(pos);
        self.insert(pos, top);
        v
    }

    /// Reorder descending, so `pop` yields the lowest chunk.
    pub(crate) fn sort_desc(&mut self) {
        let mut all: Vec<u64> = self.iter().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        self.runs.clear();
        for v in all {
            self.push(v);
        }
    }

    /// The values bottom to top.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.len).map(|i| r.at(i, self.stride)))
    }

    /// The run holding index `pos` and the offset inside it; `None` past
    /// the top.
    fn locate(&self, pos: u64) -> Option<(usize, u64)> {
        let mut base = 0;
        for (i, r) in self.runs.iter().enumerate() {
            if pos < base + r.len {
                return Some((i, pos - base));
            }
            base += r.len;
        }
        None
    }

    /// Fuse runs `r` and `r + 1` if together they form one progression.
    fn merge(&mut self, r: usize) {
        let Some(&upper) = self.runs.get(r + 1) else {
            return;
        };
        let mut joined = self.runs[r];
        if joined.try_append(upper.first, self.stride)
            && (upper.len == 1 || upper.desc == joined.desc)
        {
            joined.len += upper.len - 1;
            self.runs[r] = joined;
            self.runs.remove(r + 1);
        }
    }

    #[cfg(test)]
    fn runs(&self) -> usize {
        self.runs.len()
    }
}

/// Which irregular chunks are live, one bit per chunk index per pool. It
/// runs in every build: `free_aff` and `realloc_aff` consult it to reject
/// double frees, interior pointers and addresses never handed out.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveChunks {
    words: Vec<Vec<u64>>,
}

impl LiveChunks {
    pub(crate) fn insert(&mut self, pool: usize, chunk: u64) {
        if self.words.len() <= pool {
            self.words.resize_with(pool + 1, Vec::new);
        }
        let bits = &mut self.words[pool];
        let w = (chunk / 64) as usize;
        if bits.len() <= w {
            bits.resize(w + 1, 0);
        }
        bits[w] |= 1 << (chunk % 64);
    }

    pub(crate) fn contains(&self, pool: usize, chunk: u64) -> bool {
        self.words
            .get(pool)
            .and_then(|bits| bits.get((chunk / 64) as usize))
            .is_some_and(|w| w & (1 << (chunk % 64)) != 0)
    }

    /// Clear the bit; whether it was set.
    pub(crate) fn remove(&mut self, pool: usize, chunk: u64) -> bool {
        let Some(w) = self
            .words
            .get_mut(pool)
            .and_then(|bits| bits.get_mut((chunk / 64) as usize))
        else {
            return false;
        };
        let mask = 1 << (chunk % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donations_compress_to_one_run() {
        let mut s = ChunkStack::new(64);
        for i in 0..10_000u64 {
            s.push(5 + 64 * i);
        }
        assert_eq!(s.runs(), 1);
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.pop(), Some(5 + 64 * 9_999));
        // Coalescing order: descending, donations enter at the bottom.
        let mut d = ChunkStack::new(64);
        for i in 0..1_000u64 {
            d.insert_sorted_desc(7 + 64 * i);
        }
        assert_eq!(d.runs(), 1);
        assert_eq!(d.pop(), Some(7));
    }

    #[test]
    fn stack_mirrors_vec_on_a_fixed_sequence() {
        let mut s = ChunkStack::new(4);
        let mut v: Vec<u64> = Vec::new();
        for x in [8, 12, 16, 4, 0, 20, 24, 2] {
            s.push(x);
            v.push(x);
        }
        assert_eq!(s.remove(2), v.remove(2));
        assert_eq!(s.swap_remove(1), v.swap_remove(1));
        s.insert(3, 99);
        v.insert(3, 99);
        assert_eq!(s.iter().collect::<Vec<_>>(), v);
        assert_eq!(
            s.position(99),
            v.iter().position(|&c| c == 99).map(|p| p as u64)
        );
        assert_eq!(s.position(1000), None);
    }

    #[test]
    fn liveness_bits() {
        let mut live = LiveChunks::default();
        assert!(!live.contains(3, 100));
        live.insert(3, 100);
        assert!(live.contains(3, 100));
        assert!(!live.contains(3, 101) && !live.contains(2, 100));
        assert!(live.remove(3, 100));
        assert!(!live.remove(3, 100), "a second removal is a double free");
        assert!(!live.remove(9, 1 << 40), "never allocated");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Values near three progressions with stride 4, so runs form, grow,
    /// split and merge, plus stray values that break them and one at the
    /// top of the range.
    fn value(kind: u64, k: u64) -> u64 {
        match kind % 8 {
            0..=4 => kind % 3 + 4 * (k % 24),
            5 | 6 => k % 120,
            _ => u64::MAX,
        }
    }

    /// Apply `ops` to a `ChunkStack` and to a plain `Vec<u64>`, comparing
    /// every result and the full contents after each step. In coalescing
    /// mode the lists only see the operations that keep them descending,
    /// as in the allocator: sorted insert, pop, remove, re-sort.
    fn check(ops: &[(u8, u64, u64, usize)], coalescing: bool) {
        let mut s = ChunkStack::new(4);
        let mut v: Vec<u64> = Vec::new();
        for &(op, kind, k, i) in ops {
            let x = value(kind, k);
            match (op % 6, coalescing) {
                (0, false) => {
                    s.push(x);
                    v.push(x);
                }
                (0, true) => {
                    s.insert_sorted_desc(x);
                    let pos = v.partition_point(|&c| c > x);
                    v.insert(pos, x);
                }
                (1, _) => assert_eq!(s.pop(), v.pop()),
                (2, _) if !v.is_empty() => {
                    let i = i % v.len();
                    assert_eq!(s.remove(i as u64), v.remove(i));
                }
                (3, false) if !v.is_empty() => {
                    let i = i % v.len();
                    assert_eq!(s.swap_remove(i as u64), v.swap_remove(i));
                }
                (4, _) => {
                    let want = v.iter().position(|&c| c == x);
                    assert_eq!(s.position(x), want.map(|p| p as u64));
                    if let Some(p) = want {
                        assert_eq!(s.remove(p as u64), v.remove(p));
                    }
                }
                (5, _) if k % 4 == 0 => {
                    s.sort_desc();
                    v.sort_unstable_by(|a, b| b.cmp(a));
                }
                _ => {}
            }
            assert_eq!(s.len(), v.len() as u64);
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                v,
                "after {:?}",
                (op % 6, x, i)
            );
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64, usize)>> {
        proptest::collection::vec((0u8..6, any::<u64>(), 0u64..1000, any::<usize>()), 0..400)
    }

    proptest! {
        #[test]
        fn lifo_stack_matches_vec(ops in ops()) {
            check(&ops, false);
        }

        #[test]
        fn coalescing_stack_matches_vec(ops in ops()) {
            check(&ops, true);
        }
    }
}
