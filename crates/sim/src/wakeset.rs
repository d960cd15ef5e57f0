//! One scheduler primitive: which members have work now, and when the
//! rest next will.
//!
//! A [`WakeSet`] is the per-member form of the [`Wakeup`] contract. Its
//! *due set* is a word bitset of members to visit at the next stepped
//! cycle; its *deadline queue*, in a set built
//! [`with_deadlines`](WakeSet::with_deadlines), holds at most one
//! [`Wakeup::At`] cycle per member, earliest first, so a driver can jump
//! its clock to the first one and promote the members whose deadline
//! arrives. Both are sized at construction and nothing allocates
//! afterwards.
//!
//! Visits go in ascending member order, a word at a time, and read the
//! current word again after each member: a member woken later in the
//! sweep is served in this sweep, one woken earlier (or the visited member
//! itself) in the next. Hot loops that cannot afford a call per member
//! iterate [`WakeSet::word`] inline; [`WakeSet::take_next`] is the same
//! discipline packaged for everyone else. Word-level helpers
//! ([`WakeSet::set_bit`] and friends) serve plain `u64` slices kept
//! beside a set.

use crate::{Cycle, Wakeup};

/// `pos` value of a member with no deadline.
const NO_DEADLINE: u32 = u32::MAX;

/// A due set over members `0..members`, with a deadline queue when built by
/// [`with_deadlines`](Self::with_deadlines). See the module docs.
///
/// # Examples
///
/// ```
/// use nifdy_sim::{Cycle, WakeSet, Wakeup};
///
/// let mut set = WakeSet::with_deadlines(100);
/// set.schedule(70, Wakeup::Now);
/// set.schedule(3, Wakeup::At(Cycle::new(50)));
/// set.schedule(9, Wakeup::At(Cycle::new(20)));
/// assert_eq!(set.next_deadline(), Some(Cycle::new(20)));
///
/// // At cycle 50 both deadlines have arrived: promote them, then visit.
/// set.promote_due(Cycle::new(50));
/// let mut visited = Vec::new();
/// let mut from = 0;
/// while let Some(i) = set.take_next(from) {
///     visited.push(i);
///     from = i + 1;
/// }
/// assert_eq!(visited, [3, 9, 70]);
/// assert!(set.is_empty() && set.next_deadline().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct WakeSet {
    /// One bit per member that is due.
    words: Vec<u64>,
    /// Members with a deadline: a binary min-heap of `(deadline, member)`.
    heap: Vec<(Cycle, u32)>,
    /// Each member's index in `heap`, or [`NO_DEADLINE`]; empty when the
    /// set has no deadline queue.
    pos: Vec<u32>,
    members: usize,
}

impl WakeSet {
    /// An empty due set over members `0..members`, without a deadline
    /// queue: only [`Wakeup::Now`] may be [`schedule`](Self::schedule)d.
    pub fn new(members: usize) -> Self {
        WakeSet {
            words: vec![0; Self::words_for(members)],
            heap: Vec::new(),
            pos: Vec::new(),
            members,
        }
    }

    /// An empty due set over members `0..members` with a deadline queue
    /// for all of them.
    pub fn with_deadlines(members: usize) -> Self {
        WakeSet {
            heap: Vec::with_capacity(members),
            pos: vec![NO_DEADLINE; members],
            ..Self::new(members)
        }
    }

    /// Words a bitset over `members` bits needs.
    #[inline]
    pub fn words_for(members: usize) -> usize {
        members.div_ceil(64)
    }

    /// Sets bit `i` of a plain word bitset (no-op beyond its end).
    #[inline]
    pub fn set_bit(words: &mut [u64], i: usize) {
        if let Some(w) = words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    /// Clears bit `i` of a plain word bitset (no-op beyond its end).
    #[inline]
    pub fn clear_bit(words: &mut [u64], i: usize) {
        if let Some(w) = words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Whether bit `i` of a plain word bitset is set.
    #[inline]
    fn test_bit(words: &[u64], i: usize) -> bool {
        words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Marks member `i` due.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        Self::set_bit(&mut self.words, i);
    }

    /// Marks member `i` not due (its deadline, if any, stays).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        Self::clear_bit(&mut self.words, i);
    }

    /// Whether member `i` is due.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        Self::test_bit(&self.words, i)
    }

    /// Whether no member is due (deadlines are not consulted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Marks every member due.
    pub fn insert_all(&mut self) {
        let members = self.members;
        for (w, word) in self.words.iter_mut().enumerate() {
            let left = members - 64 * w;
            *word = if left >= 64 { !0 } else { (1u64 << left) - 1 };
        }
    }

    /// Marks due every member that is due in `other` (a set over as many
    /// members).
    #[inline]
    pub fn union_with(&mut self, other: &WakeSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of words in the due set.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w` of the due set: members `64 * w ..` one bit each, the
    /// lowest member in the lowest bit.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Removes and returns the lowest due member at or above `from`.
    /// Calling it with one past the member it last returned visits the set
    /// in ascending order while reading each word afresh, so a member
    /// inserted above the cursor during the visit is visited too.
    #[inline]
    pub fn take_next(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        let bit = bits.trailing_zeros();
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1u64 << bit);
        }
        Some(64 * w + bit as usize)
    }

    /// Files member `i`'s [`Wakeup`]: `Now` marks it due and drops its
    /// deadline; `At(t)` sets its deadline to `t`, replacing any earlier or
    /// later one (a deadline already reached is promoted by the next
    /// [`promote_due`](Self::promote_due)); `Quiescent` drops its
    /// deadline. Only `Now` touches the due set.
    pub fn schedule(&mut self, i: usize, wake: Wakeup) {
        match wake {
            Wakeup::Now => {
                self.insert(i);
                self.cancel(i);
            }
            Wakeup::At(t) => self.set_deadline(i, t),
            Wakeup::Quiescent => self.cancel(i),
        }
    }

    /// Member `i`'s deadline, if it has one.
    #[inline]
    pub fn deadline(&self, i: usize) -> Option<Cycle> {
        let p = *self.pos.get(i)?;
        self.heap.get(p as usize).map(|&(t, _)| t)
    }

    /// The earliest deadline of any member.
    #[inline]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.heap.first().map(|&(t, _)| t)
    }

    /// Removes and returns a member whose deadline is at or before `now`,
    /// earliest deadline first (lowest member among equal deadlines). The
    /// member is not marked due: the caller decides what it needs.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<usize> {
        let &(t, member) = self.heap.first()?;
        if t > now {
            return None;
        }
        self.remove_at(0);
        Some(member as usize)
    }

    /// Marks due every member whose deadline is at or before `now`, and
    /// drops those deadlines.
    pub fn promote_due(&mut self, now: Cycle) {
        while let Some(i) = self.pop_due(now) {
            self.insert(i);
        }
    }

    /// Drops member `i`'s deadline, if it has one.
    #[inline]
    pub fn cancel(&mut self, i: usize) {
        if let Some(&p) = self.pos.get(i) {
            if p != NO_DEADLINE {
                self.remove_at(p as usize);
            }
        }
    }

    fn set_deadline(&mut self, i: usize, t: Cycle) {
        debug_assert!(
            i >= self.members || !self.pos.is_empty(),
            "a deadline filed in a set without a deadline queue"
        );
        let Some(&p) = self.pos.get(i) else {
            return;
        };
        if p == NO_DEADLINE {
            let at = self.heap.len();
            self.heap.push((t, i as u32));
            self.place(at);
            self.sift_up(at);
        } else if let Some(entry) = self.heap.get_mut(p as usize) {
            entry.0 = t;
            let at = self.sift_up(p as usize);
            self.sift_down(at);
        }
    }

    /// Removes the heap entry at index `at`.
    fn remove_at(&mut self, at: usize) {
        let Some(&(_, member)) = self.heap.get(at) else {
            return;
        };
        if let Some(p) = self.pos.get_mut(member as usize) {
            *p = NO_DEADLINE;
        }
        self.heap.swap_remove(at);
        if at < self.heap.len() {
            self.place(at);
            let at = self.sift_up(at);
            self.sift_down(at);
        }
    }

    /// Records in `pos` where heap entry `at` now sits.
    #[inline]
    fn place(&mut self, at: usize) {
        if let Some(&(_, member)) = self.heap.get(at) {
            if let Some(p) = self.pos.get_mut(member as usize) {
                *p = at as u32;
            }
        }
    }

    /// Moves entry `at` towards the root while it is earlier than its
    /// parent; returns where it ends.
    fn sift_up(&mut self, mut at: usize) -> usize {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[at] >= self.heap[parent] {
                break;
            }
            self.heap.swap(at, parent);
            self.place(at);
            self.place(parent);
            at = parent;
        }
        at
    }

    /// Moves entry `at` towards the leaves while a child is earlier.
    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut least = at;
            if l < self.heap.len() && self.heap[l] < self.heap[least] {
                least = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[least] {
                least = r;
            }
            if least == at {
                return;
            }
            self.heap.swap(at, least);
            self.place(at);
            self.place(least);
            at = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn drain(set: &mut WakeSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_next(from) {
            out.push(i);
            from = i + 1;
        }
        out
    }

    #[test]
    fn visits_ascend_across_words_and_see_later_inserts() {
        let mut set = WakeSet::new(200);
        for i in [150, 3, 64, 63, 199] {
            set.insert(i);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_next(from) {
            seen.push(i);
            from = i + 1;
            if i == 3 {
                set.insert(2); // behind the cursor: next sweep
                set.insert(3); // the visited member itself: next sweep
                set.insert(70); // ahead: this sweep
            }
        }
        assert_eq!(seen, [3, 63, 64, 70, 150, 199]);
        assert_eq!(drain(&mut set), [2, 3]);
        assert!(set.is_empty());
    }

    #[test]
    fn insert_all_marks_exactly_the_members() {
        for members in [1, 63, 64, 65, 130] {
            let mut set = WakeSet::new(members);
            set.insert_all();
            assert_eq!(drain(&mut set), (0..members).collect::<Vec<_>>());
        }
    }

    #[test]
    fn union_and_word_helpers_agree_with_membership() {
        let (mut a, mut b) = (WakeSet::new(100), WakeSet::new(100));
        a.insert(5);
        b.insert(5);
        b.insert(99);
        a.union_with(&b);
        assert!(a.contains(5) && a.contains(99) && !a.contains(6));
        assert_eq!(a.word(1), 1 << (99 - 64));
        assert_eq!(a.word(2), 0, "beyond the last word reads empty");
        let mut plain = vec![0u64; WakeSet::words_for(100)];
        WakeSet::set_bit(&mut plain, 70);
        assert!(WakeSet::test_bit(&plain, 70));
        WakeSet::clear_bit(&mut plain, 70);
        assert!(!WakeSet::test_bit(&plain, 70));
        WakeSet::set_bit(&mut plain, 1_000); // out of range: ignored
        assert_eq!(plain, [0, 0]);
    }

    #[test]
    fn schedule_files_each_wakeup_kind() {
        let mut set = WakeSet::with_deadlines(8);
        set.schedule(1, Wakeup::At(Cycle::new(30)));
        set.schedule(1, Wakeup::At(Cycle::new(10)));
        assert_eq!(set.deadline(1), Some(Cycle::new(10)), "replaced, not added");
        set.schedule(2, Wakeup::At(Cycle::new(20)));
        set.schedule(1, Wakeup::At(Cycle::new(40)));
        assert_eq!(set.next_deadline(), Some(Cycle::new(20)));
        set.schedule(2, Wakeup::Now);
        assert!(set.contains(2) && set.deadline(2).is_none());
        set.schedule(1, Wakeup::Quiescent);
        assert_eq!(set.next_deadline(), None);
        assert!(!set.contains(1));
    }

    #[test]
    fn pop_due_orders_by_deadline_then_member() {
        let mut set = WakeSet::with_deadlines(8);
        for (i, t) in [(5, 9), (2, 9), (7, 3), (0, 12)] {
            set.schedule(i, Wakeup::At(Cycle::new(t)));
        }
        let mut popped = Vec::new();
        while let Some(i) = set.pop_due(Cycle::new(10)) {
            popped.push(i);
        }
        assert_eq!(popped, [7, 2, 5]);
        assert_eq!(set.next_deadline(), Some(Cycle::new(12)));
        assert!(set.is_empty(), "pop_due marks nothing due");
    }

    /// The deadline queue against a per-member array, under random
    /// schedules, cancels and pops.
    #[test]
    fn deadlines_match_a_naive_model() {
        let members = 70;
        let mut rng = SimRng::from_seed_stream(7, 0);
        let mut set = WakeSet::with_deadlines(members);
        let mut model: Vec<Option<u64>> = vec![None; members];
        let mut now = 0u64;
        for _ in 0..20_000 {
            let i = rng.gen_range_usize(0..members);
            match rng.gen_range_u64(0..4) {
                0 | 1 => {
                    let t = now + rng.gen_range_u64(0..50);
                    set.schedule(i, Wakeup::At(Cycle::new(t)));
                    model[i] = Some(t);
                }
                2 => {
                    set.cancel(i);
                    model[i] = None;
                }
                _ => {
                    now += rng.gen_range_u64(0..10);
                    while let Some(j) = set.pop_due(Cycle::new(now)) {
                        let t = model[j].take().expect("popped member had a deadline");
                        assert!(t <= now);
                    }
                    assert!(model.iter().flatten().all(|&t| t > now));
                }
            }
            let earliest = model.iter().flatten().min().copied();
            assert_eq!(set.next_deadline().map(Cycle::as_u64), earliest);
            assert_eq!(set.deadline(i).map(Cycle::as_u64), model[i]);
        }
    }
}
