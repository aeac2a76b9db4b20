//! The storage shape of the timing model's reservation lists: a bounded
//! first-in-first-out window whose live entries are one contiguous slice.
//!
//! The lists (`FuSchedule::busy`, `ClusterState::issued`, and the data
//! bus's `BusSchedule::busy` in `vagg-mem`) are searched on every
//! micro-op and every DRAM transaction, mostly near their back, so they
//! are kept where a search is a walk over `&[T]`: the live entries are
//! `buf[head..]`, dropping the front one bumps `head`, and the dead prefix
//! is cut once every `cap` drops. The buffer is reserved at construction
//! for the `2 × cap` entries it can ever hold, so a window never
//! allocates afterwards.
//!
//! `vagg-cpu` and `vagg-mem` are leaf crates with no dependencies; this
//! one file is compiled into both (`vagg-mem` names it by path) rather
//! than copied.

use std::ops::Deref;

/// At most `cap` entries, oldest first; dereferences to the live slice.
#[derive(Debug)]
pub(crate) struct Window<T> {
    buf: Vec<T>,
    /// Index in `buf` of the oldest live entry.
    head: usize,
    cap: usize,
}

// The mutators are `#[inline]`: each runs once per micro-op, and left to
// itself the compiler outlined `insert` or not depending on unrelated
// code elsewhere in the crate — 4 % of `kernels` either way.
impl<T: Copy> Window<T> {
    /// An empty window that holds `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(2 * cap),
            head: 0,
            cap,
        }
    }

    /// Appends `value`; past `cap` entries the front one is dropped and
    /// returned.
    #[inline]
    pub(crate) fn push_back(&mut self, value: T) -> Option<T> {
        self.buf.push(value);
        self.drop_past_cap()
    }

    /// Inserts `value` before live index `at` (`len()` appends); past
    /// `cap` entries the front one — which may be `value` itself — is
    /// dropped and returned.
    #[inline]
    pub(crate) fn insert(&mut self, at: usize, value: T) -> Option<T> {
        self.buf.insert(self.head + at, value);
        self.drop_past_cap()
    }

    #[inline]
    fn drop_past_cap(&mut self) -> Option<T> {
        if self.buf.len() - self.head <= self.cap {
            return None;
        }
        let dropped = self.buf[self.head];
        self.head += 1;
        if self.head == self.cap {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Some(dropped)
    }
}

impl<T: Copy> Clone for Window<T> {
    /// The live entries in a window reserved like this one (a derived
    /// clone would hold exactly what it copied, and grow).
    fn clone(&self) -> Self {
        let mut clone = Self::new(self.cap);
        clone.buf.extend_from_slice(self);
        clone
    }
}

impl<T> Deref for Window<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.head..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        // A window of 8 against a `VecDeque` cut to 8 the way the lists
        // were: hundreds of pushes and inserts anywhere in the live
        // range, so the dead prefix is cut dozens of times, compared by
        // live slice and by dropped entry after every step.
        #[test]
        fn a_window_is_a_capped_deque(
            steps in prop::collection::vec((any::<bool>(), 0usize..9, any::<u32>()), 200..400)
        ) {
            const CAP: usize = 8;
            let mut window = Window::new(CAP);
            let mut deque = VecDeque::new();
            let capacity = window.buf.capacity();
            for &(push, at, value) in &steps {
                let dropped = if push {
                    deque.push_back(value);
                    window.push_back(value)
                } else {
                    let at = at.min(deque.len());
                    deque.insert(at, value);
                    window.insert(at, value)
                };
                let expected = if deque.len() > CAP { deque.pop_front() } else { None };
                prop_assert_eq!(dropped, expected);
                prop_assert_eq!(&window[..], deque.make_contiguous() as &[u32]);
            }
            prop_assert_eq!(window.buf.capacity(), capacity, "reserved once");
            let clone = window.clone();
            prop_assert_eq!(&clone[..], &window[..]);
            prop_assert_eq!(clone.buf.capacity(), capacity, "and a clone as well");
        }
    }
}
