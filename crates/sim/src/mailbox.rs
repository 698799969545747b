//! Sharded lock-free mailboxes: one SPSC ring per (sender, receiver) pair.
//!
//! A single channel per PE would funnel every message for that PE through
//! one mutex-protected queue whose lock all senders and the receiver
//! contend on, and whose condvar wakeup path made tree_d15 marking
//! *slower* past 4 PEs in the first threaded runtime. This grid uses
//! `n²` single-producer single-consumer rings instead: PE `s` sending
//! to PE `d` touches only ring `(s, d)`, so two senders to the same
//! destination never contend on anything, and a delivery is one Release
//! store observed by one Acquire load — no locks, no syscalls, no condvar.
//!
//! Rings are **bounded** and `push` never blocks: a full ring returns the
//! task to the sender, who keeps it in a private per-destination stage and
//! retries on its next idle beat. A blocked sender holding its own ring
//! space is how bounded mailbox meshes deadlock (A full toward B, B full
//! toward A, both waiting); returning instead of blocking makes the mesh
//! deadlock-free by construction, at the cost of the small stage vector.
//!
//! Like the deque, the ring is generic over the [`Atomics`] facade so the
//! deterministic model checker can explore its two release/acquire edges
//! under the weak-memory shim — including the seeded mutation at
//! [`Site::MailboxTailPublish`], which lets a consumer observe a fresh
//! tail whose head-of-ring cell is still stale.

use dgr_atomic::{AtomicU64Api, Atomics, Ordering, Site, StdAtomics};

/// One single-producer single-consumer bounded ring of `u64` tasks.
///
/// `head`/`tail` are monotonic; the producer owns `tail`, the consumer
/// owns `head`, and each reads the other's index with Acquire to pair
/// with its Release publication.
#[derive(Debug)]
pub struct SpscRing<A: Atomics = StdAtomics> {
    buf: Box<[A::U64]>,
    mask: u64,
    /// Next index the consumer will read (written only by the consumer).
    head: A::U64,
    /// Next index the producer will write (written only by the producer).
    tail: A::U64,
}

impl<A: Atomics> SpscRing<A> {
    /// Builds a ring with `capacity` slots (rounded up to a power of two,
    /// minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        SpscRing {
            buf: (0..cap).map(|_| A::U64::new(0)).collect(),
            mask: (cap - 1) as u64,
            head: A::U64::new(0),
            tail: A::U64::new(0),
        }
    }

    /// Producer-only: appends a task, or returns it if the ring is full.
    pub fn push(&self, task: u64) -> Result<(), u64> {
        let t = self.tail.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the consumer's Release head bump —
        // seeing the freed slots means the consumer's cell reads are
        // done, so overwriting them after the full-check is safe. (A
        // stale head only under-reports room: the push conservatively
        // returns Err and the sender stages, never a correctness issue.)
        let h = self.head.load(Ordering::Acquire);
        if t - h >= self.buf.len() as u64 {
            return Err(task);
        }
        self.buf[(t & self.mask) as usize].store(task, Ordering::Relaxed);
        // ordering: Release publishes the cell write above to the
        // consumer's Acquire load of `tail`. The seeded mutation at
        // `Site::MailboxTailPublish` relaxes this store, letting the
        // consumer drain a stale head-of-ring cell — `dgr-check
        // --atomics` must catch it.
        self.tail
            .store(t + 1, A::remap(Site::MailboxTailPublish, Ordering::Release));
        Ok(())
    }

    /// Consumer-only: moves every currently-visible task into `out`.
    pub fn drain(&self, out: &mut Vec<u64>) -> usize {
        let h = self.head.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the producer's Release tail bump,
        // making every cell in `h..t` visible before it is read.
        let t = self.tail.load(Ordering::Acquire);
        let mut i = h;
        while i < t {
            out.push(self.buf[(i & self.mask) as usize].load(Ordering::Relaxed));
            i += 1;
        }
        if t != h {
            // ordering: Release frees the slots for the producer's
            // Acquire room-check — the cell reads above must not be
            // reorderable past this store.
            self.head.store(t, Ordering::Release);
        }
        (t - h) as usize
    }

    /// Tasks visible right now (racy; monitoring only, hence Relaxed).
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// `true` when no task is visible (racy; monitoring only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The full `n × n` mesh of SPSC rings for an `n`-PE system.
///
/// Indexing is `[receiver][sender]`, so one receiver's rings are adjacent
/// and a drain sweep walks them in order.
#[derive(Debug)]
pub struct MailboxGrid<A: Atomics = StdAtomics> {
    rings: Vec<SpscRing<A>>,
    num_pes: usize,
}

impl<A: Atomics> MailboxGrid<A> {
    /// Builds the mesh with `capacity` slots per (sender, receiver) ring.
    pub fn new(num_pes: usize, capacity: usize) -> Self {
        MailboxGrid {
            rings: (0..num_pes * num_pes)
                .map(|_| SpscRing::new(capacity))
                .collect(),
            num_pes,
        }
    }

    fn ring(&self, src: usize, dst: usize) -> &SpscRing<A> {
        &self.rings[dst * self.num_pes + src]
    }

    /// PE `src` sends `task` to PE `dst`; returns the task if the ring is
    /// full (the caller stages and retries — see the module docs). Only
    /// PE `src`'s thread may call this for a given `src`.
    pub fn push(&self, src: usize, dst: usize, task: u64) -> Result<(), u64> {
        self.ring(src, dst).push(task)
    }

    /// PE `dst` drains every task currently visible from any sender into
    /// `out`, returning how many arrived. Only PE `dst`'s thread may call
    /// this for a given `dst`.
    pub fn drain(&self, dst: usize, out: &mut Vec<u64>) -> usize {
        let mut total = 0;
        for src in 0..self.num_pes {
            total += self.ring(src, dst).drain(out);
        }
        total
    }

    /// Approximate number of tasks waiting for PE `dst` (monitoring only).
    pub fn depth(&self, dst: usize) -> usize {
        (0..self.num_pes).map(|src| self.ring(src, dst).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_roundtrips_in_order() {
        let grid: MailboxGrid = MailboxGrid::new(2, 16);
        for v in 0..5 {
            grid.push(0, 1, v).unwrap();
        }
        grid.push(1, 1, 100).unwrap();
        let mut out = Vec::new();
        assert_eq!(grid.drain(1, &mut out), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 100]);
        assert_eq!(grid.drain(1, &mut out), 0, "drained empty");
        assert_eq!(grid.depth(1), 0);
    }

    #[test]
    fn full_ring_returns_the_task() {
        let grid: MailboxGrid = MailboxGrid::new(2, 8);
        for v in 0..8 {
            grid.push(0, 1, v).unwrap();
        }
        assert_eq!(grid.push(0, 1, 8), Err(8));
        assert_eq!(grid.push(1, 1, 9), Ok(()), "other sender's ring has room");
        let mut out = Vec::new();
        grid.drain(1, &mut out);
        assert_eq!(grid.push(0, 1, 8), Ok(()), "room after drain");
    }

    #[test]
    fn senders_to_one_destination_do_not_interfere() {
        // 3 senders × 10_000 tasks each into PE 0, concurrent with the
        // consumer draining: every task arrives exactly once.
        const PER: u64 = 10_000;
        let grid: MailboxGrid = MailboxGrid::new(4, 64);
        let mut seen = vec![0u32; (3 * PER) as usize];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for s in 1..4u64 {
                let grid = &grid;
                handles.push(scope.spawn(move || {
                    for i in 0..PER {
                        let task = (s - 1) * PER + i;
                        let mut t = task;
                        loop {
                            match grid.push(s as usize, 0, t) {
                                Ok(()) => break,
                                Err(back) => {
                                    t = back;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                }));
            }
            let mut out = Vec::new();
            let mut got = 0u64;
            while got < 3 * PER {
                out.clear();
                got += grid.drain(0, &mut out) as u64;
                for &v in &out {
                    seen[v as usize] += 1;
                }
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(seen.iter().all(|&c| c == 1));
    }
}
