//! Work-conserving request batching.
//!
//! A [`BatchQueue`] is a bounded MPMC queue of jobs with a
//! batch-collecting consumer side: a worker blocks only while the
//! queue is empty, then drains whatever is queued, up to `max_batch`
//! jobs, and runs it. A lone request is never held back waiting for
//! company; batches form under load because jobs pile up while the
//! worker is busy with the previous batch.
//!
//! The queue's backing `VecDeque` is allocated once at the bound and
//! never grows (admission is capped by the shard's slot table, which is
//! the same bound), so pushes and batch drains are allocation-free.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

// Adopting poison is safe here: queue state is a `VecDeque` plus a
// flag, and every mutation below is panic-atomic, so the contents stay
// coherent even if a holder died.
use hopspan_pipeline::{lock_resilient, wait_resilient};

use crate::Op;

/// One queued request: which response slot it answers into, what to
/// do, and when it arrived (monotonic).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    /// Index into the shard's slot table.
    pub slot: u32,
    /// The request.
    pub op: Op,
    /// Monotonic enqueue time: drives the reported latency and the
    /// overrun check.
    pub enqueued: Instant,
}

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

/// A bounded queue of requests with work-conserving batch draining.
#[derive(Debug)]
pub struct BatchQueue {
    pending: Mutex<QueueState>,
    arrived: Condvar,
}

impl BatchQueue {
    /// A queue whose backing buffer holds `bound` jobs without
    /// reallocating.
    pub(crate) fn bounded(bound: usize) -> Self {
        BatchQueue {
            pending: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(bound),
                open: true,
            }),
            arrived: Condvar::new(),
        }
    }

    /// Enqueues a job; returns `false` when the queue is closed (the
    /// service is draining). Never blocks and never reallocates: the
    /// caller holds a slot, and slots bound the depth.
    pub(crate) fn push(&self, job: Job) -> bool {
        let mut st = lock_resilient(&self.pending);
        if !st.open {
            return false;
        }
        st.jobs.push_back(job);
        drop(st);
        self.arrived.notify_one();
        true
    }

    /// The current queue depth (diagnostic; racy by nature).
    pub fn depth(&self) -> usize {
        lock_resilient(&self.pending).jobs.len()
    }

    /// Closes the queue: no further pushes are admitted, and workers
    /// return from [`BatchQueue::next_batch`] once the backlog drains.
    pub(crate) fn close(&self) {
        lock_resilient(&self.pending).open = false;
        self.arrived.notify_all();
    }

    /// Blocks while the queue is empty, then drains up to `max_batch`
    /// queued jobs into `out` (cleared first) without waiting for more.
    /// Returns `false` when the queue is closed and fully drained — the
    /// worker should exit. A `true` return carries at least one job,
    /// since config validation keeps `max_batch ≥ 1`.
    pub(crate) fn next_batch(&self, max_batch: usize, out: &mut Vec<Job>) -> bool {
        out.clear();
        let mut st = lock_resilient(&self.pending);
        while st.jobs.is_empty() {
            if !st.open {
                return false;
            }
            st = wait_resilient(&self.arrived, st);
        }
        let take = st.jobs.len().min(max_batch);
        out.extend(st.jobs.drain(..take));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(slot: u32) -> Job {
        Job {
            slot,
            op: Op::Stats,
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn full_batch_flushes_without_waiting() {
        let q = BatchQueue::bounded(8);
        for s in 0..4 {
            assert!(q.push(job(s)));
        }
        let mut out = Vec::new();
        let t0 = Instant::now();
        assert!(q.next_batch(4, &mut out));
        assert_eq!(out.len(), 4);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a full batch must flush at once"
        );
    }

    #[test]
    fn a_lone_job_is_drained_without_waiting() {
        // The batch is far from full (1 of 64): a work-conserving drain
        // still hands the job over at once instead of holding it for
        // company.
        let q = BatchQueue::bounded(8);
        assert!(q.push(job(0)));
        let mut out = Vec::new();
        let t0 = Instant::now();
        assert!(q.next_batch(64, &mut out));
        assert_eq!(out.len(), 1);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a lone job must not wait for a batch to fill"
        );
    }

    #[test]
    fn a_backlog_drains_fifo_in_max_batch_chunks() {
        let q = BatchQueue::bounded(32);
        for s in 0..20 {
            assert!(q.push(job(s)));
        }
        let mut out = Vec::new();
        let mut next_slot = 0u32;
        for want in [8, 8, 4] {
            assert!(q.next_batch(8, &mut out));
            let slots: Vec<u32> = out.iter().map(|j| j.slot).collect();
            let expect: Vec<u32> = (next_slot..next_slot + want).collect();
            assert_eq!(slots, expect, "drains are FIFO, max_batch at a time");
            next_slot += want;
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BatchQueue::bounded(8);
        assert!(q.push(job(0)));
        q.close();
        assert!(!q.push(job(1)), "a closed queue admits nothing");
        let mut out = Vec::new();
        assert!(q.next_batch(4, &mut out));
        assert_eq!(out.len(), 1, "the backlog drains before exit");
        assert!(!q.next_batch(4, &mut out));
    }
}
