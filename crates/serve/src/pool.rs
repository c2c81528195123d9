//! Fixed worker pools with bounded queues, one per admission lane.
//!
//! The reactor thread does all socket I/O; compute lands here. Each lane
//! (replay, cold) owns its own pool, so a multi-second cold simulation
//! queue can saturate without delaying cheap replays. A queue has a hard
//! capacity, and [`Pool::try_submit`] refuses work instead of blocking —
//! that refusal is the backpressure signal the HTTP layer turns into a
//! `503` + `Retry-After`. Shutdown is graceful by construction: workers
//! drain everything already accepted, then exit.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// A unit of queued work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// One lane's static identity: metric names (static names keep the obs
/// registry allocation-free) plus its workers' scheduling niceness.
#[derive(Debug)]
pub struct LaneMetrics {
    /// Worker-thread name prefix.
    pub thread_prefix: &'static str,
    /// Gauge: current queue depth.
    pub depth: &'static str,
    /// Gauge: maximum queue depth ever observed (high-water mark).
    pub depth_max: &'static str,
    /// Counter: jobs refused by a full (or draining) queue.
    pub rejected: &'static str,
    /// How many `nice` steps the lane's workers drop below the reactor.
    pub nice: i32,
}

/// The replay lane: cheap trace replays and memoized figure renders.
pub static REPLAY_LANE: LaneMetrics = LaneMetrics {
    thread_prefix: "serve-replay",
    depth: "serve.lane.replay.queue_depth",
    depth_max: "serve.lane.replay.queue_depth_max",
    rejected: "serve.lane.replay.rejected",
    nice: 0,
};

/// The cold lane: full multi-second simulations. Its workers run niced
/// so a saturated core still schedules the reactor (and the replay
/// lane) promptly — cold work is throughput, not latency.
pub static COLD_LANE: LaneMetrics = LaneMetrics {
    thread_prefix: "serve-cold",
    depth: "serve.lane.cold.queue_depth",
    depth_max: "serve.lane.cold.queue_depth_max",
    rejected: "serve.lane.cold.rejected",
    nice: 10,
};

/// The fabric lane: `/v1/traces` transfers to peer servers. Deliberately
/// separate from the cold pool — a transfer job only ever computes
/// locally (the serving path never peer-fetches), so this pool always
/// makes progress even when every cold worker is blocked waiting on a
/// remote peer. Sharing the cold pool would deadlock two peered servers
/// fetching from each other (see `DESIGN.md` §14).
pub static FABRIC_LANE: LaneMetrics = LaneMetrics {
    thread_prefix: "serve-fabric",
    depth: "serve.lane.fabric.queue_depth",
    depth_max: "serve.lane.fabric.queue_depth_max",
    rejected: "serve.lane.fabric.rejected",
    nice: 10,
};

/// Returned by [`Pool::try_submit`] when the bounded queue is full or the
/// pool is draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

struct State {
    queue: VecDeque<Job>,
    capacity: usize,
    draining: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    metrics: &'static LaneMetrics,
}

/// A fixed-size worker pool over a bounded FIFO queue.
pub struct Pool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawns `workers` threads sharing a queue of at most `capacity`
    /// pending jobs (both clamped to at least 1), reporting under the
    /// lane's metric names.
    pub fn new(metrics: &'static LaneMetrics, workers: usize, capacity: usize) -> Pool {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                draining: false,
            }),
            work_ready: Condvar::new(),
            metrics,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("{}-{i}", metrics.thread_prefix))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues `job` if there is room, without blocking.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue is at capacity or the pool is draining;
    /// the job is returned unexecuted inside the error path (dropped).
    pub fn try_submit(&self, job: Job) -> Result<(), QueueFull> {
        let metrics = self.inner.metrics;
        let mut state = self.inner.state.lock().expect("pool lock");
        if state.draining || state.queue.len() >= state.capacity {
            softwatt_obs::count(metrics.rejected, 1);
            return Err(QueueFull);
        }
        state.queue.push_back(job);
        let depth = state.queue.len() as f64;
        softwatt_obs::gauge_set(metrics.depth, depth);
        softwatt_obs::gauge_raise(metrics.depth_max, depth);
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(())
    }

    /// Stops accepting work, runs everything already queued, and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("pool lock");
            state.draining = true;
        }
        self.inner.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    crate::sys::lower_thread_priority(inner.metrics.nice);
    let mut state = inner.state.lock().expect("pool lock");
    loop {
        if let Some(job) = state.queue.pop_front() {
            softwatt_obs::gauge_set(inner.metrics.depth, state.queue.len() as f64);
            drop(state);
            // The reactor's jobs answer their own panics; this backstop
            // keeps the worker (and a later `join`) alive for any other.
            if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                softwatt_obs::count("serve.job_panics", 1);
            }
            state = inner.state.lock().expect("pool lock");
            continue;
        }
        if state.draining {
            return;
        }
        state = inner.work_ready.wait(state).expect("pool lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let pool = Pool::new(&REPLAY_LANE, 2, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = Pool::new(&COLD_LANE, 1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picks up the blocking job");
        // ...fill the queue's single slot...
        pool.try_submit(Box::new(|| {})).unwrap();
        // ...and the next submit must bounce immediately.
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(QueueFull));
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_keeps_its_worker() {
        let pool = Pool::new(&COLD_LANE, 1, 16);
        pool.try_submit(Box::new(|| panic!("job failed"))).unwrap();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || done_tx.send(()).unwrap()))
            .unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the only worker survives to run the next job");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let pool = Pool::new(&REPLAY_LANE, 1, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(10));
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 4, "queued jobs drain");
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(QueueFull));
        pool.shutdown(); // idempotent
    }
}
