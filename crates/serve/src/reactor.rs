//! The epoll reactor: one thread multiplexing every connection.
//!
//! The event loop owns all socket I/O — accepting, incremental request
//! parsing, response writing — over nonblocking sockets and a single
//! `epoll` instance, so thousands of idle keep-alive connections cost a
//! few hundred bytes of state each and zero threads. Compute never runs
//! here: admission (`routes::dispatch`) classifies each request by what
//! the suite already knows about its cost and either answers it inline
//! (warm memo hits render in microseconds), or submits it to the replay
//! or cold lane's bounded worker pool. Workers hand finished responses
//! back through a completion queue and ring an eventfd; the reactor
//! writes them out on its next wakeup.
//!
//! `/v1/run` misses dedup at this layer: the first request for a key
//! creates an in-flight job, and every concurrent request for the same
//! key *attaches* to it (`serve.dedup_attached`) instead of queuing a
//! duplicate — all waiters receive the one rendered response.
//!
//! Graceful drain: on shutdown the listener closes, idle connections
//! drop, and the loop keeps delivering until no job is in flight and no
//! response byte is owed — then the pools join and `run` returns.

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use softwatt::experiments::RunKey;

use crate::conn::{Conn, Expiry, ReadOutcome, Timeouts};
use crate::http::{Limits, ParseError, Response};
use crate::pool::Pool;
use crate::routes::{self, Ctx, Lane, Outcome, Route, RETRY_AFTER_S};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::ServeConfig;

/// Token for the accept socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the completion-queue eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// A finished compute job on its way back to the reactor.
pub(crate) enum Done {
    /// A deduped `/v1/run` job: fan the response out to every waiter.
    Keyed {
        /// The dedup identity.
        key: RunKey,
        /// The rendered response (cloned per waiter).
        resp: Response,
    },
    /// A keyless job (batch, figure) for one specific connection.
    Direct {
        /// The waiting connection's token.
        token: u64,
        /// The rendered response.
        resp: Response,
    },
}

/// The worker→reactor completion channel: a mutexed queue plus the
/// eventfd that wakes the epoll loop.
pub(crate) struct Completions {
    queue: Mutex<Vec<Done>>,
    wake: Arc<WakeFd>,
}

impl Completions {
    pub(crate) fn new(wake: Arc<WakeFd>) -> Completions {
        Completions {
            queue: Mutex::new(Vec::new()),
            wake,
        }
    }

    pub(crate) fn push(&self, done: Done) {
        self.queue.lock().expect("completions lock").push(done);
        self.wake.ring();
    }

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.queue.lock().expect("completions lock"))
    }
}

/// One in-flight deduped `/v1/run` job.
struct InflightJob {
    /// Connections awaiting this key's response.
    waiters: Vec<u64>,
}

/// The event loop. Constructed by `Server::run` and consumed by
/// [`Reactor::run`].
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Currently-registered epoll interest per connection.
    interests: HashMap<u64, u32>,
    next_token: u64,
    ctx: Arc<Ctx>,
    limits: Limits,
    timeouts: Timeouts,
    max_connections: usize,
    replay: Arc<Pool>,
    cold: Arc<Pool>,
    fabric: Arc<Pool>,
    completions: Arc<Completions>,
    inflight: HashMap<RunKey, InflightJob>,
    pending_jobs: usize,
    draining: bool,
    scratch: Vec<u8>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        ctx: Arc<Ctx>,
        config: &ServeConfig,
        replay: Arc<Pool>,
        cold: Arc<Pool>,
        fabric: Arc<Pool>,
        completions: Arc<Completions>,
    ) -> std::io::Result<Reactor> {
        Ok(Reactor {
            epoll: Epoll::new()?,
            listener: Some(listener),
            conns: HashMap::new(),
            interests: HashMap::new(),
            next_token: 0,
            ctx,
            limits: Limits {
                max_body_bytes: config.max_body_bytes,
                ..Limits::default()
            },
            timeouts: Timeouts {
                read: config.read_timeout,
                write: config.write_timeout,
                idle: config.idle_timeout,
            },
            max_connections: config.max_connections,
            replay,
            cold,
            fabric,
            completions,
            inflight: HashMap::new(),
            pending_jobs: 0,
            draining: false,
            scratch: vec![0u8; 16 * 1024],
        })
    }

    /// Runs until shutdown is triggered and the drain completes.
    pub(crate) fn run(mut self) {
        let listener_fd = self.listener.as_ref().expect("listener").as_raw_fd();
        self.epoll
            .add(listener_fd, EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
        self.epoll
            .add(self.completions.wake.fd(), EPOLLIN, TOKEN_WAKE)
            .expect("register wake eventfd");

        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.ctx.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.pending_jobs == 0 && self.conns.is_empty() {
                break;
            }
            let timeout = self.poll_timeout();
            let n = self.epoll.wait(&mut events, timeout);
            let now = Instant::now();
            for ev in &events[..n] {
                let token = ev.data;
                let mask = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKE => self.completions.wake.drain(),
                    token => self.conn_event(token, mask, now),
                }
            }
            self.deliver_completions(now);
            self.reap_expired(now);
        }

        // Drained: every response delivered, every connection closed.
        self.replay.shutdown();
        self.cold.shutdown();
        self.fabric.shutdown();
    }

    /// Milliseconds until the nearest connection deadline (rounded up),
    /// capped so the shutdown flag is re-checked even without events.
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        let cap: u128 = if self.draining { 50 } else { 500 };
        let mut nearest = cap;
        for conn in self.conns.values() {
            if let Some((deadline, _)) = conn.deadline(&self.timeouts) {
                let ms = deadline.saturating_duration_since(now).as_millis() + 1;
                nearest = nearest.min(ms);
            }
        }
        nearest as i32
    }

    /// Accepts everything pending on the listener.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    if self.conns.len() >= self.max_connections {
                        // Over the cap: one-shot 503 into the (empty)
                        // send buffer and close.
                        softwatt_obs::count("serve.connections.refused", 1);
                        let _ = crate::http::write_response(
                            &mut stream,
                            &Response::overloaded(RETRY_AFTER_S),
                            true,
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::new(stream, now);
                    if self.epoll.add(conn.fd(), EPOLLIN, token).is_err() {
                        continue;
                    }
                    self.conns.insert(token, conn);
                    self.interests.insert(token, EPOLLIN);
                    softwatt_obs::count("serve.connections.accepted", 1);
                    softwatt_obs::gauge_set("serve.connections.open", self.conns.len() as f64);
                    softwatt_obs::gauge_raise(
                        "serve.connections.open_max",
                        self.conns.len() as f64,
                    );
                }
                Err(_) => return, // WouldBlock or transient: next event retries
            }
        }
    }

    /// Handles one readiness event for a connection.
    fn conn_event(&mut self, token: u64, mask: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.drop_conn(token);
            return;
        }
        if mask & EPOLLOUT != 0 && conn.has_pending_write() {
            match conn.try_write(now) {
                Ok(flushed) => {
                    if flushed && conn.close_after_flush {
                        self.drop_conn(token);
                        return;
                    }
                }
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        if mask & EPOLLIN != 0 {
            let conn = self.conns.get_mut(&token).expect("conn exists");
            match conn.try_read(&mut self.scratch, now) {
                ReadOutcome::Broken => {
                    self.drop_conn(token);
                    return;
                }
                ReadOutcome::PeerClosed => {
                    // EOF. Anything owed (a busy compute job, buffered
                    // response bytes) still gets delivered — half-close
                    // peers read their answer; otherwise close now. A
                    // partial request truncated by EOF can never
                    // complete, so it closes too.
                    if !conn.busy && !conn.has_pending_write() {
                        self.drop_conn(token);
                        return;
                    }
                }
                ReadOutcome::Progress => {}
            }
            self.pump(token, now);
        }
        self.update_interest(token);
    }

    /// Parses and dispatches every complete request buffered on `token`,
    /// stopping at a compute dispatch (response ordering), a close, or
    /// buffer exhaustion; then flushes greedily.
    fn pump(&mut self, token: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.close_after_flush {
                break;
            }
            let req = match conn.next_request(&self.limits) {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(err) => {
                    let resp = match err {
                        ParseError::BodyTooLarge => {
                            Response::error(413, "body_too_large", "request body exceeds limit")
                        }
                        ParseError::Malformed(msg) => {
                            Response::error(400, "malformed_request", msg)
                        }
                    };
                    softwatt_obs::count(status_counter(resp.status), 1);
                    conn.push_response(&resp, true);
                    break;
                }
            };
            let route = Route::of(&req.target);
            softwatt_obs::count(route.counter(), 1);
            let started = Instant::now();
            let outcome = routes::dispatch(&self.ctx, route, &req);
            // After dispatch on purpose: `/admin/shutdown` flips the
            // flag mid-dispatch, and its own response must carry the
            // `Connection: close` it just caused.
            let close =
                req.wants_close() || self.draining || self.ctx.shutdown.load(Ordering::SeqCst);
            match outcome {
                Outcome::Ready(resp) => {
                    let us = started.elapsed().as_micros() as u64;
                    softwatt_obs::observe(route.latency(), us);
                    softwatt_obs::count(status_counter(resp.status), 1);
                    // The inline lane tallies here; the pooled lanes
                    // tally in `deliver`.
                    if resp.lane == Some(Lane::Inline.label()) {
                        softwatt_obs::count(Lane::Inline.served(), 1);
                        softwatt_obs::observe(Lane::Inline.latency(), us);
                    }
                    let conn = self.conns.get_mut(&token).expect("conn exists");
                    conn.push_response(&resp, close);
                    if close {
                        break;
                    }
                }
                Outcome::Shared { lane, key } => {
                    self.submit_shared(token, lane, key, route, close, started);
                }
                Outcome::Work { lane, work } => {
                    self.submit_work(token, lane, work, route, close, started);
                }
            }
        }
        match self.conns.get_mut(&token).map(|c| c.try_write(now)) {
            Some(Ok(flushed)) => {
                if flushed {
                    if let Some(conn) = self.conns.get(&token) {
                        if conn.close_after_flush {
                            self.drop_conn(token);
                            return;
                        }
                    }
                }
            }
            Some(Err(_)) => {
                self.drop_conn(token);
                return;
            }
            None => return,
        }
        self.update_interest(token);
    }

    /// Marks `token` as awaiting a compute response.
    fn mark_pending(&mut self, token: u64, lane: Lane, route: Route, close: bool, since: Instant) {
        let conn = self.conns.get_mut(&token).expect("conn exists");
        conn.busy = true;
        conn.pending_since = Some(since);
        conn.pending_route = Some(route);
        conn.pending_lane = Some(lane);
        conn.pending_close = close;
    }

    /// Clears the pending state after a refused submission.
    fn unmark_pending(&mut self, token: u64) {
        let conn = self.conns.get_mut(&token).expect("conn exists");
        conn.busy = false;
        conn.pending_since = None;
        conn.pending_route = None;
        conn.pending_lane = None;
        conn.pending_close = false;
    }

    /// Submits (or attaches to) a deduped `/v1/run` job.
    fn submit_shared(
        &mut self,
        token: u64,
        lane: Lane,
        key: RunKey,
        route: Route,
        close: bool,
        started: Instant,
    ) {
        self.mark_pending(token, lane, route, close, started);
        if let Some(job) = self.inflight.get_mut(&key) {
            // The same key is already computing: attach, don't queue.
            job.waiters.push(token);
            softwatt_obs::count("serve.dedup_attached", 1);
            return;
        }
        let pool = match lane {
            Lane::Cold => &self.cold,
            _ => &self.replay,
        };
        let ctx = Arc::clone(&self.ctx);
        let completions = Arc::clone(&self.completions);
        let submitted = pool.try_submit(Box::new(move || {
            let resp = contain(|| routes::run_response(&ctx, key, lane));
            completions.push(Done::Keyed { key, resp });
        }));
        match submitted {
            Ok(()) => {
                self.inflight.insert(
                    key,
                    InflightJob {
                        waiters: vec![token],
                    },
                );
                self.pending_jobs += 1;
            }
            Err(_) => self.bounce(token, lane, route, close, started),
        }
    }

    /// Submits a keyless compute job (batch, figure).
    fn submit_work(
        &mut self,
        token: u64,
        lane: Lane,
        work: Box<dyn FnOnce() -> Response + Send + 'static>,
        route: Route,
        close: bool,
        started: Instant,
    ) {
        self.mark_pending(token, lane, route, close, started);
        // Peer trace transfers get their own pool: a transfer only ever
        // computes locally, so it must never queue behind cold jobs that
        // may themselves be blocked fetching from a *remote* peer —
        // sharing the cold pool would deadlock two peered servers
        // fetching from each other (see `DESIGN.md` §14).
        let pool = if route == Route::Traces {
            &self.fabric
        } else {
            match lane {
                Lane::Cold => &self.cold,
                _ => &self.replay,
            }
        };
        let completions = Arc::clone(&self.completions);
        let submitted = pool.try_submit(Box::new(move || {
            let resp = contain(work);
            completions.push(Done::Direct { token, resp });
        }));
        match submitted {
            Ok(()) => self.pending_jobs += 1,
            Err(_) => self.bounce(token, lane, route, close, started),
        }
    }

    /// Answers a refused submission with the backpressure `503`. The
    /// connection stays usable (inline routes and other lanes are
    /// unaffected by one full queue).
    fn bounce(&mut self, token: u64, lane: Lane, route: Route, close: bool, started: Instant) {
        self.unmark_pending(token);
        let resp = Response::overloaded(RETRY_AFTER_S).with_lane(lane.label());
        softwatt_obs::observe(route.latency(), started.elapsed().as_micros() as u64);
        softwatt_obs::count(status_counter(resp.status), 1);
        let conn = self.conns.get_mut(&token).expect("conn exists");
        conn.push_response(&resp, close);
    }

    /// Drains the completion queue, fanning responses out to waiters.
    fn deliver_completions(&mut self, now: Instant) {
        for done in self.completions.drain() {
            match done {
                Done::Keyed { key, resp } => {
                    let Some(job) = self.inflight.remove(&key) else {
                        continue;
                    };
                    self.pending_jobs -= 1;
                    for (i, token) in job.waiters.iter().enumerate() {
                        if i + 1 == job.waiters.len() {
                            // Last waiter takes the original, no clone.
                            self.deliver(*token, resp, now);
                            break;
                        }
                        self.deliver(*token, resp.clone(), now);
                    }
                }
                Done::Direct { token, resp } => {
                    self.pending_jobs -= 1;
                    self.deliver(token, resp, now);
                }
            }
        }
    }

    /// Writes one compute response to its connection and resumes any
    /// pipelined requests behind it.
    fn deliver(&mut self, token: u64, resp: Response, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            // The connection died while its job ran (timeout reap,
            // transport error): the work still warmed the memo for
            // everyone else; the response just has nowhere to go.
            softwatt_obs::count("serve.responses.orphaned", 1);
            return;
        };
        let close = conn.pending_close || self.draining || conn.peer_closed;
        if let (Some(since), Some(route), Some(lane)) = (
            conn.pending_since.take(),
            conn.pending_route.take(),
            conn.pending_lane.take(),
        ) {
            let us = since.elapsed().as_micros() as u64;
            softwatt_obs::observe(route.latency(), us);
            softwatt_obs::observe(lane.latency(), us);
            softwatt_obs::count(lane.served(), 1);
        }
        softwatt_obs::count(status_counter(resp.status), 1);
        conn.busy = false;
        conn.pending_close = false;
        conn.push_response(&resp, close);
        self.pump(token, now);
    }

    /// Reaps connections whose state deadline has passed.
    fn reap_expired(&mut self, now: Instant) {
        let mut expired: Vec<(u64, Expiry)> = Vec::new();
        for (&token, conn) in &self.conns {
            if let Some((deadline, why)) = conn.deadline(&self.timeouts) {
                if now >= deadline {
                    expired.push((token, why));
                }
            }
        }
        for (token, why) in expired {
            match why {
                Expiry::Idle => {
                    softwatt_obs::count("serve.conns.reaped_idle", 1);
                }
                Expiry::PartialRequest => {
                    // Slow loris: the head stopped arriving. One 408,
                    // best-effort write, close — no worker was ever
                    // involved and none is now.
                    softwatt_obs::count("serve.conns.reaped_partial", 1);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let resp = Response::error(408, "timeout", "request not received in time");
                        softwatt_obs::count(status_counter(408), 1);
                        conn.push_response(&resp, true);
                        let _ = conn.try_write(now);
                    }
                }
                Expiry::WriteStalled => {
                    softwatt_obs::count("serve.conns.reaped_stalled", 1);
                }
            }
            self.drop_conn(token);
        }
    }

    /// Starts the drain: stop accepting, close idle connections, flag
    /// the rest to close behind their final response.
    fn begin_drain(&mut self) {
        self.draining = true;
        softwatt_obs::count("serve.shutdown.triggered", 1);
        if let Some(listener) = self.listener.take() {
            self.epoll.delete(listener.as_raw_fd());
            drop(listener);
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && !c.has_pending_write())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.drop_conn(token);
        }
        for conn in self.conns.values_mut() {
            if !conn.busy {
                conn.close_after_flush = true;
            }
        }
    }

    /// Re-registers a connection's epoll interest if its state changed.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let want = conn.interest();
        if self.interests.get(&token) != Some(&want)
            && self.epoll.modify(conn.fd(), want, token).is_ok()
        {
            self.interests.insert(token, want);
        }
    }

    /// Closes and forgets one connection.
    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.fd());
        }
        self.interests.remove(&token);
        softwatt_obs::gauge_set("serve.connections.open", self.conns.len() as f64);
    }
}

/// Static counter name for a status class (static names keep the obs
/// registry allocation-free).
pub(crate) fn status_counter(status: u16) -> &'static str {
    match status {
        200..=299 => "serve.responses.2xx",
        503 => "serve.responses.503",
        400..=499 => "serve.responses.4xx",
        _ => "serve.responses.5xx",
    }
}

/// Runs one compute job, turning a panic into a `500 internal` answer
/// (counted as `serve.job_panics`). The job still completes: its waiters
/// are answered, the drain's in-flight count still falls to zero, and the
/// lane keeps its worker.
fn contain(work: impl FnOnce() -> Response) -> Response {
    panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| {
        softwatt_obs::count("serve.job_panics", 1);
        Response::error(500, "internal", "the request's computation failed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_answers_500_internal() {
        let resp = contain(|| panic!("job failed"));
        assert_eq!(resp.status, 500);
        assert!(resp.body.contains("\"internal\""), "{}", resp.body);
        let ok = contain(|| Response::json(200, "{}".to_string()));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn status_counters_are_static() {
        assert_eq!(status_counter(200), "serve.responses.2xx");
        assert_eq!(status_counter(404), "serve.responses.4xx");
        assert_eq!(status_counter(408), "serve.responses.4xx");
        assert_eq!(status_counter(503), "serve.responses.503");
        assert_eq!(status_counter(500), "serve.responses.5xx");
    }
}
