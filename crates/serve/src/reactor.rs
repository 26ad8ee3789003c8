//! The sharded, shared-nothing event loop that replaced
//! thread-per-connection serving.
//!
//! # Architecture
//!
//! One **acceptor** thread accepts connections and pins each to a
//! **reactor shard** (round-robin) for the connection's whole life. A
//! shard is one thread running one [`Poller`] (epoll) over its own
//! connections; shards share nothing on the read/parse/respond path —
//! no cross-shard locks, no cross-shard queues, no per-request thread.
//!
//! Each connection owns a [`LineFramer`] and a [`WriteBuf`]
//! (grow-once, recycled across keep-alive requests). When a complete
//! line arrives, the shard calls the [`LineHandler`]:
//!
//! - fast requests (ping, stats, cache hits, protocol errors) are
//!   **answered inline**: the handler renders into the connection's
//!   reusable scratch buffer and returns [`Outcome::Replied`];
//! - expensive requests hand their [`Completion`] to the planning
//!   worker pool and return [`Outcome::Deferred`]. A worker later calls
//!   [`Completion::fulfill`]; the response travels through the owning
//!   shard's inbox, the shard is woken by its [`Waker`] eventfd, and
//!   the bytes go out on the same reactor thread that owns the socket.
//!
//! A `generation` counter per connection slot guards the deferred
//! path: if the client disconnects while its job is queued, the slot's
//! generation advances and the late completion is dropped instead of
//! being written to whoever reused the slot.
//!
//! # Backpressure
//!
//! A connection whose peer stops reading accumulates bytes in its
//! `WriteBuf`; past a high watermark the shard stops *reading* from
//! that connection (read interest is dropped) until the buffer drains
//! below a low watermark. A slow or malicious reader therefore
//! backpressures itself, never the reactor or other connections.
//!
//! # Shutdown
//!
//! Raising the shared shutdown flag stops the acceptor, then each
//! shard drains: connections with in-flight deferred work or unflushed
//! bytes get their replies written and flushed; idle connections close
//! immediately; everything is force-closed after a 10 s drain timeout
//! (`DRAIN_TIMEOUT`).

use crate::epoll::{Event, Interest, Poller, Waker};
use crate::frame::{LineFramer, WriteBuf};
use crate::protocol;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked loops re-check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long shutdown waits for in-flight connections to drain before
/// force-closing them.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Epoll token reserved for the shard's waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Stop reading from a connection once this many unflushed response
/// bytes pile up...
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// ...and resume once the backlog drains below this.
const WRITE_LOW_WATER: usize = 16 * 1024;

/// What the [`LineHandler`] did with a request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The response was rendered into the `reply` scratch buffer;
    /// write it and keep the connection open.
    Replied,
    /// As [`Replied`](Self::Replied), but close the connection once
    /// the response is flushed (e.g. a `shutdown` acknowledgement).
    RepliedClose,
    /// The handler kept the [`Completion`] (after
    /// [`Completion::defer`]) and will fulfill it from another thread.
    Deferred,
}

/// Per-line application logic plugged into the reactor. One handler
/// instance serves every shard, so it must be `Sync`; the hot path
/// should stay lock-free or short-critical-section.
pub trait LineHandler: Send + Sync + 'static {
    /// Process one complete, trimmed, non-empty request line.
    ///
    /// `reply` is the connection's reusable scratch buffer, cleared
    /// before the call: render the response into it and return
    /// [`Outcome::Replied`] / [`Outcome::RepliedClose`], or take the
    /// `completion` (via [`Completion::defer`]) and return
    /// [`Outcome::Deferred`].
    fn handle(&self, line: &str, reply: &mut String, completion: Completion) -> Outcome;
}

/// The cross-thread mailbox of one reactor shard: freshly accepted
/// connections and fulfilled completions, both delivered under one
/// short-lived lock and drained by the shard thread after a wake.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<(usize, u64, u64, String)>,
}

/// The shareable half of a shard: what acceptor threads and planning
/// workers need to hand work to it.
pub struct Shard {
    id: usize,
    inbox: Mutex<Inbox>,
    waker: Waker,
}

/// A one-shot ticket for answering a deferred request. Created by the
/// reactor for every line; becomes *armed* via [`defer`](Self::defer)
/// when the handler hands it to another thread. Dropping an armed
/// completion without fulfilling it answers the client with an error
/// (this is how a request stranded in a closing queue still gets a
/// response); dropping an unarmed one is a no-op.
pub struct Completion {
    shard: Arc<Shard>,
    slot: usize,
    generation: u64,
    /// Position of this request in the connection's pipeline; the shard
    /// releases responses to the socket strictly in `seq` order.
    seq: u64,
    deferred: bool,
}

impl Completion {
    /// The shard this connection is pinned to — used to route the job
    /// onto the matching queue stripe for shard/worker locality.
    pub fn shard_id(&self) -> usize {
        self.shard.id
    }

    /// Arm the completion for cross-thread fulfillment. Call when
    /// moving it into a queued job, *before* returning
    /// [`Outcome::Deferred`].
    pub fn defer(mut self) -> Completion {
        self.deferred = true;
        self
    }

    /// Disarm and discard: the caller answered inline after all (e.g.
    /// a failed queue push answered as `shed`).
    pub fn cancel(mut self) {
        self.deferred = false;
    }

    /// Deliver the response line to the owning connection. Safe to
    /// call from any thread; if the client already disconnected the
    /// response is dropped via the generation guard.
    pub fn fulfill(mut self, response: String) {
        self.deferred = false;
        self.send(response);
    }

    fn send(&self, response: String) {
        let mut inbox = self.shard.inbox.lock().unwrap();
        inbox
            .completions
            .push((self.slot, self.generation, self.seq, response));
        drop(inbox);
        self.shard.waker.wake();
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.deferred {
            self.send(protocol::error_response(
                &None,
                "server shut down before responding",
            ));
        }
    }
}

/// One pinned connection's state, owned exclusively by its shard.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    wbuf: WriteBuf,
    scratch: String,
    generation: u64,
    /// Deferred completions outstanding.
    pending: usize,
    /// Sequence number assigned to the next request line.
    seq_issued: u64,
    /// Sequence number of the next response to release to the socket.
    seq_next: u64,
    /// Responses that completed ahead of an earlier in-flight request,
    /// parked until their turn.
    ready: BTreeMap<u64, String>,
    /// No more reads; close once `wbuf` drains and `pending` is 0.
    closing: bool,
    /// Reads suspended by the write-backlog watermark.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    /// Queue a response under its request's sequence number, releasing
    /// it (and any parked successors) to the write buffer only once
    /// every earlier response has been written: a pipelined client sees
    /// responses in request order even when planning jobs complete out
    /// of order across the worker pool.
    fn emit(&mut self, seq: u64, response: &str) {
        if seq == self.seq_next && self.ready.is_empty() {
            self.wbuf.push_line(response);
            self.seq_next += 1;
            return;
        }
        self.ready.insert(seq, response.to_string());
        while let Some(parked) = self.ready.remove(&self.seq_next) {
            self.wbuf.push_line(&parked);
            self.seq_next += 1;
        }
    }
}

/// The default request-line bound of [`ReactorConfig::max_line`].
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Reactor construction parameters.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of reactor shards (event-loop threads).
    pub shards: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with an error and the connection is closed.
    pub max_line: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 1,
            max_line: DEFAULT_MAX_LINE,
        }
    }
}

/// A running sharded event loop. See the module docs.
pub struct Reactor {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Start the acceptor and one event-loop thread per shard over an
    /// already-bound listener. `shutdown` is shared with the caller:
    /// raising it (from any thread, including a handler) initiates the
    /// graceful drain.
    pub fn spawn(
        listener: TcpListener,
        cfg: &ReactorConfig,
        handler: Arc<dyn LineHandler>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shard_count = cfg.shards.max(1);

        let mut shards = Vec::with_capacity(shard_count);
        let mut threads = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let shard = Arc::new(Shard {
                id,
                inbox: Mutex::new(Inbox::default()),
                waker: Waker::new()?,
            });
            // Fallible setup happens here, not in the thread, so a
            // broken epoll surfaces as a spawn error.
            let poller = Poller::new()?;
            poller.add(shard.waker.raw_fd(), WAKER_TOKEN, Interest::READ)?;
            shards.push(Arc::clone(&shard));
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            let max_line = cfg.max_line;
            threads.push(
                thread::Builder::new()
                    .name(format!("smm-reactor-{id}"))
                    .spawn(move || {
                        ShardRt {
                            shard,
                            poller,
                            handler,
                            max_line,
                            conns: Vec::new(),
                            generations: Vec::new(),
                            free: Vec::new(),
                        }
                        .run(&shutdown);
                    })
                    .expect("spawn reactor shard thread"),
            );
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("smm-serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shards, &shutdown))
                .expect("spawn acceptor thread")
        };

        Ok(Reactor {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
            threads,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Block until shutdown is signalled, then join the acceptor and
    /// every shard thread (each shard drains its connections first).
    pub fn join(mut self) {
        while !self.shutdown.load(Ordering::Acquire) {
            thread::sleep(POLL_INTERVAL);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shards: &[Arc<Shard>], shutdown: &AtomicBool) {
    // The listener is polled through epoll so a connect burst is
    // accepted as fast as it arrives. Sleep-polling here would let the
    // kernel's accept backlog (128 entries by default) overflow during
    // each nap, stranding overflowed clients in SYN retransmission —
    // a one-second stall per affected connect.
    let Ok(poller) = Poller::new() else { return };
    if poller.add(listener.as_raw_fd(), 0, Interest::READ).is_err() {
        return;
    }
    let mut events = Vec::new();
    let mut next = 0usize;
    while !shutdown.load(Ordering::Acquire) {
        if poller
            .wait(&mut events, POLL_INTERVAL.as_millis() as i32)
            .is_err()
        {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shard = &shards[next % shards.len()];
                    next = next.wrapping_add(1);
                    shard.inbox.lock().unwrap().conns.push(stream);
                    shard.waker.wake();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Accept errors (EMFILE, aborted handshakes) are
                // transient: back off and keep serving the connections
                // we have.
                Err(_) => {
                    thread::sleep(POLL_INTERVAL);
                    break;
                }
            }
        }
    }
}

/// A shard's thread-local runtime: the poller and the connection slab.
struct ShardRt {
    shard: Arc<Shard>,
    poller: Poller,
    handler: Arc<dyn LineHandler>,
    max_line: usize,
    conns: Vec<Option<Conn>>,
    /// Parallel to `conns`: advanced every time a slot is vacated, so
    /// stale completions can be recognized and dropped.
    generations: Vec<u64>,
    free: Vec<usize>,
}

impl ShardRt {
    fn run(mut self, shutdown: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if self
                .poller
                .wait(&mut events, POLL_INTERVAL.as_millis() as i32)
                .is_err()
            {
                return;
            }
            let shutting = shutdown.load(Ordering::Acquire);

            // Drain the inbox every iteration: wakes coalesce, so an
            // event-less pass can still carry fresh work.
            let (new_conns, completions) = {
                let mut inbox = self.shard.inbox.lock().unwrap();
                (
                    std::mem::take(&mut inbox.conns),
                    std::mem::take(&mut inbox.completions),
                )
            };
            for stream in new_conns {
                if !shutting {
                    self.register(stream);
                }
            }
            for (slot, generation, seq, response) in completions {
                self.deliver(slot, generation, seq, &response);
            }

            for i in 0..events.len() {
                let ev = events[i];
                if ev.token == WAKER_TOKEN {
                    self.shard.waker.drain();
                    continue;
                }
                self.handle_io(ev.token as usize, ev.readable, ev.writable);
            }

            if shutting {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                if self.drain_pass(Instant::now() >= deadline) {
                    return;
                }
            }
        }
    }

    /// One shutdown-drain sweep: stop reading everywhere, close
    /// whatever is finished (or everything, when `force`). Returns
    /// `true` once no connections remain.
    fn drain_pass(&mut self, force: bool) -> bool {
        for slot in 0..self.conns.len() {
            let close_now = match self.conns[slot].as_mut() {
                Some(c) => {
                    if !c.closing {
                        c.closing = true;
                    }
                    force || (c.pending == 0 && c.wbuf.is_empty())
                }
                None => false,
            };
            if close_now {
                self.close(slot);
            } else if self.conns[slot].is_some() {
                self.update_interest(slot);
            }
        }
        self.conns.iter().all(Option::is_none)
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Nagle + delayed ACK would stall pipelined responses; every
        // response is written as one complete line anyway.
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.generations.push(0);
            self.conns.len() - 1
        });
        if self
            .poller
            .add(stream.as_raw_fd(), slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            framer: LineFramer::new(self.max_line),
            wbuf: WriteBuf::new(),
            scratch: String::new(),
            generation: self.generations[slot],
            pending: 0,
            seq_issued: 0,
            seq_next: 0,
            ready: BTreeMap::new(),
            closing: false,
            paused: false,
            interest: Interest::READ,
        });
    }

    fn close(&mut self, slot: usize) {
        if let Some(c) = self.conns[slot].take() {
            let _ = self.poller.delete(c.stream.as_raw_fd());
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.free.push(slot);
        }
    }

    /// Route a fulfilled completion to its connection — unless the
    /// slot was vacated (and possibly reused) since the job was
    /// queued, in which case the generation mismatch drops it.
    fn deliver(&mut self, slot: usize, generation: u64, seq: u64, response: &str) {
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return;
        };
        if c.generation != generation {
            return;
        }
        c.pending = c.pending.saturating_sub(1);
        c.emit(seq, response);
        self.flush(slot);
    }

    fn handle_io(&mut self, slot: usize, readable: bool, writable: bool) {
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return;
        };
        if readable && !c.closing && !c.paused {
            // One read per level-triggered event keeps per-event work
            // bounded; leftover bytes re-report on the next wait.
            match c.framer.read_from(&mut c.stream) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(_) => {
                    if !self.process_lines(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        } else if readable && c.closing {
            // Detect the peer hanging up mid-drain without consuming
            // its bytes: a zero-byte peek is EOF.
            let mut probe = [0u8; 1];
            if matches!(c.stream.peek(&mut probe), Ok(0)) {
                self.close(slot);
                return;
            }
        }
        if writable {
            self.flush(slot);
        } else if self.conns[slot].is_some() {
            self.update_interest(slot);
        }
    }

    /// Frame and dispatch every complete buffered line. Returns
    /// `false` if the connection was closed.
    fn process_lines(&mut self, slot: usize) -> bool {
        let shard = Arc::clone(&self.shard);
        let handler = Arc::clone(&self.handler);
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return false;
        };
        while !c.closing {
            match c.framer.next_line() {
                Ok(Some("")) => {}
                Ok(Some(line)) => {
                    let seq = c.seq_issued;
                    c.seq_issued += 1;
                    c.scratch.clear();
                    let completion = Completion {
                        shard: Arc::clone(&shard),
                        slot,
                        generation: c.generation,
                        seq,
                        deferred: false,
                    };
                    match handler.handle(line, &mut c.scratch, completion) {
                        Outcome::Replied => {
                            let reply = std::mem::take(&mut c.scratch);
                            c.emit(seq, &reply);
                            c.scratch = reply;
                        }
                        Outcome::RepliedClose => {
                            let reply = std::mem::take(&mut c.scratch);
                            c.emit(seq, &reply);
                            c.scratch = reply;
                            c.closing = true;
                        }
                        Outcome::Deferred => c.pending += 1,
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Oversized or non-UTF-8 line: answer an error on
                    // the way out, then close. The framer cannot
                    // resynchronize reliably, so the connection ends.
                    // The error still queues behind any in-flight
                    // responses so the pipeline stays ordered.
                    let seq = c.seq_issued;
                    c.seq_issued += 1;
                    c.emit(seq, &protocol::error_response(&None, &err.to_string()));
                    c.closing = true;
                }
            }
        }
        self.flush(slot)
    }

    /// Push pending bytes to the socket; apply watermark pausing and
    /// close-on-drain. Returns `false` if the connection was closed.
    fn flush(&mut self, slot: usize) -> bool {
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return false;
        };
        if c.wbuf.flush_to(&mut c.stream).is_err() {
            self.close(slot);
            return false;
        }
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return false;
        };
        if c.closing && c.wbuf.is_empty() && c.pending == 0 {
            self.close(slot);
            return false;
        }
        if !c.paused && c.wbuf.pending() >= WRITE_HIGH_WATER {
            c.paused = true;
        } else if c.paused && c.wbuf.pending() <= WRITE_LOW_WATER {
            c.paused = false;
        }
        self.update_interest(slot);
        true
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(Some(c)) = self.conns.get_mut(slot) else {
            return;
        };
        let desired = Interest {
            readable: !c.closing && !c.paused,
            writable: !c.wbuf.is_empty(),
        };
        if desired != c.interest
            && self
                .poller
                .modify(c.stream.as_raw_fd(), slot as u64, desired)
                .is_ok()
        {
            c.interest = desired;
        }
    }
}
