//! Shard threads: each owns an epoll loop over a private set of
//! nonblocking connections — the thread-per-core half of the ingress
//! tier.
//!
//! The acceptor hands a fresh [`TcpStream`] to exactly one shard (via
//! [`SharedShard::incoming`] plus a wake), and from then on only that
//! shard's thread touches the socket: reads, decodes, writes. The only
//! cross-thread traffic is the bounded ingress queue toward the
//! scheduler and the outbound response list back — both plain
//! mutex-guarded containers, each crossing paired with a [`WakePipe`]
//! nudge so neither side spins.
//!
//! Back-pressure is a two-stage dam:
//!
//! 1. decoded frames that do not fit the ingress queue stay in the
//!    connection's `pending` list;
//! 2. a connection holding pending frames has its `EPOLLIN` interest
//!    removed ("gated") so the level-triggered poller stops reporting
//!    it. Unread bytes accumulate in the kernel socket buffer, the TCP
//!    window closes, and the client's `write` blocks — the shed
//!    decision stays with the ⊙-priced scheduler, while the network
//!    merely slows the firehose down.
//!
//! When the scheduler drains the queue it wakes the shard, which
//! re-feeds pending frames and lifts the gate.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use gcm_obs::registry::labeled;
use gcm_obs::MetricsRegistry;

use crate::sys::{Event, Poller, WakePipe, EPOLLIN, EPOLLOUT};
use crate::wire::{encode_response, Frame, FrameDecoder, ResponseFrame, SubmitFrame};

/// Frames received over the wire.
pub const FRAMES_RX_TOTAL: &str = "gcm_net_frames_rx_total";
/// Connections whose byte stream failed to decode and were dropped.
pub const WIRE_ERRORS_TOTAL: &str = "gcm_net_wire_errors_total";
/// Connections accepted onto a shard, labelled by shard.
pub const CONNECTIONS_TOTAL: &str = "gcm_net_connections_total";
/// High-water mark of a shard's ingress queue, labelled by shard.
pub const INGRESS_DEPTH_PEAK: &str = "gcm_net_ingress_depth_peak";

/// The poller token reserved for the shard's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// One decoded submission, stamped with where it came from and when.
#[derive(Debug, Clone, Copy)]
pub struct IngressItem {
    /// Which shard owns the connection.
    pub shard: usize,
    /// Shard-local connection token, for routing the response back.
    pub conn: u64,
    /// The client's request.
    pub frame: SubmitFrame,
    /// Arrival wall-clock, server epoch nanoseconds.
    pub arrival_ns: u64,
}

/// The mailbox a shard shares with the acceptor and the scheduler.
pub struct SharedShard {
    /// Fresh sockets from the acceptor, claimed on the next loop turn.
    pub incoming: Mutex<Vec<TcpStream>>,
    /// Bounded queue of decoded submissions toward the scheduler.
    pub ingress: Mutex<VecDeque<IngressItem>>,
    /// Capacity of `ingress`; beyond it the dam closes.
    pub ingress_cap: usize,
    /// Responses from the scheduler, keyed by connection token.
    pub outbound: Mutex<Vec<(u64, ResponseFrame)>>,
    /// Nudges the shard's poll loop.
    pub wake: WakePipe,
    /// Set once: finish outstanding writes, then exit.
    pub stop: AtomicBool,
}

impl SharedShard {
    /// A mailbox for one shard.
    pub fn new(ingress_cap: usize) -> std::io::Result<SharedShard> {
        Ok(SharedShard {
            incoming: Mutex::new(Vec::new()),
            ingress: Mutex::new(VecDeque::new()),
            ingress_cap,
            outbound: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            stop: AtomicBool::new(false),
        })
    }

    /// Queue a response for delivery and nudge the loop.
    pub fn send_response(&self, conn: u64, frame: ResponseFrame) {
        self.outbound.lock().unwrap().push((conn, frame));
        self.wake.wake();
    }
}

/// Doorbell the scheduler thread sleeps on: the shards ring it when new
/// work lands in an ingress queue and the executor threads when a batch
/// member completes, so the scheduler can sleep instead of polling. A
/// ring is kept until the next [`wait`](SchedSignal::wait) consumes it,
/// so one that comes while the scheduler is busy is not lost.
#[derive(Default)]
pub struct SchedSignal {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl SchedSignal {
    /// Ring the doorbell.
    pub fn notify(&self) {
        *self.rung.lock().unwrap() = true;
        self.cv.notify_one();
    }

    /// Wait until rung — at once if it was rung since the last wait — or
    /// `timeout` elapses.
    pub fn wait(&self, timeout: std::time::Duration) {
        let rung = self.rung.lock().unwrap();
        let mut rung = self
            .cv
            .wait_timeout_while(rung, timeout, |r| !*r)
            .unwrap()
            .0;
        *rung = false;
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Decoded submissions that did not fit the ingress queue.
    pending: VecDeque<SubmitFrame>,
    /// Partially written response bytes.
    outbox: Vec<u8>,
    /// How far into `outbox` the socket has accepted.
    written: usize,
    /// Current epoll interest mask.
    interest: u32,
    /// Peer hung up; close once the outbox drains.
    eof: bool,
}

impl Conn {
    fn outbox_pending(&self) -> bool {
        self.written < self.outbox.len()
    }
}

/// Runs one shard's poll loop until [`SharedShard::stop`] is set and
/// all queued responses are flushed. `now_ns` supplies arrival stamps
/// from the server's epoch clock.
pub fn run_shard(
    shard_id: usize,
    shared: &SharedShard,
    signal: &SchedSignal,
    metrics: &MetricsRegistry,
    now_ns: impl Fn() -> u64,
) -> std::io::Result<()> {
    let poller = Poller::new()?;
    poller.add(shared.wake.read_fd(), WAKE_TOKEN, EPOLLIN)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let shard_label = shard_id.to_string();

    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        poller.wait(&mut events, 1)?;
        let mut woke = false;
        let mut touched: Vec<u64> = Vec::new();
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                woke = true;
            } else {
                touched.push(ev.token);
            }
        }
        if woke {
            shared.wake.drain();
        }

        // Adopt sockets the acceptor parked for us.
        let fresh: Vec<TcpStream> = std::mem::take(&mut *shared.incoming.lock().unwrap());
        for stream in fresh {
            stream.set_nonblocking(true)?;
            let token = next_token;
            next_token += 1;
            poller.add(stream.as_raw_fd(), token, EPOLLIN)?;
            conns.insert(
                token,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    pending: VecDeque::new(),
                    outbox: Vec::new(),
                    written: 0,
                    interest: EPOLLIN,
                    eof: false,
                },
            );
            metrics.inc(&labeled(CONNECTIONS_TOTAL, &[("shard", &shard_label)]), 1);
        }

        // Deliver scheduler responses into per-connection outboxes.
        let responses: Vec<(u64, ResponseFrame)> =
            std::mem::take(&mut *shared.outbound.lock().unwrap());
        for (conn_token, frame) in responses {
            if let Some(conn) = conns.get_mut(&conn_token) {
                encode_response(&frame, &mut conn.outbox);
            }
        }

        // Service every connection that is ready, gated, or has bytes
        // to flush. A wake also retries gated conns: the scheduler just
        // drained the queue.
        let mut work: Vec<u64> = touched;
        for (&token, conn) in &conns {
            if conn.outbox_pending() || (woke && !conn.pending.is_empty()) {
                work.push(token);
            }
        }
        work.sort_unstable();
        work.dedup();

        let mut dead: Vec<u64> = Vec::new();
        for token in work {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if service_conn(
                shard_id,
                token,
                conn,
                shared,
                signal,
                metrics,
                &poller,
                &now_ns,
                &shard_label,
            )
            .is_err()
            {
                dead.push(token);
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.delete(conn.stream.as_raw_fd());
            }
        }

        if stopping {
            let drained = conns.values().all(|c| !c.outbox_pending())
                && shared.outbound.lock().unwrap().is_empty();
            if drained {
                return Ok(());
            }
        }
    }
}

/// Pump one connection: feed pending frames to the queue, read + decode
/// new bytes, flush the outbox, and keep the epoll interest mask in
/// sync. `Err` means the connection is finished (EOF, I/O error, or
/// wire corruption) and must be dropped by the caller.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    shard_id: usize,
    token: u64,
    conn: &mut Conn,
    shared: &SharedShard,
    signal: &SchedSignal,
    metrics: &MetricsRegistry,
    poller: &Poller,
    now_ns: &impl Fn() -> u64,
    shard_label: &str,
) -> Result<(), ()> {
    // Stage 1: move previously decoded frames into the ingress queue.
    let mut delivered = false;
    {
        let mut q = shared.ingress.lock().unwrap();
        while !conn.pending.is_empty() && q.len() < shared.ingress_cap {
            let frame = conn.pending.pop_front().unwrap();
            q.push_back(IngressItem {
                shard: shard_id,
                conn: token,
                frame,
                arrival_ns: now_ns(),
            });
            delivered = true;
        }
        metrics.gauge_max(
            &labeled(INGRESS_DEPTH_PEAK, &[("shard", shard_label)]),
            q.len() as f64,
        );
    }
    if delivered {
        signal.notify();
    }

    // Stage 2: read while the dam is open.
    let mut buf = [0u8; 4096];
    while conn.pending.is_empty() && !conn.eof {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
            }
            Ok(n) => {
                conn.decoder.push(&buf[..n]);
                let mut fed = false;
                let decoded = loop {
                    match conn.decoder.next() {
                        Ok(Some(Frame::Submit(frame))) => {
                            let mut q = shared.ingress.lock().unwrap();
                            // Counted once queued, under the ingress
                            // lock: whoever reads the count can rely on
                            // the frame being in a queue.
                            if q.len() < shared.ingress_cap {
                                q.push_back(IngressItem {
                                    shard: shard_id,
                                    conn: token,
                                    frame,
                                    arrival_ns: now_ns(),
                                });
                                metrics.gauge_max(
                                    &labeled(INGRESS_DEPTH_PEAK, &[("shard", shard_label)]),
                                    q.len() as f64,
                                );
                                fed = true;
                            } else {
                                conn.pending.push_back(frame);
                            }
                            metrics.inc(FRAMES_RX_TOTAL, 1);
                        }
                        // Bytes that do not decode, or a response —
                        // which clients must not send.
                        Ok(Some(Frame::Response(_))) | Err(_) => {
                            metrics.inc(WIRE_ERRORS_TOTAL, 1);
                            break Err(());
                        }
                        Ok(None) => break Ok(()),
                    }
                };
                // One ring per read: the frames one read carried reach the
                // scheduler together, and it wakes once for them.
                if fed {
                    signal.notify();
                }
                decoded?;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }

    // Stage 3: flush the outbox.
    while conn.outbox_pending() {
        match conn.stream.write(&conn.outbox[conn.written..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.written += n;
                if conn.written == conn.outbox.len() {
                    conn.outbox.clear();
                    conn.written = 0;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }

    // A hung-up peer is done once its responses are out.
    if conn.eof && !conn.outbox_pending() {
        return Err(());
    }

    // Stage 4: reconcile the interest mask. Reads stay gated while
    // frames are parked; writes are only interesting while a flush is
    // stuck.
    let want = if conn.pending.is_empty() && !conn.eof {
        EPOLLIN
    } else {
        0
    } | if conn.outbox_pending() { EPOLLOUT } else { 0 };
    if want != conn.interest {
        poller
            .modify(conn.stream.as_raw_fd(), token, want)
            .map_err(|_| ())?;
        conn.interest = want;
    }
    Ok(())
}
