//! The loopback rig: a `NetServer` and the closed-loop clients that
//! load it. Each client thread owns one connection and keeps `window`
//! requests in flight on it: a response is read, checked against the
//! reference, and the next request written at once.
//!
//! The generator reports on itself — CPU share of each client thread
//! and the requests in flight it actually held — so that a run can be
//! refused when its numbers would describe the generator.

use crate::oracle::{Oracle, Reference};
use crate::pass::Pass;
use crate::spans::{Tracer, NO_REQUEST};
use crate::stats;
use crate::workload::Inputs;
use gcm_net::wire::{encode_submit, Frame, FrameDecoder, ResponseFrame, SubmitFrame};
use gcm_net::{NetConfig, NetServer};
use gcm_service::{QueryService, TenantTables};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const READ_TIMEOUT: Duration = Duration::from_secs(20);

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

pub struct Rig {
    server: NetServer,
    conns: Vec<Conn>,
    /// `NetServer::start`, its own warm-up included, seconds.
    pub start_s: f64,
}

#[derive(Debug, Default)]
struct ClientStats {
    latencies: Vec<u64>,
    sojourns: Vec<u64>,
    shed: u64,
    wrong: u64,
    lost: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

/// What the server counted and how long it took to stop.
pub struct Stopped {
    pub svc: QueryService,
    pub shutdown_s: f64,
    pub frames_in: u64,
    pub responses_served: u64,
    pub responses_shed: u64,
}

impl Rig {
    pub fn start(
        svc: QueryService,
        tenants: Vec<TenantTables>,
        connections: usize,
    ) -> std::io::Result<Rig> {
        let t0 = Instant::now();
        let server = NetServer::start(
            svc,
            tenants,
            NetConfig {
                shards: SHARDS,
                ..NetConfig::default()
            },
        )?;
        let start_s = t0.elapsed().as_secs_f64();
        let mut conns = Vec::with_capacity(connections);
        for _ in 0..connections {
            let stream = TcpStream::connect(server.addr())?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
            });
        }
        Ok(Rig {
            server,
            conns,
            start_s,
        })
    }

    /// One pass over `order`, split round-robin over the first
    /// `tracers.len()` connections, `window` in flight on each.
    /// Request `i` of the pass goes out with wire id `first_id + i`.
    pub fn pass(
        &mut self,
        inputs: &Inputs,
        order: &[usize],
        oracle: &Oracle,
        window: usize,
        first_id: u64,
        tracers: &mut [Tracer],
    ) -> Pass {
        let clients = tracers.len();
        assert!(clients >= 1 && clients <= self.conns.len());
        let t0 = Instant::now();
        let per_client: Vec<ClientStats> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(tracers.iter_mut())
                .enumerate()
                .map(|(c, (conn, tr))| {
                    let share: Vec<(u64, usize)> = order
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, &key)| (first_id + i as u64, key))
                        .collect();
                    s.spawn(move || drive(conn, inputs, &share, oracle, window, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let mut pass = Pass {
            elapsed_ns,
            wall_ns: elapsed_ns,
            attempted: order.len() as u64,
            inflight_stated: (clients * window) as f64,
            ..Pass::default()
        };
        for c in per_client {
            pass.shed += c.shed;
            pass.wrong += c.wrong;
            pass.lost += c.lost;
            pass.busy_share = pass
                .busy_share
                .max(c.cpu_ns as f64 / c.wall_ns.max(1) as f64);
            pass.inflight_mean += c.latencies.iter().sum::<u64>() as f64 / c.wall_ns.max(1) as f64;
            pass.latencies.extend(c.latencies);
            pass.sojourns.extend(c.sojourns);
        }
        pass
    }

    pub fn stop(self) -> Stopped {
        use gcm_net::server::RESPONSES_TOTAL;
        use gcm_net::shard::FRAMES_RX_TOTAL;
        use gcm_obs::registry::labeled;
        drop(self.conns);
        let metrics = std::sync::Arc::clone(self.server.metrics());
        let t0 = Instant::now();
        let svc = self.server.shutdown();
        let shutdown_s = t0.elapsed().as_secs_f64();
        let kind = |k: &str| {
            metrics
                .counter(&labeled(RESPONSES_TOTAL, &[("kind", k)]))
                .unwrap_or(0)
        };
        Stopped {
            svc,
            shutdown_s,
            frames_in: metrics.counter(FRAMES_RX_TOTAL).unwrap_or(0),
            responses_served: kind("served"),
            responses_shed: kind("shed"),
        }
    }
}

/// One client thread's pass: `share` is its `(wire id, distinct index)`
/// list in send order.
fn drive(
    conn: &mut Conn,
    inputs: &Inputs,
    share: &[(u64, usize)],
    oracle: &Oracle,
    window: usize,
    tr: &mut Tracer,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let cpu0 = stats::thread_cpu_ns();
    let t0 = Instant::now();
    let first = share.first().map_or(0, |s| s.0);
    let stride = share.get(1).map_or(1, |s| s.0 - first);
    let mut sent_ns = vec![0u64; share.len()];
    let mut answered = vec![false; share.len()];
    let (mut next, mut done, mut inflight) = (0usize, 0usize, 0usize);
    let mut bytes = Vec::with_capacity(32);
    let mut buf = [0u8; 4096];
    'pass: while done < share.len() {
        while inflight < window && next < share.len() {
            let (id, key) = share[next];
            let q = &inputs.distinct[key];
            let frame = SubmitFrame {
                id,
                tenant: q.tenant,
                class: q.class,
                selectivity_bits: q.selectivity.to_bits(),
            };
            sent_ns[next] = tr.now_ns();
            bytes.clear();
            tr.span("net.wire.encode", id, || encode_submit(&frame, &mut bytes));
            let wrote = tr.span("client.write", id, || conn.stream.write_all(&bytes));
            if wrote.is_err() {
                break 'pass;
            }
            next += 1;
            inflight += 1;
        }
        let n = match tr.span("client.read", NO_REQUEST, || conn.stream.read(&mut buf)) {
            Ok(0) | Err(_) => break 'pass, // closed or timed out: the rest is lost
            Ok(n) => n,
        };
        conn.decoder.push(&buf[..n]);
        loop {
            let frame = match tr.span("net.wire.decode", NO_REQUEST, || conn.decoder.next()) {
                Ok(Some(Frame::Response(f))) => f,
                Ok(None) => break,
                Ok(Some(Frame::Submit(_))) | Err(_) => break 'pass,
            };
            let now = tr.now_ns();
            let local = ((frame.id().wrapping_sub(first)) / stride) as usize;
            if local >= share.len() || share[local].0 != frame.id() || answered[local] {
                stats.wrong += 1; // not an answer to this pass
                continue;
            }
            answered[local] = true;
            done += 1;
            inflight -= 1;
            stats.latencies.push(now - sent_ns[local]);
            tr.record("request", sent_ns[local], now, frame.id());
            match frame {
                ResponseFrame::Served {
                    output_n,
                    output_hash,
                    sojourn_ns,
                    ..
                } => {
                    let got = Reference {
                        output_n,
                        output_hash,
                    };
                    if Some(got) != oracle.refs[share[local].1] {
                        stats.wrong += 1;
                    }
                    stats.sojourns.push(sojourn_ns);
                    tr.synthetic_child("net.sojourn", sojourn_ns);
                }
                ResponseFrame::Shed { .. } => stats.shed += 1,
            }
        }
    }
    stats.lost += (share.len() - done) as u64;
    stats.wall_ns = t0.elapsed().as_nanos() as u64;
    stats.cpu_ns = stats::thread_cpu_ns().saturating_sub(cpu0);
    stats
}
