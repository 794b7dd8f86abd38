//! Non-blocking served execution over loopback TCP: the scheduler
//! hands batches to the executor pool and answers each member from the
//! completion queue, so
//!
//! * a member that fails — here a panic injected into one member of a
//!   two-member batch — fails only itself: it is answered `SHED`, and
//!   its batch-mate is still `SERVED` with the right bytes;
//! * [`NetServer::shutdown`] with members still running answers every
//!   accepted request (sent = served + shed) and leaves no executor
//!   thread behind.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gcm::hardware::presets;
use gcm::net::server::RESPONSES_TOTAL;
use gcm::net::shard::FRAMES_RX_TOTAL;
use gcm::net::wire::{encode_submit, Frame, FrameDecoder, ResponseFrame, SubmitFrame};
use gcm::net::{NetConfig, NetServer};
use gcm::obs::registry::labeled;
use gcm::obs::SpanKind;
use gcm::service::{plan_for, QueryService, TenantTables};
use gcm::workload::{QueryRequest, TenantClass, Workload};

const DIM_N: usize = 1_024;

/// A two-core service over one seeded star pair, and the one tenant
/// bound to it.
fn service(fact_n: usize) -> (QueryService, TenantTables) {
    let mut svc = QueryService::new(presets::modern_smp(2));
    let star = Workload::new(505).star_scenario(fact_n, DIM_N, 1);
    let fact = svc.register_table("F", star.fact, 8);
    let dim = svc.register_table("D", star.dims[0].clone(), 8);
    let t = TenantTables {
        fact,
        dim,
        key_bound: DIM_N as u64,
    };
    (svc, t)
}

fn request(class: TenantClass, selectivity: f64) -> QueryRequest {
    QueryRequest {
        tenant: 0,
        class,
        selectivity,
    }
}

/// `reqs` as wire frames with ids `first_id..`, in one write.
fn send(stream: &mut TcpStream, reqs: &[QueryRequest], first_id: u64) {
    let mut bytes = Vec::new();
    for (id, req) in (first_id..).zip(reqs) {
        let frame = SubmitFrame {
            id,
            tenant: req.tenant as u32,
            class: req.class,
            selectivity_bits: req.selectivity.to_bits(),
        };
        encode_submit(&frame, &mut bytes);
    }
    stream.write_all(&bytes).unwrap();
}

/// Read responses until `n` have arrived or the server closes the
/// connection.
fn receive(stream: &mut TcpStream, n: usize) -> Vec<ResponseFrame> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while out.len() < n {
        let got = stream
            .read(&mut buf)
            .expect("a response before the timeout");
        if got == 0 {
            break;
        }
        decoder.push(&buf[..got]);
        while let Some(frame) = decoder.next().expect("well-formed responses") {
            match frame {
                Frame::Response(r) => out.push(r),
                Frame::Submit(_) => panic!("the server sent a submission"),
            }
        }
    }
    out
}

fn connect(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

#[test]
fn a_failing_member_fails_only_itself() {
    // A point lookup at a selectivity the warmup never sends panics on
    // its executor thread; a scan sent with it in the same write is its
    // batch-mate.
    let bad = request(TenantClass::PointLookup, 0.005);
    let good = request(TenantClass::ScanHeavy, 0.5);
    let (mut twin, t) = service(8_192);
    let bad_id = twin.submit(plan_for(&bad, &t)).unwrap();
    let good_id = twin.submit(plan_for(&good, &t)).unwrap();
    let batch = twin.next_batch().unwrap();
    assert_eq!(batch.ids(), [bad_id, good_id], "admission batches the pair");
    let runs = twin.execute_batch_native_observed(batch).unwrap();
    let want = (runs[1].1.output_n, runs[1].1.output_hash);

    let (mut svc, t) = service(8_192);
    svc.inject_member_panic(Some(plan_for(&bad, &t).fingerprint()));
    let warmup: usize = TenantClass::ALL
        .iter()
        .map(|c| c.selectivity_buckets().len())
        .sum();
    let server = NetServer::start(svc, vec![t], NetConfig::default()).unwrap();
    let mut stream = connect(&server);
    const PAIRS: u64 = 8;
    for pair in 0..PAIRS {
        send(&mut stream, &[bad.clone(), good.clone()], 2 * pair);
        let mut answers = receive(&mut stream, 2);
        answers.sort_by_key(ResponseFrame::id);
        assert!(
            matches!(answers[0], ResponseFrame::Shed { id, .. } if id == 2 * pair),
            "the failing member is shed: {answers:?}"
        );
        match answers[1] {
            ResponseFrame::Served {
                id,
                output_n,
                output_hash,
                ..
            } => {
                assert_eq!(id, 2 * pair + 1);
                assert_eq!((output_n, output_hash), want, "the batch-mate's bytes");
            }
            ResponseFrame::Shed { .. } => panic!("the batch-mate was shed with the failure"),
        }
    }
    drop(stream);
    let svc = server.shutdown();

    // The pairs really co-ran: after the warmup's queries (ids
    // 0..warmup), some batch the admission controller formed held two
    // members — and no pair was ever shed whole.
    let spans = svc.spans().drain();
    let first_test = spans
        .iter()
        .find(|s| s.name == format!("optimize q{warmup}"))
        .expect("the first test query's optimize span");
    let pairs_batched = spans
        .iter()
        .filter(|s| s.lane == first_test.lane && s.seq > first_test.seq)
        .filter(|s| s.kind == SpanKind::Admission && s.name == "admission[2]")
        .count();
    assert!(pairs_batched >= 1, "no pair shared a batch");
    assert_eq!(svc.executor_threads(), 0);
}

#[test]
fn shutdown_with_members_in_flight_answers_every_request() {
    // Joins over a 1 Mi-row fact table: shutdown is called as soon as the
    // server has read them all, while most are still queued or running.
    const JOINS: usize = 12;
    let (svc, t) = service(1 << 20);
    let server = NetServer::start(svc, vec![t], NetConfig::default()).unwrap();
    let metrics = std::sync::Arc::clone(server.metrics());
    let mut stream = connect(&server);
    let joins = vec![request(TenantClass::JoinHeavy, 0.5); JOINS];
    send(&mut stream, &joins, 0);
    let t0 = Instant::now();
    while metrics.counter(FRAMES_RX_TOTAL).unwrap_or(0) < JOINS as u64 {
        assert!(t0.elapsed() < Duration::from_secs(60), "frames never read");
        std::thread::sleep(Duration::from_micros(200));
    }
    // The shard counts a frame once it is queued: all JOINS are in the
    // ingress queues (none gated — the queues hold far more).
    let svc = server.shutdown();
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(svc.executor_threads(), 0, "executor threads left running");

    let answers = receive(&mut stream, JOINS);
    let mut ids: Vec<u64> = answers.iter().map(ResponseFrame::id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..JOINS as u64).collect::<Vec<_>>(),
        "one answer each"
    );
    let kind = |k: &str| {
        metrics
            .counter(&labeled(RESPONSES_TOTAL, &[("kind", k)]))
            .unwrap_or(0)
    };
    assert_eq!(kind("served") + kind("shed"), JOINS as u64);
    assert_eq!(kind("served"), JOINS as u64, "no SLO: every join is served");
}
