//! Protocol-robustness and end-to-end serving tests: hostile bytes,
//! slow-loris clients, overload, and the cross-interleaving determinism
//! contract — all over real sockets.

use fault_inject::model::BitErrorRates;
use fault_inject::protection::ProtectionPolicy;
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use proptest::prelude::*;
use sram_net::loadgen::{self, LoadOptions, TenantStream};
use sram_net::proto::{
    decode_request, decode_response, encode_request, FrameDecoder, Request, RequestBody, Status,
    MAX_FEATURES,
};
use sram_net::registry::{ModelRegistry, TenantSpec};
use sram_net::server::{self, NetServerOptions, RunningServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn tiny_spec(name: &str, shape: &[usize], seed: u64, read_6t: f64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        network: QuantizedMlp::from_mlp(&Mlp::new(shape, seed), Encoding::TwosComplement),
        policy: ProtectionPolicy::MsbProtected { msb_8t: 3 },
        rates: BitErrorRates {
            read_6t,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        },
        vdd: 0.7,
        energy_per_inference_j: 1e-9,
        drowsy_scale: 0.4,
    }
}

fn tiny_registry(base_seed: u64) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new(
        vec![
            tiny_spec("alpha", &[12, 8, 4], 1, 0.02),
            tiny_spec("beta", &[9, 6, 3], 2, 0.1),
        ],
        base_seed,
        2,
    ))
}

fn spawn_tiny(options: NetServerOptions) -> RunningServer {
    server::spawn(tiny_registry(77), options).expect("bind loopback")
}

fn tiny_streams() -> Vec<TenantStream> {
    vec![
        TenantStream {
            tenant: 0,
            features: (0..8)
                .map(|v| {
                    (0..12)
                        .map(|j| ((v * 13 + j * 5) % 31) as f32 / 31.0)
                        .collect()
                })
                .collect(),
        },
        TenantStream {
            tenant: 1,
            features: (0..8)
                .map(|v| {
                    (0..9)
                        .map(|j| ((v * 7 + j * 11) % 29) as f32 / 29.0)
                        .collect()
                })
                .collect(),
        },
    ]
}

/// Blocking client connection with a read timeout, for the raw-socket
/// probes.
fn connect(server: &RunningServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let _ = stream.set_nodelay(true);
    stream
}

/// Reads one length-prefixed response frame off a blocking stream.
fn read_response(stream: &mut TcpStream) -> sram_net::Response {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 512];
    loop {
        if let Some(payload) = decoder.next_frame().expect("frame within bounds") {
            return decode_response(&payload).expect("decodable response");
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed before responding");
        decoder.extend(&buf[..n]);
    }
}

fn classify_frame(tenant: u16, request_id: u64, features: Vec<f32>) -> Vec<u8> {
    encode_request(&Request {
        tenant,
        request_id,
        body: RequestBody::Classify(features),
    })
}

// ---------------------------------------------------------------------
// Pure-protocol property tests: hostile bytes must never panic, hang,
// or balloon memory — they decode or they error, nothing else.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn decoder_survives_arbitrary_byte_soup(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&data);
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    // Whatever framed payload fell out must decode totally.
                    let _ = decode_request(&payload);
                    let _ = decode_response(&payload);
                }
                Ok(None) => break,
                Err(oversized) => {
                    prop_assert!(oversized.declared > sram_net::MAX_FRAME);
                    break;
                }
            }
        }
    }

    #[test]
    fn truncated_frames_never_decode(
        features in proptest::collection::vec(-1e3f32..1e3, 0..64),
        cut in 0usize..1000,
    ) {
        let frame = classify_frame(1, 42, features);
        let cut = cut % frame.len(); // strictly shorter than the full frame
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame[..cut]);
        // A prefix of a valid frame is at most an incomplete frame — never
        // a complete (mis)parsed one.
        prop_assert!(decoder.next_frame().expect("within bounds").is_none());
        prop_assert_eq!(decoder.has_partial(), cut > 0);
    }

    #[test]
    fn bit_flipped_frames_decode_totally(
        features in proptest::collection::vec(-1e3f32..1e3, 1..64),
        byte_idx in 0usize..1000,
        bit in 0u8..8,
    ) {
        let mut frame = classify_frame(0, 7, features);
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame);
        match decoder.next_frame() {
            Err(oversized) => prop_assert!(oversized.declared > sram_net::MAX_FRAME),
            Ok(None) => {} // flip hit the length prefix; frame now incomplete
            Ok(Some(payload)) => {
                if let Ok(req) = decode_request(&payload) {
                    if let RequestBody::Classify(feats) = req.body {
                        // A corrupted count can never balloon the allocation.
                        prop_assert!(feats.len() <= MAX_FEATURES);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live-server robustness.
// ---------------------------------------------------------------------

#[test]
fn ping_unknown_tenant_and_bad_width_get_structured_errors() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);

    let ping = encode_request(&Request {
        tenant: 0,
        request_id: 5,
        body: RequestBody::Ping,
    });
    stream.write_all(&ping).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.request_id, 5);
    assert!(resp.reply.is_none(), "ping carries no classify reply");

    stream
        .write_all(&classify_frame(9, 6, vec![0.0; 12]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::UnknownTenant);

    stream
        .write_all(&classify_frame(0, 7, vec![0.0; 5]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::BadRequest);

    // The connection survived all three errors and still serves.
    stream
        .write_all(&classify_frame(0, 8, vec![0.5; 12]))
        .unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.reply.is_some());

    let report = server.stop();
    assert_eq!(report.pings, 1);
    assert_eq!(report.served(), 1);
}

#[test]
fn oversized_frame_is_rejected_and_connection_dropped() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);
    // Declare a frame far beyond MAX_FRAME; send only the prefix.
    stream
        .write_all(&(8 * 1024 * 1024u32).to_le_bytes())
        .unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::FrameTooLarge);
    // The server closes its side after responding.
    let mut buf = [0u8; 64];
    let eof = (0..100).any(|_| matches!(stream.read(&mut buf), Ok(0)));
    assert!(eof, "connection should be closed after FrameTooLarge");
    let report = server.stop();
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.conns_dropped, 1);
}

#[test]
fn garbage_payload_gets_bad_request_not_a_hang() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);
    // Valid length prefix, garbage payload.
    let garbage = [0xFFu8; 16];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    assert_eq!(read_response(&mut stream).status, Status::BadRequest);
    // Still serving afterwards.
    stream
        .write_all(&classify_frame(1, 9, vec![0.25; 9]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.bad_frames, 1);
}

#[test]
fn truncated_frame_then_abort_does_not_wedge_the_server() {
    let server = spawn_tiny(NetServerOptions::default());
    {
        let mut stream = connect(&server);
        // Half a frame, then slam the connection shut.
        let frame = classify_frame(0, 3, vec![0.1; 12]);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    // A fresh connection must still be served promptly.
    let mut stream = connect(&server);
    stream
        .write_all(&classify_frame(0, 4, vec![0.1; 12]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.served(), 1);
}

#[test]
fn slow_loris_partial_frame_is_dropped_at_the_read_timeout() {
    let server = spawn_tiny(NetServerOptions {
        read_idle_timeout: Duration::from_millis(150),
        ..NetServerOptions::default()
    });
    let mut loris = connect(&server);
    // Two bytes of a declared 10-byte frame, then silence.
    loris.write_all(&10u32.to_le_bytes()).unwrap();
    loris.write_all(&[1, 2]).unwrap();
    // An idle-but-clean connection (no partial frame) must NOT be dropped.
    let mut idle = connect(&server);
    std::thread::sleep(Duration::from_millis(400));
    let mut buf = [0u8; 64];
    let eof = (0..100).any(|_| matches!(loris.read(&mut buf), Ok(0)));
    assert!(eof, "slow-loris connection should be dropped");
    idle.write_all(&classify_frame(0, 1, vec![0.3; 12]))
        .unwrap();
    assert_eq!(read_response(&mut idle).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.conns_dropped, 1, "only the loris is dropped");
}

#[test]
fn burst_overload_sheds_explicitly_and_recovers() {
    let server = spawn_tiny(NetServerOptions {
        workers: 1,
        global_inflight: 4,
        soft_inflight: 2,
        per_conn_inflight: 4,
        ..NetServerOptions::default()
    });
    let load = loadgen::run(
        server.addr(),
        &tiny_streams(),
        &LoadOptions {
            rate: 0.0, // burst: everything arrives at t=0
            requests: 96,
            connections: 3,
            seed: 11,
            drain_timeout: Duration::from_secs(20),
        },
    )
    .expect("load run");
    let report = server.stop();
    assert_eq!(load.sent, 96);
    assert!(load.shed > 0, "tiny caps under burst must shed");
    assert_eq!(
        load.ok + load.shed,
        96,
        "every request gets a structured answer"
    );
    assert_eq!(load.errors, 0);
    assert_eq!(report.served(), load.ok);
    assert_eq!(report.shed(), load.shed);
    // Client and server digests cover the same served set.
    assert_eq!(load.digest, report.digest());
    let degrades: u64 = report.tenants.iter().map(|t| t.degrade_events).sum();
    assert!(degrades > 0, "soft watermark must fire under burst");
}

#[test]
fn digests_are_identical_across_connection_and_worker_counts() {
    let run = |workers: usize, connections: usize| {
        let server = spawn_tiny(NetServerOptions {
            workers,
            ..NetServerOptions::default()
        });
        let load = loadgen::run(
            server.addr(),
            &tiny_streams(),
            &LoadOptions {
                rate: 4000.0,
                requests: 128,
                connections,
                seed: 5,
                drain_timeout: Duration::from_secs(20),
            },
        )
        .expect("load run");
        let report = server.stop();
        assert_eq!(load.ok, 128, "sub-saturation run must serve everything");
        assert_eq!(load.digest, report.digest());
        (load.digest, load.fault_bits)
    };
    let a = run(1, 1);
    let b = run(4, 5);
    assert_eq!(a, b, "digest must not depend on workers or connections");
}

#[test]
fn mixed_fault_burst_replays_per_request_at_every_worker_count() {
    // One faulting tenant and one with read BER 0 share the store. The
    // clean tenant's runs in a popped batch share one row fetch; neither
    // that nor the worker count may show in the results.
    let registry = Arc::new(ModelRegistry::new(
        vec![
            tiny_spec("faulty", &[12, 8, 4], 1, 0.1),
            tiny_spec("clean", &[9, 6, 3], 2, 0.0),
        ],
        77,
        2,
    ));
    let tiny = tiny_streams();
    // Three clean streams per faulting one, so the queue holds runs of
    // clean requests for the batch path to pick up.
    let streams = vec![
        tiny[0].clone(),
        tiny[1].clone(),
        tiny[1].clone(),
        tiny[1].clone(),
    ];
    let requests = 160usize;
    let reads_before: Vec<usize> = registry
        .store()
        .shard_counts()
        .iter()
        .map(|c| c.reads)
        .collect();
    let mut served_total = [0u64; 2];
    let mut digests = Vec::new();
    for workers in [1usize, 2, 4] {
        let server = server::spawn(
            Arc::clone(&registry),
            NetServerOptions {
                workers,
                ..NetServerOptions::default()
            },
        )
        .expect("bind loopback");
        let load = loadgen::run(
            server.addr(),
            &streams,
            &LoadOptions {
                rate: 0.0,
                requests,
                connections: 2,
                seed: 3,
                drain_timeout: Duration::from_secs(20),
            },
        )
        .expect("load run");
        let report = server.stop();
        assert_eq!(
            load.ok, requests as u64,
            "burst under the caps serves everything"
        );
        assert_eq!(load.digest, report.digest());
        assert_eq!(
            report.tenants[1].fault_bits, 0,
            "clean tenant injected faults"
        );
        assert!(
            report.tenants[0].fault_bits > 0,
            "faulting tenant never faulted"
        );
        for (t, total) in served_total.iter_mut().enumerate() {
            assert_eq!(
                report.tenants[t].words_read,
                report.tenants[t].served * registry.reads_per_inference(t)
            );
            *total += report.tenants[t].served;
        }
        digests.push(report.digest());
    }
    // Amortized rows still bill every logical copy to the shards.
    let shard_delta: usize = registry
        .store()
        .shard_counts()
        .iter()
        .zip(&reads_before)
        .map(|(after, before)| after.reads - before)
        .sum();
    let billed: u64 = (0..2)
        .map(|t| served_total[t] * registry.reads_per_inference(t))
        .sum();
    assert_eq!(shard_delta as u64, billed);

    // Replay every request through the registry, one at a time.
    let mut ctx = registry.make_context(0);
    let replay = (0..requests).fold(0u64, |acc, i| {
        let s = &streams[i % streams.len()];
        let features = &s.features[(i / streams.len()) % s.features.len()];
        let (prediction, faults) =
            registry.classify(s.tenant as usize, features, i as u64, &mut ctx);
        acc.wrapping_add(sram_net::response_mix(
            s.tenant,
            i as u64,
            prediction as u16,
            faults as u32,
        ))
    });
    assert_eq!(
        digests,
        vec![replay; 3],
        "digest at workers 1, 2, 4 vs replay"
    );
}
