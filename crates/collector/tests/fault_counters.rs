//! Exact fault accounting end-to-end: injected transport faults must show
//! up in the server's counters one-for-one — a corrupted frame becomes
//! exactly one CRC rejection, a duplicated delivery exactly one dedup hit.

use bytes::{BufMut, Bytes, BytesMut};
use mobitrace_collector::{
    decode_batch_into, decode_frame, CodecError, CollectionServer, DeviceAgent, FaultPlan,
    LossyTransport, Observation,
};
use mobitrace_model::{
    AppBin, AppCategory, CellId, DeviceId, Os, OsVersion, ScanSummary, SimTime, WifiState,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn obs(minute: u32, rx: u64) -> Observation {
    Observation {
        time: SimTime::from_minutes(minute),
        rx_3g: 0,
        tx_3g: 0,
        rx_lte: rx,
        tx_lte: rx / 10,
        rx_wifi: rx * 2,
        tx_wifi: rx / 5,
        wifi: WifiState::OnUnassociated,
        scan: ScanSummary::default(),
        apps: vec![AppBin { category: AppCategory::Video, rx_bytes: rx, tx_bytes: 0 }],
        geo: CellId::new(3, 4),
        charging: false,
        tethering: false,
    }
}

/// Drive `n` observations through agent → transport → server.
fn run(plan: FaultPlan, n: u32, seed: u64) -> (LossyTransport, DeviceAgent, CollectionServer) {
    let mut agent = DeviceAgent::new(DeviceId(0), Os::Android, OsVersion::new(4, 4));
    let mut transport = LossyTransport::new(plan);
    let server = CollectionServer::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for k in 0..n {
        let t = SimTime::from_minutes(k * 10);
        agent.observe(&obs(t.minute, 1_000 + u64::from(k)));
        agent.try_upload(&mut rng, t, &mut transport);
        server.ingest_batch(transport.deliver_due(t));
    }
    let end = SimTime::from_minutes(n * 10);
    for k in 0..1_000u32 {
        if agent.pending() == 0 {
            break;
        }
        agent.try_upload(&mut rng, end.plus_minutes(k * 10), &mut transport);
        server.ingest_batch(transport.deliver_due(end.plus_minutes(k * 10)));
    }
    server.ingest_batch(transport.drain());
    (transport, agent, server)
}

/// Every frame corrupted in flight (one bit flipped) → every frame
/// rejected by the CRC, nothing stored, counts exact.
#[test]
fn corruption_end_to_end_counts_exactly() {
    let n = 50;
    let plan = FaultPlan { corrupt: 1.0, ..FaultPlan::reliable() };
    let (transport, agent, server) = run(plan, n, 1);
    assert_eq!(agent.records_made, u64::from(n));
    assert_eq!(agent.pending(), 0, "sends succeed; corruption is silent to the agent");
    assert_eq!(transport.corrupted, u64::from(n));
    let stats = server.stats();
    assert_eq!(stats.frames, u64::from(n), "every delivery reached the server");
    assert_eq!(stats.rejected, u64::from(n), "every corrupted frame rejected");
    assert_eq!(stats.duplicates, 0);
    assert!(server.is_empty(), "no corrupted record may enter the store");
}

/// Partial corruption: rejections equal the injected corruption count
/// exactly (a one-bit flip can never slip past the checksum).
#[test]
fn partial_corruption_matches_injected_total() {
    let n = 400;
    let plan = FaultPlan { corrupt: 0.25, ..FaultPlan::reliable() };
    let (transport, _, server) = run(plan, n, 2);
    let stats = server.stats();
    assert!(transport.corrupted > 0, "seeded run must corrupt something");
    assert_eq!(stats.rejected, transport.corrupted);
    assert_eq!(stats.frames, u64::from(n));
    assert_eq!(server.len() as u64, u64::from(n) - transport.corrupted);
}

/// Every frame delivered twice → exactly one dedup hit per record, store
/// identical to a clean run.
#[test]
fn duplicate_delivery_end_to_end_counts_exactly() {
    let n = 50;
    let plan = FaultPlan { duplicate: 1.0, ..FaultPlan::reliable() };
    let (transport, _, server) = run(plan, n, 3);
    assert_eq!(transport.duplicated, u64::from(n));
    let stats = server.stats();
    assert_eq!(stats.frames, u64::from(2 * n), "each record delivered twice");
    assert_eq!(stats.duplicates, u64::from(n), "each second copy deduplicated");
    assert_eq!(stats.rejected, 0);
    assert_eq!(server.len() as u64, u64::from(n));

    // The deduplicated store equals a fault-free run's store.
    let (_, _, reference) = run(FaultPlan::reliable(), n, 3);
    assert_eq!(server.into_records(), reference.into_records());
}

/// Duplication and corruption together: a corrupted copy is rejected, its
/// clean twin is stored, and the counter arithmetic still closes.
#[test]
fn mixed_duplicate_and_corrupt_accounting_closes() {
    let n = 300;
    let plan = FaultPlan { duplicate: 0.5, corrupt: 0.2, ..FaultPlan::reliable() };
    let (transport, _, server) = run(plan, n, 4);
    let stats = server.stats();
    let deliveries = u64::from(n) + transport.duplicated;
    assert_eq!(stats.frames, deliveries);
    assert_eq!(stats.rejected, transport.corrupted);
    // Every delivery is rejected, stored new, or deduplicated.
    assert_eq!(stats.rejected + stats.duplicates + server.len() as u64, deliveries);
}

/// `MTRC` v2, a `payload_len` varint of `u64::MAX - 1`, then 4 or 8 zero
/// bytes. `len + 4` once wrapped past the decoder's length check and
/// panicked it; every entry point must now reject and count the frame.
#[test]
fn wrapping_length_frame_rejected_by_every_entry_point() {
    for tail in [4, 8] {
        let mut raw = b"MTRC\x02".to_vec();
        raw.push(0xFE);
        raw.extend([0xFF; 8]);
        raw.push(0x01);
        raw.resize(raw.len() + tail, 0);
        let bad = Bytes::from(raw);

        assert_eq!(decode_frame(&bad), Err(CodecError::Truncated));
        let mut out = Vec::new();
        assert_eq!(decode_batch_into(&mut bad.clone(), &mut out), Err(CodecError::Truncated));
        assert!(out.is_empty());

        let server = CollectionServer::new();
        assert_eq!(server.ingest(&bad), Err(CodecError::Truncated));
        assert_eq!(server.ingest_batch([bad.clone()]), 0);
        assert_eq!(server.ingest_stream(bad.clone()), 0);

        // A good frame ahead of the bad one in a stream is still stored.
        let mut agent = DeviceAgent::new(DeviceId(0), Os::Android, OsVersion::new(4, 4));
        agent.observe(&obs(10, 1_000));
        let mut stream = BytesMut::new();
        assert_eq!(agent.take_stream_into(SimTime::from_minutes(10), &mut stream), 1);
        stream.put_slice(&bad);
        assert_eq!(server.ingest_stream(stream.freeze()), 1);

        let stats = server.stats();
        assert_eq!(stats.rejected, 4, "each bad frame counted once");
        assert_eq!(stats.frames, 5);
        assert_eq!(server.len(), 1);
    }
}
