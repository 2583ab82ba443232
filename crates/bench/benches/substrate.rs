//! Ablation benches for the substrate design choices DESIGN.md calls out:
//! the wire codec, server ingest, spatial-index scans, the classification
//! heuristics, counter-delta cleaning, RNG stream derivation, and the
//! simulator itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mobitrace_bench::{bench_set, BENCH_SEED};
use mobitrace_collector::{decode_frame, encode_frame, CollectionServer};
use mobitrace_deploy::world::WorldSpec;
use mobitrace_deploy::{ApWorld, DeployParams};
use mobitrace_geo::{DensitySurface, Grid, PoiSet};
use mobitrace_model::*;
use mobitrace_sim::{run_campaign, CampaignConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn sample_record(seq: u32) -> Record {
    let mut counters = CounterSnapshot::default();
    counters.lte.add(ByteCount::mb(3), ByteCount::kb(500));
    counters.wifi.add(ByteCount::mb(11), ByteCount::mb(2));
    Record {
        device: DeviceId(seq % 500),
        os: Os::Android,
        seq,
        time: SimTime::from_minutes(seq * 10),
        boot_epoch: 0,
        counters,
        wifi: WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(u64::from(seq)),
            essid: Essid::new("aterm-0a1b2c"),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-57),
        }),
        scan: ScanSummary { n24_all: 9, n24_strong: 3, ..ScanSummary::default() },
        apps: vec![AppCounter {
            category: AppCategory::Video,
            counters: TrafficCounters {
                rx_bytes: 1 << 20,
                tx_bytes: 1 << 14,
                rx_pkts: 1200,
                tx_pkts: 90,
            },
        }],
        geo: CellId::new(12, 8),
        battery_pct: 77,
        tethering: false,
        os_version: OsVersion::new(4, 4),
    }
}

fn bench_codec(c: &mut Criterion) {
    let record = sample_record(7);
    let frame = encode_frame(&record);
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_frame", |b| b.iter(|| black_box(encode_frame(&record))));
    group.bench_function("decode_frame", |b| {
        b.iter(|| black_box(decode_frame(&frame).expect("valid frame")))
    });
    group.finish();
}

fn bench_server_ingest(c: &mut Criterion) {
    let frames: Vec<_> = (0..1000u32).map(|s| encode_frame(&sample_record(s))).collect();
    let mut group = c.benchmark_group("server");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.bench_function("ingest_1000_frames", |b| {
        b.iter(|| {
            let server = CollectionServer::new();
            for f in &frames {
                let _ = server.ingest(f);
            }
            black_box(server.len())
        })
    });
    group.finish();
}

/// Contended multi-producer ingest: several producers committing into one
/// server lock.
fn bench_contended_ingest(c: &mut Criterion) {
    const PER_THREAD: u32 = 500;
    let chunks_for = |n_threads: u32| -> Vec<Vec<_>> {
        (0..n_threads)
            .map(|t| {
                (0..PER_THREAD).map(|s| encode_frame(&sample_record(t * PER_THREAD + s))).collect()
            })
            .collect()
    };
    let run = |server: &CollectionServer, chunks: &[Vec<_>]| {
        std::thread::scope(|scope| {
            for chunk in chunks {
                scope.spawn(move || {
                    for f in chunk {
                        let _ = server.ingest(f);
                    }
                });
            }
        });
        server.len()
    };
    let mut group = c.benchmark_group("server_contended");
    for n in [4u32, 8] {
        let chunks = chunks_for(n);
        group.throughput(Throughput::Elements(u64::from(n) * u64::from(PER_THREAD)));
        group.bench_function(format!("ingest_{n}_threads"), |b| {
            b.iter(|| {
                let server = CollectionServer::new();
                black_box(run(&server, &chunks))
            })
        });
    }
    group.finish();
}

/// Batch framing vs per-record allocation: the agent's upload queue and
/// the server's stream ingest ride these paths.
fn bench_codec_batch(c: &mut Criterion) {
    use bytes::BytesMut;
    use mobitrace_collector::{decode_batch_into, encode_batch};
    let records: Vec<Record> = (0..1000u32).map(sample_record).collect();
    let mut stream_buf = BytesMut::new();
    encode_batch(&records, &mut stream_buf);
    let stream = stream_buf.freeze();
    let mut group = c.benchmark_group("codec_batch");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("encode_1000_standalone", |b| {
        b.iter(|| {
            let frames: Vec<_> = records.iter().map(encode_frame).collect();
            black_box(frames)
        })
    });
    group.bench_function("encode_1000_batched", |b| {
        let mut buf = BytesMut::new();
        b.iter(|| {
            buf.clear();
            encode_batch(&records, &mut buf);
            black_box(buf.len())
        })
    });
    group.bench_function("decode_1000_stream", |b| {
        let mut out = Vec::with_capacity(records.len());
        b.iter(|| {
            out.clear();
            let mut s = stream.clone();
            decode_batch_into(&mut s, &mut out).expect("valid stream");
            black_box(out.len())
        })
    });
    group.finish();
}

/// The SoA-vs-AoS ablation the columnar layout exists for: the counter
/// aggregation and per-app CSR walks every hot analysis pass reduces to,
/// over a dataset's bin columns and over the same bins as rows.
fn bench_columns_vs_rows(c: &mut Criterion) {
    use mobitrace_model::lanes;
    let set = bench_set();
    let ds = set.year(Year::Y2015);
    let cols = &ds.bins;
    let rows = cols.to_bins();
    let mut group = c.benchmark_group("columns_vs_rows");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("counter_sum_rows", |b| {
        b.iter(|| {
            let mut wifi = 0u64;
            let mut cell = 0u64;
            for bin in &rows {
                wifi += bin.rx_wifi + bin.tx_wifi;
                cell += bin.rx_cell() + bin.tx_cell();
            }
            black_box((wifi, cell))
        })
    });
    group.bench_function("counter_sum_cols", |b| {
        b.iter(|| {
            let wifi = cols.rx_wifi.iter().sum::<u64>() + cols.tx_wifi.iter().sum::<u64>();
            let cell = cols.rx_3g.iter().sum::<u64>()
                + cols.tx_3g.iter().sum::<u64>()
                + cols.rx_lte.iter().sum::<u64>()
                + cols.tx_lte.iter().sum::<u64>();
            black_box((wifi, cell))
        })
    });
    group.bench_function("counter_sum_cols_simd", |b| {
        b.iter(|| {
            let wifi = lanes::sum_paired(&cols.rx_wifi, &cols.tx_wifi);
            let cell = lanes::sum_paired(&cols.rx_3g, &cols.tx_3g)
                + lanes::sum_paired(&cols.rx_lte, &cols.tx_lte);
            black_box((wifi, cell))
        })
    });
    group.bench_function("user_days_rows", |b| {
        b.iter(|| black_box(mobitrace_core::daily::user_days(&rows)))
    });
    group.bench_function("user_days_cols_simd", |b| {
        b.iter(|| black_box(mobitrace_core::daily::user_days_cols(cols)))
    });
    group.bench_function("app_scan_rows", |b| {
        b.iter(|| {
            let mut per_cat = [0u64; AppCategory::ALL.len()];
            for bin in &rows {
                for app in &bin.apps {
                    per_cat[app.category.index()] += app.rx_bytes + app.tx_bytes;
                }
            }
            black_box(per_cat)
        })
    });
    group.bench_function("app_scan_cols", |b| {
        b.iter(|| {
            let mut per_cat = [0u64; AppCategory::ALL.len()];
            for app in &cols.apps {
                per_cat[app.category.index()] += app.rx_bytes + app.tx_bytes;
            }
            black_box(per_cat)
        })
    });
    group.bench_function("build_columns", |b| b.iter(|| black_box(DatasetColumns::build(&rows))));
    group.finish();
}

fn bench_world(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let res = DensitySurface::residential();
    let homes: Vec<(u32, mobitrace_geo::GeoPoint)> =
        (0..80).map(|k| (k, res.sample_point(&mut rng))).collect();
    let pois = PoiSet::generate(40, &mut rng);
    let spec = WorldSpec {
        params: DeployParams::for_year(Year::Y2015),
        participant_homes: homes,
        office_sites: vec![],
        pois,
        n_participants: 100,
        fon_home_share: 0.03,
    };
    let world = ApWorld::generate(&spec, &mut rng);
    let grid = Grid::greater_tokyo();
    let probe = grid.centre_of(CellId::new(15, 12));
    let mut group = c.benchmark_group("world");
    group.bench_function("generate_100_user_world", |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(BENCH_SEED),
            |mut r| black_box(ApWorld::generate(&spec, &mut r)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("scan_query", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(world.scan(probe, &mut r)))
    });
    group.finish();
}

/// The scan hot path unbundled: allocating scan vs buffer reuse vs
/// scan-plan construction (the once-per-cell cost) vs plan replay (the
/// per-step cost the cached device loop pays).
fn bench_world_scan(c: &mut Criterion) {
    use mobitrace_radio::GaussianPair;
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let res = DensitySurface::residential();
    let homes: Vec<(u32, mobitrace_geo::GeoPoint)> =
        (0..80).map(|k| (k, res.sample_point(&mut rng))).collect();
    // Probe at a participant home: the dense-neighbourhood case the device
    // loop hits most often.
    let probe = homes[0].1;
    let pois = PoiSet::generate(40, &mut rng);
    let spec = WorldSpec {
        params: DeployParams::for_year(Year::Y2015),
        participant_homes: homes,
        office_sites: vec![],
        pois,
        n_participants: 100,
        fon_home_share: 0.03,
    };
    let world = ApWorld::generate(&spec, &mut rng);
    let mut group = c.benchmark_group("world_scan");
    group.bench_function("scan_alloc", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(world.scan(probe, &mut r)))
    });
    group.bench_function("scan_into", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let mut buf = Vec::new();
        b.iter(|| {
            world.scan_into(probe, &mut r, &mut buf);
            black_box(buf.len())
        })
    });
    group
        .bench_function("plan_build", |b| b.iter(|| black_box(world.build_scan_plan(probe).len())));
    group.bench_function("plan_sample", |b| {
        let plan = world.build_scan_plan(probe);
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let mut gauss = GaussianPair::new();
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            plan.sample(&mut r, &mut gauss, |e, rssi| buf.push(e.obs(rssi)));
            black_box(buf.len())
        })
    });
    group.bench_function("background_homes_into", |b| {
        let mut ids = Vec::new();
        b.iter(|| {
            world.background_homes_near_into(probe, 60.0, &mut ids);
            black_box(ids.len())
        })
    });
    group.finish();
}

/// Plan replay ablation: the blocked two-phase `sample` against the
/// retained scalar reference, on the densest home plan the bench world
/// offers (the same shape the cached device loop replays every bin).
fn bench_scan_replay(c: &mut Criterion) {
    use mobitrace_radio::GaussianPair;
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let res = DensitySurface::residential();
    let homes: Vec<(u32, mobitrace_geo::GeoPoint)> =
        (0..400).map(|k| (k, res.sample_point(&mut rng))).collect();
    let pois = PoiSet::generate(80, &mut rng);
    let spec = WorldSpec {
        params: DeployParams::for_year(Year::Y2015),
        participant_homes: homes.clone(),
        office_sites: vec![],
        pois,
        n_participants: 400,
        fon_home_share: 0.03,
    };
    let world = ApWorld::generate(&spec, &mut rng);
    let probe = homes
        .iter()
        .map(|&(_, p)| p)
        .max_by_key(|&p| world.build_scan_plan(p).len())
        .expect("homes non-empty");
    let plan = world.build_scan_plan(probe);
    let mut group = c.benchmark_group("scan_replay");
    group.throughput(Throughput::Elements(plan.len() as u64));
    group.bench_function("sample_blocked", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let mut gauss = GaussianPair::new();
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            plan.sample(&mut r, &mut gauss, |e, rssi| buf.push(e.obs(rssi)));
            black_box(buf.len())
        })
    });
    group.bench_function("sample_scalar", |b| {
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let mut gauss = GaussianPair::new();
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            plan.sample_scalar(&mut r, &mut gauss, |e, rssi| buf.push(e.obs(rssi)));
            black_box(buf.len())
        })
    });
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let set = bench_set();
    let ds = set.year(Year::Y2015);
    let rows = ds.bins.to_bins();
    let mut group = c.benchmark_group("classification");
    group.sample_size(20);
    group.bench_function("ap_classify_2015", |b| {
        b.iter(|| black_box(mobitrace_core::apclass::classify_rows(ds, &rows)))
    });
    group.bench_function("user_days_2015", |b| {
        b.iter(|| black_box(mobitrace_core::daily::user_days(&rows)))
    });
    group.finish();
}

/// Full context build (bin index + the three analysis passes) and the
/// index build alone, so index cost is attributable.
fn bench_context_build(c: &mut Criterion) {
    let set = bench_set();
    let ds = set.year(Year::Y2015);
    let mut group = c.benchmark_group("context");
    group.sample_size(20);
    group.bench_function("dataset_index_2015", |b| b.iter(|| black_box(DatasetIndex::build(ds))));
    group.bench_function("analysis_context_2015", |b| {
        b.iter(|| black_box(mobitrace_core::AnalysisContext::new(ds)))
    });
    group.finish();
}

/// Ablation: per-device ChaCha streams vs a single shared stream would
/// serialise the simulator; measure the stream-derivation cost that buys
/// the parallelism.
fn bench_rng_streams(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.bench_function("derive_device_stream", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let mut rng = ChaCha8Rng::seed_from_u64(
                BENCH_SEED ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            black_box(rng.gen::<u64>())
        })
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("campaign_30_users_4_days", |b| {
        b.iter(|| {
            let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.017);
            cfg.days = 4;
            cfg.seed = BENCH_SEED;
            black_box(run_campaign(&cfg))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_codec_batch,
    bench_columns_vs_rows,
    bench_server_ingest,
    bench_contended_ingest,
    bench_world,
    bench_world_scan,
    bench_scan_replay,
    bench_classification,
    bench_context_build,
    bench_rng_streams,
    bench_simulation
);
criterion_main!(benches);
