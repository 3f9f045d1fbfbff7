//! Criterion micro-benchmarks of the `bap serve` codec: decoding request
//! and response lines, and decoding plus restoring a checkpoint anchor.
//!
//! Every `Snapshot` the controller ingests arrives as one JSON line of
//! per-core miss curves, so decoding is a per-request cost on both wire
//! transports; the restore path runs when a process restarts from its
//! checkpoint file or a follower joins from an anchor. These give each a
//! per-layer number without the end-to-end harness.

use bap_core::{DecisionService, ServeConfig};
use bap_recovery::Checkpoint;
use bap_trace::wire::{
    encode_request, encode_response, parse_request_line, parse_response_line, RequestKind,
    ResponseKind, WireCurve, WireRequest, WireResponse, WireSummary,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Knee-shaped curves with 73 points (0..=72 ways), as the profilers emit:
/// misses fall linearly to a floor at a per-core knee.
fn curves(cores: usize, seed: u64) -> Vec<WireCurve> {
    (0..cores)
        .map(|core| {
            let h = (seed ^ core as u64)
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let base = 30_000.0 + (h % 90_000) as f64 + 0.37;
            let knee = 2 + ((h >> 17) % 40) as usize;
            let floor = ((h >> 33) % 3_000) as f64 + 0.5;
            let misses = (0..=72)
                .map(|w| {
                    if w >= knee {
                        floor
                    } else {
                        base - (base - floor) * w as f64 / knee as f64
                    }
                })
                .collect();
            WireCurve {
                accesses: base * 4.0,
                misses,
            }
        })
        .collect()
}

fn snapshot(session: u64, cores: usize, seed: u64) -> WireRequest {
    WireRequest::new(
        seed,
        RequestKind::Snapshot {
            session,
            curves: curves(cores, seed),
        },
    )
}

fn bench_request_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_request_line");
    for cores in [8, 32, 128] {
        let line = encode_request(&snapshot(1, cores, 7));
        group.bench_function(format!("snapshot_{cores}_cores"), |b| {
            b.iter(|| parse_request_line(black_box(&line)).expect("decodes"))
        });
    }
    group.finish();
}

fn bench_response_decode(c: &mut Criterion) {
    let line = encode_response(&WireResponse {
        id: 4242,
        tick: 977,
        term: None,
        kind: ResponseKind::Decision {
            session: 1,
            epoch: 977,
            installed: true,
            ways: (0..32).map(|c| 8 + c % 24).collect(),
            source: "solver".to_string(),
            fingerprint: 0xDEAD_BEEF_F00D,
            summary: WireSummary {
                events: 40_120,
                epochs: 977,
                plans_installed: 160,
                plans_held: 12,
                warm_start_hits: 801,
                solver_failures: 0,
            },
        },
    });
    c.bench_function("parse_response_line/decision_32_cores", |b| {
        b.iter(|| parse_response_line(black_box(&line)).expect("decodes"))
    });
}

fn bench_checkpoint_restore(c: &mut Criterion) {
    // A 128-core session that has decided a few epochs, so its profilers,
    // plan and warm-start baselines are all populated.
    let cfg = ServeConfig::default();
    let mut service = DecisionService::new(cfg.clone());
    let mut requests = vec![WireRequest::new(
        1,
        RequestKind::Open {
            session: 1,
            cores: 128,
        },
    )];
    requests.extend((0..4).map(|epoch| snapshot(1, 128, 2 + epoch)));
    for req in &requests {
        let answer = service.process_batch(std::slice::from_ref(req));
        assert_eq!(answer[0].kind.error_code(), None, "{:?}", answer[0].kind);
    }
    let bytes = service.checkpoint().encode();
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);
    group.bench_function("decode_restore_128_cores", |b| {
        b.iter(|| {
            let cp = Checkpoint::decode(black_box(&bytes)).expect("intact");
            let mut fresh = DecisionService::new(cfg.clone());
            fresh.restore_from_checkpoint(&cp).expect("restores");
            fresh
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_request_decode,
    bench_response_decode,
    bench_checkpoint_restore
);
criterion_main!(benches);
