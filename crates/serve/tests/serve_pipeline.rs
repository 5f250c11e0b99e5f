//! End-to-end serving pipeline equivalence and determinism.
//!
//! The contracts under test (see DESIGN.md "Serving determinism"):
//! - the fused batched path answers exactly what the per-tenant paths
//!   answer: bitwise vs `LstmForecaster::predict_reference` called per
//!   lane, ≤ 1e-12 relative vs the workspace (`forward_into`) path;
//! - identically-seeded runs produce bitwise-identical response streams;
//! - LRU spills and lazy rehydrations are lossless: a capacity-starved
//!   registry answers bit-for-bit what an uncapped one answers.

use ld_api::MinMaxScaler;
use ld_nn::{ForecasterConfig, LstmForecaster};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, Response, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;

const HIST: usize = 12;
const FAMILIES: usize = 3;

fn store(label: &str) -> SnapshotStore {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ld-serve-pipeline")
        .join(label);
    let s = SnapshotStore::open(dir).expect("open store");
    s.clear().expect("clear store");
    s
}

/// A deterministic little fleet: `n` tenants cycling over `FAMILIES`
/// distinct models, each with its own scaler and drifting history.
struct Fleet {
    keys: Vec<ClientKey>,
    histories: Vec<Vec<f64>>,
    snapshots: Vec<ModelSnapshot>,
}

fn fleet(n: usize) -> Fleet {
    let models: Vec<LstmForecaster> = (0..FAMILIES)
        .map(|f| {
            LstmForecaster::new(ForecasterConfig {
                history_len: HIST,
                hidden_size: 6,
                num_layers: 2,
                seed: 900 + f as u64,
            })
        })
        .collect();
    let mut keys = Vec::new();
    let mut histories = Vec::new();
    let mut snapshots = Vec::new();
    for t in 0..n {
        let base = 10.0 + (t % 7) as f64;
        let hist: Vec<f64> = (0..HIST + 4)
            .map(|i| base + ((t * 31 + i * 7) as f64 * 0.13).sin().abs() * 5.0)
            .collect();
        let scaler = MinMaxScaler::fit(&hist);
        keys.push(ClientKey::new(format!("tenant-{t:04}"), "pipeline"));
        snapshots.push(ModelSnapshot::new(
            models[t % FAMILIES].clone(),
            scaler,
            HIST,
        ));
        histories.push(hist);
    }
    Fleet {
        keys,
        histories,
        snapshots,
    }
}

fn engine(mode: ExecMode, label: &str, capacity_per_shard: usize, fleet: &Fleet) -> ServeEngine {
    let mut eng = ServeEngine::new(
        EngineConfig {
            mode,
            queue_capacity: fleet.keys.len() * 2,
            registry: RegistryConfig {
                shard_count: 4,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store(label),
        Tracer::disabled(),
    );
    for (key, snap) in fleet.keys.iter().zip(&fleet.snapshots) {
        eng.provision(key.clone(), snap.clone());
    }
    eng
}

/// Runs `ticks` identical full-fleet ticks and returns all responses.
fn run(eng: &mut ServeEngine, fleet: &Fleet, ticks: usize) -> Vec<Response> {
    let mut all = Vec::new();
    for tick in 0..ticks {
        for (i, key) in fleet.keys.iter().enumerate() {
            eng.submit(Request::new(
                (tick * fleet.keys.len() + i) as u64,
                key.clone(),
                fleet.histories[i].clone(),
            ))
            .expect("queue sized for the fleet");
        }
        all.extend(eng.tick());
    }
    all
}

#[test]
fn batched_matches_reference_path_bitwise() {
    let f = fleet(37);
    let ticks = 3;
    let batched = run(&mut engine(ExecMode::Batched, "eq-b", 64, &f), &f, ticks);
    assert_eq!(batched.len(), ticks * f.keys.len());
    for b in &batched {
        // Request ids are `tick * fleet + tenant`; every tick sends the
        // same histories.
        let t = b.id as usize % f.keys.len();
        let snap = &f.snapshots[t];
        let scaler = snap.scaler();
        let window: Vec<f64> = f.histories[t][f.histories[t].len() - HIST..]
            .iter()
            .map(|&v| scaler.transform(v))
            .collect();
        let want = scaler
            .inverse(snap.model().predict_reference(&window))
            .max(0.0);
        assert!(!b.degraded);
        assert_eq!(
            b.value.to_bits(),
            want.to_bits(),
            "id {}: batched {} != reference {}",
            b.id,
            b.value,
            want
        );
    }
}

#[test]
fn batched_matches_workspace_forward_to_1e12() {
    let f = fleet(37);
    let batched = run(&mut engine(ExecMode::Batched, "ws-b", 64, &f), &f, 3);
    let serial = run(&mut engine(ExecMode::Serial, "ws-s", 64, &f), &f, 3);
    assert_eq!(batched.len(), serial.len());
    for (b, s) in batched.iter().zip(&serial) {
        assert_eq!(b.id, s.id);
        let scale = b.value.abs().max(s.value.abs()).max(1.0);
        assert!(
            (b.value - s.value).abs() <= 1e-12 * scale,
            "id {}: batched {} vs workspace {}",
            b.id,
            b.value,
            s.value
        );
    }
}

#[test]
fn identically_seeded_runs_are_bitwise_identical() {
    let f = fleet(29);
    let mut runs = Vec::new();
    for pass in 0..2 {
        let mut eng = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: 32,
                },
                lifecycle: LifecycleConfig::default(),
            },
            store(&format!("det-{pass}")),
            Tracer::enabled(),
        );
        for (key, snap) in f.keys.iter().zip(&f.snapshots) {
            eng.provision(key.clone(), snap.clone());
        }
        let responses = run(&mut eng, &f, 4);
        let spans = eng.tracer().snapshot().logical_paths();
        runs.push((response_digest(&responses), responses, spans));
    }
    let (d0, r0, s0) = &runs[0];
    let (d1, r1, s1) = &runs[1];
    assert_eq!(d0, d1, "response digests diverged");
    assert_eq!(r0.len(), r1.len());
    for (a, b) in r0.iter().zip(r1.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "id {}", a.id);
        assert_eq!(a.source, b.source);
    }
    assert_eq!(s0, s1, "span trees diverged");
}

#[test]
fn lru_eviction_and_rehydration_are_lossless() {
    let f = fleet(24);
    // Uncapped: everything stays resident.
    let mut roomy = engine(ExecMode::Batched, "lru-roomy", 64, &f);
    let want = run(&mut roomy, &f, 3);
    assert_eq!(roomy.stats().cache.evictions, 0);

    // Two snapshots per shard: the full-fleet sweep each tick forces
    // spills and rehydrations, but answers must not change at all.
    let mut tight = engine(ExecMode::Batched, "lru-tight", 2, &f);
    let got = run(&mut tight, &f, 3);
    let stats = tight.stats().cache;
    assert!(stats.evictions > 0, "capacity 2x4 must evict: {stats:?}");
    assert!(
        stats.rehydrations > 0,
        "evicted tenants must rehydrate from disk: {stats:?}"
    );
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.id, g.id);
        assert!(!g.degraded, "rehydration must be lossless (id {})", g.id);
        assert_eq!(
            w.value.to_bits(),
            g.value.to_bits(),
            "id {}: roomy {} vs evicting {}",
            w.id,
            w.value,
            g.value
        );
    }
}

#[test]
fn snapshot_roundtrip_preserves_fingerprint_and_predictions() {
    let f = fleet(3);
    let snap = &f.snapshots[0];
    let json = snap.to_json();
    let back = ModelSnapshot::from_json(&json).expect("roundtrip");
    assert_eq!(back.fingerprint(), snap.fingerprint());
    let w: Vec<f64> = (0..HIST).map(|i| 0.1 + 0.05 * i as f64).collect();
    assert_eq!(
        back.model().predict_reference(&w).to_bits(),
        snap.model().predict_reference(&w).to_bits()
    );
}
