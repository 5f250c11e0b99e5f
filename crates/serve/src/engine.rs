//! The tick-based serving engine: admission, snapshot resolution, batch
//! fusion, per-tenant graceful degradation, and the request lifecycle
//! (deadlines, retries, circuit breakers, shard health).
//!
//! Per tick the engine drains its bounded queue plus any parked retries,
//! resolves each request's snapshot through the sharded registry
//! (rehydrating from disk on a miss), and groups the resolved lanes by
//! `(model shape, weight fingerprint)`. Each group becomes one fused
//! batched LSTM forward
//! ([`ld_nn::LstmForecaster::predict_batch_fused`]): one blocked GEMM per
//! gate block instead of one mat-vec per tenant per step. The groups are
//! independent, so a tick computes all of them in one parallel call on the
//! rayon shim's pool; resolve before it and response building after it
//! stay sequential.
//!
//! # Determinism contract
//!
//! Batch composition is derived from seeds, never from arrival time: lanes
//! are ordered by request id (assigned by the load schedule), groups by
//! fingerprint, and every span index is logical (tick number, shard index,
//! group ordinal, request id). Retry backoff jitter hashes the request id;
//! breaker transitions advance on logical ticks; slow-shard deferral uses
//! driver-installed per-tick delays. Two identically-seeded runs produce
//! bitwise-identical responses and identical span trees.
//!
//! The parallel inference cannot break this: each lane is its own output
//! column of the plain-lane packed GEMM, accumulated in ascending `k`, so
//! its bits do not depend on which other lanes share its call, and the
//! shim combines the groups' outputs in group order whichever thread ran
//! them.
//!
//! # Degradation contract
//!
//! A tenant whose snapshot cannot be produced (corrupt spill file) or whose
//! scaled window is non-finite (upstream NaN, injected via the `batch_nan`
//! fault site) is answered by the WMA smoothing fallback and marked
//! `degraded` — and is *excluded from the fused batch*, so a poisoned
//! tenant can never contaminate the lanes it would have been co-batched
//! with. A tenant behind an open circuit breaker, or whose deadline
//! expired, is likewise answered from its own history only. Every request
//! is eventually answered explicitly; nothing hangs.

use std::collections::BTreeMap;
use std::time::Instant;

use ld_api::Predictor as _;
use ld_faultinject::{FaultSite, Faults};
use ld_metrics::Metrics;
use ld_nn::{BatchScratch, LstmForecaster};
use ld_telemetry::Tracer;
use rayon::prelude::*;

use crate::admission::{AdmissionQueue, AdmissionStats, Request};
use crate::lifecycle::{Breaker, BreakerConfig, BreakerState, RetryPolicy, RetrySchedule, Route};
use crate::registry::{ClientKey, RegistryConfig, RegistryStats, ShardedRegistry};
use crate::snapshot::{ModelSnapshot, RecoveryReport, SnapshotError, SnapshotStore};
use crate::supervisor::{ShardHealth, ShardObservation, ShardSupervisor, SupervisorConfig};

/// Which compute path answers the non-degraded lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Fused per-gate GEMMs over each `(shape, fingerprint)` group, the
    /// groups computed in parallel. Bitwise equal to
    /// [`LstmForecaster::predict_reference`] per lane by construction.
    Batched,
    /// The per-tenant workspace path ([`LstmForecaster::predict`]), one lane
    /// after another on the calling thread: the serving oracle and the
    /// honest serial baseline.
    Serial,
}

/// Lifecycle-control knobs: deadlines, retry, breakers, shard health.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Default per-request deadline budget in ticks, applied at submission
    /// to requests that carry none (`None` = no default budget).
    pub deadline_ticks: Option<u64>,
    /// Retry policy for transient model-path failures.
    pub retry: RetryPolicy,
    /// Per-tenant and per-shard circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Shard health supervision tuning.
    pub supervisor: SupervisorConfig,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            deadline_ticks: Some(8),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Compute path for non-degraded lanes.
    pub mode: ExecMode,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Registry geometry.
    pub registry: RegistryConfig,
    /// Request lifecycle control.
    pub lifecycle: LifecycleConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ExecMode::Batched,
            queue_capacity: 4096,
            registry: RegistryConfig::default(),
            lifecycle: LifecycleConfig::default(),
        }
    }
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Fused batched forward.
    Batched,
    /// Per-tenant workspace forward.
    Serial,
    /// WMA smoothing fallback (degraded, tripped, or unresolvable lane).
    Fallback,
    /// Deadline expired before the engine could answer; the value is the
    /// smoothing fallback over the request's own history.
    Expired,
}

impl ResponseSource {
    /// The byte [`response_digest`] hashes. Committed digests depend on
    /// these values, so they are never renumbered or reused (2 is free).
    fn tag(self) -> u8 {
        match self {
            ResponseSource::Batched => 0,
            ResponseSource::Serial => 1,
            ResponseSource::Fallback => 3,
            ResponseSource::Expired => 4,
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// The request's key.
    pub key: ClientKey,
    /// Forecast JAR for the next interval (non-negative).
    pub value: f64,
    /// Which path produced `value`.
    pub source: ResponseSource,
    /// True when the tenant was answered by the smoothing fallback.
    pub degraded: bool,
}

/// Lifecycle accounting: what the resilience layer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Requests answered as [`ResponseSource::Expired`].
    pub expired: u64,
    /// Retries parked after transient failures.
    pub retries: u64,
    /// Requests deferred off a slow shard.
    pub deferrals: u64,
    /// Requests answered from fallback because a breaker was open.
    pub breaker_fallbacks: u64,
    /// Breaker trips (tenant + shard), cumulative.
    pub breaker_trips: u64,
    /// Shard drain-restarts ordered by the supervisor.
    pub shard_drains: u64,
    /// Longest observed Unhealthy -> Healthy shard recovery, in ticks.
    pub worst_recovery_ticks: u64,
}

/// Engine-wide accounting (queue + cache + serving + lifecycle counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests answered (any source).
    pub served: u64,
    /// Requests answered by the smoothing fallback (degraded for any
    /// reason, including breaker routing and expiry).
    pub degraded: u64,
    /// Queue accounting.
    pub admission: AdmissionStats,
    /// Registry cache accounting.
    pub cache: RegistryStats,
    /// Lifecycle accounting.
    pub lifecycle: LifecycleStats,
}

/// One resolved, batchable lane.
struct Lane {
    id: u64,
    key: ClientKey,
    shard: usize,
    scaler: ld_api::MinMaxScaler,
    /// Scaled window, exactly `history_len` long.
    window: Vec<f64>,
}

/// Lanes sharing one set of weights, plus a clone of those weights to run
/// them with (cloned once per group per tick; the registry stays free to
/// evict mid-tick without invalidating the batch).
struct Group {
    model: LstmForecaster,
    lanes: Vec<Lane>,
}

impl Group {
    /// One fused batched forward over every lane, with its own scratch so
    /// groups can run on different threads.
    fn predict_fused(&self) -> Vec<f64> {
        let batch = self.lanes.len();
        let mut windows = Vec::with_capacity(batch * self.model.config().history_len);
        for lane in &self.lanes {
            windows.extend_from_slice(&lane.window);
        }
        let mut out = vec![0.0; batch];
        self.model
            .predict_batch_fused(&windows, batch, &mut BatchScratch::new(), &mut out);
        out
    }
}

/// A request in flight across ticks: how many retries it has consumed and
/// whether it has already been deferred off a slow shard.
#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    attempt: u32,
    deferred: bool,
}

/// Model-path outcome for breaker/supervisor bookkeeping.
struct Outcome {
    id: u64,
    key: ClientKey,
    shard: usize,
    ok: bool,
}

/// The serving engine.
#[derive(Debug)]
pub struct ServeEngine {
    mode: ExecMode,
    lifecycle: LifecycleConfig,
    registry: ShardedRegistry,
    store: SnapshotStore,
    queue: AdmissionQueue,
    tracer: Tracer,
    tick: u64,
    served: u64,
    degraded: u64,
    lifecycle_stats: LifecycleStats,
    /// Requests parked for retry backoff or slow-shard deferral.
    parked: RetrySchedule<InFlight>,
    /// Per-tenant breakers, keyed deterministically by client key.
    tenant_breakers: BTreeMap<ClientKey, Breaker>,
    /// Per-shard breakers.
    shard_breakers: Vec<Breaker>,
    /// Driver-installed per-shard service delay for the *next* tick
    /// (chaos slow-shard windows); cleared by `set_shard_delays`.
    shard_delay: Vec<u64>,
    supervisor: ShardSupervisor,
    /// Pure-observer metrics plane. Disabled by default; every recording
    /// site below is guarded so the metrics-off path does no extra work
    /// and no engine decision ever reads a metric.
    metrics: Metrics,
    /// Submission tick per in-flight request id, kept only while metrics
    /// are enabled, for the logical request-latency histogram.
    submit_tick: BTreeMap<u64, u64>,
    /// Registry/breaker/supervisor totals already exported, so each tick
    /// emits deltas (counters stay monotonic).
    cache_seen: RegistryStats,
    trips_seen: u64,
    drains_seen: u64,
    /// Fault plan for the `batch_nan` site (the store holds a clone for
    /// its own sites). Off by default.
    faults: Faults,
}

impl ServeEngine {
    /// Builds an engine spilling to `store`.
    pub fn new(cfg: EngineConfig, store: SnapshotStore, tracer: Tracer) -> Self {
        let shards = cfg.registry.shard_count;
        ServeEngine {
            mode: cfg.mode,
            lifecycle: cfg.lifecycle,
            registry: ShardedRegistry::new(cfg.registry),
            store,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            tracer,
            tick: 0,
            served: 0,
            degraded: 0,
            lifecycle_stats: LifecycleStats::default(),
            parked: RetrySchedule::new(),
            tenant_breakers: BTreeMap::new(),
            shard_breakers: (0..shards).map(|_| Breaker::new(cfg.lifecycle.breaker)).collect(),
            shard_delay: vec![0; shards],
            supervisor: ShardSupervisor::new(cfg.lifecycle.supervisor, shards),
            metrics: Metrics::disabled(),
            submit_tick: BTreeMap::new(),
            cache_seen: RegistryStats::default(),
            trips_seen: 0,
            drains_seen: 0,
            faults: Faults::default(),
        }
    }

    /// Replaces the fault plan of the engine (`batch_nan`) and of its
    /// snapshot store (`snapshot`, `crash`). `Faults::default()` turns
    /// injection off; a fresh handle restarts the occurrence counters.
    pub fn set_faults(&mut self, faults: Faults) {
        self.store.set_faults(faults.clone());
        self.faults = faults;
    }

    /// Attaches a metrics handle (builder style, like the tracer). The
    /// engine only ever *writes* metrics; behavior with metrics enabled is
    /// bitwise identical to disabled — the loadgen and perfbench gates
    /// assert it.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The metrics handle threaded through every tick.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Installs a snapshot for `key` (training-time provisioning). Spill
    /// failures during eviction keep the victim resident and are counted
    /// in [`RegistryStats::failed_spills`].
    pub fn provision(&mut self, key: ClientKey, snapshot: ModelSnapshot) {
        self.registry.insert(key, snapshot, &self.store);
    }

    /// Offers a request; `Err` returns it because it was shed. Requests
    /// without a deadline receive the engine's default budget (deadline =
    /// next tick + `deadline_ticks`).
    pub fn submit(&mut self, mut req: Request) -> Result<(), Request> {
        if req.deadline.is_none() {
            if let Some(budget) = self.lifecycle.deadline_ticks {
                req.deadline = Some(self.tick.saturating_add(budget));
            }
        }
        let id = req.id;
        match self.queue.offer(req) {
            Ok(()) => {
                if self.metrics.is_enabled() {
                    self.metrics.incr("serve.requests_submitted_total");
                    self.submit_tick.insert(id, self.tick);
                }
                Ok(())
            }
            Err(req) => {
                self.metrics.incr("serve.requests_shed_total");
                Err(req)
            }
        }
    }

    /// Engine-wide accounting.
    pub fn stats(&self) -> ServeStats {
        let mut lifecycle = self.lifecycle_stats;
        lifecycle.breaker_trips = self
            .tenant_breakers
            .values()
            .chain(self.shard_breakers.iter())
            .map(Breaker::trips)
            .sum();
        lifecycle.shard_drains = self.supervisor.drains();
        lifecycle.worst_recovery_ticks = self.supervisor.worst_recovery_ticks();
        ServeStats {
            served: self.served,
            degraded: self.degraded,
            admission: self.queue.stats(),
            cache: self.registry.stats(),
            lifecycle,
        }
    }

    /// The registry's fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.registry.shard_count()
    }

    /// Current queue depth (bounded by the configured capacity).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Requests the engine still owes an answer for: queued plus parked
    /// (retry backoff / slow-shard deferral). Drivers tick until this hits
    /// zero — the "no hangs" settle loop.
    pub fn pending_work(&self) -> usize {
        self.queue.depth() + self.parked.len()
    }

    /// The tracer threaded through every tick.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The snapshot spill store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Direct registry access (tests and capacity experiments).
    pub fn registry(&self) -> &ShardedRegistry {
        &self.registry
    }

    /// The tenant breaker's current state (tests, bench reporting).
    pub fn tenant_breaker_state(&self, key: &ClientKey) -> BreakerState {
        self.tenant_breakers
            .get(key)
            .map_or(BreakerState::Closed, Breaker::state)
    }

    /// The shard's current health.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.supervisor.health(shard)
    }

    /// Installs per-shard service delays for subsequent ticks (chaos
    /// slow-shard windows). Unlisted shards are reset to zero delay.
    pub fn set_shard_delays(&mut self, delays: &[(u64, u64)]) {
        self.shard_delay.iter_mut().for_each(|d| *d = 0);
        for &(shard, delay) in delays {
            if let Some(slot) = self.shard_delay.get_mut(shard as usize) {
                *slot = (*slot).max(delay);
            }
        }
    }

    /// Runs a crash-recovery pass over the snapshot store (quarantine torn
    /// temps and corrupt entries, rebuild the index) and records it as a
    /// `store_recovery` span indexed by the current tick.
    pub fn recover_store(&mut self) -> std::io::Result<RecoveryReport> {
        let report = self.store.recover()?;
        self.tracer.record_span(
            "store_recovery",
            self.tick,
            (report.quarantined_torn + report.quarantined_corrupt) as u64,
            report.indexed as u64,
        );
        if self.metrics.is_enabled() {
            self.metrics.incr("serve.store_recoveries_total");
            self.metrics.add(
                "serve.store_quarantined_total",
                (report.quarantined_torn + report.quarantined_corrupt) as u64,
            );
            self.metrics.gauge_set("serve.store_indexed", report.indexed as u64);
        }
        Ok(report)
    }

    /// Drains the queue plus due retries and answers every request it can;
    /// parks retries/deferrals for later ticks. Responses come back sorted
    /// by request id regardless of batching layout.
    pub fn tick(&mut self) -> Vec<Response> {
        let tick_idx = self.tick;
        self.tick += 1;
        let tick_span = self.tracer.span_at("tick", tick_idx);
        let tr = tick_span.tracer();

        // Lifecycle counters are emitted as per-tick deltas against this
        // entry snapshot, so one guard covers every site in the resolve
        // loop below.
        let lifecycle_before = self.lifecycle_stats;
        if self.metrics.is_enabled() {
            self.metrics.gauge_set("serve.queue_depth", self.queue.depth() as u64);
            self.metrics.gauge_set("serve.parked", self.parked.len() as u64);
        }

        let mut work: Vec<InFlight> = self.parked.release(tick_idx);
        work.extend(self.queue.drain().into_iter().map(|req| InFlight {
            req,
            attempt: 0,
            deferred: false,
        }));
        // Seed-derived composition: order by schedule-assigned id, not by
        // the order submissions happened to arrive in.
        work.sort_by_key(|w| w.req.id);

        let mut responses: Vec<Response> = Vec::with_capacity(work.len());
        let mut groups: BTreeMap<u64, Group> = BTreeMap::new();
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut per_shard = vec![0u64; self.registry.shard_count()];
        let mut shard_obs = vec![ShardObservation::default(); self.registry.shard_count()];

        {
            let resolve_span = tr.span_at("resolve", tick_idx);
            let rtr = resolve_span.tracer();
            for item in work {
                let shard = self.registry.shard_of(&item.req.key);
                per_shard[shard] += 1;

                // Deadline budget: a request the engine failed to answer by
                // its deadline tick gets an explicit Expired answer — an
                // answer from its own history, never a hang.
                if item.req.deadline.is_some_and(|d| tick_idx > d) {
                    self.lifecycle_stats.expired += 1;
                    responses.push(expired_response(&item.req));
                    continue;
                }

                // Slow-shard deferral: at most once per request, and never
                // past the deadline.
                let delay = self.shard_delay[shard];
                if delay > 0 && !item.deferred {
                    let release = tick_idx + delay;
                    shard_obs[shard].deferred += 1;
                    if item.req.deadline.is_some_and(|d| release > d) {
                        self.lifecycle_stats.expired += 1;
                        responses.push(expired_response(&item.req));
                    } else {
                        self.lifecycle_stats.deferrals += 1;
                        self.parked.park(
                            release,
                            InFlight {
                                deferred: true,
                                ..item
                            },
                        );
                    }
                    continue;
                }

                // Circuit breakers: shard first, then tenant. An open
                // breaker answers from the tenant's own history and records
                // no outcome (fast-fails must not extend the cooldown).
                let shard_route = self.shard_breakers[shard].route(tick_idx);
                let route = if shard_route == Route::Fallback {
                    Route::Fallback
                } else {
                    self.tenant_breakers
                        .entry(item.req.key.clone())
                        .or_insert_with(|| Breaker::new(self.lifecycle.breaker))
                        .route(tick_idx)
                };
                if route == Route::Fallback {
                    self.lifecycle_stats.breaker_fallbacks += 1;
                    responses.push(fallback_response(&item.req));
                    continue;
                }

                match self.registry.get(&item.req.key, &self.store) {
                    Ok(snap) => {
                        let scaler = snap.scaler();
                        let n = snap.history_len();
                        let fingerprint = snap.fingerprint();
                        let mut window = scaled_window(&item.req.history, n, scaler);
                        if self.faults.hit(
                            FaultSite::BatchNan,
                            item.req.key.stable_hash() ^ tick_idx.rotate_left(23),
                        ) {
                            // Simulated upstream poison: the lane's scaled
                            // window arrives non-finite.
                            window[0] = f64::NAN;
                        }
                        if window.iter().all(|v| v.is_finite()) {
                            let group = groups.entry(fingerprint).or_insert_with(|| Group {
                                model: snap.model().clone(),
                                lanes: Vec::new(),
                            });
                            group.lanes.push(Lane {
                                id: item.req.id,
                                key: item.req.key,
                                shard,
                                scaler,
                                window,
                            });
                        } else {
                            self.finish_failure(
                                tick_idx,
                                item,
                                shard,
                                true,
                                &mut responses,
                                &mut outcomes,
                            );
                        }
                    }
                    Err(err) => {
                        // Corrupt spills are transient (the bytes may heal
                        // after recovery/re-spill); Missing is permanent.
                        let transient = matches!(err, SnapshotError::Corrupt(_));
                        self.finish_failure(
                            tick_idx,
                            item,
                            shard,
                            transient,
                            &mut responses,
                            &mut outcomes,
                        );
                    }
                }
            }
            for (shard, &n) in per_shard.iter().enumerate() {
                if n > 0 {
                    rtr.record_span("shard", shard as u64, n, 0);
                }
            }
        }

        if self.metrics.is_enabled() {
            for (shard, &n) in per_shard.iter().enumerate() {
                if n > 0 {
                    self.metrics.gauge_set(&format!("serve.shard{shard}.requests"), n);
                    self.metrics.observe("serve.shard_requests", n);
                }
            }
            self.metrics.observe("serve.batch_groups", groups.len() as u64);
            for group in groups.values() {
                self.metrics.observe("serve.batch_size", group.lanes.len() as u64);
            }
        }

        // Inference. Every group's outputs come from one call: parallel
        // over the groups on the shim's pool (Batched), or lane after lane
        // on this thread (Serial, the oracle). Either way the outputs come
        // back in group order, and responses, outcomes and `request` leaves
        // are built from them sequentially below. Clocks are read only
        // while tracing.
        let groups: Vec<Group> = groups.into_values().collect();
        let timed = tr.is_enabled();
        let section = start_clock(timed);
        let mode = self.mode;
        let infer = |group: &Group| -> (Vec<f64>, u64) {
            let start = start_clock(timed);
            let out = match mode {
                ExecMode::Batched => group.predict_fused(),
                ExecMode::Serial => group
                    .lanes
                    .iter()
                    .map(|lane| group.model.predict(&lane.window))
                    .collect(),
            };
            (out, elapsed_ns(start))
        };
        let computed: Vec<(Vec<f64>, u64)> = match mode {
            ExecMode::Batched => groups.par_iter().map(infer).collect(),
            ExecMode::Serial => groups.iter().map(infer).collect(),
        };
        let section_ns = elapsed_ns(section);
        let source = match mode {
            ExecMode::Batched => ResponseSource::Batched,
            ExecMode::Serial => ResponseSource::Serial,
        };

        let mut build_ns = Vec::with_capacity(groups.len());
        for (ordinal, (group, (out, _))) in groups.iter().zip(&computed).enumerate() {
            let start = start_clock(timed);
            let btr = tr.scoped("batch", ordinal as u64);
            for (lane, &y) in group.lanes.iter().zip(out) {
                btr.record_span("request", lane.id, 1, 0);
                let resp = finish_lane(lane, y, source);
                outcomes.push(Outcome {
                    id: lane.id,
                    key: lane.key.clone(),
                    shard: lane.shard,
                    ok: !resp.degraded,
                });
                responses.push(resp);
            }
            build_ns.push(elapsed_ns(start));
        }
        if timed {
            let busy_ns: Vec<u64> = computed.iter().map(|&(_, ns)| ns).collect();
            record_batch_spans(&tr, section_ns, &busy_ns, &build_ns);
        }

        // Apply model-path outcomes in id order: breaker state advances as
        // a pure function of the (deterministic) outcome sequence.
        outcomes.sort_by_key(|o| o.id);
        for o in &outcomes {
            shard_obs[o.shard].services += 1;
            if !o.ok {
                shard_obs[o.shard].errors += 1;
            }
            self.shard_breakers[o.shard].record(tick_idx, o.ok);
            self.tenant_breakers
                .entry(o.key.clone())
                .or_insert_with(|| Breaker::new(self.lifecycle.breaker))
                .record(tick_idx, o.ok);
        }

        // Shard health: escalate, drain unhealthy shards (spill + evict so
        // future requests rehydrate from durable state), and record every
        // transition as a span (duration = new state, ago = old state).
        let mut transitions = self.supervisor.observe(tick_idx, &shard_obs);
        let unhealthy: Vec<usize> = transitions
            .iter()
            .filter(|t| t.to == ShardHealth::Unhealthy)
            .map(|t| t.shard)
            .collect();
        for shard in unhealthy {
            self.registry.drain_shard(shard, &self.store);
            if let Some(t) = self.supervisor.mark_drained(shard) {
                transitions.push(t);
            }
        }
        for t in &transitions {
            tr.record_span("shard_health", t.shard as u64, t.to.code(), t.from.code());
        }

        responses.sort_by_key(|r| r.id);
        self.served += responses.len() as u64;
        self.degraded += responses.iter().filter(|r| r.degraded).count() as u64;

        if self.metrics.is_enabled() {
            self.record_tick_metrics(tick_idx, &responses, lifecycle_before, &transitions);
        }
        responses
    }

    /// Per-tick metrics export: response counters, logical latency
    /// histogram, lifecycle deltas, breaker/supervisor transitions, and
    /// registry cache deltas. Called only with metrics enabled; reads
    /// engine state, never writes it.
    fn record_tick_metrics(
        &mut self,
        tick_idx: u64,
        responses: &[Response],
        lifecycle_before: LifecycleStats,
        transitions: &[crate::supervisor::HealthTransition],
    ) {
        let m = &self.metrics;
        m.add("serve.responses_total", responses.len() as u64);
        for r in responses {
            if r.degraded {
                m.incr("serve.responses_degraded_total");
            }
            if let Some(submitted) = self.submit_tick.remove(&r.id) {
                m.observe("serve.request_latency_ticks", tick_idx.saturating_sub(submitted));
            }
        }
        let lc = self.lifecycle_stats;
        m.add("serve.expired_total", lc.expired.saturating_sub(lifecycle_before.expired));
        m.add("serve.retries_total", lc.retries.saturating_sub(lifecycle_before.retries));
        m.add(
            "serve.deferrals_total",
            lc.deferrals.saturating_sub(lifecycle_before.deferrals),
        );
        m.add(
            "serve.breaker_fallbacks_total",
            lc.breaker_fallbacks.saturating_sub(lifecycle_before.breaker_fallbacks),
        );

        let trips: u64 = self
            .tenant_breakers
            .values()
            .chain(self.shard_breakers.iter())
            .map(Breaker::trips)
            .sum();
        m.add("serve.breaker_trips_total", trips.saturating_sub(self.trips_seen));
        self.trips_seen = trips;

        m.add("serve.shard_health_transitions_total", transitions.len() as u64);
        let drains = self.supervisor.drains();
        m.add("serve.shard_drains_total", drains.saturating_sub(self.drains_seen));
        self.drains_seen = drains;

        let cache = self.registry.stats();
        let seen = self.cache_seen;
        m.add("serve.cache_hits_total", cache.hits.saturating_sub(seen.hits));
        m.add("serve.cache_misses_total", cache.misses.saturating_sub(seen.misses));
        m.add(
            "serve.cache_rehydrations_total",
            cache.rehydrations.saturating_sub(seen.rehydrations),
        );
        m.add(
            "serve.cache_corrupt_rehydrations_total",
            cache.corrupt_rehydrations.saturating_sub(seen.corrupt_rehydrations),
        );
        m.add("serve.cache_evictions_total", cache.evictions.saturating_sub(seen.evictions));
        m.add(
            "serve.cache_failed_spills_total",
            cache.failed_spills.saturating_sub(seen.failed_spills),
        );
        self.cache_seen = cache;
    }

    /// Handles a model-path failure for `item`: records the outcome, then
    /// either parks a retry (transient failure, budget and deadline allow)
    /// or answers from the fallback now.
    fn finish_failure(
        &mut self,
        tick_idx: u64,
        item: InFlight,
        shard: usize,
        transient: bool,
        responses: &mut Vec<Response>,
        outcomes: &mut Vec<Outcome>,
    ) {
        outcomes.push(Outcome {
            id: item.req.id,
            key: item.req.key.clone(),
            shard,
            ok: false,
        });
        let next_attempt = item.attempt + 1;
        if transient && self.lifecycle.retry.allows(next_attempt) {
            // Jitter derives from the request id — the request's own seed —
            // never the wall clock.
            let backoff = self
                .lifecycle
                .retry
                .backoff(next_attempt, item.req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let release = tick_idx + backoff;
            if item.req.deadline.is_none_or(|d| release <= d) {
                self.lifecycle_stats.retries += 1;
                self.parked.park(
                    release,
                    InFlight {
                        attempt: next_attempt,
                        ..item
                    },
                );
                return;
            }
        }
        responses.push(fallback_response(&item.req));
    }
}

/// Starts a span clock, but only when `timed` (tracing is on): an untraced
/// tick reads no clock.
fn start_clock(timed: bool) -> Option<Instant> {
    // ld-lint: allow(determinism, "batch span timing while tracing; no answer or decision reads it")
    timed.then(Instant::now)
}

/// Nanoseconds since `start`, or 0 for a clock that never started.
fn elapsed_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Records each group's `tick/batch#g` span once the tick's responses are
/// built. Group `g`'s span is its share of the inference section's wall
/// time, weighted by its busy time (`busy_ns[g]`, measured on whichever
/// thread ran it), plus the time its responses took to build
/// (`build_ns[g]`). The spans tile the interval that ends now, in group
/// order, so they sum to wall time, not to busy time summed over threads,
/// and none is negative. Equal weights stand in when no busy time
/// registered on the clock.
fn record_batch_spans(tr: &Tracer, section_ns: u64, busy_ns: &[u64], build_ns: &[u64]) {
    let weights: Vec<u128> = if busy_ns.iter().all(|&b| b == 0) {
        vec![1; busy_ns.len()]
    } else {
        busy_ns.iter().map(|&b| u128::from(b)).collect()
    };
    let weight_total: u128 = weights.iter().sum();
    // Cumulative rounding: the shares sum to `section_ns` exactly.
    let mut cum_weight = 0u128;
    let mut cum_share = 0u64;
    let spans: Vec<u64> = weights
        .iter()
        .zip(build_ns)
        .map(|(&weight, &build)| {
            cum_weight += weight;
            let upto = u64::try_from(u128::from(section_ns) * cum_weight / weight_total)
                .unwrap_or(section_ns);
            let share = upto - cum_share;
            cum_share = upto;
            share.saturating_add(build)
        })
        .collect();
    let mut ago: u64 = spans.iter().sum();
    for (g, &dur) in spans.iter().enumerate() {
        ago -= dur;
        tr.record_span("batch", g as u64, dur, ago);
    }
}

/// Mirrors `OptimizedPredictor::predict`'s window preparation exactly:
/// take the last `n` observations (left-padding with the earliest value
/// when the history is shorter) and scale each one.
fn scaled_window(history: &[f64], n: usize, scaler: ld_api::MinMaxScaler) -> Vec<f64> {
    assert!(!history.is_empty(), "request history must be non-empty");
    if history.len() >= n {
        history[history.len() - n..]
            .iter()
            .map(|&v| scaler.transform(v))
            .collect()
    } else {
        let pad = n - history.len();
        std::iter::repeat_n(history[0], pad)
            .chain(history.iter().cloned())
            .map(|v| scaler.transform(v))
            .collect()
    }
}

/// Inverse-scales a model output and clamps to the non-negative JAR domain
/// (same post-processing as `OptimizedPredictor::predict`). A non-finite
/// model output degrades the lane instead of poisoning the response.
fn finish_lane(lane: &Lane, y: f64, source: ResponseSource) -> Response {
    let value = lane.scaler.inverse(y).max(0.0);
    if value.is_finite() {
        Response {
            id: lane.id,
            key: lane.key.clone(),
            value,
            source,
            degraded: false,
        }
    } else {
        Response {
            id: lane.id,
            key: lane.key.clone(),
            value: wma_forecast_scaled(lane),
            source: ResponseSource::Fallback,
            degraded: true,
        }
    }
}

/// The smoothing fallback over a lane's scaled window, inverse-scaled.
fn wma_forecast_scaled(lane: &Lane) -> f64 {
    let raw: Vec<f64> = lane.window.iter().map(|&u| lane.scaler.inverse(u)).collect();
    ld_baselines::smoothing::Wma::default().predict(&raw).max(0.0)
}

/// The smoothing fallback value straight over a request's raw history.
fn fallback_value(req: &Request) -> f64 {
    let finite: Vec<f64> = req.history.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        ld_baselines::smoothing::Wma::default().predict(&finite).max(0.0)
    }
}

/// The smoothing fallback for a request that never produced a lane
/// (corrupt snapshot / poisoned window / open breaker).
fn fallback_response(req: &Request) -> Response {
    Response {
        id: req.id,
        key: req.key.clone(),
        value: fallback_value(req),
        source: ResponseSource::Fallback,
        degraded: true,
    }
}

/// The explicit answer for a request whose deadline passed.
fn expired_response(req: &Request) -> Response {
    Response {
        id: req.id,
        key: req.key.clone(),
        value: fallback_value(req),
        source: ResponseSource::Expired,
        degraded: true,
    }
}

/// FNV-1a digest over a response stream: id, value bits, source, degraded
/// flag of every response in order. Two identically-seeded runs must
/// produce equal digests — the loadgen's bitwise-determinism gate.
pub fn response_digest(responses: &[Response]) -> u64 {
    let mut h = crate::hash::FNV_OFFSET;
    for r in responses {
        h = crate::hash::fnv1a_u64(h, r.id);
        h = crate::hash::fnv1a_u64(h, r.value.to_bits());
        h = crate::hash::fnv1a_byte(h, r.source.tag());
        h = crate::hash::fnv1a_byte(h, u8::from(r.degraded));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_api::MinMaxScaler;
    use ld_nn::ForecasterConfig;

    fn test_store(name: &str) -> SnapshotStore {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/ld-serve-unit");
        p.push(name);
        let s = SnapshotStore::open(p).expect("open store");
        s.clear().expect("clear store");
        s
    }

    fn engine(name: &str, mode: ExecMode) -> ServeEngine {
        ServeEngine::new(
            EngineConfig {
                mode,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig::default(),
            },
            test_store(name),
            Tracer::disabled(),
        )
    }

    fn snapshot(seed: u64, lo_hi: (f64, f64)) -> ModelSnapshot {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 4,
            num_layers: 1,
            seed,
        });
        ModelSnapshot::new(model, MinMaxScaler::fit(&[lo_hi.0, lo_hi.1]), 6)
    }

    fn history(id: u64) -> Vec<f64> {
        (0..9).map(|i| 40.0 + f64::from(i) * 3.0 + (id as f64)).collect()
    }

    /// What the oracle answers for `history` on `snap`: the scaled window
    /// through [`LstmForecaster::predict_reference`], inverse-scaled and
    /// clamped like every served answer.
    fn reference_answer(snap: &ModelSnapshot, history: &[f64]) -> f64 {
        let window = scaled_window(history, snap.history_len(), snap.scaler());
        snap.scaler()
            .inverse(snap.model().predict_reference(&window))
            .max(0.0)
    }

    /// One tick over `tenants`, each provisioned with its own snapshot and
    /// asking once with `history(i)`; the queue and registry hold them all.
    fn one_tick(name: &str, mode: ExecMode, snaps: &[ModelSnapshot]) -> Vec<Response> {
        let mut e = ServeEngine::new(
            EngineConfig {
                mode,
                queue_capacity: snaps.len(),
                registry: RegistryConfig {
                    shard_count: 4,
                    capacity_per_shard: snaps.len(),
                },
                lifecycle: LifecycleConfig::default(),
            },
            test_store(name),
            Tracer::disabled(),
        );
        for (i, snap) in snaps.iter().enumerate() {
            e.provision(ClientKey::new(format!("t{i}"), "w"), snap.clone());
        }
        for i in 0..snaps.len() {
            let key = ClientKey::new(format!("t{i}"), "w");
            e.submit(Request::new(i as u64, key, history(i as u64))).expect("admit");
        }
        e.tick()
    }

    #[test]
    fn batched_equals_reference_bitwise_and_serial_to_1e12() {
        // Two distinct models (two groups), per-tenant scalers.
        let snaps: Vec<ModelSnapshot> = (0..8u32)
            .map(|t| snapshot(u64::from(t % 2), (0.0, 100.0 + f64::from(t))))
            .collect();
        let batched = one_tick("engine-eq-batched", ExecMode::Batched, &snaps);
        let serial = one_tick("engine-eq-serial", ExecMode::Serial, &snaps);
        assert_eq!(batched.len(), 8);
        for (i, (rb, rs)) in batched.iter().zip(&serial).enumerate() {
            assert_eq!((rb.id, rs.id), (i as u64, i as u64));
            assert_eq!(rb.source, ResponseSource::Batched);
            assert_eq!(rs.source, ResponseSource::Serial);
            let want = reference_answer(&snaps[i], &history(i as u64));
            assert_eq!(
                rb.value.to_bits(),
                want.to_bits(),
                "batched vs reference must be bitwise identical (id {i})"
            );
            assert!(
                (rb.value - rs.value).abs() <= 1e-12 * (1.0 + rs.value.abs()),
                "batched vs serial beyond 1e-12: {} vs {}",
                rb.value,
                rs.value
            );
        }
    }

    #[test]
    fn uneven_groups_in_one_tick_answer_like_the_reference_bitwise() {
        // Four models whose groups hold 1, 7, 9 and 400 lanes: the groups
        // run in one parallel call, and no lane's bits may depend on how
        // many lanes share its group or which thread ran it.
        let mut snaps = Vec::new();
        for (seed, lanes) in [(21u64, 1u32), (22, 7), (23, 9), (24, 400)] {
            for l in 0..lanes {
                snaps.push(snapshot(seed, (0.0, 60.0 + f64::from(l % 13))));
            }
        }
        let fingerprints: std::collections::BTreeSet<u64> =
            snaps.iter().map(ModelSnapshot::fingerprint).collect();
        assert_eq!(fingerprints.len(), 4, "one group per model");
        let rs = one_tick("engine-uneven-groups", ExecMode::Batched, &snaps);
        assert_eq!(rs.len(), snaps.len());
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.source, ResponseSource::Batched);
            let want = reference_answer(&snaps[i], &history(i as u64));
            assert_eq!(r.value.to_bits(), want.to_bits(), "id {i}");
        }
    }

    #[test]
    fn batch_spans_split_the_section_wall_time_by_busy_time() {
        let durations = |busy: &[u64]| -> Vec<u64> {
            let tr = Tracer::enabled();
            record_batch_spans(&tr, 1000, busy, &[5, 5, 5]);
            tr.snapshot().spans.iter().map(|s| s.dur_ns).collect()
        };
        // Shares of the 1000 ns section follow busy time (summed over
        // threads it may exceed the section), plus each group's 5 ns of
        // response building; the spans add up to wall time.
        assert_eq!(durations(&[1500, 500, 0]), vec![755, 255, 5]);
        // No busy time on the clock: equal shares, rounding kept exact.
        assert_eq!(durations(&[0, 0, 0]), vec![338, 338, 339]);
    }

    #[test]
    fn responses_sorted_by_id_regardless_of_submission_order() {
        let mut e = engine("engine-order", ExecMode::Batched);
        let key = |t: u64| ClientKey::new(format!("t{t}"), "w");
        for t in 0..4 {
            e.provision(key(t), snapshot(0, (0.0, 50.0)));
        }
        for id in [3u64, 0, 2, 1] {
            e.submit(Request::new(id, key(id), history(id))).expect("admit");
        }
        let ids: Vec<u64> = e.tick().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_tenant_degrades_to_wma_without_affecting_others() {
        let mut e = engine("engine-degrade", ExecMode::Batched);
        let known = ClientKey::new("known", "w");
        e.provision(known.clone(), snapshot(5, (0.0, 80.0)));
        e.submit(Request::new(0, known.clone(), history(0))).expect("admit");
        e.submit(Request::new(1, ClientKey::new("ghost", "w"), history(1)))
            .expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 2);
        assert!(!rs[0].degraded);
        assert_eq!(rs[0].source, ResponseSource::Batched);
        assert!(rs[1].degraded);
        assert_eq!(rs[1].source, ResponseSource::Fallback);
        assert!(rs[1].value.is_finite() && rs[1].value >= 0.0);

        // The known tenant's answer is identical to a solo run.
        let mut solo = engine("engine-degrade-solo", ExecMode::Batched);
        solo.provision(known.clone(), snapshot(5, (0.0, 80.0)));
        solo.submit(Request::new(0, known, history(0))).expect("admit");
        let solo_rs = solo.tick();
        assert_eq!(rs[0].value.to_bits(), solo_rs[0].value.to_bits());
    }

    #[test]
    fn identical_seed_ticks_have_equal_digests_and_span_trees() {
        let run = |store_name: &str| -> (u64, Vec<String>) {
            let mut e = ServeEngine::new(
                EngineConfig {
                    mode: ExecMode::Batched,
                    queue_capacity: 64,
                    registry: RegistryConfig {
                        shard_count: 4,
                        capacity_per_shard: 16,
                    },
                    lifecycle: LifecycleConfig::default(),
                },
                test_store(store_name),
                Tracer::enabled(),
            );
            let mut all = Vec::new();
            for t in 0..6u64 {
                let key = ClientKey::new(format!("t{t}"), "w");
                e.provision(key, snapshot(t % 3, (0.0, 60.0)));
            }
            for tick in 0..3u64 {
                for t in 0..6u64 {
                    e.submit(Request::new(
                        tick * 6 + t,
                        ClientKey::new(format!("t{t}"), "w"),
                        history(t + tick),
                    ))
                    .expect("admit");
                }
                all.extend(e.tick());
            }
            (response_digest(&all), e.tracer().snapshot().logical_paths())
        };
        let (d1, p1) = run("engine-det-a");
        let (d2, p2) = run("engine-det-b");
        assert_eq!(d1, d2, "identically-seeded runs must produce equal digests");
        assert_eq!(p1, p2, "identically-seeded runs must produce equal span trees");
        assert!(p1.iter().any(|p| p.contains("batch")));
        assert!(p1.iter().any(|p| p.contains("request")));
        assert!(p1.iter().any(|p| p.contains("shard")));
    }

    #[test]
    fn short_history_left_pads_like_the_framework() {
        let scaler = MinMaxScaler::fit(&[0.0, 10.0]);
        let w = scaled_window(&[4.0, 6.0], 4, scaler);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], scaler.transform(4.0));
        assert_eq!(w[1], scaler.transform(4.0));
        assert_eq!(w[3], scaler.transform(6.0));
    }

    #[test]
    fn slow_shard_defers_once_and_answers_after_the_delay() {
        let mut e = engine("engine-slow-shard", ExecMode::Batched);
        let key = ClientKey::new("slowpoke", "w");
        let shard = e.registry().shard_of(&key) as u64;
        e.provision(key.clone(), snapshot(2, (0.0, 90.0)));

        // Tick 0: the shard is slow; the request parks instead of serving.
        e.set_shard_delays(&[(shard, 2)]);
        e.submit(Request::new(0, key.clone(), history(0))).expect("admit");
        assert!(e.tick().is_empty());
        assert_eq!(e.pending_work(), 1);

        // The delay clears; the request is answered at its release tick
        // with bits identical to an undelayed engine's answer.
        e.set_shard_delays(&[]);
        assert!(e.tick().is_empty(), "release tick not yet reached");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].degraded);
        assert_eq!(e.pending_work(), 0);
        assert_eq!(e.stats().lifecycle.deferrals, 1);

        let mut plain = engine("engine-slow-shard-plain", ExecMode::Batched);
        plain.provision(key.clone(), snapshot(2, (0.0, 90.0)));
        plain.submit(Request::new(0, key, history(0))).expect("admit");
        let plain_rs = plain.tick();
        assert_eq!(rs[0].value.to_bits(), plain_rs[0].value.to_bits());
    }

    #[test]
    fn deadline_miss_is_an_explicit_expired_answer() {
        let mut e = engine("engine-deadline", ExecMode::Batched);
        let key = ClientKey::new("hurried", "w");
        let shard = e.registry().shard_of(&key) as u64;
        e.provision(key.clone(), snapshot(3, (0.0, 70.0)));
        // Deadline 0 but the shard is 3 ticks slow: deferral would land
        // past the deadline, so the engine answers Expired immediately.
        e.set_shard_delays(&[(shard, 3)]);
        e.submit(Request::new(0, key, history(0)).with_deadline(0)).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source, ResponseSource::Expired);
        assert!(rs[0].degraded);
        assert!(rs[0].value.is_finite() && rs[0].value >= 0.0);
        assert_eq!(e.stats().lifecycle.expired, 1);
        assert_eq!(e.pending_work(), 0);
    }

    #[test]
    fn tenant_breaker_trips_to_fallback_and_recovers_via_probe() {
        let mut e = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 1,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig {
                    deadline_ticks: None,
                    retry: RetryPolicy {
                        base_ticks: 1,
                        max_retries: 0,
                        jitter_ticks: 0,
                    },
                    breaker: BreakerConfig {
                        failure_threshold: 2,
                        cooldown_ticks: 2,
                        close_streak: 1,
                    },
                    supervisor: SupervisorConfig::default(),
                },
            },
            test_store("engine-breaker"),
            Tracer::disabled(),
        );
        // A ghost tenant fails every model-path attempt (Missing snapshot).
        let ghost = ClientKey::new("ghost", "w");
        let mut id = 0u64;
        for tick in 0..2u64 {
            e.submit(Request::new(id, ghost.clone(), history(tick))).expect("admit");
            id += 1;
            let rs = e.tick();
            assert_eq!(rs[0].source, ResponseSource::Fallback);
        }
        assert_eq!(e.tenant_breaker_state(&ghost), BreakerState::Open);
        assert!(e.stats().lifecycle.breaker_trips >= 1);

        // While open: served from fallback without touching the registry.
        let misses_before = e.stats().cache.misses;
        e.submit(Request::new(id, ghost.clone(), history(9))).expect("admit");
        id += 1;
        let rs = e.tick();
        assert_eq!(rs[0].source, ResponseSource::Fallback);
        assert_eq!(e.stats().cache.misses, misses_before, "open breaker must fast-fail");
        assert!(e.stats().lifecycle.breaker_fallbacks >= 1);

        // Provision the tenant; after cooldown a probe succeeds and closes.
        e.provision(ghost.clone(), snapshot(8, (0.0, 60.0)));
        loop {
            e.submit(Request::new(id, ghost.clone(), history(3))).expect("admit");
            id += 1;
            let rs = e.tick();
            if rs[0].source == ResponseSource::Batched {
                break;
            }
            assert!(id < 20, "breaker never recovered");
        }
        assert_eq!(e.tenant_breaker_state(&ghost), BreakerState::Closed);
    }

    #[test]
    fn metrics_are_pure_observers_and_deterministic() {
        let run = |store_name: &str, metrics: Metrics| -> (u64, Metrics) {
            let mut e = engine(store_name, ExecMode::Batched).with_metrics(metrics);
            let mut all = Vec::new();
            for t in 0..6u64 {
                e.provision(ClientKey::new(format!("t{t}"), "w"), snapshot(t % 3, (0.0, 60.0)));
            }
            for tick in 0..4u64 {
                for t in 0..6u64 {
                    e.submit(Request::new(
                        tick * 6 + t,
                        ClientKey::new(format!("t{t}"), "w"),
                        history(t + tick),
                    ))
                    .expect("admit");
                }
                all.extend(e.tick());
            }
            (response_digest(&all), e.metrics().clone())
        };

        let (d_off, _) = run("engine-metrics-off", Metrics::disabled());
        let (d_on_a, m_a) = run("engine-metrics-a", Metrics::enabled());
        let (d_on_b, m_b) = run("engine-metrics-b", Metrics::enabled());

        // Pure observer: metrics on/off must not change a single response bit.
        assert_eq!(d_off, d_on_a, "metrics-on run diverged from metrics-off");
        // Determinism: identical runs produce byte-identical snapshot JSON.
        let json_a = ld_metrics::to_metrics_json(&m_a.snapshot().deterministic());
        let json_b = ld_metrics::to_metrics_json(&m_b.snapshot().deterministic());
        assert_eq!(d_on_a, d_on_b);
        assert_eq!(json_a, json_b, "metrics snapshots must be byte-identical");

        // The snapshot actually carries the serving story.
        let s = m_a.snapshot();
        assert_eq!(s.counter("serve.requests_submitted_total"), 24);
        assert_eq!(s.counter("serve.responses_total"), 24);
        let lat = s.histogram("serve.request_latency_ticks").expect("latency histogram");
        assert_eq!(lat.count, 24);
        assert!(s.histogram("serve.batch_size").is_some());
        assert!(s.gauge("serve.queue_depth").is_some());
        assert!(ld_metrics::validate_metrics_json(&ld_metrics::to_metrics_json(&s)).is_ok());
        assert!(ld_metrics::validate_exposition(&ld_metrics::to_prometheus(&s)).is_ok());
    }

    #[test]
    fn unhealthy_shard_is_drained_and_served_from_the_store() {
        let mut e = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: 64,
                registry: RegistryConfig {
                    shard_count: 1,
                    capacity_per_shard: 16,
                },
                lifecycle: LifecycleConfig {
                    deadline_ticks: None,
                    retry: RetryPolicy {
                        base_ticks: 1,
                        max_retries: 0,
                        jitter_ticks: 0,
                    },
                    // Breakers effectively off so errors keep flowing to
                    // the supervisor.
                    breaker: BreakerConfig {
                        failure_threshold: u32::MAX,
                        cooldown_ticks: 1,
                        close_streak: 1,
                    },
                    supervisor: SupervisorConfig {
                        degraded_ratio: 0.5,
                        unhealthy_ticks: 2,
                        recovery_ticks: 1,
                    },
                },
            },
            test_store("engine-drain"),
            Tracer::enabled(),
        );
        let good = ClientKey::new("good", "w");
        e.provision(good.clone(), snapshot(4, (0.0, 80.0)));
        let ghost = ClientKey::new("ghost", "w");

        // Three ticks of 100% ghost errors: Degraded, then Unhealthy+drain.
        for tick in 0..3u64 {
            e.submit(Request::new(tick, ghost.clone(), history(tick))).expect("admit");
            e.tick();
        }
        assert_eq!(e.stats().lifecycle.shard_drains, 1);
        assert_eq!(e.shard_health(0), ShardHealth::Recovering);
        // The drain spilled `good` out of memory...
        assert!(!e.registry().is_resident(&good));
        assert!(e.store().contains(&good));

        // ...but it still serves, rehydrated from the store, and the shard
        // heals after a clean tick.
        e.submit(Request::new(10, good.clone(), history(1))).expect("admit");
        let rs = e.tick();
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].degraded);
        assert_eq!(e.shard_health(0), ShardHealth::Healthy);
        assert!(e.stats().lifecycle.worst_recovery_ticks >= 1);
        let paths = e.tracer().snapshot().logical_paths();
        assert!(
            paths.iter().any(|p| p.contains("shard_health")),
            "health transitions must appear in the span tree"
        );
    }
}
