//! The fleet coordinator: several audit servers acting as one DCA engine.
//!
//! A [`FleetCoordinator`] owns a [`PlacementMap`] assigning each worker a
//! contiguous shard range of one cohort, fans partial-reduce requests
//! (`POST /stores/{name}/partials`) out to the fleet, and combines the
//! per-shard partials in ascending shard order through
//! [`fair_core::metrics::sharded::combine_disparity_partials`], which
//! measures through the same selection and centroid steps as the local
//! `MetricPlan` — so a fleet descent is **bit-identical** to the local
//! [`run_full_dca_sharded`](fair_core::dca::run_full_dca_sharded) /
//! [`run_core_dca_sharded`](fair_core::dca::run_core_dca_sharded)
//! trajectory for the same seed, worker count and failures included.
//!
//! Robustness model, in order of escalation:
//!
//! 1. **Retry with jittered exponential backoff** ([`crate::backoff`]) up to
//!    [`FleetConfig::max_attempts`] per worker. Retrying is safe because
//!    both partial kinds are pure functions of the request — a duplicate
//!    execution returns byte-identical data, and the combiner rejects a
//!    shard supplied twice, so a retry can never double-count a range.
//! 2. **Ejection** after [`FleetConfig::eject_after`] consecutive failures:
//!    the worker drops out of the preferred-candidate rotation.
//! 3. **Re-dispatch**: a failed range is offered to the surviving workers
//!    (every worker holds the full store; the placement only splits work),
//!    degrading to a single-node fleet rather than failing the descent.
//! 4. **Re-admission**: ejected workers are health-probed every
//!    [`FleetConfig::probe_every`] fan-out rounds and rejoin on success.
//!
//! Deterministic 4xx rejections are *not* retried or re-dispatched — a
//! request every healthy node rejects is the caller's bug, not a fault.
//!
//! Every escalation is observable: the coordinator carries one trace id —
//! the caller's, via [`FleetCoordinator::with_trace`], or one minted per
//! fan-out round when unset — and sends it to every worker via
//! `x-fair-trace` (so a retried range's server-side spans correlate with
//! the submitting request), mirrors its [`FleetReport`] counters into
//! `fair_fleet_*` registry series, times each worker's requests into
//! `fair_fleet_request_duration_us{worker}`, and emits `fleet.retry` /
//! `fleet.redispatch` / `fleet.eject` / `fleet.readmit` events. When a
//! per-job profile is installed on the dispatching thread, every worker
//! round trip is attributed to the [`Wire`](obs::Phase::Wire) phase and
//! partial combining to [`Combine`](obs::Phase::Combine).

use crate::backoff::Backoff;
use crate::catalog::PlacementMap;
use crate::client::Client;
use crate::error::{Result, ServeError};
use fair_core::dca::{
    run_core_dca_gathered, run_full_descent, CoreDcaOutcome, FullDcaOutcome, RunControl,
    TopKDisparity,
};
use fair_core::metrics::sharded::{combine_disparity_partials, DisparityPartial};
use fair_core::obs;
use fair_core::ranking::{selection_size, WeightedSumRanker};
use fair_core::{DataObject, DcaConfig, FairError, Schema, SchemaRef};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry, timeout, and health-probing knobs for a [`FleetCoordinator`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-request socket deadline (connect, read, and write).
    pub request_timeout: Duration,
    /// Attempts per worker before a range moves to the next candidate.
    pub max_attempts: usize,
    /// First retry delay; doubles per failure (with equal jitter).
    pub backoff_base: Duration,
    /// Retry-delay ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failures after which a worker is ejected.
    pub eject_after: u32,
    /// Fan-out rounds between health probes of an ejected worker.
    pub probe_every: usize,
    /// Extra TCP connect attempts inside each request (see
    /// [`Client::with_connect_retries`]).
    pub connect_retries: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(10),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            eject_after: 3,
            probe_every: 4,
            connect_retries: 1,
        }
    }
}

/// One worker as the coordinator tracks it.
#[derive(Debug)]
struct WorkerState {
    addr: SocketAddr,
    client: Client,
    healthy: bool,
    consecutive_failures: u32,
    rounds_since_eject: usize,
    /// Registry histogram of this worker's request latencies
    /// (`fair_fleet_request_duration_us{worker=addr}`), resolved at connect.
    duration: Arc<obs::Histogram>,
}

/// Registry handles for the coordinator's counters, resolved once at
/// connect. The [`FleetReport`] atomics stay the per-coordinator exact view;
/// these are the process-total series `/metrics` exposes (several
/// coordinators in one process sum here).
#[derive(Debug)]
struct FleetObs {
    requests: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    re_dispatches: Arc<obs::Counter>,
    ejections: Arc<obs::Counter>,
    readmissions: Arc<obs::Counter>,
    partials_cache_hits: Arc<obs::Counter>,
}

impl Default for FleetObs {
    fn default() -> Self {
        Self {
            requests: obs::counter("fair_fleet_requests_total", &[]),
            retries: obs::counter("fair_fleet_retries_total", &[]),
            re_dispatches: obs::counter("fair_fleet_re_dispatches_total", &[]),
            ejections: obs::counter("fair_fleet_ejections_total", &[]),
            readmissions: obs::counter("fair_fleet_readmissions_total", &[]),
            partials_cache_hits: obs::counter("fair_fleet_partials_cache_hits_total", &[]),
        }
    }
}

/// A public snapshot of one worker's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker's address.
    pub addr: SocketAddr,
    /// Whether the worker is in the dispatch rotation.
    pub healthy: bool,
    /// Consecutive failures since its last success.
    pub consecutive_failures: u32,
}

/// Cumulative coordinator counters (monotone since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Partial-reduce / probe requests issued.
    pub requests: u64,
    /// Same-worker retries after a transient failure.
    pub retries: u64,
    /// Ranges served by a worker other than their placement owner.
    pub re_dispatches: u64,
    /// Workers ejected after consecutive failures.
    pub ejections: u64,
    /// Ejected workers re-admitted by a health probe.
    pub readmissions: u64,
    /// `core_sample` responses the workers answered from their gather LRU
    /// (repeated `(seed, step)` requests — retries, re-run descents).
    pub partials_cache_hits: u64,
}

/// A coordinator for one cohort served by a fleet of audit servers.
#[derive(Debug)]
pub struct FleetCoordinator {
    store: String,
    schema: SchemaRef,
    rows: usize,
    placement: PlacementMap,
    workers: Mutex<Vec<WorkerState>>,
    config: FleetConfig,
    requests: AtomicU64,
    retries: AtomicU64,
    re_dispatches: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    partials_cache_hits: AtomicU64,
    obs: FleetObs,
    /// Trace id stamped on every fan-out round and worker request. `None`
    /// (the default) mints a fresh id per round; a coordinator driving a
    /// traced job sets the job's id here so one id spans the whole descent.
    trace: Option<String>,
}

impl FleetCoordinator {
    /// Connect to `addrs`, resolve `store`'s shape from the first reachable
    /// worker, and split its shards evenly across the fleet.
    ///
    /// Every worker must serve the full store under the same name; the
    /// placement splits *work*, not data, which is what makes re-dispatch
    /// after a worker death possible.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] when `addrs` is empty or no worker answers
    /// for `store`; schema/shape errors from the wire.
    pub fn connect(store: &str, addrs: &[SocketAddr], config: FleetConfig) -> Result<Self> {
        if addrs.is_empty() {
            return Err(ServeError::Protocol(
                "a fleet needs at least one worker address".into(),
            ));
        }
        let clients: Vec<Client> = addrs
            .iter()
            .map(|&a| {
                Client::new(a)
                    .with_timeout(config.request_timeout)
                    .with_connect_retries(config.connect_retries)
            })
            .collect();
        let mut resolved = None;
        for client in &clients {
            let info = client
                .stores()
                .ok()
                .and_then(|list| list.into_iter().find(|s| s.name == store));
            if let Some(info) = info {
                if let Ok((features, fairness)) = client.schema(store) {
                    resolved = Some((info, features, fairness));
                    break;
                }
            }
        }
        let Some((info, features, fairness)) = resolved else {
            return Err(ServeError::Protocol(format!(
                "no reachable worker serves a store named `{store}`"
            )));
        };
        let features: Vec<&str> = features.iter().map(String::as_str).collect();
        let fairness: Vec<&str> = fairness.iter().map(String::as_str).collect();
        let schema = Schema::from_names(&features, &fairness, &[])
            .map_err(|e| ServeError::Protocol(format!("worker reported invalid schema: {e}")))?;
        Ok(Self::new(
            store,
            schema,
            info.rows,
            info.shards,
            clients,
            addrs,
            config,
        ))
    }

    /// A coordinator over `clients` (one per address in `addrs`) for a
    /// `rows`-row store of `shards` shards, split evenly across the fleet.
    fn new(
        store: &str,
        schema: SchemaRef,
        rows: usize,
        shards: usize,
        clients: Vec<Client>,
        addrs: &[SocketAddr],
        config: FleetConfig,
    ) -> Self {
        let placement = PlacementMap::even(shards, clients.len());
        let workers = clients
            .into_iter()
            .zip(addrs)
            .map(|(client, &addr)| WorkerState {
                duration: obs::histogram(
                    "fair_fleet_request_duration_us",
                    &[("worker", &addr.to_string())],
                ),
                addr,
                client,
                healthy: true,
                consecutive_failures: 0,
                rounds_since_eject: 0,
            })
            .collect();
        Self {
            store: store.to_string(),
            schema,
            rows,
            placement,
            workers: Mutex::new(workers),
            config,
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            re_dispatches: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            partials_cache_hits: AtomicU64::new(0),
            obs: FleetObs::default(),
            trace: None,
        }
    }

    /// Stamp `trace` on every fan-out round and worker request instead of
    /// minting a fresh id per round — so a traced job's submit request, its
    /// descent steps, and every worker-side handler span (retries and
    /// re-dispatches included) correlate under one id.
    #[must_use]
    pub fn with_trace(mut self, trace: &str) -> Self {
        self.trace = Some(trace.to_string());
        self
    }

    /// The cohort name the fleet evaluates.
    #[must_use]
    pub fn store(&self) -> &str {
        &self.store
    }

    /// Total cohort rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The shard-range placement map.
    #[must_use]
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// A health snapshot of every worker.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerStatus> {
        self.workers
            .lock()
            .expect("fleet worker table poisoned")
            .iter()
            .map(|w| WorkerStatus {
                addr: w.addr,
                healthy: w.healthy,
                consecutive_failures: w.consecutive_failures,
            })
            .collect()
    }

    /// Cumulative request/retry/failover counters.
    #[must_use]
    pub fn report(&self) -> FleetReport {
        FleetReport {
            requests: self.requests.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            re_dispatches: self.re_dispatches.load(Ordering::Relaxed),
            ejections: self.ejections.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            partials_cache_hits: self.partials_cache_hits.load(Ordering::Relaxed),
        }
    }

    /// The disparity vector at selection fraction `k` under `bonus`,
    /// computed by distributed partial-reduce — bit-identical to the local
    /// one-sweep evaluation.
    ///
    /// # Errors
    /// Wire errors once every worker is exhausted; engine validation errors.
    pub fn disparity(&self, k: f64, bonus: &[f64], weights: Option<&[f64]>) -> Result<Vec<f64>> {
        let count = selection_size(self.rows, k).map_err(engine_error)?;
        let partials = self.collect_partials(bonus, weights, count)?;
        let mut out = Vec::new();
        let _combine = fair_core::obs::profile::scope(obs::Phase::Combine);
        combine_disparity_partials(
            self.rows,
            self.schema.num_fairness(),
            count,
            &partials,
            &mut out,
        )
        .map_err(engine_error)?;
        Ok(out)
    }

    /// Run Full DCA across the fleet: every descent step fans one
    /// partial-reduce round out to the workers and combines the shards in
    /// order. Bit-identical to `run_full_dca_sharded` with the same
    /// arguments.
    ///
    /// # Errors
    /// Wire errors once every worker is exhausted; engine validation errors.
    pub fn run_full_dca(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
    ) -> Result<FullDcaOutcome> {
        self.run_full_dca_controlled(k, weights, config, initial, trace, &RunControl::new())
    }

    /// [`run_full_dca`](Self::run_full_dca) with caller-supplied
    /// cancellation and progress reporting — the variant the job manager
    /// drives, so a fleet-backed job is cancellable and step-profiled like
    /// a local one.
    ///
    /// # Errors
    /// Wire errors once every worker is exhausted; engine validation errors.
    pub fn run_full_dca_controlled(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
        control: &RunControl,
    ) -> Result<FullDcaOutcome> {
        let dims = self.schema.num_fairness();
        let count = selection_size(self.rows, k).map_err(engine_error)?;
        run_full_descent(
            dims,
            self.rows,
            config,
            initial,
            trace,
            control,
            |bonus, out| {
                let partials = self
                    .collect_partials(bonus, weights, count)
                    .map_err(wire_to_engine)?;
                // Combining is the coordinator's own CPU slice of a fleet
                // step; the round trips themselves accrue as Wire inside
                // `run_range`.
                let _combine = fair_core::obs::profile::scope(obs::Phase::Combine);
                combine_disparity_partials(self.rows, dims, count, &partials, out)
            },
        )
        .map_err(engine_error)
    }

    /// Run Core DCA across the fleet: every step's deterministic sample
    /// (stratified per shard and drawn without replacement: largest-remainder
    /// quotas proportional to shard length, then `sample_into` within each
    /// shard) is gathered range-by-range from the workers and evaluated
    /// locally. Bit-identical to `run_core_dca_sharded` with the same
    /// arguments.
    ///
    /// # Errors
    /// Wire errors once every worker is exhausted; engine validation errors.
    pub fn run_core_dca(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
    ) -> Result<CoreDcaOutcome> {
        self.run_core_dca_controlled(k, weights, config, initial, trace, &RunControl::new())
    }

    /// [`run_core_dca`](Self::run_core_dca) with caller-supplied
    /// cancellation and progress reporting.
    ///
    /// # Errors
    /// Wire errors once every worker is exhausted; engine validation errors.
    pub fn run_core_dca_controlled(
        &self,
        k: f64,
        weights: Option<&[f64]>,
        config: &DcaConfig,
        initial: Option<Vec<f64>>,
        trace: bool,
        control: &RunControl,
    ) -> Result<CoreDcaOutcome> {
        let nf = self.schema.num_features();
        let na = self.schema.num_fairness();
        let ranker = WeightedSumRanker::new(weights.map_or_else(|| vec![1.0; nf], <[f64]>::to_vec))
            .map_err(engine_error)?;
        let objective = TopKDisparity::new(k);
        run_core_dca_gathered(
            &self.schema,
            self.rows,
            &ranker,
            &objective,
            config,
            initial,
            trace,
            control,
            // One fan-out round per step: a window of one.
            1,
            |step_seeds, blocks| {
                for (&step_seed, gather) in step_seeds.iter().zip(blocks) {
                    let samples = self
                        .fan_out(|client, range| {
                            client.core_sample(&self.store, step_seed, config.sample_size, range)
                        })
                        .map_err(wire_to_engine)?;
                    // Ranges arrive in ascending order, so appending them in
                    // sequence reproduces the local gather exactly.
                    let hits = samples.iter().filter(|rows| rows.cached).count();
                    if hits > 0 {
                        self.partials_cache_hits
                            .fetch_add(hits as u64, Ordering::Relaxed);
                        self.obs.partials_cache_hits.add(hits as u64);
                    }
                    for rows in &samples {
                        if rows.features.len() != rows.len() * nf
                            || rows.fairness.len() != rows.len() * na
                            || rows.labels.len() != rows.len()
                        {
                            return Err(FairError::InvalidConfig {
                                reason: "fleet: worker returned malformed sample columns".into(),
                            });
                        }
                        for i in 0..rows.len() {
                            gather.push(DataObject::new_unchecked(
                                rows.ids[i],
                                rows.features[i * nf..(i + 1) * nf].to_vec(),
                                rows.fairness[i * na..(i + 1) * na].to_vec(),
                                rows.labels[i],
                            ))?;
                        }
                    }
                }
                Ok(())
            },
        )
        .map_err(engine_error)
    }

    /// One fan-out round of disparity partials, flattened in ascending
    /// shard order.
    fn collect_partials(
        &self,
        bonus: &[f64],
        weights: Option<&[f64]>,
        count: usize,
    ) -> Result<Vec<DisparityPartial>> {
        let per_range = self.fan_out(|client, range| {
            client.disparity_partials(&self.store, bonus, weights, count, range)
        })?;
        Ok(per_range.into_iter().flatten().collect())
    }

    /// Dispatch `op` for every placement range concurrently, with
    /// retry/failover per range, returning results in ascending range
    /// order. The whole round shares one trace id — the coordinator's own
    /// ([`with_trace`](Self::with_trace)) or a fresh mint — carried to
    /// every worker in the `x-fair-trace` header, so a retried range's
    /// handler spans line up with this round's `fleet.fan_out` span under
    /// one id. The dispatching thread's job profile (if any) is carried
    /// into the per-range threads so worker round trips accrue as Wire.
    fn fan_out<T: Send>(
        &self,
        op: impl Fn(&Client, Range<usize>) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        self.probe_ejected();
        let trace = self.trace.clone().unwrap_or_else(obs::next_trace_id);
        let assignments = self.placement.assignments();
        let span = obs::Span::new("fleet.fan_out")
            .trace(&trace)
            .field("store", &self.store)
            .field("ranges", assignments.len());
        let profile = fair_core::obs::profile::current();
        let results: Vec<Result<T>> = std::thread::scope(|scope| {
            let op = &op;
            let trace = &trace;
            let handles: Vec<_> = assignments
                .iter()
                .map(|(owner, range)| {
                    let owner = *owner;
                    let range = range.clone();
                    let profile = profile.clone();
                    scope.spawn(move || {
                        let _profile_guard = profile.map(fair_core::obs::profile::install);
                        self.run_range(owner, range.clone(), trace, |client| {
                            op(client, range.clone())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(ServeError::Protocol(format!(
                            "fleet dispatch thread panicked: {}",
                            crate::jobs::panic_message(payload.as_ref())
                        )))
                    })
                })
                .collect()
        });
        span.close();
        results.into_iter().collect()
    }

    /// Execute one range's request against its owner, then — after
    /// `max_attempts` backed-off tries — against every other worker,
    /// healthy candidates first.
    fn run_range<T>(
        &self,
        owner: usize,
        range: Range<usize>,
        trace: &str,
        op: impl Fn(&Client) -> Result<T>,
    ) -> Result<T> {
        let mut last_error: Option<ServeError> = None;
        for (slot, w) in self.candidate_order(owner).into_iter().enumerate() {
            let (client, addr, duration) = {
                let workers = self.workers.lock().expect("fleet worker table poisoned");
                (
                    workers[w].client.clone().with_trace(trace),
                    workers[w].addr,
                    workers[w].duration.clone(),
                )
            };
            let mut backoff = Backoff::new(self.config.backoff_base, self.config.backoff_cap);
            for attempt in 0..self.config.max_attempts.max(1) {
                self.requests.fetch_add(1, Ordering::Relaxed);
                self.obs.requests.inc();
                let start = Instant::now();
                let outcome = {
                    // Wire time for the requesting job: the full round trip
                    // including the worker's server-side compute, which is
                    // exactly what the coordinator waits on.
                    let _wire = fair_core::obs::profile::scope(obs::Phase::Wire);
                    op(&client)
                };
                duration.record(
                    u64::try_from(start.elapsed().as_micros().min(u128::from(u64::MAX)))
                        .unwrap_or(u64::MAX),
                );
                match outcome {
                    Ok(value) => {
                        self.record_success(w);
                        if slot > 0 {
                            self.re_dispatches.fetch_add(1, Ordering::Relaxed);
                            self.obs.re_dispatches.inc();
                            obs::Event::new("fleet.redispatch")
                                .trace(trace)
                                .field("worker", addr)
                                .field("shards", format!("{range:?}"))
                                .emit();
                        }
                        return Ok(value);
                    }
                    // A deterministic rejection: every worker would answer
                    // the same, so retrying or re-dispatching cannot help.
                    Err(ServeError::Api { status, message }) if status < 500 => {
                        return Err(ServeError::Api { status, message });
                    }
                    Err(e) => {
                        self.record_failure(w);
                        last_error = Some(e);
                        if attempt + 1 < self.config.max_attempts.max(1) {
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            self.obs.retries.inc();
                            obs::Event::new("fleet.retry")
                                .trace(trace)
                                .field("worker", addr)
                                .field("attempt", attempt + 1)
                                .emit();
                            backoff.sleep();
                        }
                    }
                }
            }
        }
        Err(ServeError::Protocol(format!(
            "shards {range:?}: every worker failed (last error: {})",
            last_error.map_or_else(|| "none recorded".into(), |e| e.to_string())
        )))
    }

    /// Worker indices to try for a range owned by `owner`: healthy workers
    /// rotated to start at the owner, then ejected workers as a last
    /// resort.
    fn candidate_order(&self, owner: usize) -> Vec<usize> {
        let workers = self.workers.lock().expect("fleet worker table poisoned");
        let n = workers.len();
        let rotated = (0..n).map(|i| (owner + i) % n);
        let mut order: Vec<usize> = rotated.clone().filter(|&w| workers[w].healthy).collect();
        order.extend(rotated.filter(|&w| !workers[w].healthy));
        order
    }

    fn record_success(&self, w: usize) {
        let mut workers = self.workers.lock().expect("fleet worker table poisoned");
        let state = &mut workers[w];
        state.consecutive_failures = 0;
        if !state.healthy {
            state.healthy = true;
            self.readmissions.fetch_add(1, Ordering::Relaxed);
            self.obs.readmissions.inc();
            obs::Event::new("fleet.readmit")
                .field("worker", state.addr)
                .emit();
        }
    }

    fn record_failure(&self, w: usize) {
        let mut workers = self.workers.lock().expect("fleet worker table poisoned");
        let state = &mut workers[w];
        state.consecutive_failures += 1;
        if state.healthy && state.consecutive_failures >= self.config.eject_after {
            state.healthy = false;
            state.rounds_since_eject = 0;
            self.ejections.fetch_add(1, Ordering::Relaxed);
            self.obs.ejections.inc();
            obs::Event::new("fleet.eject")
                .field("worker", state.addr)
                .field("consecutive_failures", state.consecutive_failures)
                .emit();
        }
    }

    /// Health-probe ejected workers that are due, re-admitting responders.
    fn probe_ejected(&self) {
        let due: Vec<(usize, Client)> = {
            let mut workers = self.workers.lock().expect("fleet worker table poisoned");
            workers
                .iter_mut()
                .enumerate()
                .filter(|(_, state)| !state.healthy)
                .filter_map(|(w, state)| {
                    state.rounds_since_eject += 1;
                    (state.rounds_since_eject >= self.config.probe_every)
                        .then(|| (w, state.client.clone()))
                })
                .collect()
        };
        for (w, client) in due {
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.obs.requests.inc();
            if client.health().is_ok() {
                self.record_success(w);
            } else {
                self.workers.lock().expect("fleet worker table poisoned")[w].rounds_since_eject = 0;
            }
        }
    }
}

/// Engine-side failures surface like the server's own `422` answers.
fn engine_error(e: FairError) -> ServeError {
    ServeError::Api {
        status: 422,
        message: e.to_string(),
    }
}

/// Wire failures crossing *into* an engine callback keep their story in the
/// message; the engine wraps them in its config-error variant.
fn wire_to_engine(e: ServeError) -> FairError {
    FairError::InvalidConfig {
        reason: format!("fleet partial-reduce failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = FleetConfig::default();
        assert!(c.max_attempts >= 1);
        assert!(c.eject_after >= 1);
        assert!(c.backoff_cap >= c.backoff_base);
    }

    #[test]
    fn connect_rejects_an_empty_fleet() {
        let err = FleetCoordinator::connect("cohort", &[], FleetConfig::default()).unwrap_err();
        assert!(err.to_string().contains("at least one worker"));
    }

    #[test]
    fn a_panicking_range_thread_keeps_its_payload() {
        // The op panics before any request, so the worker is never contacted.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let fleet = FleetCoordinator::new(
            "cohort",
            schema,
            10,
            2,
            vec![Client::new(addr)],
            &[addr],
            FleetConfig::default(),
        );
        let err = fleet
            .fan_out(|_, range| -> Result<()> { panic!("range {range:?} exploded") })
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("range 0..2 exploded")),
            "{err}"
        );
    }
}
