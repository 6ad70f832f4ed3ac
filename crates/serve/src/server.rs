//! The audit server: a worker-pool HTTP front end over the catalog and the
//! job manager.
//!
//! One accept thread feeds connections to a fixed pool of request workers
//! (pool size defaults to [`fair_core::max_workers`], so `FAIR_THREADS`
//! pins the service's CPU use just like the evaluation engine's). Cheap
//! queries (catalog, schema, stats, metrics) are answered synchronously on
//! the worker; expensive work (DCA) is delegated to the
//! [`JobManager`] and observed through the job endpoints.
//!
//! | Method & path | Action |
//! |---|---|
//! | `GET /health` | liveness + counters + uptime |
//! | `GET /metrics` | the process-wide [`fair_core::obs`] registry in Prometheus text format |
//! | `GET /stores` | list registered stores |
//! | `POST /stores` | register a disk store (`path`) or generate a synthetic one (`generate`) |
//! | `DELETE /stores/{name}` | deregister (in-flight work keeps its handle) |
//! | `GET /stores/{name}/schema` | feature + fairness attribute names |
//! | `GET /stores/{name}/stats` | rows, layout, centroid, group frequencies, cache counters |
//! | `POST /stores/{name}/metrics` | disparity / nDCG / log-discounted / FPR / DI at `k` |
//! | `POST /stores/{name}/partials` | partial-reduce for distributed evaluation (fleet workers) |
//! | `POST /jobs` | launch a background DCA run |
//! | `GET /jobs`, `GET /jobs/{id}` | job status + progress + result |
//! | `DELETE /jobs/{id}` | cooperative cancellation |
//!
//! Shutdown is graceful by construction: [`ServerHandle::shutdown`] stops
//! the accept loop, gives in-flight request handlers a bounded drain window
//! ([`DRAIN_DEADLINE`]), severs any connection still alive past it, joins
//! every worker, then cancels and joins every job thread.
//!
//! The request path carries one fault-injection checkpoint (`FAIR_FAULT`
//! point `"serve"`, context = request path): an activated mode delays,
//! drops, truncates, garbles, or 500s the response — see
//! [`fair_core::fault`] and this crate's `fault` module.
//!
//! Every dispatched request is counted and timed into the process-wide
//! [`fair_core::obs`] registry under its route *template* (`POST
//! /stores/{name}/metrics`, never the literal path — label cardinality
//! stays bounded by the route table), and wrapped in one `serve.request`
//! span whose trace id comes from the `x-fair-trace` request header when
//! the caller supplies one (the fleet coordinator does, so worker spans
//! line up with the coordinator round that provoked them) or is minted at
//! the accept path otherwise.

use crate::catalog::{Catalog, StoreEntry};
use crate::error::ApiError;
use crate::http::{read_request, write_response, write_text_response, Request};
use crate::jobs::{Job, JobKind, JobManager, JobSpec};
use crate::json::Json;
use fair_core::kernel;
use fair_core::metrics::sharded as shmetrics;
use fair_core::metrics::LogDiscountConfig;
use fair_core::obs;
use fair_core::ranking::WeightedSumRanker;
use fair_core::{
    default_shard_size, for_each_shard_run, sample_indices_range_into, DcaConfig, FaultMode,
    ShardSource,
};
use fair_data::{CompasConfig, CompasGenerator, SchoolConfig, SchoolGenerator};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a stalled peer releases its worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`ServerHandle::shutdown`] waits for in-flight handlers to
/// finish before severing their sockets (override with `FAIR_DRAIN_MS`).
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// The effective drain window: `FAIR_DRAIN_MS` milliseconds when set and
/// parseable, [`DRAIN_DEADLINE`] otherwise.
fn drain_deadline() -> Duration {
    std::env::var("FAIR_DRAIN_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(DRAIN_DEADLINE, Duration::from_millis)
}

/// How many `core_sample` gathers a worker keeps around. A fleet descent
/// issues one request per `(seed, step)` per shard range, so a re-run of the
/// same descent (a retried coordinator, a timing loop, a repeated audit)
/// replays recent keys; a handful of entries is enough to absorb that
/// without holding more than a few sample-sized row blocks.
const SAMPLE_CACHE_CAPACITY: usize = 32;

/// Identity of one `core_sample` gather: the addressed store plus the
/// request parameters that determine the sampled rows. Catalog mutations
/// (register/deregister) clear the whole cache, so a re-registered name can
/// never serve the previous cohort's rows; the row count guards the
/// remaining case of a store growing underneath its name.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SampleKey {
    /// Catalog name the request addressed.
    store: String,
    /// Store length at gather time — an appended store misses.
    rows: usize,
    lo: usize,
    hi: usize,
    seed: u64,
    sample_size: usize,
}

/// A tiny worker-side LRU over rendered `core_sample` row blocks. The gather
/// is a pure function of the key, so a hit returns byte-identical columns —
/// exactly what a coordinator retry or a repeated descent would recompute.
#[derive(Debug, Default)]
struct SampleCache {
    /// Most-recently-used last.
    entries: Vec<(SampleKey, Json)>,
}

impl SampleCache {
    fn get(&mut self, key: &SampleKey) -> Option<Json> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let hit = self.entries.remove(pos);
        let value = hit.1.clone();
        self.entries.push(hit);
        Some(value)
    }

    fn put(&mut self, key: SampleKey, value: Json) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= SAMPLE_CACHE_CAPACITY {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }
}

/// Registry handles the request path touches, resolved once per service so
/// dispatch never takes the registry's name-lookup lock for a known route.
#[derive(Debug)]
struct ServeObs {
    /// Service construction time — the `/health` uptime origin.
    started: Instant,
    /// Every dispatched request, regardless of route or outcome.
    requests_total: Arc<obs::Counter>,
    /// Connections currently inside a request handler.
    in_flight: Arc<obs::Gauge>,
    /// Per-`(route template, status class)` counter and per-template
    /// latency histogram, created on each template's first hit.
    #[allow(clippy::type_complexity)]
    routes: Mutex<HashMap<(&'static str, &'static str), (Arc<obs::Counter>, Arc<obs::Histogram>)>>,
}

impl Default for ServeObs {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            requests_total: obs::counter("fair_serve_requests_total", &[]),
            in_flight: obs::gauge("fair_serve_in_flight", &[]),
            routes: Mutex::new(HashMap::new()),
        }
    }
}

/// The route *template* a request resolves to — the bounded label set the
/// per-route metrics are keyed by (`{name}`/`{id}` instead of user input).
fn route_template(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", ["health"]) => "GET /health",
        ("GET", ["metrics"]) => "GET /metrics",
        ("GET", ["stores"]) => "GET /stores",
        ("POST", ["stores"]) => "POST /stores",
        ("DELETE", ["stores", _]) => "DELETE /stores/{name}",
        ("GET", ["stores", _, "schema"]) => "GET /stores/{name}/schema",
        ("GET", ["stores", _, "stats"]) => "GET /stores/{name}/stats",
        ("POST", ["stores", _, "metrics"]) => "POST /stores/{name}/metrics",
        ("POST", ["stores", _, "partials"]) => "POST /stores/{name}/partials",
        ("POST", ["jobs"]) => "POST /jobs",
        ("GET", ["jobs"]) => "GET /jobs",
        ("GET", ["jobs", _, "profile"]) => "GET /jobs/{id}/profile",
        ("GET", ["jobs", _]) => "GET /jobs/{id}",
        ("DELETE", ["jobs", _]) => "DELETE /jobs/{id}",
        _ => "other",
    }
}

/// Decrements the in-flight gauge however the handler exits (early returns
/// on dropped connections included).
struct InFlightGuard(Arc<obs::Gauge>);

impl InFlightGuard {
    fn enter(gauge: &Arc<obs::Gauge>) -> Self {
        gauge.add(1);
        Self(gauge.clone())
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// The service state shared by every request worker: the store catalog and
/// the background-job manager.
#[derive(Debug)]
pub struct AuditService {
    /// Named stores.
    pub catalog: Catalog,
    /// Background DCA jobs.
    pub jobs: JobManager,
    /// Recently served `core_sample` gathers (see [`SampleCache`]).
    sample_cache: Mutex<SampleCache>,
    /// `core_sample` partial requests answered from the cache. Reported by
    /// `GET /health` and echoed per response as the `cached` flag.
    pub partials_cache_hits: AtomicU64,
    /// Request-path registry handles (see [`ServeObs`]).
    obs: ServeObs,
}

impl Default for AuditService {
    fn default() -> Self {
        Self {
            catalog: Catalog::default(),
            jobs: JobManager::default(),
            sample_cache: Mutex::new(SampleCache::default()),
            partials_cache_hits: AtomicU64::new(0),
            obs: ServeObs::default(),
        }
    }
}

impl AuditService {
    /// An empty service.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Dispatch one parsed request. Public so tests can exercise routing
    /// without sockets. In-process calls land in the same per-route counters
    /// and latency histograms as socket-served traffic.
    #[must_use]
    pub fn route(&self, req: &Request) -> (u16, Json) {
        let start = Instant::now();
        let (status, body) = match self.dispatch(req) {
            Ok((status, body)) => (status, body),
            Err(e) => (e.status, Json::obj(vec![("error", Json::Str(e.message))])),
        };
        self.observe_route(route_template(&req.method, &req.segments()), status, start);
        (status, body)
    }

    /// The process-wide [`fair_core::obs`] registry rendered in Prometheus
    /// text exposition format: the body `GET /metrics` serves.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        obs::render_prometheus()
    }

    /// Count and time one dispatched request under its route template.
    fn observe_route(&self, route: &'static str, status: u16, start: Instant) {
        self.obs.requests_total.inc();
        let class = match status {
            s if s < 400 => "2xx",
            s if s < 500 => "4xx",
            _ => "5xx",
        };
        let (count, duration) = {
            let mut routes = self.obs.routes.lock().expect("route obs poisoned");
            routes
                .entry((route, class))
                .or_insert_with(|| {
                    (
                        obs::counter(
                            "fair_serve_route_requests_total",
                            &[("route", route), ("class", class)],
                        ),
                        obs::histogram("fair_serve_request_duration_us", &[("route", route)]),
                    )
                })
                .clone()
        };
        count.inc();
        duration.record(
            u64::try_from(start.elapsed().as_micros().min(u128::from(u64::MAX)))
                .unwrap_or(u64::MAX),
        );
    }

    fn dispatch(&self, req: &Request) -> Result<(u16, Json), ApiError> {
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["health"]) => Ok((
                200,
                Json::obj(vec![
                    ("status", Json::str("ok")),
                    ("stores", Json::num(self.catalog.len() as f64)),
                    ("jobs", Json::num(self.jobs.len() as f64)),
                    (
                        "partials_cache_hits",
                        Json::num(self.partials_cache_hits.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "uptime_ms",
                        Json::num(self.obs.started.elapsed().as_millis() as f64),
                    ),
                    (
                        "requests_total",
                        Json::num(self.obs.requests_total.get() as f64),
                    ),
                ]),
            )),
            ("GET", ["stores"]) => Ok((
                200,
                Json::obj(vec![(
                    "stores",
                    Json::Arr(self.catalog.list().iter().map(|e| store_info(e)).collect()),
                )]),
            )),
            ("POST", ["stores"]) => {
                let response = self.register_store(req)?;
                self.clear_sample_cache();
                Ok(response)
            }
            ("DELETE", ["stores", name]) => {
                self.catalog.remove(name)?;
                self.clear_sample_cache();
                Ok((200, Json::obj(vec![("removed", Json::str(*name))])))
            }
            ("GET", ["stores", name, "schema"]) => {
                let entry = self.catalog.get(name)?;
                let schema = entry.store.schema();
                Ok((
                    200,
                    Json::obj(vec![
                        ("features", Json::str_arr(schema.features())),
                        ("fairness", Json::str_arr(&schema.fairness_names())),
                    ]),
                ))
            }
            ("GET", ["stores", name, "stats"]) => self.store_stats(name),
            ("POST", ["stores", name, "metrics"]) => self.metrics(name, req),
            ("POST", ["stores", name, "partials"]) => self.partials(name, req),
            ("POST", ["jobs"]) => self.submit_job(req),
            ("GET", ["jobs"]) => Ok((
                200,
                Json::obj(vec![(
                    "jobs",
                    Json::Arr(self.jobs.list().iter().map(|j| job_view(j)).collect()),
                )]),
            )),
            ("GET", ["jobs", id, "profile"]) => {
                let job = self.jobs.get(id)?;
                Ok((200, profile_view(&job)))
            }
            ("GET", ["jobs", id]) => {
                let job = self.jobs.get(id)?;
                Ok((200, job_view(&job)))
            }
            ("DELETE", ["jobs", id]) => {
                let job = self.jobs.cancel(id)?;
                Ok((200, job_view(&job)))
            }
            (_, _) => Err(ApiError {
                status: if matches!(req.method.as_str(), "GET" | "POST" | "DELETE") {
                    404
                } else {
                    405
                },
                message: format!("no route for {} {}", req.method, req.path),
            }),
        }
    }

    /// Drop every cached `core_sample` gather — called on catalog mutations,
    /// whose rarity (control-plane registrations) makes a full clear cheaper
    /// than tracking per-name dependencies.
    fn clear_sample_cache(&self) {
        self.sample_cache
            .lock()
            .expect("sample cache poisoned")
            .entries
            .clear();
    }

    fn register_store(&self, req: &Request) -> Result<(u16, Json), ApiError> {
        let body = parse_body(req)?;
        let name = require_str(&body, "name")?;
        let entry = if let Some(path) = body.get("path") {
            let path = path
                .as_str()
                .ok_or_else(|| ApiError::bad_request("`path` must be a string"))?;
            self.catalog.register_disk(name, path)?
        } else if let Some(generate) = body.get("generate") {
            let kind = require_str(generate, "kind")?;
            let rows = generate
                .get("rows")
                .and_then(Json::as_usize)
                .ok_or_else(|| ApiError::bad_request("`generate.rows` must be a count"))?;
            if rows == 0 || rows > 50_000_000 {
                return Err(ApiError::bad_request("`generate.rows` must be in [1, 5e7]"));
            }
            let seed = match generate.get("seed") {
                None => 42,
                Some(v) => parse_seed(v).ok_or_else(|| {
                    ApiError::bad_request(
                        "`generate.seed` must be a non-negative integer \
                         (pass seeds above 2^53 as a decimal string)",
                    )
                })?,
            };
            let shard_size = generate
                .get("shard_size")
                .and_then(Json::as_usize)
                .unwrap_or_else(default_shard_size);
            let data = match kind {
                "school" => SchoolGenerator::new(SchoolConfig::small(rows, seed))
                    .generate_sharded(shard_size)
                    .map_err(|e| ApiError::bad_request(format!("generate failed: {e}")))?
                    .into_dataset(),
                "compas" => CompasGenerator::new(CompasConfig::small(rows, seed))
                    .generate_sharded(shard_size)
                    .map_err(|e| ApiError::bad_request(format!("generate failed: {e}")))?,
                other => {
                    return Err(ApiError::bad_request(format!(
                        "`generate.kind` must be `school` or `compas`, got `{other}`"
                    )))
                }
            };
            self.catalog.register_memory(name, data)?
        } else {
            return Err(ApiError::bad_request(
                "registration needs `path` (disk store) or `generate` (synthetic cohort)",
            ));
        };
        Ok((201, Json::obj(vec![("store", store_info(&entry))])))
    }

    fn store_stats(&self, name: &str) -> Result<(u16, Json), ApiError> {
        let entry = self.catalog.get(name)?;
        let store = &entry.store;
        let dims = store.schema().num_fairness();
        let mut pairs = vec![
            ("name", Json::str(name)),
            ("kind", Json::str(store.kind())),
            ("rows", Json::num(store.len() as f64)),
            ("shards", Json::num(store.num_shards() as f64)),
            ("shard_size", Json::num(store.shard_size() as f64)),
            ("fully_labelled", Json::Bool(store.fully_labelled())),
        ];
        if store.is_empty() {
            pairs.push(("fairness_centroid", Json::Null));
            pairs.push(("group_frequencies", Json::Null));
        } else {
            // One shard pass for centroid sums *and* per-dimension group
            // counts: the trait helpers would each rescan (and, for a paged
            // store, re-page) the whole cohort. The per-shard sums use the
            // same kernel and shard-order fold as
            // `ShardSource::fairness_centroid`, so the centroid is
            // bit-identical to it.
            let (sums, counts) = store.reduce_shards(
                (vec![0.0_f64; dims], vec![0_usize; dims]),
                |shard| {
                    let matrix = shard.data().fairness_matrix();
                    let mut sums = Vec::new();
                    if dims > 0 {
                        kernel::col_sums_into(matrix, dims, &mut sums);
                    }
                    let counts: Vec<usize> = (0..dims)
                        .map(|dim| kernel::count_ge_half(matrix, dims, dim))
                        .collect();
                    (sums, counts)
                },
                |(mut sums, mut counts), (ps, pc)| {
                    kernel::add_row(&mut sums, &ps);
                    for (c, p) in counts.iter_mut().zip(&pc) {
                        *c += p;
                    }
                    (sums, counts)
                },
            );
            let n = store.len() as f64;
            let centroid: Vec<f64> = sums.into_iter().map(|s| s / n).collect();
            pairs.push(("fairness_centroid", Json::num_arr(&centroid)));
            let freqs: Vec<f64> = counts.into_iter().map(|c| c as f64 / n).collect();
            pairs.push(("group_frequencies", Json::num_arr(&freqs)));
        }
        if let Some(cache) = store.cache_stats() {
            pairs.push((
                "cache",
                Json::obj(vec![
                    ("hits", Json::num(cache.hits as f64)),
                    ("misses", Json::num(cache.misses as f64)),
                    ("evictions", Json::num(cache.evictions as f64)),
                    ("resident_bytes", Json::num(cache.resident_bytes as f64)),
                    ("peak_bytes", Json::num(cache.peak_bytes as f64)),
                    ("budget_bytes", Json::num(cache.budget_bytes as f64)),
                    ("prefetch_hits", Json::num(cache.prefetch_hits as f64)),
                    ("prefetch_wasted", Json::num(cache.prefetch_wasted as f64)),
                ]),
            ));
        }
        Ok((
            200,
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ))
    }

    fn metrics(&self, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
        let entry = self.catalog.get(name)?;
        let store = &entry.store;
        let body = parse_body(req)?;
        let dims = store.schema().num_fairness();
        let num_features = store.schema().num_features();

        let k = body
            .get("k")
            .and_then(Json::as_f64)
            .ok_or_else(|| ApiError::bad_request("`k` (selection fraction) is required"))?;
        let bonus = match body.get("bonus") {
            None => vec![0.0; dims],
            Some(v) => v
                .as_f64_vec()
                .ok_or_else(|| ApiError::bad_request("`bonus` must be a number array"))?,
        };
        if bonus.len() != dims {
            return Err(ApiError::bad_request(format!(
                "{} bonus values for a {dims}-attribute schema",
                bonus.len()
            )));
        }
        let weights = match body.get("weights") {
            None => vec![1.0; num_features],
            Some(v) => v
                .as_f64_vec()
                .ok_or_else(|| ApiError::bad_request("`weights` must be a number array"))?,
        };
        // The scoring kernel zips features with weights and would silently
        // truncate a short vector — a wrong-length request must be a 400,
        // not a 200 with wrong numbers.
        if weights.len() != num_features {
            return Err(ApiError::bad_request(format!(
                "{} ranker weights for a {num_features}-feature schema",
                weights.len()
            )));
        }
        let ranker = WeightedSumRanker::new(weights)
            .map_err(|e| ApiError::bad_request(format!("invalid ranker weights: {e}")))?;
        let requested = match body.get("metrics") {
            None => vec!["disparity".to_string(), "ndcg".to_string()],
            Some(v) => v
                .as_str_vec()
                .ok_or_else(|| ApiError::bad_request("`metrics` must be a string array"))?,
        };
        let kinds: Vec<shmetrics::MetricKind> = requested
            .iter()
            .map(|metric| {
                shmetrics::MetricKind::parse(metric).ok_or_else(|| {
                    ApiError::bad_request(format!(
                        "unknown metric `{metric}` (expected disparity, ndcg, log_discounted, \
                         fpr_difference, disparate_impact)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;

        // One plan, one sweep: every requested metric is computed from a
        // single pass over the store's shards. The plan deduplicates
        // repeated names, keeping first-occurrence response order.
        let plan =
            shmetrics::MetricPlan::new(&kinds, k).with_log_config(LogDiscountConfig::default());
        let report = plan
            .evaluate(store, &ranker, &bonus)
            .map_err(|e| ApiError::unprocessable(e.to_string()))?;

        let mut pairs = vec![
            ("store", Json::str(name)),
            ("rows", Json::num(store.len() as f64)),
            ("k", Json::num(k)),
        ];
        for (kind, value) in report.into_values() {
            let json = match value {
                shmetrics::MetricValue::Scalar(v) => Json::num(v),
                shmetrics::MetricValue::Vector(v) => Json::num_arr(&v),
            };
            pairs.push((kind.name(), json));
        }
        Ok((
            200,
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ))
    }

    /// Partial-reduce endpoint for fleet workers: compute this node's
    /// contribution to a distributed evaluation over the contiguous shard
    /// range `[lo, hi)`, leaving the final combine to the coordinator.
    ///
    /// Both kinds are pure functions of the request — a retried request
    /// returns byte-identical partials, which is what makes coordinator
    /// retries safe.
    ///
    /// - `disparity`: per-shard fairness sums plus range-pruned top-`count`
    ///   candidates (see [`fair_core::metrics::sharded::disparity_partials`]);
    ///   combined in shard order the result is bit-identical to a local
    ///   evaluation.
    /// - `core_sample`: the rows of the deterministic `(seed, sample_size)`
    ///   Core-DCA sample that fall in the range — the gather columns. The
    ///   sample is stratified per shard and drawn without replacement:
    ///   largest-remainder quotas proportional to shard length, then
    ///   `sample_into` within each shard under its own seed stream.
    fn partials(&self, name: &str, req: &Request) -> Result<(u16, Json), ApiError> {
        let entry = self.catalog.get(name)?;
        let store = &entry.store;
        let body = parse_body(req)?;
        let kind = require_str(&body, "kind")?;
        let pair = body
            .get("shards")
            .and_then(Json::as_arr)
            .filter(|r| r.len() == 2)
            .ok_or_else(|| ApiError::bad_request("`shards` must be a `[lo, hi]` pair"))?;
        let (lo, hi) = match (pair[0].as_usize(), pair[1].as_usize()) {
            (Some(lo), Some(hi)) if lo <= hi && hi <= store.num_shards() => (lo, hi),
            _ => {
                return Err(ApiError::bad_request(format!(
                    "`shards` must satisfy 0 <= lo <= hi <= {}",
                    store.num_shards()
                )))
            }
        };
        let dims = store.schema().num_fairness();
        let num_features = store.schema().num_features();
        match kind {
            "disparity" => {
                let bonus = match body.get("bonus") {
                    None => vec![0.0; dims],
                    Some(v) => v
                        .as_f64_vec()
                        .ok_or_else(|| ApiError::bad_request("`bonus` must be a number array"))?,
                };
                if bonus.len() != dims {
                    return Err(ApiError::bad_request(format!(
                        "{} bonus values for a {dims}-attribute schema",
                        bonus.len()
                    )));
                }
                let weights = match body.get("weights") {
                    None => vec![1.0; num_features],
                    Some(v) => v
                        .as_f64_vec()
                        .ok_or_else(|| ApiError::bad_request("`weights` must be a number array"))?,
                };
                if weights.len() != num_features {
                    return Err(ApiError::bad_request(format!(
                        "{} ranker weights for a {num_features}-feature schema",
                        weights.len()
                    )));
                }
                let ranker = WeightedSumRanker::new(weights)
                    .map_err(|e| ApiError::bad_request(format!("invalid ranker weights: {e}")))?;
                let count = body.get("count").and_then(Json::as_usize).ok_or_else(|| {
                    ApiError::bad_request("`count` (global selection size) is required")
                })?;
                let parts = shmetrics::disparity_partials(store, &ranker, &bonus, count, lo..hi)
                    .map_err(|e| ApiError::unprocessable(e.to_string()))?;
                let shards = Json::Arr(
                    parts
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("shard", Json::num(p.shard as f64)),
                                ("rows", Json::num(p.rows as f64)),
                                ("fair_sums", Json::num_arr(&p.fair_sums)),
                                ("scores", Json::num_arr(&p.scores)),
                                (
                                    "positions",
                                    Json::Arr(
                                        p.positions.iter().map(|&x| Json::u64(x as u64)).collect(),
                                    ),
                                ),
                                ("fairness", Json::num_arr(&p.fairness)),
                            ])
                        })
                        .collect(),
                );
                Ok((
                    200,
                    Json::obj(vec![("store", Json::str(name)), ("shards", shards)]),
                ))
            }
            "core_sample" => {
                let seed = body.get("seed").and_then(parse_seed).ok_or_else(|| {
                    ApiError::bad_request(
                        "`seed` must be a non-negative integer \
                         (pass seeds above 2^53 as a decimal string)",
                    )
                })?;
                let sample_size = body
                    .get("sample_size")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| ApiError::bad_request("`sample_size` must be a count"))?;
                // The gather is a pure function of the key, so an identical
                // request body (a repeated descent, a coordinator retry)
                // can be answered from the worker-side LRU without paging
                // the sampled shards again.
                let key = SampleKey {
                    store: name.to_string(),
                    rows: store.len(),
                    lo,
                    hi,
                    seed,
                    sample_size,
                };
                let cached = {
                    let mut cache = self.sample_cache.lock().expect("sample cache poisoned");
                    cache.get(&key)
                };
                if let Some(rows) = cached {
                    self.partials_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((
                        200,
                        Json::obj(vec![
                            ("store", Json::str(name)),
                            ("cached", Json::Bool(true)),
                            ("rows", rows),
                        ]),
                    ));
                }
                let mut indices = Vec::new();
                sample_indices_range_into(store, seed, sample_size, lo..hi, &mut indices)
                    .map_err(|e| ApiError::unprocessable(e.to_string()))?;
                let shard_size = store.shard_size();
                let mut ids = Vec::with_capacity(indices.len());
                let mut features = Vec::with_capacity(indices.len() * num_features);
                let mut fairness = Vec::with_capacity(indices.len() * dims);
                let mut labels = Vec::with_capacity(indices.len());
                for_each_shard_run(
                    store,
                    &indices,
                    |&g| g / shard_size,
                    |view, run| {
                        let d = view.data();
                        for &g in run {
                            let i = g - view.offset();
                            ids.push(Json::u64(d.ids()[i].0));
                            features.extend_from_slice(d.feature_row(i));
                            fairness.extend_from_slice(d.fairness_row(i));
                            // Labels ride as a tiny enum: 0 = unlabelled,
                            // 1 = false, 2 = true.
                            labels.push(Json::num(match d.labels()[i] {
                                None => 0.0,
                                Some(false) => 1.0,
                                Some(true) => 2.0,
                            }));
                        }
                    },
                );
                let rows = Json::obj(vec![
                    ("ids", Json::Arr(ids)),
                    ("features", Json::num_arr(&features)),
                    ("fairness", Json::num_arr(&fairness)),
                    ("labels", Json::Arr(labels)),
                ]);
                self.sample_cache
                    .lock()
                    .expect("sample cache poisoned")
                    .put(key, rows.clone());
                Ok((
                    200,
                    Json::obj(vec![
                        ("store", Json::str(name)),
                        ("cached", Json::Bool(false)),
                        ("rows", rows),
                    ]),
                ))
            }
            other => Err(ApiError::bad_request(format!(
                "`kind` must be `disparity` or `core_sample`, got `{other}`"
            ))),
        }
    }

    fn submit_job(&self, req: &Request) -> Result<(u16, Json), ApiError> {
        let body = parse_body(req)?;
        let store_name = require_str(&body, "store")?;
        let entry = self.catalog.get(store_name)?;
        let kind = JobKind::parse(require_str(&body, "kind")?)?;
        let k = body
            .get("k")
            .and_then(Json::as_f64)
            .ok_or_else(|| ApiError::bad_request("`k` (selection fraction) is required"))?;
        let weights = match body.get("weights") {
            None => None,
            Some(v) => Some(
                v.as_f64_vec()
                    .ok_or_else(|| ApiError::bad_request("`weights` must be a number array"))?,
            ),
        };
        let config = job_config(body.get("config"))?;
        let workers = match body.get("workers") {
            None => None,
            Some(v) => {
                let addrs = v
                    .as_str_vec()
                    .ok_or_else(|| ApiError::bad_request("`workers` must be a string array"))?;
                if addrs.is_empty() {
                    return Err(ApiError::bad_request("`workers` must not be empty"));
                }
                Some(
                    addrs
                        .iter()
                        .map(|a| {
                            a.parse::<SocketAddr>().map_err(|_| {
                                ApiError::bad_request(format!(
                                    "`workers` entry `{a}` is not a socket address"
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };
        // The submitting request's trace id (minted at the accept path when
        // the caller supplies none) becomes the job's: every event and
        // fan-out round of the descent correlates with this submission.
        let job = self.jobs.submit(
            entry,
            JobSpec {
                kind,
                k,
                weights,
                config,
                workers,
            },
            req.trace.clone(),
        )?;
        Ok((202, job_view(&job)))
    }
}

/// Build a [`DcaConfig`] from the optional wire `config` object. Refinement
/// is always disabled: jobs run the core/full descent the endpoints expose.
fn job_config(body: Option<&Json>) -> Result<DcaConfig, ApiError> {
    let mut config = DcaConfig {
        refinement_iterations: 0,
        ..DcaConfig::default()
    };
    let Some(body) = body else {
        return Ok(config);
    };
    if let Some(v) = body.get("seed") {
        config.seed = parse_seed(v).ok_or_else(|| {
            ApiError::bad_request(
                "`config.seed` must be a non-negative integer \
                 (pass seeds above 2^53 as a decimal string)",
            )
        })?;
    }
    if let Some(v) = body.get("sample_size") {
        config.sample_size = v
            .as_usize()
            .ok_or_else(|| ApiError::bad_request("`config.sample_size` must be a count"))?;
    }
    if let Some(v) = body.get("iterations_per_rate") {
        config.iterations_per_rate = v
            .as_usize()
            .ok_or_else(|| ApiError::bad_request("`config.iterations_per_rate` must be a count"))?;
    }
    if let Some(v) = body.get("learning_rates") {
        config.learning_rates = v
            .as_f64_vec()
            .ok_or_else(|| ApiError::bad_request("`config.learning_rates` must be numbers"))?;
    }
    Ok(config)
}

/// Parse a `u64` seed off the wire: a JSON number when it is unambiguously
/// representable as one (integral, **strictly below** 2^53 — 2^53 itself is
/// the rounded image of 2^53+1, so a number token that large may already
/// have been silently altered by `f64` parsing), or a decimal string for
/// the full range. The [`crate::Client`] picks the encoding automatically.
fn parse_seed(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
            Some(*n as u64)
        }
        Json::Str(s) => s.parse::<u64>().ok(),
        _ => None,
    }
}

/// The wire representation of a catalog entry.
fn store_info(entry: &StoreEntry) -> Json {
    let mut pairs = vec![
        ("name", Json::str(entry.name.clone())),
        ("kind", Json::str(entry.store.kind())),
        ("rows", Json::num(entry.store.len() as f64)),
        ("shards", Json::num(entry.store.num_shards() as f64)),
        ("shard_size", Json::num(entry.store.shard_size() as f64)),
    ];
    if let Some(path) = &entry.path {
        pairs.push(("path", Json::str(path.display().to_string())));
    }
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The wire representation of a job.
fn job_view(job: &Job) -> Json {
    // One consistent read: phase/result/error must agree (a `completed`
    // state with a `null` result would break clients waiting on the job).
    let (phase, result, error) = job.snapshot();
    let (queued_ms, running_ms) = job.timings();
    let result = match result {
        None => Json::Null,
        Some(r) => Json::obj(vec![
            ("bonus", Json::num_arr(&r.bonus)),
            ("steps", Json::num(r.steps as f64)),
            ("objects_scored", Json::num(r.objects_scored as f64)),
        ]),
    };
    Json::obj(vec![
        ("id", Json::str(job.id.clone())),
        ("store", Json::str(job.store.clone())),
        ("trace", Json::str(job.trace.clone())),
        ("kind", Json::str(job.spec.kind.as_str())),
        ("state", Json::str(phase.as_str())),
        ("step", Json::num(job.step() as f64)),
        ("total_steps", Json::num(job.total_steps() as f64)),
        ("queued_ms", Json::num(queued_ms as f64)),
        ("running_ms", Json::num(running_ms as f64)),
        ("result", result),
        ("error", error.map_or(Json::Null, Json::Str)),
    ])
}

/// The wire representation of a job's phase profile (`GET
/// /jobs/{id}/profile`): per-phase totals plus the per-step breakdown ring
/// of the last [`fair_core::obs::PROFILE_RING`] steps. Readable while the
/// job runs (a live snapshot) and stable once it is terminal.
fn profile_view(job: &Job) -> Json {
    let (_, running_ms) = job.timings();
    let profile = job.profile();
    let phases = Json::Obj(
        profile
            .stats()
            .iter()
            .map(|s| {
                (
                    s.phase.name().to_string(),
                    Json::obj(vec![
                        ("total_us", Json::u64(s.total_us)),
                        ("count", Json::u64(s.count)),
                        ("max_us", Json::u64(s.max_us)),
                    ]),
                )
            })
            .collect(),
    );
    let steps = Json::Arr(
        profile
            .steps()
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("step", Json::num(b.step as f64)),
                    (
                        "phase_us",
                        Json::Obj(
                            fair_core::obs::Phase::ALL
                                .iter()
                                .zip(&b.phase_us)
                                .filter(|(_, &us)| us > 0)
                                .map(|(p, &us)| (p.name().to_string(), Json::u64(us)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("id", Json::str(job.id.clone())),
        ("trace", Json::str(job.trace.clone())),
        ("state", Json::str(job.phase().as_str())),
        ("running_ms", Json::num(running_ms as f64)),
        ("phases", phases),
        ("steps", steps),
    ])
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("`{key}` (string) is required")))
}

/// A running server: its bound address plus everything needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Workers still running (each decrements on exit) — the drain condition.
    live: Arc<AtomicUsize>,
    /// Connections currently inside a handler, severable after the drain
    /// deadline.
    active: Arc<Mutex<HashMap<u64, TcpStream>>>,
    service: Arc<AuditService>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The address the listener is bound to (resolves the ephemeral port of
    /// a `127.0.0.1:0` bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (register fixtures in-process, inspect
    /// jobs).
    #[must_use]
    pub fn service(&self) -> &Arc<AuditService> {
        &self.service
    }

    /// Stop accepting, give in-flight handlers up to [`DRAIN_DEADLINE`] to
    /// finish, sever any connection still open past it, join every worker,
    /// then cancel and join every background job. When this returns, no
    /// server thread is alive.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the accept thread exits (for the binary's foreground
    /// mode; an external `shutdown` is not possible afterwards, so this is
    /// effectively run-forever).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.service.jobs.shutdown();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept thread owned the queue sender, so workers now drain
        // what was already queued and exit. Give in-flight handlers a
        // bounded window before cutting their sockets out from under them —
        // a severed socket fails the handler's next read/write and the
        // worker comes home.
        let deadline = Instant::now() + drain_deadline();
        while self.live.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.live.load(Ordering::Acquire) > 0 {
            for conn in self
                .active
                .lock()
                .expect("active registry poisoned")
                .values()
            {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.service.jobs.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Bind `addr` (use port `0` for an ephemeral port) and serve `service` on a
/// pool of `workers` request threads until [`ServerHandle::shutdown`].
///
/// # Errors
/// Returns the bind error, if any; everything after the bind runs on the
/// server's own threads.
pub fn serve(
    service: Arc<AuditService>,
    addr: impl ToSocketAddrs,
    workers: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = workers.max(1);

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let live = Arc::new(AtomicUsize::new(workers));
    let active: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let next_conn = Arc::new(AtomicU64::new(0));

    let mut pool = Vec::with_capacity(workers);
    for i in 0..workers {
        let rx = rx.clone();
        let service = service.clone();
        let stop = stop.clone();
        let live = live.clone();
        let active = active.clone();
        let next_conn = next_conn.clone();
        pool.push(
            std::thread::Builder::new()
                .name(format!("fair-serve-worker-{i}"))
                .spawn(move || {
                    loop {
                        // Hold the lock only for the blocking receive;
                        // release before handling so another worker can
                        // wait for the next connection.
                        let conn = { rx.lock().expect("worker queue poisoned").recv() };
                        match conn {
                            Ok(conn) => {
                                // Register the connection so a blown drain
                                // deadline can sever it mid-handler.
                                let id = next_conn.fetch_add(1, Ordering::Relaxed);
                                if let Ok(clone) = conn.try_clone() {
                                    active
                                        .lock()
                                        .expect("active registry poisoned")
                                        .insert(id, clone);
                                }
                                handle_connection(&service, &conn, &stop);
                                active.lock().expect("active registry poisoned").remove(&id);
                            }
                            Err(_) => break, // channel closed: shutdown
                        }
                    }
                    live.fetch_sub(1, Ordering::Release);
                })?,
        );
    }

    let accept_stop = stop.clone();
    let accept_thread = std::thread::Builder::new()
        .name("fair-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(conn) = conn {
                    // A send can only fail after every worker exited.
                    if tx.send(conn).is_err() {
                        break;
                    }
                }
            }
            // Dropping `tx` here lets workers drain the queue and exit.
        })?;

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        workers: pool,
        live,
        active,
        service,
    })
}

/// Serve one connection: parse, route, respond. Peer-side protocol
/// violations get a 400 (best effort — the socket may already be gone).
/// Handler panics — e.g. a disk store whose backing file was truncated
/// after open, which the infallible `with_shard` engine path surfaces as a
/// panic — are caught and answered with a 500, so a failing store can never
/// kill request workers and starve the pool.
///
/// The parsed request passes the `"serve"` fault-injection checkpoint
/// (context = request path): an armed mode delays the handler (stop-aware,
/// so shutdown still drains), drops the connection without a response,
/// panics inside the catch (exercising the 500 path), substitutes a 500,
/// garbles the body under a truthful `Content-Length`, or closes mid-body.
fn handle_connection(service: &AuditService, conn: &TcpStream, stop: &AtomicBool) {
    let _ = conn.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = conn.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = conn.set_nodelay(true);
    match read_request(conn) {
        Ok(mut req) => {
            let _in_flight = InFlightGuard::enter(&service.obs.in_flight);
            // A caller-supplied trace id (the fleet coordinator's, a traced
            // client's) wins, so a retried round's worker spans line up
            // under one id; a bare request gets a fresh id minted here at
            // the accept path. Either way the resolved id is written back
            // onto the request, so downstream consumers (job submission)
            // adopt the same id this connection's span carries.
            let trace = req.trace.clone().unwrap_or_else(obs::next_trace_id);
            req.trace = Some(trace.clone());
            let req = req;
            let span = obs::Span::new("serve.request")
                .trace(&trace)
                .field("method", &req.method)
                .field("path", &req.path);
            let fault = fair_core::fault::check("serve", &req.path);
            match fault {
                Some(FaultMode::Drop) => {
                    span.field("dropped", true).close();
                    return;
                }
                Some(FaultMode::Delay(d)) => crate::fault::stop_aware_sleep(d, stop),
                _ => {}
            }
            // The exposition endpoint bypasses the JSON route table: it
            // answers plain text and must never deadlock on itself, so it
            // renders the registry directly on the worker.
            if req.method == "GET" && req.path == "/metrics" {
                // Rendered before the route observation lands, so a scrape
                // reports every *previous* scrape but not itself — the price
                // of an honest render-cost histogram.
                let start = Instant::now();
                let text = service.metrics_text();
                service.observe_route("GET /metrics", 200, start);
                span.field("status", 200_u16).close();
                let _ = write_text_response(conn, 200, &text);
                return;
            }
            let inject_panic = matches!(fault, Some(FaultMode::Panic));
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected fault: panic");
                }
                service.route(&req)
            }));
            let (status, body) = match routed {
                Ok(response) => response,
                Err(panic) => (
                    500,
                    Json::obj(vec![(
                        "error",
                        Json::str(format!(
                            "internal error: {}",
                            crate::jobs::panic_message(&*panic)
                        )),
                    )]),
                ),
            };
            span.field("status", status).close();
            let rendered = body.render();
            match fault {
                Some(FaultMode::Status500) => {
                    let message =
                        Json::obj(vec![("error", Json::str("injected fault: 500"))]).render();
                    let _ = write_response(conn, 500, &message);
                }
                Some(FaultMode::Corrupt) => {
                    crate::fault::write_raw_body(
                        conn,
                        status,
                        &crate::fault::corrupt_rendered(&rendered),
                    );
                }
                Some(FaultMode::CloseMidBody) => {
                    crate::fault::write_close_mid_body(conn, status, &rendered);
                }
                _ => {
                    let _ = write_response(conn, status, &rendered);
                }
            }
        }
        Err(e) => {
            let body = Json::obj(vec![("error", Json::str(e.to_string()))]).render();
            let _ = write_response(conn, 400, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request::new(method, path, body.as_bytes().to_vec())
    }

    fn service_with_store(rows: usize) -> Arc<AuditService> {
        let service = AuditService::new();
        let (status, body) = service.route(&request(
            "POST",
            "/stores",
            &format!(
                r#"{{"name":"cohort","generate":{{"kind":"school","rows":{rows},"seed":7,"shard_size":64}}}}"#
            ),
        ));
        assert_eq!(status, 201, "{}", body.render());
        service
    }

    #[test]
    fn health_and_listing_routes_answer() {
        let service = service_with_store(200);
        let (status, body) = service.route(&request("GET", "/health", ""));
        assert_eq!(status, 200);
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(body.get("stores").unwrap().as_usize(), Some(1));

        let (status, body) = service.route(&request("GET", "/stores", ""));
        assert_eq!(status, 200);
        let stores = body.get("stores").unwrap().as_arr().unwrap();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].get("name").unwrap().as_str(), Some("cohort"));
        assert_eq!(stores[0].get("kind").unwrap().as_str(), Some("memory"));
        assert_eq!(stores[0].get("rows").unwrap().as_usize(), Some(200));

        let (status, body) = service.route(&request("GET", "/stores/cohort/schema", ""));
        assert_eq!(status, 200);
        let features = body.get("features").unwrap().as_str_vec().unwrap();
        let fairness = body.get("fairness").unwrap().as_str_vec().unwrap();
        assert!(!features.is_empty());
        assert!(!fairness.is_empty());

        let (status, body) = service.route(&request("GET", "/stores/cohort/stats", ""));
        assert_eq!(status, 200, "{}", body.render());
        assert_eq!(
            body.get("fairness_centroid")
                .unwrap()
                .as_f64_vec()
                .unwrap()
                .len(),
            fairness.len()
        );
    }

    #[test]
    fn stats_centroid_is_bitwise_the_library_centroid() {
        // Non-dyadic fairness values: per-shard sums only agree when they
        // take the library's accumulation order.
        let schema = fair_core::Schema::from_names(&["s"], &["g", "h"], &[]).unwrap();
        let objects = (0..200_u64)
            .map(|i| {
                fair_core::DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![((i * 37) % 101) as f64 / 101.0, 0.1 * (i % 13) as f64],
                    None,
                )
            })
            .collect();
        let data = fair_core::ShardedDataset::from_objects(schema, objects, 37).unwrap();
        let service = AuditService::new();
        let entry = service.catalog.register_memory("mixed", data).unwrap();
        let (status, body) = service.route(&request("GET", "/stores/mixed/stats", ""));
        assert_eq!(status, 200, "{}", body.render());
        let wire = body.get("fairness_centroid").unwrap().as_f64_vec().unwrap();
        let library = entry.store.fairness_centroid().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wire), bits(&library));
    }

    #[test]
    fn health_reports_uptime_and_a_monotone_request_count() {
        let service = service_with_store(100);
        let (status, first) = service.route(&request("GET", "/health", ""));
        assert_eq!(status, 200);
        assert!(first.get("uptime_ms").unwrap().as_f64().unwrap() >= 0.0);
        let count = |body: &Json| body.get("requests_total").unwrap().as_usize().unwrap();
        let (_, second) = service.route(&request("GET", "/health", ""));
        assert!(
            count(&second) > count(&first),
            "{} then {}",
            count(&first),
            count(&second)
        );
    }

    #[test]
    fn routed_traffic_lands_in_the_route_metrics() {
        let service = service_with_store(100);
        let _ = service.route(&request("GET", "/health", ""));
        let _ = service.route(&request("GET", "/nope", ""));
        let text = service.metrics_text();
        assert!(
            text.contains(r#"fair_serve_route_requests_total{class="2xx",route="GET /health"}"#),
            "{text}"
        );
        assert!(
            text.contains(r#"fair_serve_route_requests_total{class="4xx",route="other"}"#),
            "{text}"
        );
        assert!(
            text.contains(r#"fair_serve_request_duration_us_count{route="GET /health"}"#),
            "{text}"
        );
    }

    #[test]
    fn job_profile_route_answers_with_phase_totals_and_the_job_trace() {
        let service = service_with_store(400);
        let mut submit = request(
            "POST",
            "/jobs",
            r#"{"store":"cohort","kind":"full","k":0.2,"config":{"seed":5,"iterations_per_rate":4,"learning_rates":[4.0,1.0]}}"#,
        );
        submit.trace = Some("trace-profile-unit".into());
        let (status, body) = service.route(&submit);
        assert_eq!(status, 202, "{}", body.render());
        assert_eq!(
            body.get("trace").unwrap().as_str(),
            Some("trace-profile-unit"),
            "the job adopts the submitting request's trace id"
        );
        let id = body.get("id").unwrap().as_str().unwrap().to_string();
        for _ in 0..2000 {
            let (_, view) = service.route(&request("GET", &format!("/jobs/{id}"), ""));
            if view.get("state").unwrap().as_str() == Some("completed") {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let (status, profile) = service.route(&request("GET", &format!("/jobs/{id}/profile"), ""));
        assert_eq!(status, 200, "{}", profile.render());
        assert_eq!(
            profile.get("trace").unwrap().as_str(),
            Some("trace-profile-unit")
        );
        let phases = profile.get("phases").unwrap();
        let score = phases.get("score").unwrap();
        assert!(
            score.get("count").unwrap().as_u64().unwrap() > 0,
            "a completed full descent scored every step: {}",
            profile.render()
        );
        assert!(!profile.get("steps").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(
            service
                .route(&request("GET", "/jobs/job-999/profile", ""))
                .0,
            404
        );
        service.jobs.shutdown();
    }

    #[test]
    fn metrics_route_computes_requested_metrics() {
        let service = service_with_store(300);
        let (status, body) = service.route(&request(
            "POST",
            "/stores/cohort/metrics",
            r#"{"k":0.1,"metrics":["disparity","ndcg","disparate_impact"]}"#,
        ));
        assert_eq!(status, 200, "{}", body.render());
        assert!(body.get("disparity").unwrap().as_f64_vec().is_some());
        assert!(body.get("ndcg").unwrap().as_f64().is_some());
        assert!(body.get("disparate_impact").unwrap().as_f64_vec().is_some());
        assert!(body.get("log_discounted").is_none(), "not requested");
    }

    #[test]
    fn metrics_route_deduplicates_repeated_names_keeping_first_occurrence_order() {
        let service = service_with_store(300);
        let (status, body) = service.route(&request(
            "POST",
            "/stores/cohort/metrics",
            r#"{"k":0.1,"metrics":["ndcg","disparity","ndcg","log_discounted","disparity"]}"#,
        ));
        assert_eq!(status, 200, "{}", body.render());
        let Json::Obj(pairs) = &body else {
            panic!("object response expected");
        };
        let metric_keys: Vec<&str> = pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !matches!(*k, "store" | "rows" | "k"))
            .collect();
        assert_eq!(
            metric_keys,
            ["ndcg", "disparity", "log_discounted"],
            "each metric once, in first-occurrence order"
        );
        // The deduplicated multi-metric answer matches the single-metric one.
        let (status, single) = service.route(&request(
            "POST",
            "/stores/cohort/metrics",
            r#"{"k":0.1,"metrics":["disparity"]}"#,
        ));
        assert_eq!(status, 200);
        assert_eq!(
            body.get("disparity").unwrap().as_f64_vec().unwrap(),
            single.get("disparity").unwrap().as_f64_vec().unwrap()
        );
    }

    #[test]
    fn routing_errors_are_structured() {
        let service = service_with_store(100);
        for (method, path, body, expected) in [
            ("GET", "/nope", "", 404),
            ("PUT", "/stores", "", 405),
            ("GET", "/stores/ghost/schema", "", 404),
            ("POST", "/stores/cohort/metrics", "not json", 400),
            (
                "POST",
                "/stores/cohort/metrics",
                r#"{"k":0.1,"metrics":["nope"]}"#,
                400,
            ),
            ("POST", "/stores/cohort/metrics", r#"{}"#, 400),
            (
                "POST",
                "/stores/cohort/metrics",
                r#"{"k":0.1,"bonus":[1,2,3,4,5,6,7]}"#,
                400,
            ),
            (
                "POST",
                "/stores",
                r#"{"name":"cohort","generate":{"kind":"school","rows":10}}"#,
                409,
            ),
            ("POST", "/stores", r#"{"name":"x"}"#, 400),
            (
                "POST",
                "/stores",
                r#"{"name":"x","generate":{"kind":"martian","rows":10}}"#,
                400,
            ),
            (
                "POST",
                "/jobs",
                r#"{"store":"ghost","kind":"full","k":0.1}"#,
                404,
            ),
            (
                "POST",
                "/jobs",
                r#"{"store":"cohort","kind":"walk","k":0.1}"#,
                400,
            ),
            ("GET", "/jobs/job-9", "", 404),
            ("DELETE", "/stores/ghost", "", 404),
        ] {
            let (status, resp) = service.route(&request(method, path, body));
            assert_eq!(
                status,
                expected,
                "{method} {path} {body} -> {}",
                resp.render()
            );
            assert!(resp.get("error").is_some(), "{method} {path}");
        }
    }

    #[test]
    fn ambiguous_numeric_seeds_are_rejected_strings_accepted() {
        let service = service_with_store(100);
        // 2^53+1 as a number token: f64 parsing already rounded it to 2^53,
        // so the server must refuse rather than run a silently-altered seed.
        let (status, body) = service.route(&request(
            "POST",
            "/jobs",
            r#"{"store":"cohort","kind":"core","k":0.2,
                "config":{"seed":9007199254740993,"sample_size":30,
                          "learning_rates":[1.0],"iterations_per_rate":1}}"#,
        ));
        assert_eq!(status, 400, "{}", body.render());
        assert!(
            body.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("seed"),
            "{}",
            body.render()
        );
        // The same seed as a decimal string is exact and accepted.
        let (status, body) = service.route(&request(
            "POST",
            "/jobs",
            r#"{"store":"cohort","kind":"core","k":0.2,
                "config":{"seed":"9007199254740993","sample_size":30,
                          "learning_rates":[1.0],"iterations_per_rate":1}}"#,
        ));
        assert_eq!(status, 202, "{}", body.render());
        service.jobs.shutdown();
    }

    #[test]
    fn fpr_on_unlabelled_school_store_is_unprocessable() {
        // The school generator emits unlabelled rows; FPR requires labels.
        let service = service_with_store(100);
        let (status, body) = service.route(&request(
            "POST",
            "/stores/cohort/metrics",
            r#"{"k":0.2,"metrics":["fpr_difference"]}"#,
        ));
        assert_eq!(status, 422, "{}", body.render());
    }

    #[test]
    fn compas_generation_and_labelled_metrics_work() {
        let service = AuditService::new();
        let (status, _) = service.route(&request(
            "POST",
            "/stores",
            r#"{"name":"defendants","generate":{"kind":"compas","rows":200,"seed":3,"shard_size":32}}"#,
        ));
        assert_eq!(status, 201);
        let (status, body) = service.route(&request(
            "POST",
            "/stores/defendants/metrics",
            r#"{"k":0.3,"metrics":["fpr_difference","log_discounted"]}"#,
        ));
        assert_eq!(status, 200, "{}", body.render());
        assert!(body.get("fpr_difference").unwrap().as_f64_vec().is_some());
    }

    #[test]
    fn store_removal_keeps_running_jobs_alive() {
        let service = service_with_store(400);
        let (status, job) = service.route(&request(
            "POST",
            "/jobs",
            r#"{"store":"cohort","kind":"core","k":0.2,
                "config":{"seed":9,"sample_size":60,"learning_rates":[4.0,1.0],"iterations_per_rate":10}}"#,
        ));
        assert_eq!(status, 202, "{}", job.render());
        let id = job.get("id").unwrap().as_str().unwrap().to_string();
        let (status, _) = service.route(&request("DELETE", "/stores/cohort", ""));
        assert_eq!(status, 200);
        // The job still finishes against its pinned Arc.
        for _ in 0..2000 {
            let (_, view) = service.route(&request("GET", &format!("/jobs/{id}"), ""));
            let state = view.get("state").unwrap().as_str().unwrap().to_string();
            if state == "completed" {
                assert!(view.get("result").unwrap().get("bonus").is_some());
                service.jobs.shutdown();
                return;
            }
            assert!(state == "queued" || state == "running", "{state}");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("job never completed");
    }

    #[test]
    fn partials_route_validates_kind_range_and_count() {
        let service = service_with_store(200); // 4 shards of 64
        for (body, needle) in [
            (r#"{"kind":"nope","shards":[0,4]}"#, "`kind` must be"),
            (
                r#"{"kind":"disparity","shards":[2,9],"count":10}"#,
                "`shards`",
            ),
            (
                r#"{"kind":"disparity","shards":[3,1],"count":10}"#,
                "`shards`",
            ),
            (r#"{"kind":"disparity","shards":[0,4]}"#, "`count`"),
            (
                r#"{"kind":"core_sample","shards":[0,4],"seed":7}"#,
                "`sample_size`",
            ),
        ] {
            let (status, resp) = service.route(&request("POST", "/stores/cohort/partials", body));
            assert_eq!(status, 400, "{body} → {}", resp.render());
            let message = resp.get("error").unwrap().as_str().unwrap();
            assert!(message.contains(needle), "{body} → {message}");
        }
        let (status, _) = service.route(&request(
            "POST",
            "/stores/ghost/partials",
            r#"{"kind":"disparity","shards":[0,1],"count":5}"#,
        ));
        assert_eq!(status, 404);
    }

    #[test]
    fn disparity_partials_route_matches_the_local_kernel_bitwise() {
        let service = service_with_store(200);
        let entry = service.catalog.get("cohort").unwrap();
        let dims = entry.store.schema().num_fairness();
        let (status, resp) = service.route(&request(
            "POST",
            "/stores/cohort/partials",
            r#"{"kind":"disparity","shards":[1,3],"count":20}"#,
        ));
        assert_eq!(status, 200, "{}", resp.render());
        let shards = resp.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 2);

        let weights = vec![1.0; entry.store.schema().num_features()];
        let ranker = WeightedSumRanker::new(weights).unwrap();
        let local =
            shmetrics::disparity_partials(&entry.store, &ranker, &vec![0.0; dims], 20, 1..3)
                .unwrap();
        for (wire, local) in shards.iter().zip(&local) {
            assert_eq!(wire.get("shard").unwrap().as_usize().unwrap(), local.shard);
            assert_eq!(wire.get("rows").unwrap().as_usize().unwrap(), local.rows);
            let sums = wire.get("fair_sums").unwrap().as_f64_vec().unwrap();
            let a: Vec<u64> = sums.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = local.fair_sums.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "fair_sums round-trip bit-exactly");
            let scores = wire.get("scores").unwrap().as_f64_vec().unwrap();
            let a: Vec<u64> = scores.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = local.scores.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "scores round-trip bit-exactly");
        }
    }

    #[test]
    fn core_sample_route_returns_the_deterministic_range_sample() {
        let service = service_with_store(300); // 5 shards of 64
        let entry = service.catalog.get("cohort").unwrap();
        let (status, resp) = service.route(&request(
            "POST",
            "/stores/cohort/partials",
            r#"{"kind":"core_sample","shards":[1,4],"seed":77,"sample_size":120}"#,
        ));
        assert_eq!(status, 200, "{}", resp.render());
        let rows = resp.get("rows").unwrap();
        let ids = rows.get("ids").unwrap().as_arr().unwrap();
        let mut indices = Vec::new();
        fair_core::sample_indices_range_into(&entry.store, 77, 120, 1..4, &mut indices).unwrap();
        assert_eq!(ids.len(), indices.len());
        let nf = entry.store.schema().num_features();
        let features = rows.get("features").unwrap().as_f64_vec().unwrap();
        assert_eq!(features.len(), indices.len() * nf);
        // Identical request → identical row bytes (purity is what makes
        // coordinator retries safe); the repeat is answered from the
        // worker-side LRU and says so.
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
        let (_, again) = service.route(&request(
            "POST",
            "/stores/cohort/partials",
            r#"{"kind":"core_sample","shards":[1,4],"seed":77,"sample_size":120}"#,
        ));
        assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            resp.get("rows").unwrap().render(),
            again.get("rows").unwrap().render()
        );
        assert_eq!(service.partials_cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn core_sample_cache_keys_on_parameters_and_registration() {
        let service = service_with_store(300);
        let body = r#"{"kind":"core_sample","shards":[0,3],"seed":5,"sample_size":60}"#;
        let (_, first) = service.route(&request("POST", "/stores/cohort/partials", body));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        // A different seed, range, or sample size is a different gather.
        for other in [
            r#"{"kind":"core_sample","shards":[0,3],"seed":6,"sample_size":60}"#,
            r#"{"kind":"core_sample","shards":[0,2],"seed":5,"sample_size":60}"#,
            r#"{"kind":"core_sample","shards":[0,3],"seed":5,"sample_size":61}"#,
        ] {
            let (status, resp) = service.route(&request("POST", "/stores/cohort/partials", other));
            assert_eq!(status, 200, "{}", resp.render());
            assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{other}");
        }
        // The original key is still resident and hits.
        let (_, hit) = service.route(&request("POST", "/stores/cohort/partials", body));
        assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));
        // Deregistering clears the cache: after a re-registration the same
        // request misses rather than serving the old cohort's rows.
        let (status, _) = service.route(&request("DELETE", "/stores/cohort", ""));
        assert_eq!(status, 200);
        let (status, _) = service.route(&request(
            "POST",
            "/stores",
            r#"{"name":"cohort","generate":{"kind":"school","rows":300,"seed":8,"shard_size":64}}"#,
        ));
        assert_eq!(status, 201);
        let (_, fresh) = service.route(&request("POST", "/stores/cohort/partials", body));
        assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));
        assert_ne!(
            fresh.get("rows").unwrap().render(),
            first.get("rows").unwrap().render(),
            "a different cohort samples different rows"
        );
        assert_eq!(service.partials_cache_hits.load(Ordering::Relaxed), 1);
    }

    /// The fault plan is process-global: tests that install one must not
    /// interleave, or one test's `install` wipes another's pending spec.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn shutdown_drains_a_slow_handler_without_waiting_out_the_delay() {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = AuditService::new();
        let server = serve(service, "127.0.0.1:0", 2).unwrap();
        let addr = server.addr();
        fair_core::fault::install(
            fair_core::FaultPlan::parse("serve@/health:delay:5000:1").unwrap(),
        );
        let slow = std::thread::spawn(move || {
            let _ = crate::client::Client::new(addr).health();
        });
        // Let the request reach the handler's injected delay.
        std::thread::sleep(Duration::from_millis(150));
        let start = Instant::now();
        server.shutdown();
        let elapsed = start.elapsed();
        fair_core::fault::install(fair_core::FaultPlan::none());
        let _ = slow.join();
        assert!(
            elapsed < Duration::from_secs(3),
            "shutdown waited out the injected delay: {elapsed:?}"
        );
    }

    #[test]
    fn shutdown_severs_a_stuck_connection_after_the_drain_deadline() {
        std::env::set_var("FAIR_DRAIN_MS", "200");
        let service = AuditService::new();
        let server = serve(service, "127.0.0.1:0", 1).unwrap();
        // Open a connection and send nothing: the lone worker blocks in
        // read_request far past the drain window.
        let idle = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        server.shutdown();
        let elapsed = start.elapsed();
        std::env::remove_var("FAIR_DRAIN_MS");
        drop(idle);
        assert!(
            elapsed < Duration::from_secs(5),
            "shutdown hung on an idle connection: {elapsed:?}"
        );
    }

    #[test]
    fn serve_fault_modes_fail_observably_then_clear() {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = service_with_store(100);
        let server = serve(service, "127.0.0.1:0", 2).unwrap();
        let client = crate::client::Client::new(server.addr());

        fair_core::fault::install(fair_core::FaultPlan::parse("serve@/health:corrupt:1").unwrap());
        assert!(
            matches!(client.health(), Err(crate::error::ServeError::Protocol(_))),
            "corrupted body must fail the client's JSON parse"
        );

        fair_core::fault::install(fair_core::FaultPlan::parse("serve@/health:500:1").unwrap());
        assert!(matches!(
            client.health(),
            Err(crate::error::ServeError::Api { status: 500, .. })
        ));

        fair_core::fault::install(fair_core::FaultPlan::parse("serve@/health:panic:1").unwrap());
        match client.health() {
            Err(crate::error::ServeError::Api { status, message }) => {
                assert_eq!(status, 500);
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected a 500 from the injected panic, got {other:?}"),
        }

        fair_core::fault::install(fair_core::FaultPlan::parse("serve@/health:drop:1").unwrap());
        assert!(client.health().is_err(), "dropped connection must error");

        fair_core::fault::install(
            fair_core::FaultPlan::parse("serve@/health:close-mid-body:1").unwrap(),
        );
        assert!(client.health().is_err(), "mid-body close must error");

        fair_core::fault::install(fair_core::FaultPlan::none());
        client
            .health()
            .expect("faults cleared, server healthy again");
        server.shutdown();
    }
}
