//! The typed client for the audit service's wire protocol.
//!
//! One TCP connection per request (the server answers `Connection: close`),
//! JSON bodies, and typed views of every response. Because the wire format
//! renders `f64`s with shortest round-trip formatting, the metric vectors a
//! client decodes are **bit-identical** to the values the server computed —
//! auditing through the service gives exactly the library's numbers.

use crate::backoff::Backoff;
use crate::error::{Result, ServeError};
use crate::http::{read_response, MAX_BODY_BYTES};
use crate::jobs::JobKind;
use crate::json::Json;
use fair_core::metrics::sharded::DisparityPartial;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Catalog information for one store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreInfo {
    /// Catalog name.
    pub name: String,
    /// `"memory"` or `"disk"`.
    pub kind: String,
    /// Total rows.
    pub rows: usize,
    /// Number of shards.
    pub shards: usize,
    /// Rows per shard.
    pub shard_size: usize,
    /// Backing file for disk stores.
    pub path: Option<String>,
}

/// A metrics request: which measurements to run at which operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRequest {
    /// Selection fraction.
    pub k: f64,
    /// Bonus vector (`None` = zeros: the unadjusted ranking).
    pub bonus: Option<Vec<f64>>,
    /// Ranker feature weights (`None` = uniform).
    pub weights: Option<Vec<f64>>,
    /// Metric names (`None` = disparity + nDCG).
    pub metrics: Option<Vec<String>>,
}

impl MetricsRequest {
    /// Disparity + nDCG at `k` with no bonus — the baseline audit.
    #[must_use]
    pub fn baseline(k: f64) -> Self {
        Self {
            k,
            bonus: None,
            weights: None,
            metrics: None,
        }
    }
}

/// The computed metrics (fields are `None` when not requested).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsResult {
    /// Cohort size the metrics were computed over.
    pub rows: usize,
    /// Disparity vector at `k`.
    pub disparity: Option<Vec<f64>>,
    /// nDCG of the bonus-adjusted ranking against the unadjusted one.
    pub ndcg: Option<f64>,
    /// Log-discounted disparity vector.
    pub log_discounted: Option<Vec<f64>>,
    /// FPR-difference vector.
    pub fpr_difference: Option<Vec<f64>>,
    /// Scaled disparate-impact vector.
    pub disparate_impact: Option<Vec<f64>>,
}

/// A background-job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Catalog name of the store to audit.
    pub store: String,
    /// Full or Core DCA.
    pub kind: JobKind,
    /// Selection fraction of the disparity objective.
    pub k: f64,
    /// Ranker feature weights (`None` = uniform).
    pub weights: Option<Vec<f64>>,
    /// Descent seed.
    pub seed: u64,
    /// Sample size (Core DCA only; `None` keeps the server default).
    pub sample_size: Option<usize>,
    /// Learning-rate ladder (`None` keeps the server default).
    pub learning_rates: Option<Vec<f64>>,
    /// Iterations per rate (`None` keeps the server default).
    pub iterations_per_rate: Option<usize>,
    /// Fleet worker addresses (`host:port` strings). `None` runs the job
    /// on the serving node; `Some` makes the job's descent fan out to these
    /// workers, all under the submitting request's trace id.
    pub workers: Option<Vec<String>>,
}

/// A job's status as reported by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job id.
    pub id: String,
    /// Store the job audits.
    pub store: String,
    /// The trace id every event of this job carries (the submitting
    /// request's, or one the server minted at accept).
    pub trace: String,
    /// `"full"` or `"core"`.
    pub kind: String,
    /// `queued` / `running` / `completed` / `failed` / `cancelled`.
    pub state: String,
    /// Completed steps.
    pub step: usize,
    /// Total steps.
    pub total_steps: usize,
    /// Wall-clock milliseconds spent queued (serve-layer bookkeeping).
    pub queued_ms: u64,
    /// Wall-clock milliseconds spent running (still ticking while running).
    pub running_ms: u64,
    /// The outcome, once completed.
    pub result: Option<JobResult>,
    /// The failure message, once failed.
    pub error: Option<String>,
}

impl JobView {
    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "completed" | "failed" | "cancelled")
    }
}

/// The outcome of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Final (unrounded) bonus values.
    pub bonus: Vec<f64>,
    /// Descent steps executed.
    pub steps: usize,
    /// Objects scored across all steps.
    pub objects_scored: usize,
}

/// The gathered sample rows of a `core_sample` partial-reduce response:
/// plain columns, range-ordered, ready to append to a gather dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleRows {
    /// Object ids, in deterministic sample order.
    pub ids: Vec<u64>,
    /// Row-major feature matrix.
    pub features: Vec<f64>,
    /// Row-major fairness matrix.
    pub fairness: Vec<f64>,
    /// Per-row outcome labels.
    pub labels: Vec<Option<bool>>,
    /// Whether the worker answered from its `core_sample` LRU (the rows are
    /// byte-identical either way; this is observability, not semantics).
    pub cached: bool,
}

impl SampleRows {
    /// Number of sampled rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A client bound to one service address. Cheap to clone; each request opens
/// its own connection.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    connect_retries: usize,
    trace: Option<String>,
}

impl Client {
    /// A client for the service at `addr` with a 30-second socket timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(30),
            connect_retries: 0,
            trace: None,
        }
    }

    /// Attach a trace id: every request carries it in the `x-fair-trace`
    /// header, so the server-side handler spans correlate with the caller's
    /// spans (the fleet coordinator sets one id per fan-out round).
    #[must_use]
    pub fn with_trace(mut self, id: impl Into<String>) -> Self {
        self.trace = Some(id.into());
        self
    }

    /// Override the per-request socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Retry a failed TCP connect up to `retries` extra times with jittered
    /// exponential backoff (10 ms doubling to 250 ms) before surfacing the
    /// error. Only the *connect* is retried here — it cannot have reached a
    /// handler, so retrying is always safe regardless of the request's
    /// semantics. Retrying a request that may have executed is the fleet
    /// coordinator's decision, made only for idempotent endpoints.
    #[must_use]
    pub fn with_connect_retries(mut self, retries: usize) -> Self {
        self.connect_retries = retries;
        self
    }

    /// `GET /health`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn health(&self) -> Result<()> {
        self.request("GET", "/health", None).map(|_| ())
    }

    /// `GET /health`, returning the parsed body (status, uptime, request
    /// counter) instead of discarding it.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn health_info(&self) -> Result<Json> {
        self.request("GET", "/health", None)
    }

    /// `GET /stores`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn stores(&self) -> Result<Vec<StoreInfo>> {
        let body = self.request("GET", "/stores", None)?;
        body.get("stores")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol("missing `stores` array".into()))?
            .iter()
            .map(parse_store_info)
            .collect()
    }

    /// Register an on-disk FSS1 file under `name` (`POST /stores`).
    ///
    /// # Errors
    /// I/O, protocol, or API errors (409 on duplicate names, 422 on
    /// unreadable files).
    pub fn register_disk_store(&self, name: &str, path: &str) -> Result<StoreInfo> {
        let body = Json::obj(vec![("name", Json::str(name)), ("path", Json::str(path))]);
        let resp = self.request("POST", "/stores", Some(&body))?;
        parse_store_info(
            resp.get("store")
                .ok_or_else(|| ServeError::Protocol("missing `store` object".into()))?,
        )
    }

    /// Generate and register a synthetic cohort (`POST /stores` with
    /// `generate`): `kind` is `"school"` or `"compas"`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn register_synthetic(
        &self,
        name: &str,
        kind: &str,
        rows: usize,
        seed: u64,
    ) -> Result<StoreInfo> {
        let body = Json::obj(vec![
            ("name", Json::str(name)),
            (
                "generate",
                Json::obj(vec![
                    ("kind", Json::str(kind)),
                    ("rows", Json::num(rows as f64)),
                    ("seed", seed_json(seed)),
                ]),
            ),
        ]);
        let resp = self.request("POST", "/stores", Some(&body))?;
        parse_store_info(
            resp.get("store")
                .ok_or_else(|| ServeError::Protocol("missing `store` object".into()))?,
        )
    }

    /// `DELETE /stores/{name}`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn remove_store(&self, name: &str) -> Result<()> {
        self.request("DELETE", &format!("/stores/{name}"), None)
            .map(|_| ())
    }

    /// `GET /stores/{name}/schema`: `(feature names, fairness names)`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn schema(&self, name: &str) -> Result<(Vec<String>, Vec<String>)> {
        let body = self.request("GET", &format!("/stores/{name}/schema"), None)?;
        let features = body
            .get("features")
            .and_then(Json::as_str_vec)
            .ok_or_else(|| ServeError::Protocol("missing `features`".into()))?;
        let fairness = body
            .get("fairness")
            .and_then(Json::as_str_vec)
            .ok_or_else(|| ServeError::Protocol("missing `fairness`".into()))?;
        Ok((features, fairness))
    }

    /// `GET /stores/{name}/stats` (raw JSON — the shape varies by backend).
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn stats(&self, name: &str) -> Result<Json> {
        self.request("GET", &format!("/stores/{name}/stats"), None)
    }

    /// `POST /stores/{name}/metrics`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn metrics(&self, name: &str, req: &MetricsRequest) -> Result<MetricsResult> {
        let mut pairs = vec![("k", Json::num(req.k))];
        if let Some(bonus) = &req.bonus {
            pairs.push(("bonus", Json::num_arr(bonus)));
        }
        if let Some(weights) = &req.weights {
            pairs.push(("weights", Json::num_arr(weights)));
        }
        if let Some(metrics) = &req.metrics {
            pairs.push(("metrics", Json::str_arr(metrics)));
        }
        let body = Json::obj(pairs);
        let resp = self.request("POST", &format!("/stores/{name}/metrics"), Some(&body))?;
        Ok(MetricsResult {
            rows: resp.get("rows").and_then(Json::as_usize).unwrap_or(0),
            disparity: resp.get("disparity").and_then(Json::as_f64_vec),
            ndcg: resp.get("ndcg").and_then(Json::as_f64),
            log_discounted: resp.get("log_discounted").and_then(Json::as_f64_vec),
            fpr_difference: resp.get("fpr_difference").and_then(Json::as_f64_vec),
            disparate_impact: resp.get("disparate_impact").and_then(Json::as_f64_vec),
        })
    }

    /// `POST /jobs`: launch a background DCA run.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn submit_job(&self, req: &JobRequest) -> Result<JobView> {
        let mut config = vec![("seed", seed_json(req.seed))];
        if let Some(v) = req.sample_size {
            config.push(("sample_size", Json::num(v as f64)));
        }
        if let Some(v) = &req.learning_rates {
            config.push(("learning_rates", Json::num_arr(v)));
        }
        if let Some(v) = req.iterations_per_rate {
            config.push(("iterations_per_rate", Json::num(v as f64)));
        }
        let mut pairs = vec![
            ("store", Json::str(req.store.clone())),
            ("kind", Json::str(req.kind.as_str())),
            ("k", Json::num(req.k)),
            ("config", Json::obj(config)),
        ];
        if let Some(weights) = &req.weights {
            pairs.push(("weights", Json::num_arr(weights)));
        }
        if let Some(workers) = &req.workers {
            pairs.push(("workers", Json::str_arr(workers)));
        }
        let body = Json::obj(pairs);
        let resp = self.request("POST", "/jobs", Some(&body))?;
        parse_job_view(&resp)
    }

    /// `GET /jobs/{id}/profile`: the job's phase profile — per-phase
    /// attributed time plus the per-step breakdown ring — as raw JSON (the
    /// shape is additive across versions, so a typed view would ossify it).
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn job_profile(&self, id: &str) -> Result<Json> {
        self.request("GET", &format!("/jobs/{id}/profile"), None)
    }

    /// `GET /jobs/{id}`.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn job(&self, id: &str) -> Result<JobView> {
        let resp = self.request("GET", &format!("/jobs/{id}"), None)?;
        parse_job_view(&resp)
    }

    /// `DELETE /jobs/{id}`: request cooperative cancellation.
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn cancel_job(&self, id: &str) -> Result<JobView> {
        let resp = self.request("DELETE", &format!("/jobs/{id}"), None)?;
        parse_job_view(&resp)
    }

    /// Poll `GET /jobs/{id}` until the job reaches a terminal state or
    /// `timeout` elapses. The poll interval starts at 10 ms and backs off
    /// exponentially (with jitter) to a 1-second cap, so a long-running job
    /// is not hammered with status requests while a short one is still
    /// observed promptly.
    ///
    /// # Errors
    /// I/O, protocol, or API errors; [`ServeError::Protocol`] on timeout.
    pub fn wait_for_job(&self, id: &str, timeout: Duration) -> Result<JobView> {
        let start = Instant::now();
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_secs(1));
        loop {
            let view = self.job(id)?;
            if view.is_terminal() {
                return Ok(view);
            }
            if start.elapsed() > timeout {
                return Err(ServeError::Protocol(format!(
                    "job `{id}` still `{}` after {timeout:?}",
                    view.state
                )));
            }
            backoff.sleep();
        }
    }

    /// `POST /stores/{name}/partials` with `kind: "disparity"`: this node's
    /// per-shard disparity partials over the shard range, decoded back into
    /// the engine's [`DisparityPartial`] type for
    /// [`fair_core::metrics::sharded::combine_disparity_partials`].
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn disparity_partials(
        &self,
        store: &str,
        bonus: &[f64],
        weights: Option<&[f64]>,
        count: usize,
        shards: Range<usize>,
    ) -> Result<Vec<DisparityPartial>> {
        let mut pairs = vec![
            ("kind", Json::str("disparity")),
            ("bonus", Json::num_arr(bonus)),
            ("count", Json::num(count as f64)),
            ("shards", shards_json(&shards)),
        ];
        if let Some(weights) = weights {
            pairs.push(("weights", Json::num_arr(weights)));
        }
        let resp = self.request(
            "POST",
            &format!("/stores/{store}/partials"),
            Some(&Json::obj(pairs)),
        )?;
        resp.get("shards")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol("missing `shards` array".into()))?
            .iter()
            .map(parse_disparity_partial)
            .collect()
    }

    /// `POST /stores/{name}/partials` with `kind: "core_sample"`: the rows of
    /// the deterministic `(seed, sample_size)` Core-DCA sample that fall in
    /// the shard range, as plain columns. The sample is stratified per shard
    /// and drawn without replacement: largest-remainder quotas proportional
    /// to shard length, then `sample_into` within each shard under its own
    /// seed stream ([`fair_core::sample_indices_range_into`]).
    ///
    /// # Errors
    /// I/O, protocol, or API errors.
    pub fn core_sample(
        &self,
        store: &str,
        seed: u64,
        sample_size: usize,
        shards: Range<usize>,
    ) -> Result<SampleRows> {
        let body = Json::obj(vec![
            ("kind", Json::str("core_sample")),
            ("seed", seed_json(seed)),
            ("sample_size", Json::num(sample_size as f64)),
            ("shards", shards_json(&shards)),
        ]);
        let resp = self.request("POST", &format!("/stores/{store}/partials"), Some(&body))?;
        let mut rows = parse_sample_rows(
            resp.get("rows")
                .ok_or_else(|| ServeError::Protocol("missing `rows` object".into()))?,
        )?;
        rows.cached = resp.get("cached").and_then(Json::as_bool).unwrap_or(false);
        Ok(rows)
    }

    /// `GET /metrics`: the server's [`fair_core::obs`] registry in raw
    /// Prometheus text exposition format (no JSON parsing — the body is not
    /// JSON).
    ///
    /// # Errors
    /// I/O or protocol errors; [`ServeError::Api`] on non-2xx statuses.
    pub fn metrics_text(&self) -> Result<String> {
        let (status, raw) = self.exchange("GET", "/metrics", None)?;
        if status >= 400 {
            return Err(ServeError::Api {
                status,
                message: format!("GET /metrics answered {status}"),
            });
        }
        String::from_utf8(raw).map_err(|_| ServeError::Protocol("non-UTF8 metrics body".into()))
    }

    /// One request/response exchange. API-level failures (status >= 400)
    /// surface as [`ServeError::Api`] with the server's `error` message.
    fn request(&self, method: &str, path: &str, body: Option<&Json>) -> Result<Json> {
        let (status, raw) = self.exchange(method, path, body)?;
        let text = std::str::from_utf8(&raw)
            .map_err(|_| ServeError::Protocol("non-UTF8 response body".into()))?;
        let json = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(text)?
        };
        if status >= 400 {
            let message = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            return Err(ServeError::Api { status, message });
        }
        Ok(json)
    }

    /// The raw wire exchange shared by the JSON path and `/metrics`: connect
    /// (with retries), send one request, read `(status, body bytes)`.
    fn exchange(&self, method: &str, path: &str, body: Option<&Json>) -> Result<(u16, Vec<u8>)> {
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(250));
        let mut attempt = 0;
        let conn = loop {
            match TcpStream::connect_timeout(&self.addr, self.timeout) {
                Ok(conn) => break conn,
                Err(_) if attempt < self.connect_retries => {
                    attempt += 1;
                    backoff.sleep();
                }
                Err(e) => return Err(e.into()),
            }
        };
        conn.set_read_timeout(Some(self.timeout))?;
        conn.set_write_timeout(Some(self.timeout))?;
        conn.set_nodelay(true)?;
        let rendered = body.map(Json::render).unwrap_or_default();
        let trace_header = self
            .trace
            .as_deref()
            .map(|id| format!("{}: {id}\r\n", crate::http::TRACE_HEADER))
            .unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{trace_header}Connection: close\r\n\r\n",
            self.addr,
            rendered.len()
        );
        let mut w = &conn;
        w.write_all(head.as_bytes())?;
        w.write_all(rendered.as_bytes())?;
        w.flush()?;

        let (status, raw) = read_response(&conn)?;
        if raw.len() > MAX_BODY_BYTES {
            return Err(ServeError::Protocol("response body too large".into()));
        }
        Ok((status, raw))
    }
}

/// Encode a `u64` seed for the wire: a JSON number when strictly below 2^53
/// (the server rejects number tokens at 2^53 and above, where `f64` parsing
/// may already have rounded them), a decimal string otherwise — so every
/// seed round-trips exactly and the job's trajectory is the library
/// trajectory for that seed.
fn seed_json(seed: u64) -> Json {
    if seed < (1_u64 << 53) {
        Json::num(seed as f64)
    } else {
        Json::Str(seed.to_string())
    }
}

/// Encode a shard range as the wire's `[lo, hi]` pair.
fn shards_json(range: &Range<usize>) -> Json {
    Json::Arr(vec![
        Json::num(range.start as f64),
        Json::num(range.end as f64),
    ])
}

fn parse_disparity_partial(v: &Json) -> Result<DisparityPartial> {
    let count = |key: &str| -> Result<usize> {
        v.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| ServeError::Protocol(format!("partial missing `{key}`")))
    };
    let nums = |key: &str| -> Result<Vec<f64>> {
        v.get(key)
            .and_then(Json::as_f64_vec)
            .ok_or_else(|| ServeError::Protocol(format!("partial missing `{key}`")))
    };
    let positions = v
        .get("positions")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol("partial missing `positions`".into()))?
        .iter()
        .map(|p| {
            p.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| ServeError::Protocol("`positions` must be counts".into()))
        })
        .collect::<Result<Vec<usize>>>()?;
    Ok(DisparityPartial {
        shard: count("shard")?,
        rows: count("rows")?,
        fair_sums: nums("fair_sums")?,
        scores: nums("scores")?,
        positions,
        fairness: nums("fairness")?,
    })
}

fn parse_sample_rows(v: &Json) -> Result<SampleRows> {
    let ids = v
        .get("ids")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol("sample missing `ids`".into()))?
        .iter()
        .map(|p| {
            p.as_u64()
                .ok_or_else(|| ServeError::Protocol("`ids` must be u64".into()))
        })
        .collect::<Result<Vec<u64>>>()?;
    let nums = |key: &str| -> Result<Vec<f64>> {
        v.get(key)
            .and_then(Json::as_f64_vec)
            .ok_or_else(|| ServeError::Protocol(format!("sample missing `{key}`")))
    };
    let labels = v
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol("sample missing `labels`".into()))?
        .iter()
        .map(|p| match p.as_f64() {
            Some(0.0) => Ok(None),
            Some(1.0) => Ok(Some(false)),
            Some(2.0) => Ok(Some(true)),
            _ => Err(ServeError::Protocol("`labels` must be 0, 1, or 2".into())),
        })
        .collect::<Result<Vec<Option<bool>>>>()?;
    Ok(SampleRows {
        ids,
        features: nums("features")?,
        fairness: nums("fairness")?,
        labels,
        cached: false,
    })
}

fn parse_store_info(v: &Json) -> Result<StoreInfo> {
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| ServeError::Protocol(format!("store info missing `{key}`")))
    };
    Ok(StoreInfo {
        name: field("name")?
            .as_str()
            .ok_or_else(|| ServeError::Protocol("`name` must be a string".into()))?
            .to_string(),
        kind: field("kind")?
            .as_str()
            .ok_or_else(|| ServeError::Protocol("`kind` must be a string".into()))?
            .to_string(),
        rows: field("rows")?
            .as_usize()
            .ok_or_else(|| ServeError::Protocol("`rows` must be a count".into()))?,
        shards: field("shards")?
            .as_usize()
            .ok_or_else(|| ServeError::Protocol("`shards` must be a count".into()))?,
        shard_size: field("shard_size")?
            .as_usize()
            .ok_or_else(|| ServeError::Protocol("`shard_size` must be a count".into()))?,
        path: v.get("path").and_then(Json::as_str).map(str::to_string),
    })
}

fn parse_job_view(v: &Json) -> Result<JobView> {
    let str_field = |key: &str| -> Result<String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol(format!("job view missing `{key}`")))
    };
    let result = match v.get("result") {
        None | Some(Json::Null) => None,
        Some(r) => Some(JobResult {
            bonus: r
                .get("bonus")
                .and_then(Json::as_f64_vec)
                .ok_or_else(|| ServeError::Protocol("job result missing `bonus`".into()))?,
            steps: r.get("steps").and_then(Json::as_usize).unwrap_or(0),
            objects_scored: r
                .get("objects_scored")
                .and_then(Json::as_usize)
                .unwrap_or(0),
        }),
    };
    Ok(JobView {
        id: str_field("id")?,
        store: str_field("store")?,
        trace: v
            .get("trace")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        kind: str_field("kind")?,
        state: str_field("state")?,
        step: v.get("step").and_then(Json::as_usize).unwrap_or(0),
        total_steps: v.get("total_steps").and_then(Json::as_usize).unwrap_or(0),
        queued_ms: v.get("queued_ms").and_then(Json::as_u64).unwrap_or(0),
        running_ms: v.get("running_ms").and_then(Json::as_u64).unwrap_or(0),
        result,
        error: v.get("error").and_then(Json::as_str).map(str::to_string),
    })
}
