//! `audit_paged`: five-metric what-if audits against a `fair-serve` process
//! serving a paged 100k-row COMPAS store, under an open-loop and then a
//! closed-loop load, plus Core DCA jobs on the same store.

use crate::dca::{self, same_bits, Descent, Reference};
use crate::inputs::{self, Inputs, COMPAS_DIMS, COMPAS_SHARD, K};
use crate::layers::{self, ratio, Layers};
use crate::loadgen::{self, Sample};
use crate::net;
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::sys::{self, ScratchDir, StealMeter};
use crate::trace::{self, TracedSource, Tracer};
use crate::Ctx;
use fair_core::metrics::sharded::{MetricKind, MetricPlan, MetricReport, MetricValue};
use fair_core::metrics::LogDiscountConfig;
use fair_core::{ShardSource, ShardedDataset};
use fair_serve::{Client, JobKind, JobRequest, Json, MetricsRequest, MetricsResult};
use fair_store::{CacheStats, ShardStore};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// First argument that turns the binary into the audit server.
pub const SERVE_CHILD: &str = "serve-child";
const STORE: &str = "compas";
const METRICS_ROUTE: &str = "route=\"POST /stores/{name}/metrics\"";
/// Connections (threads) the load generator uses.
const CONNECTIONS: usize = 2;
/// Open-loop rate: about half the closed-loop capacity measured with two
/// connections on a 2-core host (see README.md).
const OPEN_RATE: f64 = 24.0;
/// Per-request deadline; a request that misses it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups per run; `setup_s` is their median. One takes about 50 ms, so
/// more of them than on the other workloads keep the median steady.
const SETUP_REPS: usize = 15;
/// Deadline of one Core DCA job; a job that misses it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// How often a job is polled. `Client::wait_for_job` backs off to a second
/// between polls, which leaves the run idle for about half a job after
/// each one. The job's time comes from the server, so the interval only
/// decides how soon the next round starts.
const JOB_POLL: Duration = Duration::from_millis(25);
/// Rounds of a run. Each round of an untraced run ends with one Core DCA
/// job, so this is also the job count: a fixed count, so `disparity_after`
/// depends on the seed alone (its mean over 12 jobs spread 7% to 20% across
/// ten seeds, and over 24 jobs 5% to 11%). Each job costs about a second of
/// run time, on top of `--seconds`.
const ROUNDS: usize = 16;
/// Shares of `--seconds` spent on the open and the closed loop of an
/// untraced run, spread evenly over the rounds.
const OPEN_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.3;
/// Offset of the closed-loop audit indices, so no bonus repeats.
const CLOSED_INDEX: usize = 1 << 20;

const FIVE_METRICS: [&str; 5] = [
    "disparity",
    "ndcg",
    "log_discounted",
    "fpr_difference",
    "disparate_impact",
];

/// The server process: the library's `serve`, with the store registered
/// over HTTP by the parent. It exits when its standard input
/// closes, so it never outlives the benchmark.
pub fn serve_child() {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    let service = fair_serve::AuditService::new();
    let server = match fair_serve::serve(service, "127.0.0.1:0", fair_core::max_workers()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    server.join();
}

/// A running server process.
struct ServerChild {
    child: Child,
    _stdin: ChildStdin,
    addr: SocketAddr,
}

impl ServerChild {
    fn start(cache_bytes: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(SERVE_CHILD)
            .env("FAIR_CACHE_BYTES", cache_bytes.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        // From here on, dropping `server` kills and reaps the child, so an
        // early return cannot leave it running.
        let mut server = Self {
            child,
            _stdin: stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not report its address: {line:?}"))?;
        Ok(server)
    }

    fn client(&self) -> Client {
        Client::new(self.addr).with_timeout(REQUEST_TIMEOUT)
    }

    fn peak_rss(&self) -> u64 {
        sys::peak_rss_bytes(&self.child.id().to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Setup {
    cohort: ShardedDataset,
    server: ServerChild,
    budget: usize,
}

fn set_up(inputs: &Inputs, path: &Path, times: &mut [Vec<f64>; 4]) -> Result<Setup, String> {
    let t = Instant::now();
    let cohort = inputs.compas();
    times[0].push(t.elapsed().as_secs_f64());
    let w = Instant::now();
    fair_store::write_source(&cohort, path).map_err(|e| e.to_string())?;
    times[1].push(w.elapsed().as_secs_f64());
    let s = Instant::now();
    let budget = dca::column_bytes(&cohort) / 4;
    let server = ServerChild::start(budget)?;
    server
        .client()
        .with_connect_retries(3)
        .register_disk_store(STORE, &path.to_string_lossy())
        .map_err(|e| e.to_string())?;
    times[2].push(s.elapsed().as_secs_f64());
    times[3].push(t.elapsed().as_secs_f64());
    Ok(Setup {
        cohort,
        server,
        budget,
    })
}

pub fn audit_paged(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = match ScratchDir::new() {
        Ok(d) => d,
        Err(e) => {
            out.broken.push(format!("scratch dir: {e}"));
            return out;
        }
    };
    let path = dir.file("compas.fss");
    // generate, store write, server start + register, total
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        match set_up(&ctx.inputs, &path, &mut times) {
            Ok(s) => setup = Some(s),
            Err(e) => {
                out.broken.push(format!("audit set-up: {e}"));
                return out;
            }
        }
    }
    let Setup {
        cohort,
        server,
        budget,
    } = setup.expect("at least one set-up");
    out.setting("rows", Json::num(cohort.len() as f64));
    out.setting("shard_size", Json::num(COMPAS_SHARD as f64));
    out.setting("cache_budget_bytes", Json::num(budget as f64));
    out.setting(
        "server_env",
        Json::obj(vec![("FAIR_CACHE_BYTES", Json::str(budget.to_string()))]),
    );
    out.setting(
        "prefetch_depth",
        Json::num(fair_store::default_prefetch() as f64),
    );
    out.setting("open_rate", Json::num(OPEN_RATE));
    out.setting("connections", Json::num(CONNECTIONS as f64));
    // The timed phase holds no in-memory cohort: the checks regenerate it
    // from the seed once the peak RSS has been read.
    drop(cohort);
    out.reset_peak_rss();

    let client = server.client();
    let port = server.addr.port();
    let conns0 = net::closed_connections(&[port]);
    let load = load_rounds(ctx, &client);
    let conns = net::closed_connections(&[port]) - conns0;
    out.peak_rss = sys::peak_rss_bytes("self") + server.peak_rss();
    let Load {
        open,
        open_steal,
        closed,
        closed_rates,
        jobs,
    } = load;

    let cohort = ctx.inputs.compas();
    let checker = AuditCheck::new(&cohort);
    for s in open.iter().chain(&closed) {
        out.op(checker.check(&ctx.inputs, s));
    }
    if ctx.trace {
        let mut layers = Layers::default();
        layers.set("setup.generate_s", median(&times[0]));
        layers.set("setup.store_write_s", median(&times[1]));
        layers.set("setup.serve_start_s", median(&times[2]));
        let requests = (open.len() + closed.len()) as f64;
        let handler_share = serve_layers(
            &mut layers,
            &client,
            &open,
            &closed,
            conns as f64 / requests,
        );
        replay(
            ctx,
            &mut out,
            &mut layers,
            &path,
            budget,
            &checker,
            handler_share,
        );
        layers.emit(&mut out);
        return out;
    }
    out.metric("setup_s", median(&times[3]), "s");
    // Each job's bonus must be the in-memory descent's, bit for bit, and
    // lower the full-cohort disparity; that disparity, computed here
    // untimed, is the quality figure.
    let reference = Reference::new(
        &cohort,
        inputs::compas_ranker(),
        inputs::compas_job_config,
        true,
    );
    let mut norms = Vec::new();
    for job in &jobs {
        let checked = reference.check(job);
        if let Ok(n) = checked {
            norms.push(n);
        }
        out.op(checked.err());
    }
    let ms: Vec<(f64, f64)> = jobs
        .iter()
        .filter(|j| j.bonus.is_ok())
        .map(|j| (j.ms, j.steal))
        .collect();
    dca::time_to_bonus(&mut out, "jobs", &ms);
    // A mean, not a median: on COMPAS a job's disparity lands on one of a
    // few discrete values, and a median of a few jobs jumps between them.
    out.metric(
        "disparity_after",
        Summary::of(&norms).map_or(0.0, |s| s.mean),
        "l2_norm",
    );
    let open_ms: Vec<(f64, f64)> = open
        .iter()
        .zip(&open_steal)
        .map(|(s, steal)| (s.latency_ms, *steal))
        .collect();
    dca::audit_metrics(&mut out, &open_ms, &closed_rates);
    out.setting("closed_samples", Json::num(closed.len() as f64));
    out
}

/// What the load rounds of a run measured.
#[derive(Default)]
struct Load {
    open: Vec<Sample<MetricsResult>>,
    /// The host's steal share over the open-loop slice of each sample.
    open_steal: Vec<f64>,
    closed: Vec<Sample<MetricsResult>>,
    /// Audits per second of each closed-loop slice, with the host's steal
    /// share over the slice.
    closed_rates: Vec<(f64, f64)>,
    jobs: Vec<Descent>,
}

/// [`ROUNDS`] rounds of an open-loop slice, a closed-loop slice and (in an
/// untraced run) one Core DCA job. Interleaving spreads every kind of
/// sample over the whole run, so a burst of host load slows a few samples
/// of each, not every sample of one kind, and their medians hold.
fn load_rounds(ctx: &Ctx, client: &Client) -> Load {
    let (open_share, closed_share) = if ctx.trace {
        (0.35, 0.35)
    } else {
        (OPEN_SHARE, CLOSED_SHARE)
    };
    let slice = |share: f64| Duration::from_secs_f64(ctx.seconds * share / ROUNDS as f64);
    let audit = |i: usize| send_audit(client, &ctx.inputs, i);
    let mut load = Load::default();
    for round in 0..ROUNDS {
        let steal = StealMeter::start();
        let open = loadgen::open_loop(
            OPEN_RATE,
            slice(open_share),
            CONNECTIONS,
            load.open.len(),
            audit,
        );
        load.open_steal
            .extend(std::iter::repeat_n(steal.share(), open.len()));
        load.open.extend(open);
        let steal = StealMeter::start();
        let (closed, closed_s) = loadgen::closed_loop(
            slice(closed_share),
            CONNECTIONS,
            CLOSED_INDEX + load.closed.len(),
            audit,
        );
        let done = closed.iter().filter(|s| s.result.is_ok()).count();
        load.closed_rates
            .push((done as f64 / closed_s, steal.share()));
        load.closed.extend(closed);
        if !ctx.trace {
            load.jobs.push(job(client, ctx.inputs.descent_seed(round)));
        }
    }
    load
}

fn audit_request(inputs: &Inputs, i: usize) -> MetricsRequest {
    MetricsRequest {
        k: K,
        bonus: Some(inputs.audit_bonus(i, COMPAS_DIMS)),
        weights: None,
        metrics: Some(FIVE_METRICS.iter().map(|m| (*m).to_string()).collect()),
    }
}

fn send_audit(client: &Client, inputs: &Inputs, i: usize) -> Result<MetricsResult, String> {
    client
        .metrics(STORE, &audit_request(inputs, i))
        .map_err(|e| e.to_string())
}

fn plan() -> MetricPlan {
    let kinds: Vec<MetricKind> = FIVE_METRICS
        .iter()
        .map(|m| MetricKind::parse(m).expect("known metric"))
        .collect();
    MetricPlan::new(&kinds, K).with_log_config(LogDiscountConfig::default())
}

/// Audit responses checked against the same plan evaluated in-process on
/// the in-memory cohort.
struct AuditCheck<'a> {
    cohort: &'a ShardedDataset,
    plan: MetricPlan,
}

impl<'a> AuditCheck<'a> {
    fn new(cohort: &'a ShardedDataset) -> Self {
        Self {
            cohort,
            plan: plan(),
        }
    }

    fn expected(&self, inputs: &Inputs, i: usize) -> MetricReport {
        let bonus = inputs.audit_bonus(i, COMPAS_DIMS);
        self.plan
            .evaluate(self.cohort, &inputs::compas_ranker(), &bonus)
            .expect("in-memory audit")
    }

    fn check(&self, inputs: &Inputs, s: &Sample<MetricsResult>) -> Option<String> {
        let got = match &s.result {
            Ok(r) => r,
            Err(e) => return Some(format!("audit {}: {e}", s.index)),
        };
        // The response's metrics in plan order, flattened.
        let flat: Vec<f64> = [
            got.disparity.clone(),
            got.ndcg.map(|v| vec![v]),
            got.log_discounted.clone(),
            got.fpr_difference.clone(),
            got.disparate_impact.clone(),
        ]
        .into_iter()
        .flatten()
        .flatten()
        .collect();
        let ok = got.rows == self.cohort.len()
            && same_bits(&flat, &flatten(&self.expected(inputs, s.index)));
        (!ok).then(|| format!("audit {}: response differs from in-process plan", s.index))
    }
}

/// A plan report's values in plan order, flattened.
fn flatten(report: &MetricReport) -> Vec<f64> {
    report
        .values()
        .iter()
        .flat_map(|(_, v)| match v {
            MetricValue::Scalar(x) => vec![*x],
            MetricValue::Vector(xs) => xs.clone(),
        })
        .collect()
}

/// One Core DCA job on the served store, timed by the server from
/// submission to completion (`queued_ms + running_ms`), so how often the
/// client polls does not matter.
fn job(client: &Client, seed: u64) -> Descent {
    let steal = StealMeter::start();
    let (bonus, ms) = match run_job(client, seed) {
        Ok((bonus, ms)) => (Ok(bonus), ms),
        Err(e) => (Err(e), f64::NAN),
    };
    Descent {
        seed,
        bonus,
        ms,
        steal: steal.share(),
    }
}

/// Submit one Core DCA job and wait for it; returns its bonus and its
/// server-side time in ms.
fn run_job(client: &Client, seed: u64) -> Result<(Vec<f64>, f64), String> {
    let config = inputs::compas_job_config(seed);
    let request = JobRequest {
        store: STORE.into(),
        kind: JobKind::Core,
        k: K,
        weights: None,
        seed,
        sample_size: Some(config.sample_size),
        learning_rates: Some(config.learning_rates.clone()),
        iterations_per_rate: Some(config.iterations_per_rate),
        workers: None,
    };
    let id = client.submit_job(&request).map_err(|e| e.to_string())?.id;
    let start = Instant::now();
    let view = loop {
        let view = client.job(&id).map_err(|e| e.to_string())?;
        if view.is_terminal() {
            break view;
        }
        if start.elapsed() > JOB_TIMEOUT {
            return Err(format!(
                "job {id} still {} after {JOB_TIMEOUT:?}",
                view.state
            ));
        }
        std::thread::sleep(JOB_POLL);
    };
    match view.result {
        Some(r) if view.state == "completed" => {
            Ok((r.bonus, (view.queued_ms + view.running_ms) as f64))
        }
        _ => Err(format!("job {id} ended {}: {:?}", view.state, view.error)),
    }
}

/// Serve-layer metrics from the load phases and the server's `/metrics`.
fn serve_layers(
    layers: &mut Layers,
    client: &Client,
    open: &[Sample<MetricsResult>],
    closed: &[Sample<MetricsResult>],
    connections_per_request: f64,
) -> f64 {
    let text = client.metrics_text().unwrap_or_default();
    let value = |name: &str| net::scrape_value(&text, name, METRICS_ROUTE).unwrap_or(0.0);
    let handle_p50_ms = value("fair_serve_request_duration_us_p50") / 1e3;
    let handle_p99_ms = value("fair_serve_request_duration_us_p99") / 1e3;
    let handle_mean_ms = ratio(
        value("fair_serve_request_duration_us_sum"),
        value("fair_serve_request_duration_us_count"),
    ) / 1e3;
    let open_ms: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let late_ms: Vec<f64> = open.iter().map(|s| s.late_ms).collect();
    let closed_ms: Vec<f64> = closed.iter().map(|s| s.latency_ms).collect();
    let failed = open
        .iter()
        .chain(closed)
        .filter(|s| s.result.is_err())
        .count();
    let open_s = Summary::of(&open_ms);
    layers.set("serve.handle_ms_p50", handle_p50_ms);
    layers.set("serve.handle_ms_p99", handle_p99_ms);
    layers.set(
        "serve.wait_ms_p99",
        open_s.map_or(0.0, |s| s.p99) - handle_p99_ms,
    );
    layers.set("serve.connections_per_request", connections_per_request);
    layers.set(
        "loadgen.late_ms_p99",
        Summary::of(&late_ms).map_or(0.0, |s| s.p99),
    );
    layers.set("loadgen.failed", failed as f64);
    // Shares of one closed-loop audit: the time outside the handler
    // (connect, transfer, queueing) is the serve layer's; the handler's
    // time is split below by the replay's plan/page-in proportions.
    let client_mean = Summary::of(&closed_ms).map_or(0.0, |s| s.mean);
    layers.set(
        "share.serve",
        ratio(client_mean - handle_mean_ms, client_mean),
    );
    ratio(handle_mean_ms, client_mean)
}

/// The traced replay: the open-loop audit bodies evaluated in-process with
/// the same `MetricPlan` on an identically budgeted `ShardStore` over the
/// same file, alternately plain and through the tracing wrappers.
fn replay(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    path: &Path,
    budget: usize,
    checker: &AuditCheck<'_>,
    handler_share: f64,
) {
    let store = match ShardStore::open_with_options(path, budget, fair_store::default_prefetch()) {
        Ok(s) => s,
        Err(e) => {
            out.broken.push(format!("replay store: {e}"));
            return;
        }
    };
    let tracer = Tracer::new();
    let traced = TracedSource::new(&store, &tracer, "plan.shard_work");
    let plan = plan();
    let ranker = inputs::compas_ranker();
    let mut cache = CacheStats::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let budget_s = ctx.seconds * 0.3;
    let start = Instant::now();
    let mut i = 0;
    while i < 10 || start.elapsed().as_secs_f64() < budget_s {
        let bonus = ctx.inputs.audit_bonus(i, COMPAS_DIMS);
        let run_traced = || {
            let before = store.cache_stats();
            let t = Instant::now();
            let root = tracer.begin_op(i as u64, "plan.evaluate");
            let r = plan.evaluate(&traced, &ranker, &bonus);
            root.close();
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            cache = layers::cache_sum(&cache, &layers::cache_delta(&before, &store.cache_stats()));
            r
        };
        let run_plain = || {
            let t = Instant::now();
            let r = plan.evaluate(&store, &ranker, &bonus);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let (p, t) = layers::alternate(i, run_plain, run_traced);
        let want = flatten(&checker.expected(&ctx.inputs, i));
        let why = match (p, t) {
            (Ok(p), Ok(t)) if same_bits(&flatten(&p), &want) && same_bits(&flatten(&t), &want) => {
                None
            }
            (Ok(_), Ok(_)) => Some(format!("replay {i}: traced or paged plan differs")),
            (Err(e), _) | (_, Err(e)) => Some(format!("replay {i}: {e}")),
        };
        out.op(why);
        i += 1;
    }
    let spans = tracer.spans();
    let own = trace::layer_self_ns(&spans);
    let audits = traced_ms.len().max(1) as f64;
    let plan_ns = own.get("plan").copied().unwrap_or(0) as f64;
    let store_ns = own.get("store").copied().unwrap_or(0) as f64;
    layers.set("plan.self_ms", plan_ns / 1e6 / audits);
    layers.set("plan.page_in_ms", store_ns / 1e6 / audits);
    layers.set("store.page_in_us", store_ns / 1e3 / audits);
    let shard_bytes = dca::column_bytes(checker.cohort) as f64 / store.num_shards() as f64;
    layers.store(&cache, &store.cache_stats(), shard_bytes);
    // The handler's share of an audit under load, split by the replay's
    // proportions of plan work and page-in.
    layers.set(
        "share.plan",
        handler_share * ratio(plan_ns, plan_ns + store_ns),
    );
    layers.set(
        "share.store",
        handler_share * ratio(store_ns, plan_ns + store_ns),
    );
    layers.finish(ctx, &tracer, &traced_ms, &plain_ms);
}
