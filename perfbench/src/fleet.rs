//! `fleet_core`: the `core_mem` descents driven by a `FleetCoordinator`
//! over two in-process `fair-serve` workers that each hold the cohort in
//! memory.

use crate::dca::{self, same_bits, Reference, SETUP_REPS};
use crate::inputs::{self, K, SCHOOL_DIMS, SCHOOL_WEIGHTS};
use crate::layers::{self, ratio, Layers};
use crate::net::{self, HistMark};
use crate::report::Outcome;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::Ctx;
use fair_core::dca::RunControl;
use fair_core::{obs, ShardedDataset};
use fair_serve::{serve, AuditService, FleetConfig, FleetCoordinator, ServerHandle};
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
/// Fleet audits a run makes (each ships every range's candidates as JSON,
/// so fewer fit in a run than in memory).
const MIN_AUDITS: usize = 40;
const STORE: &str = "cohort";
/// The route label the workers' handling-time histogram carries.
const PARTIALS_ROUTE: &str = "POST /stores/{name}/partials";

struct Fleet {
    servers: Vec<ServerHandle>,
    coordinator: FleetCoordinator,
}

impl Fleet {
    fn start(cohort: &ShardedDataset) -> Result<Self, String> {
        let mut servers = Vec::new();
        for _ in 0..WORKERS {
            let service = AuditService::new();
            service
                .catalog
                .register_memory(STORE, cohort.clone())
                .map_err(|e| e.message)?;
            servers.push(
                serve(service, "127.0.0.1:0", fair_core::max_workers())
                    .map_err(|e| e.to_string())?,
            );
        }
        let addrs: Vec<_> = servers.iter().map(ServerHandle::addr).collect();
        let coordinator = FleetCoordinator::connect(STORE, &addrs, FleetConfig::default())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            servers,
            coordinator,
        })
    }

    fn ports(&self) -> Vec<u16> {
        self.servers.iter().map(|s| s.addr().port()).collect()
    }

    fn descend(&self, seed: u64, control: &RunControl) -> Result<Vec<f64>, String> {
        self.coordinator
            .run_core_dca_controlled(
                K,
                Some(&SCHOOL_WEIGHTS),
                &inputs::dca_config(seed),
                None,
                false,
                control,
            )
            .map(|o| o.bonus)
            .map_err(|e| e.to_string())
    }

    fn shutdown(self) {
        drop(self.coordinator);
        for s in self.servers {
            s.shutdown();
        }
    }
}

pub fn fleet_core(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (mut generate, mut start, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut state: Option<(ShardedDataset, Fleet)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, fleet)) = state.take() {
            fleet.shutdown();
        }
        let t = Instant::now();
        let cohort = ctx.inputs.school();
        generate.push(t.elapsed().as_secs_f64());
        let s = Instant::now();
        let fleet = Fleet::start(&cohort);
        start.push(s.elapsed().as_secs_f64());
        setups.push(t.elapsed().as_secs_f64());
        match fleet {
            Ok(fleet) => state = Some((cohort, fleet)),
            Err(e) => {
                out.broken.push(format!("fleet set-up: {e}"));
                return out;
            }
        }
    }
    let (cohort, fleet) = state.expect("at least one set-up");
    out.setting("rows", fair_serve::Json::num(cohort.len() as f64));
    out.setting(
        "shard_size",
        fair_serve::Json::num(cohort.shard_size() as f64),
    );
    out.setting("fleet_workers", fair_serve::Json::num(WORKERS as f64));
    let before = fleet.coordinator.report();
    if ctx.trace {
        let mut layers = Layers::default();
        layers.set("setup.generate_s", median(&generate));
        layers.set("setup.serve_start_s", median(&start));
        traced_fleet(ctx, &mut out, &mut layers, &fleet, &cohort);
        layers.emit(&mut out);
    } else {
        out.metric("setup_s", median(&setups), "s");
        // The workers hold their own copies; the harness's reference copy
        // is regenerated from the seed once the peak RSS has been read.
        drop(cohort);
        out.reset_peak_rss();
        let plain = RunControl::new();
        let rounds = dca::timed_rounds(
            ctx,
            SCHOOL_DIMS,
            MIN_AUDITS,
            |seed| fleet.descend(seed, &plain),
            |bonus| {
                fleet
                    .coordinator
                    .disparity(K, bonus, Some(&SCHOOL_WEIGHTS))
                    .map_err(|e| e.to_string())
            },
        );
        out.peak_rss = sys::peak_rss_bytes("self");
        let cohort = ctx.inputs.school();
        let reference = Reference::new(&cohort, inputs::school_ranker(), inputs::dca_config, true);
        dca::dca_metrics(ctx, &mut out, &reference, &rounds);
    }
    // Every descent draws a fresh seed, so the workers' sample cache must
    // never have answered: a hit means the run measured a cache.
    let hits = fleet.coordinator.report().partials_cache_hits - before.partials_cache_hits;
    if hits > 0 {
        out.broken.push(format!(
            "{hits} core_sample answers came from the workers' cache"
        ));
    }
    fleet.shutdown();
    out
}

/// The traced run: per seed one plain and one hooked descent (alternating
/// order), bit-identical; step spans come from the progress hook, and the
/// fan-out is split with the coordinator's and workers' own histograms.
fn traced_fleet(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    fleet: &Fleet,
    cohort: &ShardedDataset,
) {
    let tracer = Arc::new(Tracer::new());
    let hook = {
        let tracer = tracer.clone();
        RunControl::with_progress(move |p| tracer.step_done(p.step, p.total_steps))
    };
    let plain_control = RunControl::new();
    let round_trips: Vec<Arc<obs::Histogram>> = fleet
        .servers
        .iter()
        .map(|s| {
            obs::histogram(
                "fair_fleet_request_duration_us",
                &[("worker", &s.addr().to_string())],
            )
        })
        .collect();
    let handle = obs::histogram(
        "fair_serve_request_duration_us",
        &[("route", PARTIALS_ROUTE)],
    );
    let rt_mark = |hs: &[Arc<obs::Histogram>]| {
        hs.iter().fold(HistMark::default(), |acc, h| {
            let m = HistMark::of(h);
            HistMark {
                count: acc.count + m.count,
                sum: acc.sum + m.sum,
            }
        })
    };
    let (rt0, handle0) = (rt_mark(&round_trips), HistMark::of(&handle));
    let report0 = fleet.coordinator.report();
    let conns0 = net::closed_connections(&fleet.ports());

    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let reference = Reference::new(cohort, inputs::school_ranker(), inputs::dca_config, true);
    let start = Instant::now();
    let mut i = 0;
    while i < dca::MIN_TRACED || start.elapsed().as_secs_f64() < ctx.seconds {
        // Plain and traced descents take different fresh seeds, so neither
        // can be answered from the workers' sample cache; both must match
        // the in-memory descent bit for bit.
        let (plain_seed, traced_seed) = (
            ctx.inputs.descent_seed(2 * i),
            ctx.inputs.descent_seed(2 * i + 1),
        );
        let traced = || {
            let t = Instant::now();
            let root = tracer.begin_op(i as u64, "dca.descent");
            tracer.begin_steps();
            let r = fleet.descend(traced_seed, &hook);
            tracer.end_steps();
            root.close();
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let plain = || {
            let t = Instant::now();
            let r = fleet.descend(plain_seed, &plain_control);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let (a, b) = layers::alternate(i, plain, traced);
        for (seed, r) in [(plain_seed, a), (traced_seed, b)] {
            let why = match r {
                Ok(bonus) if same_bits(&bonus, &reference.bonus(seed)) => None,
                Ok(_) => Some(format!("seed {seed}: fleet bonus differs from in-memory")),
                Err(e) => Some(format!("seed {seed}: {e}")),
            };
            out.op(why);
        }
        i += 1;
    }

    let (rt1, handle1) = (rt_mark(&round_trips), HistMark::of(&handle));
    let report1 = fleet.coordinator.report();
    let conns = net::closed_connections(&fleet.ports()) - conns0;
    let (traced_steps, step_mean) = layers.steps(&tracer.spans());
    // Plain and traced descents both issue requests; the steps of both are
    // twice the traced ones.
    let all_steps = 2.0 * traced_steps;
    let requests = (report1.requests - report0.requests) as f64;
    let per_step = requests / all_steps;
    let rt_mean = rt0.mean_until(&rt1);
    let handle_mean = handle0.mean_until(&handle1);
    let q = |h: &obs::Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
    let mean_q =
        |q_: f64| round_trips.iter().map(|h| q(h, q_)).sum::<f64>() / round_trips.len() as f64;

    layers.set("fleet.requests_per_step", per_step);
    layers.set("fleet.round_trip_us_p50", mean_q(0.50));
    layers.set("fleet.round_trip_us_p99", mean_q(0.99));
    layers.set("fleet.worker_handle_us_p50", q(&handle, 0.50));
    layers.set("fleet.wire_us", rt_mean - handle_mean);
    layers.set("fleet.retries", (report1.retries - report0.retries) as f64);
    layers.set(
        "fleet.re_dispatches",
        (report1.re_dispatches - report0.re_dispatches) as f64,
    );
    layers.set(
        "fleet.cache_hits",
        (report1.partials_cache_hits - report0.partials_cache_hits) as f64,
    );
    layers.set("serve.handle_ms_p50", q(&handle, 0.50) / 1e3);
    layers.set("serve.handle_ms_p99", q(&handle, 0.99) / 1e3);
    layers.set("serve.wait_ms_p99", (mean_q(0.99) - q(&handle, 0.99)) / 1e3);
    layers.set(
        "serve.connections_per_request",
        ratio(conns as f64, requests),
    );
    // One step is one fan-out round whose ranges run side by side, so a
    // round lasts about one mean round trip; the rest of the step is the
    // coordinator's own driver work (sampling bookkeeping and scoring).
    let rounds = per_step / fleet.servers.len() as f64;
    let fleet_us = rt_mean * rounds;
    let handle_us = handle_mean * rounds;
    layers.set("dca.driver_us", (step_mean - fleet_us).max(0.0));
    layers.set(
        "share.dca",
        ratio((step_mean - fleet_us).max(0.0), step_mean),
    );
    layers.set("share.serve", ratio(handle_us, step_mean));
    layers.set("share.fleet_wire", ratio(fleet_us - handle_us, step_mean));
    layers.finish(ctx, &tracer, &traced_ms, &plain_ms);
}
