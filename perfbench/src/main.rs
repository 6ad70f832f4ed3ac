//! The repository benchmark: Core DCA in memory, paged and over a fleet,
//! plus paged what-if audits through the HTTP service.
//!
//! ```text
//! perfbench --workload <core_mem|core_paged|audit_paged|fleet_core>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` it holds the per-layer metrics of a traced run.
//! The line before it stamps the effective configuration. See README.md.

mod audit;
mod dca;
mod fleet;
mod inputs;
mod layers;
mod loadgen;
mod net;
mod report;
mod stats;
mod sys;
mod trace;

use inputs::Inputs;
use report::Outcome;

/// The parsed command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub inputs: Inputs,
    /// How long the measured phase of a run lasts.
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["core_mem", "core_paged", "audit_paged", "fleet_core"];

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Ctx {
        workload,
        seed,
        inputs: Inputs::new(seed),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(audit::SERVE_CHILD) {
        audit::serve_child();
        return;
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let steal = sys::StealMeter::start();
    let mut out: Outcome = match ctx.workload.as_str() {
        "core_mem" => dca::core_mem(&ctx),
        "core_paged" => dca::core_paged(&ctx),
        "audit_paged" => audit::audit_paged(&ctx),
        "fleet_core" => fleet::fleet_core(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    for why in out.failures.iter().chain(&out.broken) {
        eprintln!("failed: {why}");
    }
    if out.attempted == 0 || out.metrics.is_empty() {
        eprintln!("error: the run did not complete");
        std::process::exit(1);
    }
    if !ctx.trace {
        out.metric("peak_rss_mb", out.peak_rss as f64 / 1e6, "MB");
    }
    // Steal time is the one disturbance a run can see but not control: on
    // an oversubscribed host it inflates every timing of the run.
    out.setting("host_steal_share", fair_serve::Json::num(steal.share()));
    let stamp = sys::config_stamp(&ctx.workload, ctx.seed, ctx.trace, &out.settings);
    println!(
        "{}",
        fair_serve::Json::obj(vec![("config", stamp)]).render()
    );
    println!("{}", out.result_json().render());
}
