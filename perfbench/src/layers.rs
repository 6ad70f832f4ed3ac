//! The per-layer metrics of a traced run. Every workload prints the whole
//! list; a layer a workload does not exercise reads 0.

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;
use fair_store::CacheStats;
use std::collections::HashMap;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dca.steps", "count"),
    ("dca.step_us_p50", "us"),
    ("dca.step_us_p99", "us"),
    ("dca.driver_us", "us"),
    ("shard.sample_us", "us"),
    ("shard.gather_us", "us"),
    ("shard.shards_per_step", "count"),
    ("score.evaluate_us", "us"),
    ("score.rows", "count"),
    ("store.page_in_us", "us"),
    ("store.misses", "count"),
    ("store.hits", "count"),
    ("store.evictions", "count"),
    ("store.prefetch_hits", "count"),
    ("store.prefetch_wasted", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.prefetch_useful_ratio", "ratio"),
    ("store.peak_bytes", "bytes"),
    ("store.budget_bytes", "bytes"),
    ("store.decoded_mb", "MB"),
    ("plan.self_ms", "ms"),
    ("plan.page_in_ms", "ms"),
    ("serve.handle_ms_p50", "ms"),
    ("serve.handle_ms_p99", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.connections_per_request", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.failed", "count"),
    ("fleet.requests_per_step", "count"),
    ("fleet.round_trip_us_p50", "us"),
    ("fleet.round_trip_us_p99", "us"),
    ("fleet.worker_handle_us_p50", "us"),
    ("fleet.wire_us", "us"),
    ("fleet.retries", "count"),
    ("fleet.re_dispatches", "count"),
    ("fleet.cache_hits", "count"),
    ("setup.generate_s", "s"),
    ("setup.store_write_s", "s"),
    ("setup.serve_start_s", "s"),
    ("share.dca", "ratio"),
    ("share.shard", "ratio"),
    ("share.score", "ratio"),
    ("share.store", "ratio"),
    ("share.plan", "ratio"),
    ("share.serve", "ratio"),
    ("share.fleet_wire", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Print every per-layer metric into `out`, 0 where unset.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// The store metrics from a cache-counter delta and the final snapshot;
    /// `shard_bytes` is the mean column bytes of one decoded shard.
    pub fn store(&mut self, delta: &CacheStats, last: &CacheStats, shard_bytes: f64) {
        self.set("store.misses", delta.misses as f64);
        self.set("store.hits", delta.hits as f64);
        self.set("store.evictions", delta.evictions as f64);
        self.set("store.prefetch_hits", delta.prefetch_hits as f64);
        self.set("store.prefetch_wasted", delta.prefetch_wasted as f64);
        let accesses = (delta.hits + delta.misses) as f64;
        self.set("store.hit_ratio", ratio(delta.hits as f64, accesses));
        let prefetched = (delta.prefetch_hits + delta.prefetch_wasted) as f64;
        self.set(
            "store.prefetch_useful_ratio",
            ratio(delta.prefetch_hits as f64, prefetched),
        );
        self.set("store.peak_bytes", last.peak_bytes as f64);
        self.set("store.budget_bytes", last.budget_bytes as f64);
        // Every miss decodes a shard, and so does every readahead that was
        // either used or wasted.
        let decodes = (delta.misses + delta.prefetch_hits + delta.prefetch_wasted) as f64;
        self.set("store.decoded_mb", decodes * shard_bytes / 1e6);
    }

    /// Self-time shares per layer over the wall time of the root spans.
    pub fn shares(&mut self, spans: &[Span], root_ns: f64) {
        let own = trace::layer_self_ns(spans);
        for (layer, name) in [
            ("dca", "share.dca"),
            ("shard", "share.shard"),
            ("score", "share.score"),
            ("store", "share.store"),
            ("plan", "share.plan"),
        ] {
            let ns = own.get(layer).copied().unwrap_or(0) as f64;
            self.set(name, ratio(ns, root_ns));
        }
    }

    /// The `dca.steps` and step-time quantiles of a run's step spans;
    /// returns the step count (at least 1) and the mean step in µs.
    pub fn steps(&mut self, spans: &[Span]) -> (f64, f64) {
        let step_us: Vec<f64> = trace::durations(spans, "dca.step")
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let s = Summary::of(&step_us);
        self.set("dca.steps", step_us.len() as f64);
        self.set("dca.step_us_p50", s.map_or(0.0, |s| s.p50));
        self.set("dca.step_us_p99", s.map_or(0.0, |s| s.p99));
        (step_us.len().max(1) as f64, s.map_or(0.0, |s| s.mean))
    }

    /// Close a traced run: the tracing overhead (traced against plain
    /// median wall time), the span count, and the spans written to
    /// `.perfbench/traces/<workload>-seed<n>.jsonl`.
    pub fn finish(&mut self, ctx: &Ctx, tracer: &Tracer, traced_ms: &[f64], plain_ms: &[f64]) {
        self.set(
            "trace.overhead_pct",
            (median(traced_ms) / median(plain_ms) - 1.0) * 100.0,
        );
        self.set("trace.spans", tracer.spans().len() as f64);
        let path = std::path::PathBuf::from(".perfbench")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
}

/// Run `plain` and `traced` once each, alternating which goes first with
/// the parity of `i` so neither always meets the warmer caches; returns
/// `(plain, traced)`.
pub fn alternate<T>(i: usize, plain: impl FnOnce() -> T, traced: impl FnOnce() -> T) -> (T, T) {
    if i.is_multiple_of(2) {
        let p = plain();
        (p, traced())
    } else {
        let t = traced();
        (plain(), t)
    }
}

/// Difference of two cache snapshots (counters only).
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_wasted: after.prefetch_wasted - before.prefetch_wasted,
        decode_poisoned: after.decode_poisoned - before.decode_poisoned,
        ..*after
    }
}

/// Sum of two counter deltas.
pub fn cache_sum(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        prefetch_hits: a.prefetch_hits + b.prefetch_hits,
        prefetch_wasted: a.prefetch_wasted + b.prefetch_wasted,
        decode_poisoned: a.decode_poisoned + b.decode_poisoned,
        ..*b
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_serve::Json;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = Json::parse(text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = spec
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let here: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(here, listed);
    }
}
