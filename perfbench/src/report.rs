//! What a workload hands back: counts, named metrics and the settings it
//! chose, printed as the run's last line.

use fair_serve::Json;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (descents, audits, jobs).
    pub attempted: u64,
    /// Operations that failed, timed out or failed an output check.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub failures: Vec<String>,
    /// Run-level checks that failed (a set-up error or a trap that was
    /// hit); the run is not correct.
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Settings the workload chose (cache budget, shard size, …).
    pub settings: Vec<(&'static str, Json)>,
    /// Peak resident bytes of the processes running the workload during
    /// its timed phase: set-up's peak is reset first, and the harness's own
    /// reference data is only built after the peak is read.
    pub peak_rss: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count one operation, failed with `why` when it is `Some`.
    pub fn op(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn setting(&mut self, name: &'static str, value: Json) {
        self.settings.push((name, value));
    }

    /// Start the peak-RSS window of the timed phase, and stamp whether the
    /// kernel let the reset happen (without it the peak includes set-up).
    pub fn reset_peak_rss(&mut self) {
        let reset = crate::sys::reset_peak_rss();
        self.setting("peak_rss_reset", Json::Bool(reset));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
