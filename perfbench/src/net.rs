//! Serve-side observations taken from outside the program: TCP connection
//! counts and the program's own latency histograms.

use fair_core::obs::Histogram;

/// TCP sockets in `TIME_WAIT` whose local or remote port is one of
/// `ports`. Each closed connection leaves one behind (on whichever side
/// closed first) for a minute, so the growth of this count across a phase
/// is the number of connections the phase opened and closed.
pub fn closed_connections(ports: &[u16]) -> u64 {
    const TIME_WAIT: &str = "06";
    let mut n = 0;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        for line in text.lines().skip(1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() < 4 || cols[3] != TIME_WAIT {
                continue;
            }
            let port = |addr: &str| {
                addr.rsplit(':')
                    .next()
                    .and_then(|p| u16::from_str_radix(p, 16).ok())
            };
            if [cols[1], cols[2]]
                .iter()
                .any(|a| port(a).is_some_and(|p| ports.contains(&p)))
            {
                n += 1;
            }
        }
    }
    n
}

/// A histogram's `(count, sum)` at one point in time, for exact means over
/// a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistMark {
    pub count: u64,
    pub sum: u64,
}

impl HistMark {
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
        }
    }

    /// Mean of the observations recorded between `self` and `later`.
    pub fn mean_until(&self, later: &Self) -> f64 {
        crate::layers::ratio(
            (later.sum - self.sum) as f64,
            (later.count - self.count) as f64,
        )
    }
}

/// One series of a Prometheus text exposition, e.g. the value of
/// `fair_serve_request_duration_us_p99{route="POST /stores/{name}/metrics"}`.
pub fn scrape_value(text: &str, name: &str, label: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix('{')?;
        let (labels, value) = rest.split_once("} ")?;
        labels.contains(label).then(|| value.trim().parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_value_matches_name_and_label() {
        let text = "# TYPE x_p99 gauge\n\
                    x_p99{route=\"GET /health\"} 7\n\
                    x_p99{route=\"POST /stores/{name}/metrics\"} 1234\n\
                    x_p9{route=\"POST /stores/{name}/metrics\"} 5\n";
        let route = "route=\"POST /stores/{name}/metrics\"";
        assert_eq!(scrape_value(text, "x_p99", route), Some(1234.0));
        assert_eq!(scrape_value(text, "x_p9", route), Some(5.0));
        assert_eq!(scrape_value(text, "x_p50", route), None);
    }
}
