//! Load generators: an open loop that sends on a fixed schedule whatever
//! the target does, and a closed loop whose callers each wait for their
//! reply before sending again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Sample<T> {
    pub index: usize,
    /// Open loop: from the request's due time to its reply, so a stall
    /// charges its wait to every request queued behind it. Closed loop:
    /// from send to reply.
    pub latency_ms: f64,
    /// How long after its due time the request was sent (open loop).
    pub late_ms: f64,
    pub result: Result<T, String>,
}

/// Send `rate × duration` requests numbered from `first`, the `i`-th due
/// at `i / rate` seconds after the start, from `senders` threads. Returns
/// the samples in index order.
pub fn open_loop<T: Send>(
    rate: f64,
    duration: Duration,
    senders: usize,
    first: usize,
    op: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Sample<T>> {
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let result = op(first + i);
                let done = Instant::now();
                samples.lock().unwrap().push(Sample {
                    index: first + i,
                    latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                    late_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                    result,
                });
            });
        }
    });
    let mut samples = samples.into_inner().unwrap();
    samples.sort_by_key(|s| s.index);
    samples
}

/// `callers` threads each send, wait for the reply and send again until
/// `duration` has passed; requests are numbered from `first`. Returns the
/// samples in index order and the seconds from the start to the last reply.
pub fn closed_loop<T: Send>(
    duration: Duration,
    callers: usize,
    first: usize,
    op: impl Fn(usize) -> Result<T, String> + Sync,
) -> (Vec<Sample<T>>, f64) {
    let next = AtomicUsize::new(first);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                while start.elapsed() < duration {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let result = op(i);
                    samples.lock().unwrap().push(Sample {
                        index: i,
                        latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                        late_ms: 0.0,
                        result,
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().unwrap();
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // One sender at 50 requests/s against a target that stalls for
        // 300 ms on the first request: the requests due during the stall are
        // sent late, and their latency includes that wait.
        let samples = open_loop(50.0, Duration::from_millis(400), 1, 0, |i| {
            std::thread::sleep(Duration::from_millis(if i == 0 { 300 } else { 1 }));
            Ok(())
        });
        assert_eq!(samples.len(), 20);
        // Request 5 was due at 100 ms and could only go out after the stall
        // ended at about 300 ms.
        let s = &samples[5];
        assert!(s.late_ms >= 150.0, "late {} ms", s.late_ms);
        assert!(
            s.latency_ms >= s.late_ms,
            "{} < {}",
            s.latency_ms,
            s.late_ms
        );
        assert!(s.latency_ms >= 150.0, "latency {} ms", s.latency_ms);
        // A request due well after the stall is on time again.
        let last = samples.last().unwrap();
        assert!(last.late_ms < 50.0, "late {} ms", last.late_ms);
    }

    #[test]
    fn closed_loop_waits_for_each_reply() {
        let (samples, elapsed) = closed_loop(Duration::from_millis(100), 2, 7, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        });
        // Two callers, 10 ms per request, 100 ms: about 20 requests and
        // never more than the callers could have waited for.
        assert!(samples.len() <= 2 * (elapsed * 1e3 / 10.0).ceil() as usize);
        assert!(samples.len() >= 10, "{}", samples.len());
        assert!(samples.iter().all(|s| s.latency_ms >= 10.0));
        assert_eq!(samples[0].index, 7);
    }
}
