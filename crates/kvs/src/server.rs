//! A Redis-like server core timeline.
//!
//! Each Redis server is a single-threaded event loop pinned to one core
//! (as in the paper's setup). The core processes a FIFO of jobs: client
//! requests *and* kernel work (kswapd slices, ksmd scan batches, softirqs)
//! that the scheduler placed on the same core. Request latency is
//! completion − arrival; kernel jobs contribute occupancy but no latency
//! sample — exactly the interference mechanism behind Fig. 8.

use sim_core::stats::Histogram;
use sim_core::time::{Duration, Time};

/// A job for the server core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// When the job becomes runnable.
    pub arrival: Time,
    /// Core occupancy it requires.
    pub service: Duration,
    /// True for client requests (latency recorded), false for kernel work.
    pub is_request: bool,
}

/// Simulates one core's FIFO processing of a job list.
///
/// Jobs must be supplied in arrival order. Returns the latency histogram
/// of request jobs and the total busy time.
///
/// # Examples
///
/// ```
/// use kvs::server::{run_core, Job};
/// use sim_core::time::{Duration, Time};
///
/// let jobs = vec![
///     Job { arrival: Time::ZERO, service: Duration::from_micros(10), is_request: true },
///     Job {
///         arrival: Time::from_nanos(1_000),
///         service: Duration::from_micros(10),
///         is_request: true,
///     },
/// ];
/// let (hist, _busy) = run_core(&jobs);
/// // The second request queued behind the first.
/// assert!(hist.max() > Duration::from_micros(15));
/// ```
///
/// # Panics
///
/// Panics if the jobs are not sorted by arrival time.
pub fn run_core(jobs: &[Job]) -> (Histogram, Duration) {
    let mut hist = Histogram::new();
    let mut core_free = Time::ZERO;
    let mut busy = Duration::ZERO;
    let mut last_arrival = Time::ZERO;
    for job in jobs {
        assert!(
            job.arrival >= last_arrival,
            "jobs must be sorted by arrival"
        );
        last_arrival = job.arrival;
        let start = core_free.max(job.arrival);
        let done = start + job.service;
        core_free = done;
        busy += job.service;
        if job.is_request {
            hist.record(done.duration_since(job.arrival));
        }
    }
    (hist, busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_ns: u64, svc_us: u64) -> Job {
        Job {
            arrival: Time::from_nanos(at_ns),
            service: Duration::from_micros(svc_us),
            is_request: true,
        }
    }

    fn kernel(at_ns: u64, svc_us: u64) -> Job {
        Job {
            arrival: Time::from_nanos(at_ns),
            service: Duration::from_micros(svc_us),
            is_request: false,
        }
    }

    #[test]
    fn idle_core_serves_at_service_time() {
        let (h, busy) = run_core(&[req(0, 10)]);
        assert_eq!(h.max(), Duration::from_micros(10));
        assert_eq!(busy, Duration::from_micros(10));
    }

    #[test]
    fn queueing_adds_latency() {
        let (h, _) = run_core(&[req(0, 10), req(0, 10), req(0, 10)]);
        assert_eq!(h.max(), Duration::from_micros(30));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn kernel_jobs_delay_requests_but_record_no_latency() {
        let (h, busy) = run_core(&[kernel(0, 100), req(1_000, 10)]);
        assert_eq!(h.count(), 1, "only the request sampled");
        // The request waited for the 100us kernel slice.
        assert!(h.max() > Duration::from_micros(100));
        assert_eq!(busy, Duration::from_micros(110));
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_jobs_rejected() {
        run_core(&[req(10_000, 1), req(0, 1)]);
    }
}
