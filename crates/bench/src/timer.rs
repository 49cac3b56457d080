//! The wall-clock timing loop behind every suite cell.
//!
//! Each cell calibrates an iteration count against its measurement budget,
//! then records the mean, minimum, and maximum per-iteration time over the
//! sample batches. No warm-up modelling or outlier analysis: two runs of
//! the same binary time the same seeded work, and `bench_report` compares
//! them by id.
#![expect(
    clippy::disallowed_methods,
    reason = "timing is this module's job; its durations reach only BENCH_*.json timing rows"
)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long and how often one cell is sampled.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    /// Timed sample batches per cell.
    pub sample_size: usize,
    /// Wall-clock budget each cell spends measuring.
    pub measurement_time: Duration,
}

/// A finished cell's identity and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Cell id (`group/name`).
    pub id: String,
    /// Mean per-iteration time.
    pub mean: Duration,
    /// Fastest per-iteration time over the sample batches.
    pub min: Duration,
    /// Slowest per-iteration time over the sample batches.
    pub max: Duration,
    /// Total timed iterations behind the statistics.
    pub iters: u64,
}

/// Timing statistics for one finished cell.
#[derive(Debug, Clone, Copy)]
struct Stats {
    mean: Duration,
    min: Duration,
    max: Duration,
    iters: u64,
}

/// Passed to every cell closure; runs and times the routine.
#[derive(Debug)]
pub struct Bencher {
    sampling: Sampling,
    stats: Option<Stats>,
}

impl Bencher {
    /// Times `routine`, called back-to-back in calibrated batches.
    pub fn measure<R>(&mut self, mut routine: impl FnMut() -> R) {
        self.sample_loop(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` only, excluding `setup`, one setup per call.
    pub fn measure_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        self.sample_loop(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                timed += start.elapsed();
            }
            timed
        });
    }

    /// Calibrates an iteration count so one sample lands near the time
    /// budget divided across samples, then records per-sample times.
    fn sample_loop(&mut self, mut sample: impl FnMut(u64) -> Duration) {
        let Sampling { sample_size, measurement_time } = self.sampling;
        let per_sample = measurement_time / sample_size.max(1) as u32;

        // Calibration: grow the batch until a sample is measurable.
        let mut iters: u64 = 1;
        let mut elapsed = sample(iters);
        while elapsed < per_sample / 2 && iters < u64::MAX / 2 {
            let scale = if elapsed.is_zero() {
                8.0
            } else {
                (per_sample.as_secs_f64() / elapsed.as_secs_f64()).min(8.0)
            };
            iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
            elapsed = sample(iters);
        }

        let mut total = elapsed;
        let mut min = elapsed / iters as u32;
        let mut max = min;
        let mut total_iters = iters;
        let deadline = Instant::now() + measurement_time;
        for _ in 1..sample_size {
            if Instant::now() >= deadline {
                break;
            }
            let t = sample(iters);
            let per = t / iters as u32;
            min = min.min(per);
            max = max.max(per);
            total += t;
            total_iters += iters;
        }
        self.stats = Some(Stats {
            mean: total / total_iters as u32,
            min,
            max,
            iters: total_iters,
        });
    }
}

/// Runs cells and collects their results in execution order.
#[derive(Debug)]
pub struct Timer {
    default: Sampling,
    results: Vec<BenchResult>,
}

impl Timer {
    /// A timer whose cells sample with `default` unless they override it.
    pub fn new(default: Sampling) -> Self {
        Self { default, results: Vec::new() }
    }

    /// Times one cell under the default sampling.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.bench_sampled(id, self.default, f);
    }

    /// Times one cell under its own sampling. A cell whose closure never
    /// invokes the bencher records nothing.
    pub fn bench_sampled(
        &mut self,
        id: impl Into<String>,
        sampling: Sampling,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let mut b = Bencher { sampling, stats: None };
        f(&mut b);
        if let Some(Stats { mean, min, max, iters }) = b.stats {
            self.results.push(BenchResult { id: id.into(), mean, min, max, iters });
        }
    }

    /// The recorded results.
    pub fn into_results(self) -> Vec<BenchResult> {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fast_sampling() -> Sampling {
        Sampling { sample_size: 3, measurement_time: Duration::from_millis(20) }
    }

    #[test]
    fn measure_runs_the_routine_and_records_stats() {
        let calls = AtomicU64::new(0);
        let mut b = Bencher { sampling: fast_sampling(), stats: None };
        b.measure(|| calls.fetch_add(1, Ordering::Relaxed));
        let stats = b.stats.expect("stats recorded");
        assert!(stats.iters > 0);
        // Calibration batches also invoke the routine, so the call count is
        // at least (not exactly) the recorded iteration count.
        assert!(calls.load(Ordering::Relaxed) >= stats.iters);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
    }

    #[test]
    fn measure_batched_times_routine_not_setup() {
        let setups = AtomicU64::new(0);
        let runs = AtomicU64::new(0);
        let mut b = Bencher { sampling: fast_sampling(), stats: None };
        b.measure_batched(
            || setups.fetch_add(1, Ordering::Relaxed),
            |_| runs.fetch_add(1, Ordering::Relaxed),
        );
        assert_eq!(setups.load(Ordering::Relaxed), runs.load(Ordering::Relaxed));
        assert!(b.stats.is_some());
    }

    #[test]
    fn results_are_recorded_in_order() {
        let mut t = Timer::new(fast_sampling());
        t.bench_function("solo", |b| b.measure(|| 1 + 1));
        t.bench_sampled("grp/inner", fast_sampling(), |b| b.measure(|| 2 + 2));
        t.bench_function("never_timed", |_| {});
        let results = t.into_results();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["solo", "grp/inner"]);
        for r in &results {
            assert!(r.iters > 0);
            assert!(r.min <= r.mean && r.mean <= r.max);
        }
    }
}
