//! Benchmark methodology parameters (paper §5).

use std::time::Duration;

/// Parameters shared by every experiment.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Thread counts to sweep (the x-axis of every figure).
    pub threads: Vec<usize>,
    /// Duration of one measured run.
    pub duration: Duration,
    /// How many times each point is measured (the paper uses 5; results are
    /// averaged).
    pub repeats: usize,
    /// Number of elements pre-inserted before the measurement starts.
    pub prefill: usize,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Era/epoch increment frequency ν (per-thread allocations between
    /// increments).
    pub era_freq: usize,
    /// Retired-list scan frequency.
    pub cleanup_freq: usize,
    /// WFE fast-path attempts before requesting help.
    pub fast_path_attempts: usize,
}

impl Default for BenchParams {
    /// Scaled-down defaults so the whole suite finishes on a laptop-class
    /// machine: same workload shape as the paper, shorter runs, smaller
    /// prefill and a thread sweep bounded by the host's core count.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let mut threads = vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 120];
        threads.retain(|&t| t <= cores);
        if threads.is_empty() {
            threads.push(1);
        }
        Self {
            threads,
            duration: Duration::from_millis(500),
            repeats: 1,
            prefill: 10_000,
            key_range: 100_000,
            era_freq: 150,
            cleanup_freq: 30,
            fast_path_attempts: 16,
        }
    }
}

impl BenchParams {
    /// The exact methodology of the paper: 10-second runs repeated 5 times,
    /// 50 000-element prefill, keys in `(0, 100 000)`, thread counts
    /// 1–120 (oversubscription allowed), ν = 150, fast path = 16 attempts.
    pub fn paper() -> Self {
        Self {
            threads: vec![
                1, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120,
            ],
            duration: Duration::from_secs(10),
            repeats: 5,
            prefill: 50_000,
            key_range: 100_000,
            ..Self::default()
        }
    }

    /// A tiny configuration for smoke tests and CI.
    pub fn smoke() -> Self {
        Self {
            threads: vec![1, 2],
            duration: Duration::from_millis(50),
            repeats: 1,
            prefill: 500,
            key_range: 2_000,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_respect_core_count() {
        let params = BenchParams::default();
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(params.threads.iter().all(|&t| t <= cores));
        assert!(!params.threads.is_empty());
    }

    #[test]
    fn smoke_is_two_threads_wide_and_prefills_inside_its_key_range() {
        let params = BenchParams::smoke();
        assert_eq!(params.threads, vec![1, 2]);
        assert_eq!(params.duration, Duration::from_millis(50));
        assert_eq!(params.repeats, 1);
        assert!(params.prefill as u64 <= params.key_range);
        assert_eq!(params.era_freq, BenchParams::default().era_freq);
    }

    #[test]
    fn default_thread_sweep_ascends_from_one() {
        let params = BenchParams::default();
        assert_eq!(params.threads[0], 1);
        assert!(params.threads.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(params.cleanup_freq, 30);
        assert!(params.prefill as u64 <= params.key_range);
    }

    #[test]
    fn paper_parameters_match_section_5() {
        let params = BenchParams::paper();
        assert_eq!(params.duration, Duration::from_secs(10));
        assert_eq!(params.repeats, 5);
        assert_eq!(params.prefill, 50_000);
        assert_eq!(params.key_range, 100_000);
        assert_eq!(params.era_freq, 150);
        assert_eq!(params.fast_path_attempts, 16);
        assert_eq!(*params.threads.last().unwrap(), 120);
    }
}
