//! Process measurements (CPU time, peak RSS, CPU count) and the
//! closed-loop timing helpers every workload shares.

use std::time::{Duration, Instant};

/// User plus system CPU seconds this process has used so far, over all
/// its threads, including those that have ended: the process CPU-time
/// clock, read with nanosecond resolution (`/proc/self/stat` counts in
/// 10 ms ticks, too coarse for a 0.1 s batch).
pub fn cpu_secs() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB since it started or
/// since the last `reset_peak_rss`.
fn peak_rss_mib() -> f64 {
    nbc_obs::progress::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Reset the peak resident set (`VmHWM`) to the current resident set, by
/// writing 5 to `/proc/self/clear_refs` (Linux 4.0 and later).
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU seconds of one measured call.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

/// Run `f` once, measuring wall and CPU time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    (r, Sample { wall, cpu: cpu_secs() - cpu0 })
}

/// Closed loop: call `batch` again and again, each call starting when
/// the previous one ends, as long as another call of the last one's
/// length still ends within `seconds`. Calls `batch` at least once.
pub fn closed_loop(seconds: u64, mut batch: impl FnMut() -> Sample) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Vec::new();
    loop {
        let s = batch();
        out.push(s);
        if Instant::now() + Duration::from_secs_f64(s.wall) > deadline {
            return out;
        }
    }
}

/// The least of `values` (0 when empty): a batch's cost on this host
/// when nothing else slowed it. The host's interference only adds time,
/// and it comes in spells covering anywhere from a fifth of a run to all
/// but a few batches of it, so the fastest batch moves far less between
/// runs than the median does (see the README, "Noise and bounds").
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// The timed parts of a run's batches (a checker case, a protocol's
/// pipeline run), each sampled once per batch.
#[derive(Default)]
pub struct Parts {
    samples: Vec<Vec<Sample>>,
}

impl Parts {
    pub fn push(&mut self, part: usize, s: Sample) {
        if self.samples.len() <= part {
            self.samples.resize_with(part + 1, Vec::new);
        }
        self.samples[part].push(s);
    }

    /// A batch with every part at its fastest: the sum over parts of each
    /// part's least wall time, and likewise of CPU time. The parts of one
    /// batch run at different moments, so a batch whose parts were all
    /// fast is rarer than a fast run of each part.
    pub fn fastest(&self) -> Sample {
        let sum = |f: fn(&Sample) -> f64| {
            self.samples.iter().map(|p| fastest(p.iter().map(f))).sum::<f64>()
        };
        Sample { wall: sum(|s| s.wall), cpu: sum(|s| s.cpu) }
    }
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Set-up times sampled across a run: a block of set-ups before the
/// measured phase and more between batches, so that `setup_s` (the
/// fastest of them) is taken from many moments of the run, not one.
///
/// It also keeps set-up out of `peak_rss_mib`: the peak resident set is
/// read before each set-up block and reset after it, so `peak_rss` is the
/// highest peak of the phases between set-ups.
#[derive(Default)]
pub struct SetupTimer {
    walls: Vec<f64>,
    peak_mib: f64,
}

impl SetupTimer {
    /// Run `setup` `warmup` times untimed, so that the timed set-ups do
    /// not pay for the caches the preceding batch evicted, then `reps`
    /// times, timing each; returns the last result.
    pub fn time<T>(&mut self, warmup: usize, reps: usize, mut setup: impl FnMut() -> T) -> T {
        self.peak_mib = self.peak_mib.max(peak_rss_mib());
        for _ in 0..warmup {
            std::hint::black_box(setup());
        }
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            last = Some(setup());
            self.walls.push(t0.elapsed().as_secs_f64());
        }
        if let Err(e) = reset_peak_rss() {
            // Then the peak may be a set-up's; say so rather than hide it.
            eprintln!("warning: cannot reset the peak resident set: {e}");
        }
        last.expect("at least one set-up")
    }

    pub fn fastest(&self) -> f64 {
        fastest(self.walls.iter().copied())
    }

    pub fn median(&self) -> f64 {
        median(self.walls.iter().copied())
    }

    /// Peak resident set in MiB outside set-up, up to now.
    pub fn peak_rss(&self) -> f64 {
        self.peak_mib.max(peak_rss_mib())
    }
}

/// Mean microseconds per call of `f` over `calls` calls.
pub fn per_call_us(calls: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }

    #[test]
    fn fastest_is_the_least() {
        assert_eq!(fastest([3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest([]), 0.0);
    }

    #[test]
    fn parts_sum_each_fastest() {
        let mut parts = Parts::default();
        for (part, wall, cpu) in [(0, 2.0, 1.0), (1, 5.0, 4.0), (0, 1.0, 3.0), (1, 6.0, 3.5)] {
            parts.push(part, Sample { wall, cpu });
        }
        let best = parts.fastest();
        assert_eq!((best.wall, best.cpu), (6.0, 4.5));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_secs();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_secs() > before, "{x}");
    }

    #[test]
    fn set_up_stays_out_of_the_peak() {
        let mut setup = SetupTimer::default();
        let before = setup.peak_rss();
        let big = setup.time(0, 1, || {
            let v = vec![1u8; 64 << 20];
            std::hint::black_box(v.iter().map(|&b| b as u64).sum::<u64>())
        });
        assert_eq!(big, 64 << 20);
        assert!(setup.peak_rss() < before + 32.0, "{} vs {before}", setup.peak_rss());
    }
}
