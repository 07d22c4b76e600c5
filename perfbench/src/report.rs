//! What one benchmark run reports, and the pass loop every workload shares.

use std::fmt::Write as _;
use std::time::Instant;

use crate::span::Recorder;

/// Checked operations and named metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (kernel jobs, served jobs, engine drives).
    pub attempted: u64,
    /// Attempted operations whose check failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `attempted` operations of which `passed` passed their check.
    pub fn tally(&mut self, attempted: u64, passed: u64) {
        self.attempted += attempted;
        self.failed += attempted - passed.min(attempted);
    }

    /// Adds metric `name` (in `unit`).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns the heap's free memory to the system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: sets an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's mmap threshold at its default, 128 KiB. Left to adjust
/// itself, the threshold rises after large frees; whether a large buffer
/// then grows by `mremap` or by copying on the heap, which sets a pass's
/// peak resident memory, depends on what the passes before it freed.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: sets a documented allocator parameter before any pass.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns freed heap memory to the system, then resets the process's
/// resident-memory high-water mark to its resident size (Linux
/// `clear_refs`), so that the next reading is the peak of what follows
/// over what is live now. Where the reset fails, the next reading covers
/// the whole run so far.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory of the allocator.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Host seconds of the passes measured in one run.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// Passes run with span recording off.
    pub untraced: Vec<f64>,
    /// Passes run with span recording on (traced runs only).
    pub traced: Vec<f64>,
    /// Peak resident MiB of each untraced pass.
    pub rss_mb: Vec<f64>,
}

impl PassTimes {
    /// The pass time end-to-end metrics use: untraced passes only.
    pub fn wall_s(&self) -> f64 {
        median(&self.untraced)
    }

    /// The median peak resident memory of an untraced pass, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.rss_mb)
    }

    /// Traced minus untraced median pass time.
    pub fn overhead_s(&self) -> f64 {
        median(&self.traced) - median(&self.untraced)
    }
}

/// Runs timed passes for `seconds` of wall time (checks included), at
/// least two of them: a pass starts only if one more, as long as the last,
/// still ends in time. In a traced run the passes alternate between span
/// recording on and off, so the traced and untraced pass times come from
/// the same stretch of time. `pass` returns the seconds of its timed part.
pub fn measure(
    seconds: f64,
    traced: bool,
    rec: &mut Recorder,
    mut pass: impl FnMut(&mut Recorder, bool) -> f64,
) -> PassTimes {
    let start = Instant::now();
    let mut times = PassTimes::default();
    let mut i = 0usize;
    let mut last = 0.0;
    while i < 2 || start.elapsed().as_secs_f64() + last <= seconds {
        let on = traced && i.is_multiple_of(2);
        rec.set_enabled(on);
        reset_peak_rss();
        let began = Instant::now();
        let t = pass(rec, on);
        last = began.elapsed().as_secs_f64();
        if on {
            times.traced.push(t);
        } else {
            times.untraced.push(t);
            times.rss_mb.push(peak_rss_mb());
        }
        i += 1;
    }
    rec.set_enabled(traced);
    eprintln!(
        "pass seconds: untraced {:?}, traced {:?}; untraced peak MiB {:?}",
        times.untraced, times.traced, times.rss_mb
    );
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn traced_measurement_alternates() {
        let mut rec = Recorder::new(true);
        let mut seen = Vec::new();
        let times = measure(0.0, true, &mut rec, |_, on| {
            seen.push(on);
            1.0
        });
        assert_eq!(seen, [true, false]);
        assert_eq!(times.overhead_s(), 0.0);
        let times = measure(0.0, false, &mut rec, |_, on| {
            assert!(!on);
            2.0
        });
        assert_eq!(times.untraced.len(), 2);
        assert_eq!(times.wall_s(), 2.0);
        assert!(times.peak_rss_mb() > 0.0);
    }

    #[test]
    fn result_line_counts_failures() {
        let mut o = Outcome::default();
        o.check(true);
        o.put("wall_s", 1.5, "s");
        assert!(o
            .to_json()
            .starts_with("{\"correct\": true, \"attempted\": 1"));
        o.check(false);
        assert!(o.to_json().contains("\"correct\": false"));
        assert!(o
            .to_json()
            .contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
