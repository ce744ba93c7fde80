//! Statistics helpers and the run report: human-readable metric lines on
//! stdout, then one JSON object as the last line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported metric: a value with its unit and the number of samples
/// it summarises.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (requests scheduled, lifecycle operations).
    pub attempted: u64,
    /// Operations that failed or returned an output that did not verify.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed output check.
    pub fn problem(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.problems.push(why);
    }

    /// Prints one `metric <name> <value> <unit> n=<samples>` line per
    /// metric, then the JSON object on the last line of stdout.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a
            // broken run, which `correct` already reports.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `xs` (NaN when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so figures printed here match that tool exactly.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 0 {
        return [f64::NAN; 3];
    }
    if ld == 1 {
        return [d[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// User plus system CPU time of this whole process (every thread, live
/// or exited), in seconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, writable `Timespec` laid out as
    // the C struct on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Time the hypervisor ran something else while this machine's vCPUs
/// had work ("steal"), summed over all vCPUs, in seconds, from the first
/// line of `/proc/stat` (in ticks of `USER_HZ`, which is 100 on Linux).
/// Zero where the kernel does not account steal.
pub fn steal_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / USER_HZ
}

/// Steal share below which a measurement counts as quiet.
pub const QUIET_STEAL: f64 = 0.03;
/// Share of a phase's groups (one-second slices of a serving window,
/// lifecycle rounds) that must be quiet for the phase to count as steady.
pub const QUIET_FLOOR: f64 = 0.8;

/// Which groups of samples count, given the share of the vCPUs' time
/// the hypervisor stole during each: those that saw less than
/// [`QUIET_STEAL`], or, if none was that quiet, the least-stolen one.
/// Also returns the share of groups that were quiet; below
/// [`QUIET_FLOOR`] the caller reports the phase as unsteady. Other
/// virtual machines take the vCPUs away in bursts, and a sample taken
/// during one measures their load, not the program's cost.
pub fn quiet_groups(steal: &[f64]) -> (Vec<bool>, f64) {
    let mut keep: Vec<bool> = steal.iter().map(|&s| s < QUIET_STEAL).collect();
    let quiet = keep.iter().filter(|&&k| k).count();
    if quiet == 0 {
        let least = (0..steal.len()).min_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        if let Some(i) = least {
            keep[i] = true;
        }
    }
    (keep, quiet as f64 / steal.len().max(1) as f64)
}

/// Prints how many of a phase's groups were quiet, marking the phase
/// unsteady below [`QUIET_FLOOR`].
pub fn say_quiet(what: &str, share: f64, groups: usize, samples: usize, of: usize) {
    println!(
        "quiet {what} {share:.3} of {groups}: {samples} of {of} counted{}",
        if share < QUIET_FLOOR {
            " (unsteady: the hypervisor took the vCPUs away for much of the phase)"
        } else {
            ""
        }
    );
}
/// Measured attempts per run at most.
const MAX_ATTEMPTS: usize = 2;
/// Waiting for a quiet host stops this long into the run, and no new
/// attempt starts after it, so that the run ends well within three
/// minutes.
const WAIT_DEADLINE: Duration = Duration::from_secs(75);
/// Length of the busy probe that samples steal while waiting.
const PROBE: Duration = Duration::from_millis(250);
/// Pause between probes while the host is busy.
const PROBE_PAUSE: Duration = Duration::from_secs(2);

/// Runs `f` and returns its result with the share of the vCPUs' time the
/// hypervisor stole meanwhile.
pub fn stolen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (steal0, t0) = (steal_s(), Instant::now());
    let out = f();
    let share = (steal_s() - steal0) / (t0.elapsed().as_secs_f64() * cpus());
    (out, share)
}

/// vCPUs this process may run on.
pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Waits, at most until [`WAIT_DEADLINE`] into the run begun at
/// `run_start`, until a short busy probe on every vCPU sees less than
/// [`QUIET_STEAL`] of their time stolen. Steal is only counted while a
/// vCPU has work, so an idle wait cannot see it; the probe gives it work.
pub fn wait_for_quiet(run_start: Instant) {
    loop {
        let ((), share) = stolen(|| {
            std::thread::scope(|scope| {
                for _ in 0..cpus() as usize {
                    scope.spawn(|| {
                        let t0 = Instant::now();
                        while t0.elapsed() < PROBE {
                            std::hint::spin_loop();
                        }
                    });
                }
            })
        });
        if share < QUIET_STEAL || run_start.elapsed() > WAIT_DEADLINE {
            return;
        }
        eprintln!(
            "waiting: the hypervisor stole {:.1}% of the vCPUs' time",
            share * 100.0
        );
        std::thread::sleep(PROBE_PAUSE);
    }
}

/// Runs the measured phase `attempt` once the host is quiet
/// ([`wait_for_quiet`]), and again (at most [`MAX_ATTEMPTS`] times in
/// all, and not after [`WAIT_DEADLINE`]) while an attempt saw more than
/// [`QUIET_STEAL`] of the vCPUs' time stolen; returns the least-stolen
/// attempt's result.
///
/// Other virtual machines on the same host take the vCPUs away for
/// minutes at a time; a phase measured then reports their load, not the
/// program's cost.
pub fn quietest<T>(run_start: Instant, mut attempt: impl FnMut() -> T) -> T {
    let mut best: Option<(T, f64)> = None;
    for i in 1..=MAX_ATTEMPTS {
        wait_for_quiet(run_start);
        let (out, share) = stolen(&mut attempt);
        eprintln!(
            "attempt {i}: the hypervisor stole {:.1}% of the vCPUs' time",
            share * 100.0
        );
        if best.as_ref().is_none_or(|(_, b)| share < *b) {
            best = Some((out, share));
        }
        if share < QUIET_STEAL || run_start.elapsed() > WAIT_DEADLINE {
            break;
        }
    }
    best.expect("at least one attempt").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn only_quiet_groups_count_and_the_least_stolen_if_none_is() {
        assert_eq!(
            quiet_groups(&[0.0, 0.5, 0.01, 0.2]),
            (vec![true, false, true, false], 0.5)
        );
        assert_eq!(
            quiet_groups(&[0.4, 0.1, 0.2]),
            (vec![false, true, false], 0.0)
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.push("latency_p50_us", 12.5, "us", 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn process_cpu_time_counts_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }
}
