//! End-to-end and per-layer benchmark of the ICED stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold|warm> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs closed loop for `--seconds`
//! and prints the end-to-end metrics; with `--trace 1` the seeded inputs
//! of every workload, and a corpus for exact certification, are replayed
//! through each layer's public functions and the per-layer metrics are
//! printed instead. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for why each workload exists.

mod answer;
mod certify;
mod cold;
mod inputs;
mod stats;
mod traced;
mod warm;

use std::hash::Hasher;
use std::process::ExitCode;

/// Set-ups per run, at least; see [`setup_median`].
const SETUP_REPS: usize = 5;
/// CPU seconds the set-ups of a run add up to, unless capped by
/// [`MAX_SETUP_REPS`] or [`MAX_SETUP_WALL_S`].
const MIN_SETUP_CPU_S: f64 = 1.0;
/// Set-ups per run, at most.
const MAX_SETUP_REPS: usize = 100;
/// Wall seconds after which no set-up beyond the first [`SETUP_REPS`]
/// starts: stopping a daemon takes far longer than starting one.
const MAX_SETUP_WALL_S: f64 = 4.0;
/// Samples kept per step of a [`StepCpu`]; see [`stats::Thinned`].
const SAMPLES_PER_STEP: usize = 256;
/// Op latencies kept per run for the printed wall-clock figures.
pub const LATENCIES_KEPT: usize = 1 << 14;
/// Failing ops printed in full; the rest are only counted.
const PRINTED_FAILURES: u64 = 20;

/// Everything one run prints, plus the values the determinism guard
/// compares across runs of one seed.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
    quality: Vec<(String, f64)>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            quality: Vec::new(),
        }
    }
}

impl Report {
    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a value that must repeat exactly at this seed.
    pub fn quality(&mut self, name: &str, value: f64) {
        self.quality.push((name.to_string(), value));
    }

    pub fn quality_value(&self, name: &str) -> f64 {
        self.quality
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |q| q.1)
    }

    /// Counts one op and its check; a failing check is printed.
    pub fn op(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            if self.failed <= PRINTED_FAILURES {
                eprintln!("perfbench: failed op: {e}");
            }
        }
    }

    /// Marks the run incorrect without an op to blame.
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: {why}");
        self.correct = false;
    }

    /// `ok_share` and `ops_per_cpu_s` from the measured ops. `cpu` holds
    /// each distinct op's CPU seconds over its repeats; `ops_per_cpu_s`
    /// is the number of distinct ops ÷ [`StepCpu::typical_s`], the CPU
    /// seconds the whole process (client, daemons, router, libraries)
    /// spends on one of each at its median cost.
    ///
    /// Wall-clock figures are printed, not reported as metrics: on a
    /// shared 2-vCPU VM the host took up to 39 % of the CPU time as steal,
    /// and the same inputs then ran up to 4× slower by the wall clock
    /// while their CPU time moved ±5 %.
    pub fn throughput_metrics(&mut self, latencies_ms: &stats::Thinned, cpu: &StepCpu) {
        let wall_s = latencies_ms.total() / 1e3;
        let n = latencies_ms.seen();
        let p50 = latencies_ms.percentile(0.5).unwrap_or(f64::NAN);
        let p90 = latencies_ms.percentile(0.9).unwrap_or(f64::NAN);
        println!(
            "perfbench: {n} timed ops over {} distinct; wall: {:.2} ops/s, p50 {p50:.4} ms, p90 {p90:.4} ms",
            cpu.steps(),
            n as f64 / wall_s,
        );
        let typical_s = cpu.typical_s();
        if !(typical_s.is_finite() && typical_s > 0.0) {
            self.fail("the process CPU clock gave no usable reading");
        }
        let ok = self.attempted - self.failed;
        self.metric(
            "ok_share",
            ok as f64 / self.attempted.max(1) as f64,
            "share",
        );
        self.metric("ops_per_cpu_s", cpu.steps() as f64 / typical_s, "1/cpu-s");
    }

    /// Compares this run's guarded values with the first run of the same
    /// build, workload and seed, recorded beside the executable. Any
    /// difference marks the run incorrect.
    fn guard(&mut self, key: &str) {
        let Ok(exe) = std::env::current_exe() else {
            return self.fail("determinism guard: executable path unknown");
        };
        let Ok(bytes) = std::fs::read(&exe) else {
            return self.fail("determinism guard: cannot read the executable");
        };
        let mut h = std::hash::DefaultHasher::new();
        h.write(&bytes);
        let dir = exe.with_file_name("perfbench-guard");
        let path = dir.join(format!("{:016x}-{key}.txt", h.finish()));
        let now: String = self
            .quality
            .iter()
            .map(|(n, v)| format!("{n}={v:?}\n"))
            .collect();
        match std::fs::read_to_string(&path) {
            Ok(then) if then == now => {}
            Ok(then) => self.fail(&format!(
                "determinism guard: values differ from an earlier run\nthen:\n{then}now:\n{now}"
            )),
            Err(_) => {
                if std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, &now))
                    .is_err()
                {
                    self.fail("determinism guard: cannot record values");
                }
            }
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    fn render(&mut self) -> String {
        if self.attempted == 0 {
            self.fail("no op was attempted");
        }
        let mut metrics = iced_service::json::Obj::new();
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                eprintln!("perfbench: metric {name} is not a number");
                self.correct = false;
                "-1".to_string()
            };
            let m = iced_service::json::Obj::new()
                .raw("value", &value)
                .str("unit", unit)
                .finish();
            metrics = metrics.raw(name, &m);
        }
        iced_service::json::Obj::new()
            .bool("correct", self.correct && self.failed == 0)
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// CPU seconds of each step of a sequence that repeats: the distinct
/// ops of a workload, or the steps of a set-up. On a shared VM a burst of
/// host contention slowed whatever ran during it by up to half, even by
/// the CPU clock, so a step's typical cost is its median over the
/// repeats.
#[derive(Debug, Default)]
pub struct StepCpu {
    samples: Vec<stats::Thinned>,
    cursor: usize,
}

impl StepCpu {
    /// Runs `f` as step `step`, recording the CPU seconds the whole
    /// process spent meanwhile.
    pub fn time<T>(&mut self, step: usize, f: impl FnOnce() -> T) -> T {
        let t = cpu_seconds();
        let out = f();
        let dt = cpu_seconds() - t;
        if self.samples.len() <= step {
            self.samples
                .resize_with(step + 1, || stats::Thinned::new(SAMPLES_PER_STEP));
        }
        self.samples[step].push(dt);
        out
    }

    /// Runs `f` as the next step of the current repeat.
    pub fn next<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.cursor += 1;
        self.time(self.cursor - 1, f)
    }

    /// Starts another repeat of the sequence, from its first step.
    pub fn restart(&mut self) {
        self.cursor = 0;
    }

    /// Distinct steps seen.
    pub fn steps(&self) -> usize {
        self.samples.len()
    }

    /// CPU seconds of every sample.
    pub fn total_s(&self) -> f64 {
        self.samples.iter().map(stats::Thinned::total).sum()
    }

    /// Σ over the steps of each one's median CPU seconds: what one pass
    /// of the sequence costs at its typical speed.
    pub fn typical_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.median().unwrap_or(f64::NAN))
            .sum()
    }
}

/// CPU seconds this process and all its threads, ended ones included,
/// have run so far. The kernel charges time the host steals from the VM
/// to steal, not to the process. NaN if the clock cannot be read.
pub fn cpu_seconds() -> f64 {
    use std::ffi::c_long;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two C longs on
    // Linux targets without 64-bit time on 32-bit) for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc != 0 {
        return f64::NAN;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Sets up repeatedly — at least [`SETUP_REPS`] times and on until the
/// set-ups add up to [`MIN_SETUP_CPU_S`], within [`MAX_SETUP_REPS`] and
/// [`MAX_SETUP_WALL_S`] —
/// and returns the CPU seconds of a typical set-up with the last one's
/// result; every other result goes to `discard`, untimed. `setup` times
/// its own steps on the [`StepCpu`] it is given, and the typical set-up
/// is the sum of each step's median ([`StepCpu::typical_s`]), so a
/// set-up of a few milliseconds is not read off clock noise and a burst
/// of host contention in one repeat does not decide it. CPU time, like
/// `ops_per_cpu_s`, leaves out what the host steals: on a 2-vCPU VM
/// `warm`'s set-up took 0.7 s by the wall clock in one hour and 1.1 s in
/// the next.
pub fn setup_median<T>(
    mut setup: impl FnMut(&mut StepCpu) -> T,
    mut discard: impl FnMut(T),
) -> (f64, T) {
    let mut cpu = StepCpu::default();
    let mut last = None;
    let (mut reps, t0) = (0, std::time::Instant::now());
    while reps < SETUP_REPS
        || (cpu.total_s() < MIN_SETUP_CPU_S
            && reps < MAX_SETUP_REPS
            && t0.elapsed().as_secs_f64() < MAX_SETUP_WALL_S)
    {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        cpu.restart();
        last = Some(setup(&mut cpu));
        reps += 1;
    }
    (cpu.typical_s(), last.expect("SETUP_REPS > 0"))
}

/// Peak resident set of this process, which hosts the daemons, router
/// and libraries under test.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "cold" | "warm") {
        return Err(format!("unknown workload {workload} (cold, warm)"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        traced::run(args.seed, &mut report);
        report.guard(&format!("trace-{}", args.seed));
    } else {
        match args.workload.as_str() {
            "cold" => cold::run(args.seed, args.seconds, &mut report),
            _ => warm::run(args.seed, args.seconds, &mut report),
        }
        match peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MiB"),
            None => report.fail("peak RSS unreadable"),
        }
        report.guard(&format!("{}-{}", args.workload, args.seed));
    }
    println!("{}", report.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_typical_sequence_sums_each_steps_median() {
        let thinned = |xs: &[f64]| {
            let mut t = stats::Thinned::new(SAMPLES_PER_STEP);
            xs.iter().for_each(|&x| t.push(x));
            t
        };
        let cpu = StepCpu {
            samples: vec![
                thinned(&[1.0, 9.0, 2.0]),
                thinned(&[0.5]),
                thinned(&[4.0, 3.0]),
            ],
            cursor: 0,
        };
        assert_eq!(cpu.steps(), 3);
        assert_eq!(cpu.total_s(), 19.5);
        assert_eq!(cpu.typical_s(), 2.0 + 0.5 + 3.5);
    }

    #[test]
    fn steps_restart_from_the_first() {
        let mut cpu = StepCpu::default();
        for _ in 0..3 {
            cpu.restart();
            cpu.next(|| ());
            cpu.next(|| ());
        }
        cpu.time(4, || ());
        assert_eq!(cpu.steps(), 5);
        assert_eq!(
            cpu.samples
                .iter()
                .map(stats::Thinned::seen)
                .collect::<Vec<_>>(),
            [3, 3, 0, 0, 1]
        );
        assert!(
            cpu.typical_s().is_nan(),
            "a step without samples has no median"
        );
    }
}
