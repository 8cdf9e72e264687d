//! Dependency-free parallel experiment engine.
//!
//! The paper's evaluation is a pile of *independent* simulation runs — a
//! detector-threshold grid, disruption scenarios, chain-length points, and
//! multi-hundred-seed distributions. Each run is deterministic given its
//! seed, so the set can fan out across cores without changing any result,
//! provided the merge step is order-independent. This module provides that
//! fan-out with nothing beyond `std`:
//!
//! - A [`Task`] is a boxed builder closure. The closure must be `Send`
//!   (it is moved to a worker thread), but what it *builds* need not be:
//!   the `Rc`-based [`hydranet_core::system::System`] is constructed
//!   *inside* the worker, lives its whole life on that thread, and only
//!   the plain-data result crosses back.
//! - [`run_tasks`] spins up a scoped worker pool (`std::thread::scope`, so
//!   no `'static` bounds and no join-handle leaks). Workers pull task
//!   indices from a shared `AtomicUsize` — classic work stealing without a
//!   queue, since the task list is fixed up front.
//! - Results are merged **by task index**: worker interleaving affects only
//!   wall-clock, never output order. `run_tasks(tasks, 1)` and
//!   `run_tasks(tasks, n)` return bit-identical `Vec<R>`s (enforced by
//!   tests here and in `determinism_guard.rs`).
//!
//! The pool reports [`RunnerStats`] (tasks completed, per-worker busy time,
//! wall-clock) which can be published into an [`Obs`] registry via
//! [`RunnerStats::publish`] under the `runner.*` metric names.
//!
//! [`run_soak`] is the one driver the soak binaries (`chaos`, `scale`)
//! share: it re-runs a workload at each requested thread count, asserts the
//! determinism contract above on outcomes and merged report, and
//! [`Soak::finish`] prints the speed-up table and writes the `BENCH_*.json`
//! envelope. [`SoakArgs`] is their command line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hydranet_obs::Obs;

/// One unit of parallel work: a self-contained, seeded simulation run. The
/// closure owns everything it needs (configs are cloned in) and returns a
/// plain-data result.
pub struct Task<R>(Box<dyn FnOnce() -> R + Send>);

impl<R> Task<R> {
    /// Wraps a builder closure.
    pub fn new(run: impl FnOnce() -> R + Send + 'static) -> Self {
        Task(Box::new(run))
    }

    /// Runs the task, consuming it.
    pub fn run(self) -> R {
        (self.0)()
    }
}

/// What the worker pool measured about itself during one [`run_tasks`] call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunnerStats {
    /// Worker threads used (after clamping to the task count).
    pub threads: usize,
    /// Tasks completed (always the full task count; the pool never drops).
    pub tasks_completed: u64,
    /// Summed busy wall-clock nanoseconds across all workers.
    pub worker_busy_nanos: u64,
    /// Wall-clock nanoseconds from pool start to last join.
    pub wall_nanos: u64,
    /// Busy nanoseconds per worker, indexed by worker id.
    pub per_worker_busy_nanos: Vec<u64>,
}

impl RunnerStats {
    /// Pool utilization in `[0, 1]`: busy time over `wall × threads`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.threads as u64);
        if capacity == 0 {
            0.0
        } else {
            self.worker_busy_nanos as f64 / capacity as f64
        }
    }

    /// Publishes this run into `obs` under the `runner.*` metric names.
    /// `events` is the total simulated-event count across tasks (0 if the
    /// workload does not track events).
    pub fn publish(&self, obs: &Obs, events: u64) {
        obs.record_runner(
            self.threads,
            self.tasks_completed,
            self.worker_busy_nanos,
            self.wall_nanos,
            events,
        );
    }
}

/// Runs every task, fanning out across up to `threads` scoped worker
/// threads, and returns the results **in task order** plus pool stats.
///
/// Determinism contract: for a fixed task list, the returned `Vec<R>` is
/// identical for every `threads` value — workers only decide *when* a task
/// runs, never *what* it computes (each task is a self-contained seeded
/// simulation) nor *where* its result lands (slot `i` of the output).
///
/// `threads == 0` is treated as 1. `threads` is clamped to the task count.
pub fn run_tasks<R: Send>(tasks: Vec<Task<R>>, threads: usize) -> (Vec<R>, RunnerStats) {
    let n = tasks.len();
    let threads = threads.max(1).min(n.max(1));
    let started = Instant::now();

    if n == 0 {
        return (
            Vec::new(),
            RunnerStats {
                threads,
                wall_nanos: elapsed_nanos(&started),
                per_worker_busy_nanos: vec![0; threads],
                ..RunnerStats::default()
            },
        );
    }

    // Single-threaded fast path: no pool, no locks — and the reference
    // behavior the parallel path must reproduce bit-for-bit.
    if threads == 1 {
        let mut busy = 0u64;
        let mut results = Vec::with_capacity(n);
        for task in tasks {
            let t0 = Instant::now();
            results.push(task.run());
            busy += elapsed_nanos(&t0);
        }
        let stats = RunnerStats {
            threads: 1,
            tasks_completed: n as u64,
            worker_busy_nanos: busy,
            wall_nanos: elapsed_nanos(&started),
            per_worker_busy_nanos: vec![busy],
        };
        return (results, stats);
    }

    // Each task sits in its own slot; a worker claims index `i` from the
    // shared counter and takes the task out of slot `i`. `Mutex<Option<_>>`
    // rather than one locked queue so claims never contend with each other.
    let slots: Vec<Mutex<Option<Task<R>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let (mut indexed, per_worker_busy_nanos) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let slots = &slots;
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut busy = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let task = slots[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("task slot claimed twice");
                    let t0 = Instant::now();
                    local.push((i, task.run()));
                    busy += elapsed_nanos(&t0);
                }
                (local, busy)
            }));
        }
        let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut busies = Vec::with_capacity(threads);
        for h in handles {
            // A worker panic means a task panicked; propagate it.
            let (local, busy) = h.join().expect("experiment worker panicked");
            indexed.extend(local);
            busies.push(busy);
        }
        (indexed, busies)
    });

    // Merge by task index: output order is the task-list order, independent
    // of which worker ran what when.
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert!(indexed.iter().enumerate().all(|(k, (i, _))| k == *i));
    let results: Vec<R> = indexed.into_iter().map(|(_, r)| r).collect();

    let stats = RunnerStats {
        threads,
        tasks_completed: n as u64,
        worker_busy_nanos: per_worker_busy_nanos.iter().sum(),
        wall_nanos: elapsed_nanos(&started),
        per_worker_busy_nanos,
    };
    (results, stats)
}

fn elapsed_nanos(t: &Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A plain-data experiment result: comparable across thread counts and
/// priced in simulated events.
pub trait Outcome: PartialEq + std::fmt::Debug {
    /// Simulated events the run processed.
    fn events(&self) -> u64;
}

/// Total simulated events across a set of outcomes.
pub fn total_events<O: Outcome>(outcomes: &[O]) -> u64 {
    outcomes.iter().map(Outcome::events).sum()
}

/// CPUs the host offers — read every speed-up against this.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Command line of a soak binary: `--smoke` and `--threads N` everywhere,
/// plus the binary's own switches and number-valued flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakArgs {
    given: Vec<(String, Option<u64>)>,
}

impl SoakArgs {
    /// Parses `args` (program name already stripped). `switches` and
    /// `valued` name the binary's own flags; an unknown flag, a missing
    /// value or a non-number is an `Err` carrying the usage line.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Self, String> {
        let switches = [&["--smoke"], switches].concat();
        let valued = [&["--threads"], valued].concat();
        let usage = |problem: String| {
            let valued = valued.iter().map(|v| format!("{v} N"));
            let flags: Vec<String> = switches
                .iter()
                .map(|s| s.to_string())
                .chain(valued)
                .collect();
            format!("{problem} (flags: {})", flags.join(", "))
        };
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = if valued.contains(&flag.as_str()) {
                let n = it.next().and_then(|v| v.parse().ok());
                Some(n.ok_or_else(|| usage(format!("{flag} takes a number")))?)
            } else if switches.contains(&flag.as_str()) {
                None
            } else {
                return Err(usage(format!("unknown flag {flag}")));
            };
            given.push((flag.clone(), value));
        }
        Ok(SoakArgs { given })
    }

    /// [`SoakArgs::parse`] over the process arguments; prints the usage
    /// line and exits with status 2 on a bad command line.
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, switches, valued).unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2);
        })
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The value of flag `name`, if given (the last one wins).
    pub fn value(&self, name: &str) -> Option<u64> {
        let found = self.given.iter().rev().find(|(flag, _)| flag == name);
        found.and_then(|&(_, n)| n)
    }

    /// Thread counts to measure at: 1, 2 and 4, or 1 and N after
    /// `--threads N`.
    pub fn thread_counts(&self) -> Vec<usize> {
        match self.value("--threads") {
            None => vec![1, 2, 4],
            Some(n) if n <= 1 => vec![1],
            Some(n) => vec![1, usize::try_from(n).unwrap_or(usize::MAX)],
        }
    }
}

/// One thread count's wall-clock reading of a soak.
#[derive(Debug)]
struct Measurement {
    /// Threads requested (the pool clamps to the task count).
    threads: usize,
    stats: RunnerStats,
}

/// A finished soak: outcomes and merged report — identical at every
/// measured thread count — plus one wall-clock reading per count.
#[derive(Debug)]
pub struct Soak<O> {
    /// Outcomes in task order.
    pub outcomes: Vec<O>,
    /// The deterministic merged report (no wall-clock data).
    pub report: String,
    measurements: Vec<Measurement>,
}

/// Runs a workload once per thread count and enforces the determinism
/// contract: outcomes and merged report at every count must equal the
/// first count's.
///
/// # Panics
///
/// Panics if any thread count produces different outcomes or a different
/// report, or if `thread_counts` is empty.
pub fn run_soak<O: Outcome>(
    thread_counts: &[usize],
    run: impl Fn(usize) -> (Vec<O>, RunnerStats),
    merged_report: impl Fn(&[O]) -> String,
) -> Soak<O> {
    let mut reference: Option<(Vec<O>, String)> = None;
    let mut measurements = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let (outcomes, stats) = run(threads);
        let report = merged_report(&outcomes);
        measurements.push(Measurement { threads, stats });
        match &reference {
            None => reference = Some((outcomes, report)),
            Some((ref_outcomes, ref_report)) => {
                assert_eq!(
                    ref_outcomes, &outcomes,
                    "outcomes diverged between threads={} and threads={threads}",
                    thread_counts[0]
                );
                assert_eq!(
                    ref_report, &report,
                    "merged report not byte-identical at threads={threads}"
                );
            }
        }
    }
    let (outcomes, report) = reference.expect("at least one thread count");
    Soak {
        outcomes,
        report,
        measurements,
    }
}

impl<O: Outcome> Soak<O> {
    /// Prints the speed-up table and writes the `BENCH_*.json` envelope to
    /// `path`: `timing` rows and `runner.*` telemetry (wall-clock), any
    /// `extra` `(name, JSON value)` sections, then the deterministic
    /// `report` — kept apart so determinism stays checkable by `diff`.
    pub fn finish(&self, bench: &str, path: &str, extra: &[(&str, &str)]) {
        let events = total_events(&self.outcomes);
        let base_wall = self.measurements[0].stats.wall_nanos.max(1) as f64;
        let header = ["threads", "wall ms", "events/sec", "speedup", "util"].map(String::from);
        let mut rows = Vec::new();
        let mut timing = String::new();
        for m in &self.measurements {
            let wall = m.stats.wall_nanos.max(1) as f64;
            let events_per_sec = events as f64 * 1e9 / wall;
            rows.push(vec![
                m.threads.to_string(),
                format!("{:.1}", wall / 1e6),
                format!("{events_per_sec:.0}"),
                format!("{:.2}x", base_wall / wall),
                format!("{:.2}", m.stats.utilization()),
            ]);
            if !timing.is_empty() {
                timing.push_str(",\n");
            }
            let _ = write!(
                timing,
                "  {{\"threads\": {}, \"wall_nanos\": {}, \"worker_busy_nanos\": {}, \"tasks\": {}, \"events\": {events}, \"events_per_sec\": {events_per_sec:.1}, \"speedup_vs_1\": {:.3}, \"utilization\": {:.3}}}",
                m.threads,
                m.stats.wall_nanos,
                m.stats.worker_busy_nanos,
                m.stats.tasks_completed,
                base_wall / wall,
                m.stats.utilization()
            );
        }
        println!("{}", crate::render_table(&header, &rows));

        // Engine telemetry through the obs registry (runner.* metrics).
        let obs = Obs::enabled();
        if let Some(last) = self.measurements.last() {
            last.stats.publish(&obs, events);
        }
        let mut json = format!(
            "{{\n\"bench\": \"{bench}\",\n\"host_cpus\": {},\n\"timing\": [\n{timing}\n],\n",
            host_cpus()
        );
        for (name, value) in extra {
            let _ = writeln!(json, "\"{name}\": {value},");
        }
        let _ = write!(
            json,
            "\"runner_telemetry\": {},\n\"report\": {}\n}}\n",
            obs.to_json().trim_end(),
            self.report.trim_end()
        );
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        let counts: Vec<usize> = self.measurements.iter().map(|m| m.threads).collect();
        println!(
            "wrote {path} ({} tasks, byte-identical across {counts:?} threads)",
            self.outcomes.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::rng::SimRng;
    use std::rc::Rc;

    fn squares(n: u64) -> Vec<Task<u64>> {
        (0..n).map(|i| Task::new(move || i * i)).collect()
    }

    #[test]
    fn results_are_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 4, 7, 64] {
            let (results, stats) = run_tasks(squares(20), threads);
            assert_eq!(results, (0..20).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.tasks_completed, 20);
            assert_eq!(stats.threads, threads.min(20));
            assert_eq!(stats.per_worker_busy_nanos.len(), stats.threads);
        }
    }

    #[test]
    fn threads_one_equals_threads_many_bitwise() {
        // Each task runs a seeded RNG walk on a non-Send value (`Rc`),
        // mirroring how real tasks build an `Rc`-based `System` inside the
        // worker. The merged output must be identical at every width.
        let make = || {
            (0..16u64)
                .map(|i| {
                    Task::new(move || {
                        let rng = Rc::new(std::cell::RefCell::new(SimRng::seed_from(i)));
                        let mut acc = 0u64;
                        for _ in 0..1000 {
                            acc = acc.wrapping_add(rng.borrow_mut().next_u64());
                        }
                        acc
                    })
                })
                .collect::<Vec<_>>()
        };
        let (seq, _) = run_tasks(make(), 1);
        for threads in [2, 3, 4, 8] {
            let (par, _) = run_tasks(make(), threads);
            assert_eq!(seq, par, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (results, stats) = run_tasks(Vec::<Task<u8>>::new(), 4);
        assert!(results.is_empty());
        assert_eq!(stats.tasks_completed, 0);
    }

    #[test]
    fn zero_threads_means_one() {
        let (results, stats) = run_tasks(squares(3), 0);
        assert_eq!(results, vec![0, 1, 4]);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn stats_account_for_all_work() {
        let (_, stats) = run_tasks(squares(50), 4);
        assert_eq!(
            stats.worker_busy_nanos,
            stats.per_worker_busy_nanos.iter().sum::<u64>()
        );
        assert!(stats.utilization() <= 1.0 + f64::EPSILON);
        assert!(stats.wall_nanos > 0);
    }

    impl Outcome for u64 {
        fn events(&self) -> u64 {
            *self
        }
    }

    /// Every value-taking flag of both soak binaries: missing its value
    /// (last argument) or given a non-number is a usage error, never an
    /// out-of-bounds index.
    #[test]
    fn value_flag_without_a_number_is_a_usage_error() {
        let switches = ["--trace", "--no-profile"];
        let valued: Vec<&str> = crate::chaos::VALUE_FLAGS
            .iter()
            .chain(crate::scale::VALUE_FLAGS)
            .copied()
            .collect();
        let argv = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for flag in valued.iter().chain(&["--threads"]) {
            for bad in [argv(&["--smoke", flag]), argv(&[flag, "many"])] {
                let err = SoakArgs::parse(&bad, &switches, &valued).unwrap_err();
                assert!(err.contains(&format!("{flag} takes a number")), "{err}");
                assert!(err.contains("--threads N"), "no usage in {err}");
            }
            let ok = SoakArgs::parse(&argv(&[flag, "3", "--trace"]), &switches, &valued).unwrap();
            assert!(ok.switch("--trace") && !ok.switch("--no-profile") && !ok.switch("--smoke"));
            assert_eq!(ok.value(flag), Some(3));
        }
        let err = SoakArgs::parse(&argv(&["--bogus"]), &switches, &valued).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let threads = |args: &[&str]| {
            SoakArgs::parse(&argv(args), &[], &[])
                .unwrap()
                .thread_counts()
        };
        assert_eq!(threads(&[]), vec![1, 2, 4]);
        assert_eq!(threads(&["--threads", "1"]), vec![1]);
        assert_eq!(threads(&["--smoke", "--threads", "3"]), vec![1, 3]);
    }

    #[test]
    fn soak_returns_the_reference_run() {
        let soak = run_soak(
            &[1, 3],
            |threads| run_tasks(squares(5), threads),
            |o| format!("{o:?}"),
        );
        assert_eq!(soak.outcomes, vec![0, 1, 4, 9, 16]);
        assert_eq!(soak.report, "[0, 1, 4, 9, 16]");
        assert_eq!(soak.measurements.len(), 2);
        assert_eq!(total_events(&soak.outcomes), 30);
    }

    /// The driver's reason to exist: a workload whose result depends on the
    /// thread count must not get as far as a `BENCH_*.json`.
    #[test]
    #[should_panic(expected = "outcomes diverged between threads=1 and threads=2")]
    fn soak_panics_when_outcomes_depend_on_thread_count() {
        run_soak(
            &[1, 2],
            |threads| (vec![threads as u64], RunnerStats::default()),
            |_| String::new(),
        );
    }

    #[test]
    fn publish_lands_in_registry() {
        let (_, stats) = run_tasks(squares(4), 2);
        let obs = Obs::enabled();
        stats.publish(&obs, 1234);
        let j = obs.to_json();
        assert!(j.contains("\"runner.tasks_completed\": 4"), "{j}");
        assert!(j.contains("\"runner.threads\": 2"), "{j}");
    }
}
