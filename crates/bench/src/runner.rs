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
//!   when a task runs, never output order. `run_tasks(tasks, 1)` and
//!   `run_tasks(tasks, n)` return bit-identical `Vec<R>`s (enforced by
//!   tests here and in `determinism_guard.rs`).
//!
//! [`run_soak`] is the one driver the soak binaries (`chaos`, `scale`)
//! share: it re-runs a workload at each requested thread count, asserts the
//! determinism contract above on outcomes and merged report, and
//! [`Soak::finish`] writes the `BENCH_*.json` envelope. [`SoakArgs`] is
//! their command line. Nothing here reads a clock: every byte a soak
//! writes is a function of its seeds, and wall-clock figures come from the
//! `benchmark/` harness alone.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of parallel work: a self-contained, seeded simulation run. The
/// closure owns everything it needs (configs are cloned in) and returns a
/// plain-data result.
pub type Task<R> = Box<dyn FnOnce() -> R + Send>;

/// Runs every task, fanning out across up to `threads` scoped worker
/// threads, and returns the results **in task order**.
///
/// Determinism contract: for a fixed task list, the returned `Vec<R>` is
/// identical for every `threads` value — workers only decide *when* a task
/// runs, never *what* it computes (each task is a self-contained seeded
/// simulation) nor *where* its result lands (slot `i` of the output).
///
/// `threads == 0` is treated as 1. `threads` is clamped to the task count.
/// One worker is the same pool with one thread.
pub fn run_tasks<R: Send>(tasks: Vec<Task<R>>, threads: usize) -> Vec<R> {
    let n = tasks.len();
    let threads = threads.max(1).min(n.max(1));

    // Each task sits in its own slot; a worker claims index `i` from the
    // shared counter and takes the task out of slot `i`. `Mutex<Option<_>>`
    // rather than one locked queue so claims never contend with each other.
    let slots: Vec<Mutex<Option<Task<R>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let mut indexed = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let slots = &slots;
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
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
                    local.push((i, task()));
                }
                local
            }));
        }
        let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
        for h in handles {
            // A worker panic means a task panicked; propagate it.
            indexed.extend(h.join().expect("experiment worker panicked"));
        }
        indexed
    });

    // Merge by task index: output order is the task-list order, independent
    // of which worker ran what when.
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert!(indexed.iter().enumerate().all(|(k, (i, _))| k == *i));
    indexed.into_iter().map(|(_, r)| r).collect()
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

    /// Thread counts to run at: 1 and 2, or 1 and N after `--threads N`.
    pub fn thread_counts(&self) -> Vec<usize> {
        match self.value("--threads") {
            None => vec![1, 2],
            Some(n) if n <= 1 => vec![1],
            Some(n) => vec![1, usize::try_from(n).unwrap_or(usize::MAX)],
        }
    }
}

/// A finished soak: outcomes and merged report, identical at every thread
/// count it ran at.
#[derive(Debug)]
pub struct Soak<O> {
    /// Outcomes in task order.
    pub outcomes: Vec<O>,
    /// The deterministic merged report.
    pub report: String,
    thread_counts: Vec<usize>,
}

/// Runs a workload once per thread count and enforces the determinism
/// contract: outcomes and merged report at every count must equal the
/// first count's.
///
/// # Panics
///
/// Panics if any thread count produces different outcomes or a different
/// report, or if `thread_counts` is empty.
pub fn run_soak<O: PartialEq + std::fmt::Debug>(
    thread_counts: &[usize],
    run: impl Fn(usize) -> Vec<O>,
    merged_report: impl Fn(&[O]) -> String,
) -> Soak<O> {
    let mut reference: Option<(Vec<O>, String)> = None;
    for &threads in thread_counts {
        let outcomes = run(threads);
        let report = merged_report(&outcomes);
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
        thread_counts: thread_counts.to_vec(),
    }
}

impl<O> Soak<O> {
    /// Writes the `BENCH_*.json` envelope to `path`: the bench name, any
    /// `extra` `(name, JSON value)` sections, then the merged `report`.
    /// None of it depends on the thread counts, so two runs at different
    /// counts write the same bytes.
    pub fn finish(&self, bench: &str, path: &str, extra: &[(&str, &str)]) {
        let mut json = format!("{{\n\"bench\": \"{bench}\",\n");
        for (name, value) in extra {
            let _ = writeln!(json, "\"{name}\": {value},");
        }
        let _ = write!(json, "\"report\": {}\n}}\n", self.report.trim_end());
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "wrote {path} ({} tasks, byte-identical across {:?} threads)",
            self.outcomes.len(),
            self.thread_counts
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::rng::SimRng;
    use std::rc::Rc;

    fn squares(n: u64) -> Vec<Task<u64>> {
        (0..n)
            .map(|i| -> Task<u64> { Box::new(move || i * i) })
            .collect()
    }

    #[test]
    fn results_are_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 4, 7, 64] {
            let results = run_tasks(squares(20), threads);
            assert_eq!(results, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_one_equals_threads_many_bitwise() {
        // Each task runs a seeded RNG walk on a non-Send value (`Rc`),
        // mirroring how real tasks build an `Rc`-based `System` inside the
        // worker. The merged output must be identical at every width.
        let make = || {
            (0..16u64)
                .map(|i| -> Task<u64> {
                    Box::new(move || {
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
        let seq = run_tasks(make(), 1);
        for threads in [2, 3, 4, 8] {
            let par = run_tasks(make(), threads);
            assert_eq!(seq, par, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        assert!(run_tasks(Vec::<Task<u8>>::new(), 4).is_empty());
    }

    #[test]
    fn zero_threads_means_one() {
        assert_eq!(run_tasks(squares(3), 0), vec![0, 1, 4]);
    }

    /// Every value-taking flag of both soak binaries: missing its value
    /// (last argument) or given a non-number is a usage error, never an
    /// out-of-bounds index.
    #[test]
    fn value_flag_without_a_number_is_a_usage_error() {
        let switches = ["--trace"];
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
            assert!(ok.switch("--trace") && !ok.switch("--smoke"));
            assert_eq!(ok.value(flag), Some(3));
        }
        let err = SoakArgs::parse(&argv(&["--bogus"]), &switches, &valued).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let threads = |args: &[&str]| {
            SoakArgs::parse(&argv(args), &[], &[])
                .unwrap()
                .thread_counts()
        };
        assert_eq!(threads(&[]), vec![1, 2]);
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
    }

    /// The driver's reason to exist: a workload whose result depends on the
    /// thread count must not get as far as a `BENCH_*.json`.
    #[test]
    #[should_panic(expected = "outcomes diverged between threads=1 and threads=2")]
    fn soak_panics_when_outcomes_depend_on_thread_count() {
        run_soak(&[1, 2], |threads| vec![threads as u64], |_| String::new());
    }

    /// The envelope names no thread count, so a soak run at other counts
    /// writes the same bytes.
    #[test]
    fn envelope_is_the_same_at_any_thread_counts() {
        let dir = std::env::temp_dir();
        let write = |counts: &[usize], name: &str| {
            let soak = run_soak(counts, |t| run_tasks(squares(4), t), |o| format!("{o:?}"));
            let path = dir.join(format!(
                "runner-envelope-{}-{name}.json",
                std::process::id()
            ));
            let path = path.to_str().expect("utf-8 temp path").to_string();
            soak.finish("squares", &path, &[("extra", "7")]);
            let bytes = std::fs::read_to_string(&path).expect("envelope written");
            let _ = std::fs::remove_file(&path);
            bytes
        };
        let one = write(&[1], "one");
        assert_eq!(one, write(&[1, 3], "three"));
        assert_eq!(
            one,
            "{\n\"bench\": \"squares\",\n\"extra\": 7,\n\"report\": [0, 1, 4, 9]\n}\n"
        );
    }
}
