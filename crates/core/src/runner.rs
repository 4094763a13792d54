//! The deterministic parallel run-execution layer.
//!
//! A sweep is a bag of independent simulation runs: every `(sweep point,
//! field, scheme)` triple is a pure function of its [`ScenarioSpec`] (which
//! carries the seed) and protocol/physical configuration. [`RunJob`] names
//! one such run as a plain value; [`Runner`] executes a materialized job
//! list across `std::thread::scope` workers and returns results *keyed by
//! job index*, so the assembled output is bit-identical regardless of which
//! worker finished which job first — and identical to a serial run.
//!
//! Determinism argument, in full:
//!
//! 1. each job owns its inputs (no shared mutable simulation state), and a
//!    run is a pure function of those inputs (`wsn-sim`'s contract);
//! 2. workers pull job *indices* from an atomic cursor and write results
//!    into the slot of the same index — scheduling affects only *when* a
//!    slot is filled, never *which* value fills it;
//! 3. assembly ([`crate::collect_points`]) iterates slots in index order.
//!
//! Worker count therefore changes wall-clock time and nothing else.
//!
//! The runner doubles as a watchdog: [`Runner::max_events`] (or a per-job
//! [`RunJob::max_events`] override) bounds the number of simulator events a
//! job may dispatch, so one runaway simulation surfaces as a [`JobError`]
//! naming the offending `(point, field, scheme)` instead of hanging the
//! whole sweep; sibling jobs complete normally.

use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wsn_diffusion::{DiffusionConfig, Scheme};
use wsn_metrics::PaperMetrics;
use wsn_net::{EventBudgetExceeded, MetricsOptions, NetConfig, TraceOptions};
use wsn_scenario::ScenarioSpec;
use wsn_sim::{ProfileSink, RunAccounting, SimDuration};
use wsn_trace::JsonlSink;

use crate::experiment::{Experiment, MetricsSetup};

/// Peak resident set size in KiB, from `/proc/self/status` (`VmHWM`).
/// `None` where procfs is absent (non-Linux). Process-wide high-water mark,
/// not per-job: on a parallel sweep it reflects the whole runner.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One fully specified simulation run inside a sweep: plain data in, plain
/// data out, safe to execute on any worker thread.
#[derive(Debug, Clone)]
pub struct RunJob {
    /// Index of the sweep point this job belongs to (slot in the output).
    pub point_index: usize,
    /// The sweep-axis value (node count, sink count, ...), for reporting.
    pub point_x: f64,
    /// Which independently generated field within the point.
    pub field_index: usize,
    /// The aggregation scheme under test.
    pub scheme: Scheme,
    /// The scenario, including the per-field seed.
    pub spec: ScenarioSpec,
    /// Protocol parameters (scheme, aggregation function, swept timers).
    pub config: DiffusionConfig,
    /// The MAC the run uses.
    pub net: NetConfig,
    /// Per-job watchdog override; `None` defers to [`Runner::max_events`].
    pub max_events: Option<u64>,
}

impl RunJob {
    /// A failure of this job, named by its sweep coordinates.
    fn error(&self, cause: JobFailure) -> JobError {
        JobError {
            point_index: self.point_index,
            point_x: self.point_x,
            field_index: self.field_index,
            scheme: self.scheme,
            cause,
        }
    }
}

/// What one completed job reports back.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The paper's metrics triple for the run.
    pub metrics: PaperMetrics,
    /// Simulator accounting (events dispatched, final clock, backlog).
    pub accounting: RunAccounting,
    /// Wall-clock milliseconds the job took (informational; never feeds
    /// back into results).
    pub wall_ms: f64,
}

/// Where the runner writes per-job trace artifacts.
///
/// One `.jsonl` file per job lands in [`TraceSpec::dir`], named
/// `point{x}_field{f}_{scheme}.jsonl` — the same `(point, field, scheme)`
/// coordinates that identify the job in progress output and errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Directory receiving the per-job `.jsonl` files (must already exist).
    pub dir: PathBuf,
}

impl TraceSpec {
    /// Traces into `dir` — the bench harness `--trace` flag.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceSpec { dir: dir.into() }
    }

    /// The engine-side options every job trace uses: a 10-second snapshot
    /// cadence.
    pub fn options(&self) -> TraceOptions {
        TraceOptions {
            snapshot_every: Some(SimDuration::from_secs(10)),
        }
    }

    /// The trace-file path for one job's coordinates.
    pub fn job_path(&self, point_x: f64, field_index: usize, scheme: Scheme) -> PathBuf {
        // f64 Display is shortest-round-trip: integral points print without
        // a trailing ".0" (60, not 60.0), fractional ones keep their dot.
        self.dir
            .join(format!("point{point_x}_field{field_index}_{scheme}.jsonl"))
    }
}

/// Where the runner writes per-job metrics artifacts.
///
/// One `.metrics.jsonl` file per job lands in [`MetricsSpec::dir`], named
/// `point{x}_field{f}_{scheme}.metrics.jsonl` — the suffix keeps metrics
/// and trace artifacts distinguishable even when both share a directory.
/// Every job records with the default [`MetricsOptions`] (10-second
/// snapshots). Reduce a metrics directory with the `metrics_report` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSpec {
    /// Directory receiving the per-job `.metrics.jsonl` files (must already
    /// exist).
    pub dir: PathBuf,
}

impl MetricsSpec {
    /// Metrics into `dir` — the bench harness `--metrics` flag.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        MetricsSpec { dir: dir.into() }
    }

    /// The metrics-file path for one job's coordinates.
    pub fn job_path(&self, point_x: f64, field_index: usize, scheme: Scheme) -> PathBuf {
        self.dir.join(format!(
            "point{point_x}_field{field_index}_{scheme}.metrics.jsonl"
        ))
    }
}

/// A failed job, identified by its sweep coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Index of the sweep point the failing job belonged to.
    pub point_index: usize,
    /// The sweep-axis value of that point.
    pub point_x: f64,
    /// The field index within the point.
    pub field_index: usize,
    /// The scheme the failing job was running.
    pub scheme: Scheme,
    /// Why the job failed.
    pub cause: JobFailure,
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The run tripped the watchdog budget.
    Budget(EventBudgetExceeded),
    /// The job's trace or metrics file could not be created, so the job
    /// never ran.
    Artifact {
        /// The file that could not be created.
        path: PathBuf,
        /// The I/O error, as text.
        error: String,
    },
}

impl JobFailure {
    /// The failure to create the artifact file at `path`.
    pub fn artifact(path: &Path, error: &std::io::Error) -> Self {
        JobFailure::Artifact {
            path: path.to_path_buf(),
            error: error.to_string(),
        }
    }
}

/// Checks that a job could create its artifact file at `path`, and leaves
/// the directory as it found it: a file the check creates is removed, and
/// a file already there is opened for writing but not truncated.
///
/// # Errors
///
/// [`JobFailure::Artifact`] with the error a job would meet creating the
/// file (a directory at `path`, a missing parent, no permission).
pub fn check_artifact(path: &Path) -> Result<(), JobFailure> {
    let check = match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(_) => std::fs::remove_file(path),
        Err(e) if e.kind() == ErrorKind::AlreadyExists => {
            OpenOptions::new().write(true).open(path).map(drop)
        }
        Err(e) => Err(e),
    };
    check.map_err(|e| JobFailure::artifact(path, &e))
}

/// Checks several sweeps' artifact paths before any of them runs: creates
/// each runner's trace and metrics directory where it is missing (its
/// parent must exist), then checks every job's paths with
/// [`Runner::check_artifacts`], sweep by sweep. A failed check removes the
/// directories it created, so it leaves every directory as it found them;
/// a passed one keeps them for the jobs.
///
/// # Errors
///
/// The first job, in sweep then job order, whose directory or file cannot
/// be created. A directory is charged to its sweep's first job.
pub fn check_sweeps(sweeps: &[(Runner, Vec<RunJob>)]) -> Result<(), JobError> {
    let mut created: Vec<PathBuf> = Vec::new();
    let result = sweeps.iter().try_for_each(|(runner, jobs)| {
        let Some(first) = jobs.first() else {
            return Ok(());
        };
        let trace = runner.trace.iter().map(|spec| &spec.dir);
        for dir in trace.chain(runner.metrics.iter().map(|spec| &spec.dir)) {
            match std::fs::create_dir(dir) {
                Ok(()) => created.push(dir.clone()),
                Err(_) if dir.is_dir() => {}
                Err(e) => return Err(first.error(JobFailure::artifact(dir, &e))),
            }
        }
        runner.check_artifacts(jobs)
    });
    if result.is_err() {
        for dir in created.iter().rev() {
            let _ = std::fs::remove_dir(dir);
        }
    }
    result
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Budget(cause) => cause.fmt(f),
            JobFailure::Artifact { path, error } => {
                write!(f, "cannot create {}: {error}", path.display())
            }
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job (point {} at x={}, field {}, {}): {}",
            self.point_index, self.point_x, self.field_index, self.scheme, self.cause
        )
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            JobFailure::Budget(cause) => Some(cause),
            JobFailure::Artifact { .. } => None,
        }
    }
}

/// Executes [`RunJob`] lists across a configurable number of worker
/// threads, deterministically (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runner {
    /// Worker-thread count; `0` means one per available CPU.
    pub workers: usize,
    /// Default per-job watchdog budget (max dispatched simulator events);
    /// `None` disables the watchdog.
    pub max_events: Option<u64>,
    /// Emit one NDJSON progress line per finished job on stderr.
    pub progress: bool,
    /// Write one `.jsonl` trace per job; `None` (the default) runs
    /// untraced — the zero-overhead path.
    pub trace: Option<TraceSpec>,
    /// Write one `.metrics.jsonl` snapshot stream per job; `None` (the
    /// default) runs without in-sim metrics.
    pub metrics: Option<MetricsSpec>,
    /// Attach a wall-clock dispatch profiler to every job. The profile
    /// reaches the progress stream and — when tracing too — the trace's
    /// `profile` records. Off by default: profile numbers are
    /// nondeterministic by nature.
    pub profile: bool,
}

impl Runner {
    /// A single-worker runner with no watchdog, no progress output, and no
    /// tracing.
    pub fn serial() -> Self {
        Runner {
            workers: 1,
            max_events: None,
            progress: false,
            trace: None,
            metrics: None,
            profile: false,
        }
    }

    /// A runner with `workers` worker threads (`0` = one per CPU).
    pub fn new(workers: usize) -> Self {
        Runner {
            workers,
            ..Runner::serial()
        }
    }

    /// Worker count from the `WSN_JOBS` environment variable (default: one
    /// worker per available CPU; `WSN_JOBS=1` forces serial execution).
    pub fn from_env() -> Self {
        let workers = std::env::var("WSN_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Runner::new(workers)
    }

    /// The worker count actually used: `workers`, or the available CPU
    /// parallelism when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Executes every job and returns one result per job, in job order.
    ///
    /// A [`JobError`] in one slot (watchdog budget exhausted, or an
    /// artifact file that cannot be created) does not affect sibling jobs;
    /// they run to completion. To fail before any job simulates instead,
    /// call [`Runner::check_artifacts`] first, as
    /// [`crate::collect_points`] does.
    pub fn run(&self, jobs: &[RunJob]) -> Vec<Result<JobReport, JobError>> {
        self.parallel_map(jobs, |_, job| self.execute(job))
    }

    /// Checks every job's trace and metrics path with [`check_artifact`],
    /// in job order, and leaves both directories as it found them.
    ///
    /// # Errors
    ///
    /// The first job, in job order, whose trace or metrics file cannot be
    /// created.
    pub fn check_artifacts(&self, jobs: &[RunJob]) -> Result<(), JobError> {
        for job in jobs {
            let (trace, metrics) = self.artifact_paths(job);
            for path in trace.iter().chain(&metrics) {
                check_artifact(path).map_err(|cause| job.error(cause))?;
            }
        }
        Ok(())
    }

    /// This runner with its trace and metrics directories each moved down
    /// into subdirectory `name`: how sweeps whose jobs share names (two
    /// figures over the same node counts) keep their artifacts apart.
    pub fn in_subdir(&self, name: &str) -> Runner {
        let mut runner = self.clone();
        if let Some(spec) = &mut runner.trace {
            spec.dir.push(name);
        }
        if let Some(spec) = &mut runner.metrics {
            spec.dir.push(name);
        }
        runner
    }

    /// The job's trace and metrics file paths, for the artifacts the
    /// runner writes.
    fn artifact_paths(&self, job: &RunJob) -> (Option<PathBuf>, Option<PathBuf>) {
        let (x, f, scheme) = (job.point_x, job.field_index, job.scheme);
        (
            self.trace.as_ref().map(|spec| spec.job_path(x, f, scheme)),
            self.metrics
                .as_ref()
                .map(|spec| spec.job_path(x, f, scheme)),
        )
    }

    /// Runs one job inline on the current thread. A trace or metrics file
    /// that cannot be created fails the job before it simulates.
    fn execute(&self, job: &RunJob) -> Result<JobReport, JobError> {
        let budget = job.max_events.or(self.max_events).unwrap_or(u64::MAX);
        let start = Instant::now();
        let mut exp = Experiment::new(job.spec.clone(), job.scheme);
        exp.diffusion = job.config.clone();
        exp.diffusion.scheme = job.scheme;
        exp.net = job.net.clone();
        // The sink is created (and owned) on whichever worker thread runs
        // the job; it never crosses threads, so the single-threaded
        // `Rc<RefCell<…>>` handle suffices.
        let (trace_path, metrics_path) = self.artifact_paths(job);
        let trace = match self.trace.as_ref().zip(trace_path.as_ref()) {
            Some((spec, path)) => {
                let sink = JsonlSink::create(path)
                    .map_err(|e| job.error(JobFailure::artifact(path, &e)))?;
                Some((wsn_trace::shared(sink), spec.options()))
            }
            None => None,
        };
        let profile = self
            .profile
            .then(|| wsn_sim::shared_profile(ProfileSink::new()));
        let metrics = match metrics_path.as_ref() {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| job.error(JobFailure::artifact(path, &e)))?;
                Some(MetricsSetup {
                    opts: MetricsOptions::default(),
                    out: Some(Box::new(std::io::BufWriter::new(file))),
                })
            }
            None => None,
        };
        let result = exp.run_on_observed(
            &job.spec.instantiate(),
            budget,
            trace,
            profile.clone(),
            metrics,
        );
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        // Progress lines carry the artifact paths so a consumer tailing the
        // stream can go straight from a finished (or failed) job to its
        // trace or metrics without re-deriving the naming scheme, and the
        // process peak RSS when the job finished.
        let artifacts_json = if self.progress {
            let path_json = |key: &str, path: &Option<PathBuf>| {
                path.as_ref()
                    .map(|p| format!(",\"{key}\":{}", json_string(&p.display().to_string())))
                    .unwrap_or_default()
            };
            let rss_json = peak_rss_kb()
                .map(|kb| format!(",\"peak_rss_kb\":{kb}"))
                .unwrap_or_default();
            path_json("trace", &trace_path) + &path_json("metrics", &metrics_path) + &rss_json
        } else {
            String::new()
        };
        match result {
            Ok((outcome, _registry)) => {
                let events = outcome.accounting.events_processed;
                let report = JobReport {
                    metrics: outcome.record.metrics(),
                    accounting: outcome.accounting,
                    wall_ms,
                };
                if self.progress {
                    let profile_json = profile
                        .and_then(|p| {
                            let p = p.borrow();
                            p.hottest().map(|(label, _)| {
                                format!(
                                    ",\"profile_ns\":{},\"hottest\":{}",
                                    p.total_ns(),
                                    json_string(label)
                                )
                            })
                        })
                        .unwrap_or_default();
                    eprintln!(
                        "{{\"job\":\"done\",\"point\":{},\"field\":{},\"scheme\":\"{}\",\
                         \"events\":{},\"sim_s\":{:.1},\"wall_ms\":{:.1},\"events_per_sec\":{:.0},\
                         \"field_retries\":{}{}{}}}",
                        job.point_x,
                        job.field_index,
                        job.scheme,
                        events,
                        report.accounting.final_time.as_secs_f64(),
                        wall_ms,
                        events_per_sec(events, wall_ms),
                        outcome.field_retries,
                        artifacts_json,
                        profile_json,
                    );
                }
                Ok(report)
            }
            Err(cause) => {
                if self.progress {
                    eprintln!(
                        "{{\"job\":\"error\",\"point\":{},\"field\":{},\"scheme\":\"{}\",\
                         \"events\":{},\"sim_s\":{:.1},\"wall_ms\":{:.1},\"error\":\"budget\"{}}}",
                        job.point_x,
                        job.field_index,
                        job.scheme,
                        cause.events_processed,
                        cause.sim_time.as_secs_f64(),
                        wall_ms,
                        artifacts_json,
                    );
                }
                Err(job.error(JobFailure::Budget(cause)))
            }
        }
    }

    /// The runner's scheduling primitive: applies `f` to every item and
    /// returns the outputs in item order, regardless of which worker
    /// computed which item.
    ///
    /// Workers claim item *indices* from a shared atomic cursor and deposit
    /// each output in the slot of the same index, so the output vector is
    /// independent of scheduling. `f` must itself be deterministic in
    /// `(index, item)` for the whole map to be; simulation runs are
    /// (`wsn-sim`'s determinism contract).
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` after all workers stop.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.effective_workers().min(items.len().max(1));
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed slot is filled before scope exit")
            })
            .collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

/// Minimal JSON string literal: quotes `s`, escaping the characters NDJSON
/// consumers would otherwise trip on (quotes, backslashes — trace paths on
/// some platforms — and control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Dispatch throughput in events per wall-clock second (`0` when the job
/// finished below timer resolution).
fn events_per_sec(events: u64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1e3)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let runner = Runner::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = runner.parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_serial() {
        let items: Vec<u64> = (0..40).collect();
        let f = |_: usize, &x: &u64| wsn_sim::splitmix64(x);
        let serial = Runner::serial().parallel_map(&items, f);
        for workers in [2, 3, 8] {
            assert_eq!(Runner::new(workers).parallel_map(&items, f), serial);
        }
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(Runner::new(0).effective_workers() >= 1);
        assert_eq!(Runner::new(3).effective_workers(), 3);
    }

    #[test]
    fn json_string_escapes_quotes_and_controls() {
        assert_eq!(json_string("plain/path.jsonl"), "\"plain/path.jsonl\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\u0009here\"");
    }

    #[test]
    fn events_per_sec_guards_zero_wall_time() {
        assert_eq!(events_per_sec(1000, 0.0), 0.0);
        assert!((events_per_sec(1000, 500.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn trace_spec_names_files_by_job_coordinates() {
        let spec = TraceSpec::new("/tmp/traces");
        assert_eq!(
            spec.job_path(60.0, 2, Scheme::Greedy),
            PathBuf::from("/tmp/traces/point60_field2_greedy.jsonl")
        );
        // Fractional sweep points keep their dot; integral ones drop it.
        assert_eq!(
            spec.job_path(62.5, 0, Scheme::Opportunistic),
            PathBuf::from("/tmp/traces/point62.5_field0_opportunistic.jsonl")
        );
    }

    #[test]
    fn check_artifact_leaves_the_directory_as_it_found_it() {
        let dir = std::env::temp_dir().join(format!("wsn_check_artifact_{}", std::process::id()));
        let (new, old, blocked) = (dir.join("new"), dir.join("old"), dir.join("blocked"));
        std::fs::create_dir_all(&blocked).expect("temp dir");
        std::fs::write(&old, "kept").expect("temp file");
        assert_eq!(check_artifact(&new), Ok(()));
        assert_eq!(check_artifact(&old), Ok(()));
        assert!(matches!(
            check_artifact(&blocked),
            Err(JobFailure::Artifact { path, .. }) if path == blocked
        ));
        assert!(!new.exists(), "the check removes the file it created");
        assert_eq!(std::fs::read_to_string(&old).ok().as_deref(), Some("kept"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_error_display_names_coordinates() {
        use wsn_sim::SimTime;
        let err = JobError {
            point_index: 2,
            point_x: 250.0,
            field_index: 3,
            scheme: Scheme::Greedy,
            cause: JobFailure::Budget(EventBudgetExceeded {
                budget: 1000,
                events_processed: 1000,
                sim_time: SimTime::from_secs(4),
                deadline: SimTime::from_secs(200),
            }),
        };
        let msg = err.to_string();
        assert!(msg.contains("point 2"), "{msg}");
        assert!(msg.contains("field 3"), "{msg}");
        assert!(msg.contains("greedy"), "{msg}");
        assert!(msg.contains("1000"), "{msg}");
    }
}
