//! The worker pool: one cost-ordered dispatcher that every caller
//! shares ([`dispatch`]).

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

use crate::progress::Progress;

/// How far past the oldest unfinished job a free worker may reach.
const WINDOW: usize = 64;

/// Execution options: how many workers, and how to report progress.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (≥ 1). 1 means run on the calling thread.
    pub workers: usize,
    /// Progress sink.
    pub progress: Progress,
}

impl Default for ExecOptions {
    /// Available parallelism (honouring `RICA_WORKERS`), silent progress.
    fn default() -> Self {
        ExecOptions { workers: crate::resolve_workers(None), progress: Progress::Silent }
    }
}

impl ExecOptions {
    /// Single worker, silent — the deterministic reference configuration.
    pub fn serial() -> ExecOptions {
        ExecOptions { workers: 1, progress: Progress::Silent }
    }

    /// `workers` threads, silent progress.
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions { workers: workers.max(1), progress: Progress::Silent }
    }
}

/// Worker threads actually used for `total` jobs under a configured
/// worker count: never more threads than jobs, and a single job runs
/// inline on the calling thread.
pub fn effective_workers(configured: usize, total: usize) -> usize {
    if total <= 1 {
        1
    } else {
        configured.min(total).max(1)
    }
}

/// Runs jobs `0..total` over `opts.workers` threads and hands
/// `commit(i, run(i))` every result **in job order, on the calling
/// thread**. With one worker, jobs run inline in job order and no clock
/// is read.
///
/// `group(i)` is job `i`'s cost group (a plan job's is its protocol
/// index). A free worker takes:
///
/// 1. the lowest-index eligible job of a group nothing has been
///    dispatched from yet — one probe per group;
/// 2. otherwise the eligible job whose group has the longest mean run
///    time over its finished jobs. A group with jobs running but none
///    finished ranks above every measured group; ties go to the lowest
///    index.
///
/// A job is eligible when it is at most 64 positions past the oldest
/// unfinished job. When no eligible job is left, a worker takes the
/// lowest-index remaining job, as long as fewer than `workers` jobs are
/// already past the window. Results wait for in-order delivery only
/// inside that span, so at most `64 + workers` are ever held.
///
/// Scheduling decides only *when* a job starts: each result is committed
/// by its job index, so what `commit` receives — and every byte of an
/// artifact built from it — is a pure function of the job list, whatever
/// the measured run times were.
///
/// # Errors
///
/// Returns the first error `commit` returns. No job starts after it;
/// jobs already running finish and their results are dropped.
///
/// # Panics
///
/// Re-raises a panic from any job once the running jobs have finished,
/// and panics if `opts.workers == 0`.
pub(crate) fn dispatch<T, E>(
    total: usize,
    group: impl Fn(usize) -> usize,
    opts: &ExecOptions,
    run: &(impl Fn(usize) -> T + Sync),
    mut commit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
{
    assert!(opts.workers > 0, "need at least one worker");
    let workers = effective_workers(opts.workers, total);
    opts.progress.begin(total, workers);
    if workers == 1 {
        let result = (0..total).try_for_each(|i| {
            commit(i, run(i))?;
            opts.progress.completed(i + 1, total);
            Ok(())
        });
        opts.progress.end(total);
        return result;
    }
    let mut schedule = Schedule::new((0..total).map(group).collect(), workers);
    #[expect(
        clippy::disallowed_methods,
        reason = "arrival order is discarded: results are held by job index and reach `commit` in job order, so its input is a pure function of the job list"
    )]
    let ((job_tx, job_rx), (done_tx, done_rx)) = (mpsc::channel(), mpsc::channel());
    let job_rx = Mutex::new(job_rx);
    let mut failure = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (job_rx, done_tx) = (&job_rx, done_tx.clone());
            scope.spawn(move || loop {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "receives the index of the job to run next, not a result: which worker runs a job never reaches `commit`"
                )]
                let next = job_rx.lock().expect("no worker panics holding the job queue").recv();
                let Ok(i) = next else { break };
                #[expect(
                    clippy::disallowed_types,
                    reason = "scheduling only: the reading ranks cost groups for the next dispatch; results are committed by job index, so it can change only when a job starts, never what any job returns"
                )]
                let start = std::time::Instant::now();
                let result = panic::catch_unwind(AssertUnwindSafe(|| run(i)));
                // A send fails only once the calling thread has given up.
                if done_tx.send((i, start.elapsed().as_secs_f64(), result)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);
        // Dropping the job queue's sender is what lets idle workers exit.
        let mut jobs = Some(job_tx);
        let mut idle = workers;
        let mut held = BTreeMap::new();
        let (mut finished, mut committed) = (0, 0);
        feed(&mut schedule, &mut idle, jobs.as_ref());
        #[expect(
            clippy::disallowed_methods,
            reason = "the job-order commit step itself: results wait in `held` keyed by job index and reach `commit` only in job order"
        )]
        while let Ok((i, secs, result)) = done_rx.recv() {
            idle += 1;
            if failure.is_some() {
                continue;
            }
            let value = match result {
                Ok(value) => value,
                Err(payload) => {
                    failure = Some(Stop::Panic(payload));
                    jobs = None;
                    continue;
                }
            };
            schedule.finish(i, secs);
            feed(&mut schedule, &mut idle, jobs.as_ref());
            finished += 1;
            opts.progress.completed(finished, total);
            held.insert(i, value);
            while let Some(value) = held.remove(&committed) {
                if let Err(e) = commit(committed, value) {
                    failure = Some(Stop::Commit(e));
                    jobs = None;
                    break;
                }
                committed += 1;
            }
            if committed == total {
                jobs = None;
            }
        }
    });
    opts.progress.end(total);
    match failure {
        None => Ok(()),
        Some(Stop::Commit(e)) => Err(e),
        Some(Stop::Panic(payload)) => panic::resume_unwind(payload),
    }
}

/// Why a pass stopped early.
enum Stop<E> {
    /// `commit` failed.
    Commit(E),
    /// A job panicked.
    Panic(Box<dyn Any + Send>),
}

/// Hands idle workers the jobs `schedule` picks for them, until no
/// worker is idle or no job may start yet.
fn feed(schedule: &mut Schedule, idle: &mut usize, jobs: Option<&mpsc::Sender<usize>>) {
    let Some(jobs) = jobs else { return };
    while *idle > 0 {
        let Some(i) = schedule.next() else { return };
        // The receiving end outlives the pass, so the send cannot fail.
        let _ = jobs.send(i);
        *idle -= 1;
    }
}

/// Where one job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Running,
    Finished,
}

/// What one cost group has measured so far.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    probed: bool,
    finished: usize,
    secs: f64,
}

impl Cost {
    /// Mean run time of the group's finished jobs; infinite while none
    /// has finished, so a running but unmeasured group ranks first.
    fn mean(&self) -> f64 {
        if self.finished == 0 {
            f64::INFINITY
        } else {
            self.secs / self.finished as f64
        }
    }
}

/// The dispatch rule as plain data: which job a free worker takes next,
/// given the run times reported so far. It spawns nothing and reads no
/// clock; [`dispatch`] drives it.
#[derive(Debug)]
struct Schedule {
    /// Cost group of every job.
    groups: Vec<usize>,
    status: Vec<Status>,
    /// Indexed by group.
    costs: Vec<Cost>,
    /// The oldest unfinished job (`groups.len()` once all finished).
    oldest: usize,
    /// The lowest-index job not yet dispatched.
    first_pending: usize,
    /// Jobs the fallback may hold past the window at once.
    workers: usize,
}

impl Schedule {
    fn new(groups: Vec<usize>, workers: usize) -> Schedule {
        let costs = vec![Cost::default(); groups.iter().max().map_or(0, |g| g + 1)];
        let status = vec![Status::Pending; groups.len()];
        Schedule { groups, status, costs, oldest: 0, first_pending: 0, workers }
    }

    /// The job a free worker takes next, now marked running, or `None`
    /// if no job may start until another finishes (or none is left).
    fn next(&mut self) -> Option<usize> {
        let total = self.groups.len();
        let end = total.min(self.oldest + WINDOW + 1);
        let cost = |i: usize| &self.costs[self.groups[i]];
        let eligible = (self.first_pending..end).filter(|&i| self.status[i] == Status::Pending);
        let job = eligible
            .clone()
            .find(|&i| !cost(i).probed)
            .or_else(|| {
                eligible.max_by(|&a, &b| cost(a).mean().total_cmp(&cost(b).mean()).then(b.cmp(&a)))
            })
            .or_else(|| {
                // Nothing eligible, so `first_pending` lies past the
                // window and every job between the two is running or
                // held.
                let past = self.first_pending.saturating_sub(end);
                (self.first_pending < total && past < self.workers).then_some(self.first_pending)
            })?;
        self.status[job] = Status::Running;
        self.costs[self.groups[job]].probed = true;
        while self.status.get(self.first_pending).is_some_and(|&s| s != Status::Pending) {
            self.first_pending += 1;
        }
        Some(job)
    }

    /// Records that `job` finished after `secs` of run time.
    fn finish(&mut self, job: usize, secs: f64) {
        debug_assert_eq!(self.status[job], Status::Running, "job {job} finished without running");
        self.status[job] = Status::Finished;
        let cost = &mut self.costs[self.groups[job]];
        cost.finished += 1;
        cost.secs += secs;
        while self.status.get(self.oldest) == Some(&Status::Finished) {
            self.oldest += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs jobs `0..total` in one cost group and collects what `commit`
    /// receives, checking it arrives in job order.
    fn run_all<T: Send>(
        total: usize,
        opts: &ExecOptions,
        run: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(total);
        let Ok(()) = dispatch(
            total,
            |_| 0,
            opts,
            &run,
            |i, result| {
                assert_eq!(i, out.len(), "results commit in job order");
                out.push(result);
                Ok::<(), std::convert::Infallible>(())
            },
        );
        out
    }

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..97).map(|j| j * j).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let got = run_all(97, &ExecOptions::with_workers(workers), |j| {
                // Reverse-size workload so completion order ≠ job order.
                if j < 10 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                j * j
            });
            assert_eq!(got, expected, "worker count {workers} changed results");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got = run_all(0, &ExecOptions::with_workers(4), |j| j);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        run_all(1, &ExecOptions { workers: 0, progress: Progress::Silent }, |j| j);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_all(3, &ExecOptions::with_workers(2), |j| {
                if j == 1 {
                    panic!("boom");
                }
                j
            })
        });
        assert!(result.is_err(), "a worker panic must not be swallowed");
    }

    #[test]
    fn a_commit_error_stops_the_pass_and_is_returned() {
        for workers in [1, 3] {
            let mut seen = Vec::new();
            let result = dispatch(
                200,
                |i| i % 3,
                &ExecOptions::with_workers(workers),
                &|i| i,
                |i, r| {
                    assert_eq!(i, r);
                    seen.push(i);
                    if i == 40 {
                        Err(format!("disk full at {i}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(result, Err("disk full at 40".to_string()));
            assert_eq!(seen, (0..=40).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    /// Takes `n` jobs from the rule, failing if it yields fewer.
    fn take(s: &mut Schedule, n: usize) -> Vec<usize> {
        (0..n).map(|_| s.next().expect("the rule ran dry")).collect()
    }

    #[test]
    fn every_group_is_probed_once_in_job_order_first() {
        let mut s = Schedule::new(vec![0, 0, 1, 1, 2, 2], 2);
        assert_eq!(take(&mut s, 3), [0, 2, 4]);
    }

    #[test]
    fn a_running_unmeasured_group_outranks_measured_ones() {
        let mut s = Schedule::new(vec![0, 0, 0, 1, 1], 2);
        assert_eq!(take(&mut s, 2), [0, 3]);
        s.finish(0, 100.0);
        assert_eq!(s.next(), Some(4), "group 1 has no finished job yet");
        assert_eq!(s.next(), Some(1));
    }

    #[test]
    fn the_longest_mean_goes_first() {
        let mut s = Schedule::new(vec![0, 0, 1, 1, 2, 2, 2], 2);
        assert_eq!(take(&mut s, 3), [0, 2, 4]);
        s.finish(0, 1.0);
        s.finish(2, 3.0);
        s.finish(4, 2.0);
        assert_eq!(take(&mut s, 4), [3, 5, 6, 1]);
        assert_eq!(s.next(), None, "every job is running or finished");
    }

    #[test]
    fn ties_go_to_the_lowest_index() {
        // Two running, unmeasured groups tie at an infinite mean…
        let mut s = Schedule::new(vec![0, 0, 1, 1], 2);
        assert_eq!(take(&mut s, 3), [0, 2, 1]);
        // …and so do two equal measured means.
        let mut s = Schedule::new(vec![0, 0, 1, 1], 2);
        assert_eq!(take(&mut s, 2), [0, 2]);
        s.finish(2, 1.5);
        s.finish(0, 1.5);
        assert_eq!(take(&mut s, 2), [1, 3]);
    }

    #[test]
    fn only_jobs_within_the_window_of_the_oldest_unfinished_are_eligible() {
        // Job 65, a new group's first job, is one position too far to be
        // probed while job 0 runs…
        let mut groups = vec![0; 70];
        groups[WINDOW + 1] = 1;
        let mut s = Schedule::new(groups, 2);
        assert_eq!(take(&mut s, WINDOW + 1), (0..=WINDOW).collect::<Vec<_>>());
        // …and is probed as soon as job 0 finishes.
        s.finish(0, 1.0);
        assert_eq!(s.next(), Some(WINDOW + 1));
    }

    #[test]
    fn past_the_window_the_lowest_index_goes_to_at_most_workers_jobs() {
        let mut s = Schedule::new(vec![0; 200], 2);
        assert_eq!(take(&mut s, WINDOW + 1), (0..=WINDOW).collect::<Vec<_>>());
        for i in 1..=WINDOW {
            s.finish(i, 1.0);
        }
        // Job 0 still runs: the fallback takes the next two in order…
        assert_eq!(take(&mut s, 2), [WINDOW + 1, WINDOW + 2]);
        // …and then holds: 64 + 2 results would wait on job 0.
        s.finish(WINDOW + 1, 1.0);
        assert_eq!(s.next(), None);
        // Job 0 finishing moves the window past everything that waited.
        s.finish(0, 1.0);
        assert_eq!(take(&mut s, 3), [WINDOW + 3, WINDOW + 4, WINDOW + 5]);
    }
}
