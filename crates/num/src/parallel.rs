//! The worker team: every core on one piece of work.
//!
//! MEMQSIM's Fig. 2 step (5) decompresses, updates and recompresses chunks
//! "on the CPU using idle cores". Those cores are one process-wide team,
//! started on first use: [`cores`]` − 1` named helper threads, plus
//! whichever thread calls [`run`]. `run` hands one job to members `0..k`,
//! each with its own piece of the work, and returns when every member is
//! done — a dispatch costs a wake-up, not a thread spawn. Threads claim
//! members one at a time, the caller included, so a helper that is slow to
//! wake (its core busy elsewhere) leaves its share to the others instead of
//! holding them up; which thread runs a member cannot change its result.
//!
//! The team serves one caller at a time. A caller that finds it busy —
//! another thread, or a job calling [`run`] from inside itself — does not
//! wait: its members run on scoped threads, on the same pieces, so the
//! results are the same bits. A panic in a member is caught; the caller
//! waits for the other members, then resumes the panic with its payload,
//! and the team serves the next call as before.
//!
//! A helper with nothing to do spins for up to 100 µs, yielding its core at
//! every turn, then parks; a caller waiting for the members others claimed
//! spins as long, then parks.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a waiting thread spins before it parks.
const SPIN: Duration = Duration::from_micros(100);

/// The host's core count, read once per process (uncached,
/// `available_parallelism` costs ~10 µs): the team's size, and the default
/// worker count of the engines.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `job(w, pieces[w])` for every member `w`, at once on the team, and
/// returns the results in member order when all members are done. A single
/// piece runs on the caller's thread, untouched by the team.
///
/// Members share nothing but `job`: a buffer reaches them already split
/// (`chunks_mut`, `split_at_mut`), so which thread runs which member cannot
/// change a result. A panicking member panics the caller with its payload,
/// after every other member has finished.
pub fn run<T, R, F>(pieces: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if pieces.len() <= 1 {
        return pieces.into_iter().map(|piece| job(0, piece)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    dispatch(slots.len(), &|w| {
        let piece = lock(&slots[w]).take();
        if let Some(piece) = piece {
            let result = job(w, piece);
            *lock(&results[w]) = Some(result);
        }
    });
    results
        .into_iter()
        .map(|r| {
            let r = r.into_inner().unwrap_or_else(PoisonError::into_inner);
            r.expect("a member that returned left its result")
        })
        .collect()
}

/// A job with its borrow erased: what the helpers are handed.
type Job = &'static (dyn Fn(usize) + Sync);

/// The job being run.
#[derive(Clone)]
struct Live {
    job: Job,
    epoch: u32,
    members: usize,
    /// Unparked by the helper that finishes the last member.
    caller: Thread,
}

struct Team {
    /// Held by the caller of a team dispatch, from publishing the job until
    /// every member is done (`Acquire` on taking, `Release` on giving it
    /// back, so one dispatch's clean-up comes before the next one's set-up).
    busy: AtomicBool,
    /// The last dispatch's epoch, what waiting helpers spin on; stored
    /// `Release` after `live`, loaded `Acquire` before it.
    epoch: AtomicU32,
    live: Mutex<Option<Live>>,
    /// The live job's epoch (high 32 bits) and how many of its members have
    /// been claimed (low 32): a claim names its job, so a helper that woke
    /// for an earlier one cannot take a member of this one.
    claims: AtomicU64,
    /// Members of the live job that have finished. Each thread adds its
    /// count `AcqRel` after its members' writes; the caller's `Acquire` load
    /// that reads the full count sees all of them.
    finished: AtomicUsize,
    /// The first panic a helper caught in the live job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

static TEAM: Team = Team {
    busy: AtomicBool::new(false),
    epoch: AtomicU32::new(0),
    live: Mutex::new(None),
    claims: AtomicU64::new(0),
    finished: AtomicUsize::new(0),
    panic: Mutex::new(None),
};

/// The helper threads, started on first use; none on a one-core host. A
/// failed spawn leaves the team at the helpers it has. Helpers live as long
/// as the process and are never joined: a member's panic is caught and
/// handed to its caller, and nothing else in a helper's loop can panic.
fn helpers() -> &'static [Thread] {
    static HELPERS: OnceLock<Vec<Thread>> = OnceLock::new();
    HELPERS.get_or_init(|| {
        (1..cores())
            .map_while(|i| {
                thread::Builder::new()
                    .name(format!("mq-team-{i}"))
                    .spawn(helper)
                    .ok()
                    .map(|handle| handle.thread().clone())
            })
            .collect()
    })
}

/// A lock that a member's panic does not poison for the next job. Every
/// update under the team's locks is one assignment, so a guard recovered
/// from a panic still holds valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims the next unclaimed member of job `epoch`, while that job is live
/// and has one.
fn claim(epoch: u32, members: usize) -> Option<usize> {
    let mut word = TEAM.claims.load(Ordering::Acquire);
    loop {
        let claimed = (word & u64::from(u32::MAX)) as usize;
        if (word >> 32) as u32 != epoch || claimed >= members {
            return None;
        }
        match TEAM
            .claims
            .compare_exchange_weak(word, word + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => return Some(claimed),
            Err(now) => word = now,
        }
    }
}

/// Runs members of `live` until none is left to claim; the first panic is
/// handed to `caught`. Returns how many members this thread ran.
fn work(live: &Live, caught: &mut Option<Box<dyn Any + Send>>) -> usize {
    let mut ran = 0;
    while let Some(w) = claim(live.epoch, live.members) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (live.job)(w))) {
            caught.get_or_insert(payload);
        }
        ran += 1;
    }
    ran
}

/// Waits until `done`: for up to [`SPIN`] by spinning, then parked. A
/// wake-up is never lost: an `unpark` that comes before the `park` makes the
/// `park` return at once. A spinning helper yields at every turn: alone on
/// its core that costs a system call, but on a core it shares with the
/// caller (where the scheduler may start a new helper, and leave it for a
/// while) it hands the core over at once instead of holding it for the
/// whole spin. The caller spins without yielding: it waits only for members
/// that are already running.
fn wait_until(done: impl Fn() -> bool, yielding: bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !done() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && start.elapsed() >= SPIN {
            while !done() {
                thread::park();
            }
            return;
        }
        if yielding {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `job` for members `0..members` and returns when all are done.
fn dispatch(members: usize, job: &(dyn Fn(usize) + Sync)) {
    let helpers = helpers();
    if helpers.is_empty() {
        return (0..members).for_each(job);
    }
    if TEAM.busy.swap(true, Ordering::Acquire) {
        return scoped(members, job);
    }
    // SAFETY: only the lifetime changes. A helper calls the erased
    // reference only for a member it claimed, and a claim names this job's
    // epoch; this function neither returns nor unwinds before every member
    // has finished — members run under `catch_unwind`, and nothing else
    // between here and the wait can panic.
    let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
    let epoch = TEAM.epoch.load(Ordering::Relaxed).wrapping_add(1);
    let live = Live {
        job: erased,
        epoch,
        members,
        caller: thread::current(),
    };
    TEAM.finished.store(0, Ordering::Relaxed);
    TEAM.claims.store(u64::from(epoch) << 32, Ordering::Release);
    *lock(&TEAM.live) = Some(live.clone());
    TEAM.epoch.store(epoch, Ordering::Release);
    for helper in helpers.iter().take(members - 1) {
        helper.unpark();
    }
    let mut caught = None;
    let ran = work(&live, &mut caught);
    TEAM.finished.fetch_add(ran, Ordering::AcqRel);
    wait_until(|| TEAM.finished.load(Ordering::Acquire) == members, false);
    *lock(&TEAM.live) = None;
    let theirs = lock(&TEAM.panic).take();
    TEAM.busy.store(false, Ordering::Release);
    if let Some(payload) = caught.or(theirs) {
        panic::resume_unwind(payload);
    }
}

/// A helper's life: wait for a job, run what members of it are left,
/// count them finished.
fn helper() {
    let mut seen = 0;
    loop {
        wait_until(|| TEAM.epoch.load(Ordering::Acquire) != seen, true);
        seen = TEAM.epoch.load(Ordering::Acquire);
        let Some(live) = lock(&TEAM.live).clone() else {
            continue;
        };
        let mut caught = None;
        let ran = work(&live, &mut caught);
        if let Some(payload) = caught {
            lock(&TEAM.panic).get_or_insert(payload);
        }
        // Nothing of the job is touched past this point: the caller may
        // return as soon as the count is complete.
        if ran > 0 && TEAM.finished.fetch_add(ran, Ordering::AcqRel) + ran == live.members {
            live.caller.unpark();
        }
    }
}

/// The busy team's stand-in: one scoped thread per member but the first,
/// which runs on the caller's thread.
fn scoped(members: usize, job: &(dyn Fn(usize) + Sync)) {
    let caught = Mutex::new(None);
    let member = |w| {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(w))) {
            lock(&caught).get_or_insert(payload);
        }
    };
    thread::scope(|s| {
        for w in 1..members {
            s.spawn(move || member(w));
        }
        member(0);
    });
    if let Some(payload) = caught.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_member_runs_exactly_once_and_results_come_back_in_order() {
        assert_eq!(helpers().len(), cores() - 1, "one helper per extra core");
        for k in [0usize, 1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
            let out = run((0..k).map(|p| 10 * p).collect(), |w, piece| {
                runs[w].fetch_add(1, Ordering::Relaxed);
                (w, piece)
            });
            let want: Vec<(usize, usize)> = (0..k).map(|w| (w, 10 * w)).collect();
            assert_eq!(out, want, "k={k}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "k={k}");
        }
    }

    #[test]
    fn a_split_buffer_is_written_once_per_element() {
        let mut v = vec![0u32; 1000];
        let per = 1000usize.div_ceil(3);
        run(v.chunks_mut(per).collect(), |w, piece| {
            for (k, x) in piece.iter_mut().enumerate() {
                *x += (w * per + k) as u32;
            }
        });
        assert!(v.iter().enumerate().all(|(i, x)| *x == i as u32));
    }

    #[test]
    fn two_callers_at_once_both_finish_correctly() {
        // Member 0 of each call waits at the barrier until member 0 of the
        // other call arrives, so neither call returns before both are
        // running: one has the team, the other takes the scoped threads.
        let barrier = std::sync::Barrier::new(2);
        let caller = |salt: usize| {
            let barrier = &barrier;
            move || {
                for round in 0..20 {
                    let k = 2 + round % 3;
                    let out = run((0..k).collect(), |w, p: usize| {
                        if w == 0 {
                            barrier.wait();
                        }
                        w * salt + p
                    });
                    let want: Vec<usize> = (0..k).map(|w| w * salt + w).collect();
                    assert_eq!(out, want, "salt {salt} round {round}");
                }
            }
        };
        thread::scope(|s| {
            s.spawn(caller(3));
            s.spawn(caller(7));
        });
    }

    #[test]
    fn a_job_that_calls_the_team_finishes() {
        let out = run(vec![1usize, 2], |_, scale| {
            run(vec![1usize, 2, 3], |w, x| x * w * scale)
                .iter()
                .sum::<usize>()
        });
        assert_eq!(out, [8, 16]);
    }

    #[test]
    fn a_panicking_member_panics_the_caller_with_its_payload() {
        for bad in [0usize, 1, 2] {
            let caught = panic::catch_unwind(|| {
                run(vec![(); 3], |w, ()| {
                    if w == bad {
                        panic!("member {w} gave up");
                    }
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*msg, format!("member {bad} gave up"));
            // The team serves the next call as before.
            assert_eq!(run(vec![1, 2, 3], |w, x| w + x), [1, 3, 5]);
        }
    }

    #[test]
    fn ten_thousand_tiny_jobs_finish() {
        // A lost wake-up hangs here instead of passing.
        let total = AtomicUsize::new(0);
        for _ in 0..10_000 {
            run(vec![1usize; 2], |_, x| {
                total.fetch_add(x, Ordering::Relaxed)
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 20_000);
    }
}
