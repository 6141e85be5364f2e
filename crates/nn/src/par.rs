//! The one fan-out of the ML stack (DESIGN.md §16). Each thread has a
//! fan-out width, the machine's available parallelism unless
//! [`with_width`] sets it. Every worker spawned here is *marked* (width
//! 1), so any fan-out requested inside one runs inline: only one level
//! spreads at a time, and the kernels spread only under a serial caller.
//! A worker's panic reaches the caller with its original payload.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Scope, ScopedJoinHandle};

/// Multiply-adds below which [`row_blocks`] runs a kernel on the calling
/// thread: under it, spawning costs more than the split saves. Timed on
/// the serving forward pass, the one serial caller whose kernels spread
/// (DESIGN.md §16).
const WORK_THRESHOLD: usize = 1 << 18;

/// Threads spawned by this module since the process started.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's fan-out width; 0 = unset (the machine's), 1 = marked.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The width a fan-out started on this thread may use. The machine's
/// available parallelism is read once: on Linux every read walks the
/// cgroup files.
fn width() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    match WIDTH.get() {
        0 => *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get())),
        w => w,
    }
}

/// Restores this thread's width when dropped, on return or unwind.
struct Restore(usize);

impl Restore {
    fn set(width: usize) -> Restore {
        Restore(WIDTH.replace(width))
    }
}

impl Drop for Restore {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

/// Runs `f` with this thread's fan-out width set to `width` (0 keeps the
/// current one) and passes it the width in force. A thread at width 1
/// stays at 1, so a marked worker never fans out again. Width 1 runs `f`
/// and everything it calls on this thread.
pub fn with_width<R>(width: usize, f: impl FnOnce(usize) -> R) -> R {
    let current = WIDTH.get();
    let _restore = Restore::set(if width == 0 || current == 1 {
        current
    } else {
        width
    });
    f(self::width())
}

/// How many threads this module has spawned since the process started
/// (for tests that pin the spawn count of a call).
pub fn spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// Spawns `f` on a marked worker of `scope`.
fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    SPAWNED.fetch_add(1, Ordering::Relaxed);
    scope.spawn(|| with_width(1, |_| f()))
}

/// Runs `a` on the calling thread and `b` on a marked worker, and returns
/// both results. At width 1 both run here, `a` first. A panic on either
/// side is re-raised here with its payload once both sides have stopped.
pub fn join<RA, RB: Send>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB) {
    if width() <= 1 {
        let ra = a();
        return (ra, b());
    }
    thread::scope(|scope| {
        let b = spawn(scope, b);
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        match (ra, b.join()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
        }
    })
}

/// Calls `f` on every item, spread over as many threads as this thread's
/// width and the item count allow: the caller and the marked workers take
/// items in order from one queue, the caller marked while it does. With
/// one thread to use, the caller runs every item itself, unmarked. The
/// first panic, the caller's before any worker's, is re-raised here with
/// its payload once every participant has stopped.
pub fn for_each<I>(items: I, f: impl Fn(I::Item) + Sync)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
{
    let items = items.into_iter();
    let n = width().min(items.len());
    if n <= 1 {
        items.for_each(f);
        return;
    }
    let queue = Mutex::new(items);
    let work = || loop {
        let item = queue
            .lock()
            .expect("the queue lock is never held across a panic")
            .next();
        match item {
            Some(item) => f(item),
            None => return,
        }
    };
    thread::scope(|scope| {
        let workers: Vec<_> = (1..n).map(|_| spawn(scope, work)).collect();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| with_width(1, |_| work())));
        // A payload re-raised before every worker is joined still waits
        // for them: the scope joins the rest before it unwinds.
        let theirs = workers.into_iter().map(ScopedJoinHandle::join);
        for result in std::iter::once(mine).chain(theirs) {
            if let Err(payload) = result {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs `f(first_row, block)` over contiguous row blocks of the row-major
/// `out`, `cols` wide, for a kernel doing `work` multiply-adds: one block
/// per thread of this thread's width, or all of `out` on the caller when
/// the work is below the threshold. Each output row is owned by exactly
/// one call, so a kernel whose per-element order does not depend on the
/// block gives the same bits at any width.
pub fn row_blocks(out: &mut [f32], cols: usize, work: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let n = if work < WORK_THRESHOLD {
        1
    } else {
        width().min(rows)
    };
    if n <= 1 {
        f(0, out);
        return;
    }
    let per = rows.div_ceil(n);
    for_each(out.chunks_mut(per * cols).enumerate(), |(i, block)| {
        f(i * per, block)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// Sends on its channel when dropped, as the unwinding side passes it.
    struct Signal(mpsc::Sender<()>);

    impl Drop for Signal {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    fn payload_of(result: thread::Result<impl Sized>) -> String {
        match result {
            Ok(_) => panic!("the fan-out did not panic"),
            Err(payload) => *payload.downcast::<String>().expect("a String payload"),
        }
    }

    #[test]
    fn width_one_runs_inline_and_marked_workers_stay_inline() {
        let here = thread::current().id();
        with_width(1, |w| {
            assert_eq!(w, 1);
            let (a, b) = join(|| thread::current().id(), || thread::current().id());
            assert_eq!((a, b), (here, here));
            // A marked thread cannot be widened again.
            with_width(4, |w| assert_eq!(w, 1));
        });
        with_width(2, |w| {
            assert_eq!(w, 2);
            let (_, (inner, id)) = join(|| (), || with_width(4, |w| (w, thread::current().id())));
            assert_eq!(inner, 1, "a spawned worker is marked");
            assert_ne!(id, here);
        });
    }

    #[test]
    fn for_each_visits_every_item_once_at_any_width() {
        for width in [1, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
            with_width(width, |_| {
                for_each(0..7usize, |i| {
                    assert_eq!(self::width(), 1, "items run marked");
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "width {width}"
            );
        }
    }

    #[test]
    fn a_panic_on_either_side_of_join_keeps_its_payload() {
        // The caller's side panics while the worker is still running; the
        // worker finishes only after the caller has started to unwind.
        let done = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let done = &done;
            with_width(2, |_| {
                join(
                    move || {
                        let _signal = Signal(tx);
                        panic!("{}", String::from("caller side"));
                    },
                    move || {
                        rx.recv().expect("the caller unwinds");
                        done.store(true, Ordering::SeqCst);
                    },
                )
            })
        }));
        assert_eq!(payload_of(result), "caller side");
        assert!(done.load(Ordering::SeqCst), "the worker finished first");

        // The worker panics; the caller's side still runs to its end.
        let done = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            with_width(2, |_| {
                join(
                    || {
                        rx.recv().expect("the worker unwinds");
                        done.store(true, Ordering::SeqCst);
                    },
                    move || {
                        let _signal = Signal(tx);
                        panic!("{}", String::from("worker side"));
                    },
                )
            })
        }));
        assert_eq!(payload_of(result), "worker side");
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn a_panicking_item_keeps_its_payload_and_the_rest_still_run() {
        for bad in 0..4 {
            let hits: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
            let (tx, rx) = mpsc::channel();
            let tx = Mutex::new(tx);
            let rx = Mutex::new(rx);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                with_width(2, |_| {
                    for_each(0..4usize, |i| {
                        if i == bad {
                            let _signal = Signal(tx.lock().expect("sender").clone());
                            panic!("{}", format!("item {i}"));
                        }
                        if i == (bad + 1) % 4 {
                            // Runs on, whichever thread took it, until
                            // the bad item has started to unwind.
                            rx.lock()
                                .expect("receiver")
                                .recv()
                                .expect("bad item unwinds");
                        }
                        hits[i].store(true, Ordering::SeqCst);
                    })
                })
            }));
            assert_eq!(payload_of(result), format!("item {bad}"));
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::SeqCst), i != bad, "bad {bad}, item {i}");
            }
        }
    }

    #[test]
    fn row_blocks_own_every_row_once() {
        let cols = 3;
        for (rows, work) in [(0, usize::MAX), (1, usize::MAX), (7, usize::MAX), (7, 0)] {
            let mut out = vec![0.0f32; rows * cols];
            with_width(3, |_| {
                row_blocks(&mut out, cols, work, |first, block| {
                    for (r, row) in block.chunks_mut(cols).enumerate() {
                        row.fill((first + r) as f32 + 1.0);
                    }
                })
            });
            let want: Vec<f32> = (0..rows).flat_map(|r| [r as f32 + 1.0; 3]).collect();
            assert_eq!(out, want, "{rows} rows");
        }
    }
}
