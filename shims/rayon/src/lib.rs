//! Offline stand-in for `rayon` (see `shims/README.md`).
//!
//! `into_par_iter()` collects the items and hands back a small parallel
//! iterator with the three adapters the workspace uses — `enumerate`,
//! `map`, `collect` — all order-preserving. `collect` runs the mapped
//! closure on scoped threads that pull item indices from one atomic
//! counter, and puts the results back in item order, so the output is
//! bit-identical to the sequential `iter().map().collect()` whatever the
//! thread count or schedule.
//!
//! The thread count is `std::thread::available_parallelism()` (which
//! honours the calling thread's CPU affinity: a caller pinned to one CPU
//! runs sequentially, on its own thread, with no spawn at all), unless the
//! call runs inside [`ThreadPool::install`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread count of the pool this thread is `install`ed in, if any.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn current_num_threads() -> usize {
    INSTALLED
        .get()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;

    fn into_par_iter(self) -> Self::Iter;
}

impl<I: IntoIterator> IntoParallelIterator for I
where
    I::Item: Send,
{
    type Item = I::Item;
    type Iter = ParIter<I::Item>;

    fn into_par_iter(self) -> Self::Iter {
        ParIter { items: self.into_iter().collect() }
    }
}

/// The items of a parallel iteration, in order.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Apply `f` to every item, in parallel once collected.
    pub fn map<R, F>(self, f: F) -> Map<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        Map { items: self.items, f }
    }
}

/// A mapped parallel iteration; nothing runs until [`Map::collect`].
pub struct Map<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> Map<T, F> {
    /// Run the closure over every item and collect the results in item
    /// order. A panic in the closure is re-raised on the calling thread
    /// once every worker has stopped.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
        C: FromIterator<R>,
    {
        run(self.items, &self.f, current_num_threads()).into_iter().collect()
    }
}

fn run<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync), threads: usize) -> Vec<R> {
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Relaxed: the counter hands out indices and publishes nothing else
    // (the slots were filled before any worker was spawned).
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return done };
            // A poisoned slot still holds its item: the lock guards no
            // invariant beyond the `Option` itself.
            let item = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            done.push((i, f(item.expect("each index is handed out once"))));
        }
    };
    let mut done = std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        // The calling thread is worker 0; join the others even if it
        // panics (the scope does), and re-raise a worker's own panic.
        let mut done = work();
        for w in workers {
            done.extend(w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    debug_assert_eq!(done.len(), n, "every index was mapped once");
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Builder for a [`ThreadPool`] (mirrors `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

/// Error building a pool; this stand-in never produces one.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads of the pool; 0 (the default) means one per available CPU.
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { threads: self.threads })
    }
}

/// A fixed thread count for the parallel iterators run inside
/// [`ThreadPool::install`]. Threads are scoped to each `collect`; the pool
/// itself holds none.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count in force on the calling
    /// thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED.replace((self.threads > 0).then_some(self.threads)));
        op()
    }
}

/// Commonly imported names (mirrors `rayon::prelude`).
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn order_preserving_map_collect() {
        let v: Vec<usize> =
            (0..100).collect::<Vec<_>>().into_par_iter().enumerate().map(|(i, x)| i + x).collect();
        assert_eq!(v, (0..100).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn every_thread_count_gives_the_sequential_result() {
        let expect: Vec<String> = (0..57u32).map(|x| format!("{}", x * x)).collect();
        for threads in [1, 2, 3, 8, 64, 100] {
            let items: Vec<u32> = (0..57).collect();
            assert_eq!(run(items, &|x: u32| format!("{}", x * x), threads), expect, "{threads}");
        }
        assert!(run(Vec::<u32>::new(), &|x: u32| x, 4).is_empty());
    }

    #[test]
    fn workers_really_run_on_other_threads() {
        // A rendezvous only two distinct threads can complete: each of the
        // two items waits for the other to have started.
        let barrier = std::sync::Barrier::new(2);
        let ids = run(
            vec![0, 1],
            &|_| {
                barrier.wait();
                std::thread::current().id()
            },
            2,
        );
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn install_sets_and_restores_the_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(current_num_threads(), outside);
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let main = std::thread::current().id();
        let ids: Vec<_> =
            one.install(|| (0..4).into_par_iter().map(|_| std::thread::current().id()).collect());
        assert!(ids.iter().all(|id| *id == main), "one thread means the caller's");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run((0..16).collect(), &|x: u32| assert!(x != 11, "item eleven"), threads)
            });
            let payload = caught.expect_err("the panic propagates");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg.or(payload.downcast_ref::<&str>().copied()), Some("item eleven"));
        }
    }
}
