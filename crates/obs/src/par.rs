//! The one parallel executor: work-stealing produce, in-order consume,
//! bounded window.
//!
//! Every parallel axis of the suite (residence-days, long-tail days,
//! subscriber shards, provider subscriber-days, ISP sweeps, crawled sites)
//! runs on [`ordered`] or its collect-all wrapper [`fan_out`]. Up to
//! `threads` scoped workers claim task indices from one shared cursor and
//! run `produce`, so a worker that drew cheap tasks keeps pulling. The
//! calling thread runs `consume` on each result strictly in task order, so
//! whatever it feeds sees one sequence at any thread count and need not be
//! `Send`. A worker claims task `i` only once task `i - window` has been
//! consumed, so at most `window` results are alive at once: no barrier, and
//! peak memory of a few task buffers rather than the run.
//!
//! Determinism is the caller's contract: `produce` must derive all
//! randomness from its task. Workers adopt the caller's span path, so spans
//! opened in `produce` nest as they do inline and span paths are the same
//! at any layout. At `threads <= 1` everything runs inline and nothing is
//! spawned. A panic in `produce` re-raises on the caller when its task's
//! turn comes; a panic in `consume` also stops the workers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};

/// The default worker count of every parallel pass: the host's available
/// parallelism, capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Run `produce` over `tasks` on up to `threads` workers and hand each
/// result to `consume` on the calling thread, in task order. At most
/// `2 × threads` results are in flight.
pub fn ordered<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    produce: impl Fn(usize, T) -> R + Sync,
    consume: impl FnMut(usize, R),
) {
    pipeline(tasks, threads, 2 * threads.max(1), produce, consume);
}

/// Run `f` over `items` on up to `threads` workers and collect the results
/// in input order: [`ordered`] with an unbounded window.
pub fn fan_out<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    let window = items.len().max(1);
    pipeline(items, threads, window, f, |_, r| out.push(r));
    out
}

fn pipeline<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    window: usize,
    produce: impl Fn(usize, T) -> R + Sync,
    mut consume: impl FnMut(usize, R),
) {
    let n = tasks.len();
    let workers = threads.min(n);
    if workers <= 1 {
        for (i, task) in tasks.into_iter().enumerate() {
            consume(i, produce(i, task));
        }
        return;
    }
    // The window is a pool of credits: a worker takes one before it claims
    // the next task, and the consumer returns one per consumed result.
    let (credit_tx, credits) = mpsc::sync_channel(window);
    for _ in 0..window {
        let _ = credit_tx.send(());
    }
    let queue = Mutex::new((credits, tasks.into_iter().enumerate()));
    let (result_tx, results) = mpsc::channel();
    let parent = crate::current_span_path();
    let (queue, produce, parent) = (&queue, &produce, &parent);
    std::thread::scope(|scope| {
        // Owned by this closure, so an unwinding consumer drops it and
        // every worker waiting for a credit stops.
        let credit_tx = credit_tx;
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                let _path = crate::enter_path(parent);
                loop {
                    // Neither `recv` nor `next` can panic, so a poisoned
                    // lock still holds consistent state.
                    let claimed = {
                        let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                        q.0.recv().ok().and_then(|()| q.1.next())
                    };
                    let Some((i, task)) = claimed else { break };
                    // A panic travels to the consumer, which re-raises it
                    // when the task's turn comes.
                    let result = catch_unwind(AssertUnwindSafe(|| produce(i, task)));
                    if result_tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);
        // Results that finished ahead of their turn: at most `window`.
        let mut early = BTreeMap::new();
        for i in 0..n {
            let result = loop {
                if let Some(r) = early.remove(&i) {
                    break r;
                }
                let Ok((j, r)) = results.recv() else {
                    unreachable!("every claimed task reports a result");
                };
                early.insert(j, r);
            };
            match result {
                Ok(r) => consume(i, r),
                Err(payload) => resume_unwind(payload),
            }
            let _ = credit_tx.send(());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `ordered`'s consume sequence at one layout, over skewed task costs
    /// so workers finish out of order.
    fn consumed_at(threads: usize, n: usize) -> Vec<(usize, u64)> {
        let mut seen = Vec::new();
        ordered(
            (0..n as u64).collect(),
            threads,
            |i, x| {
                if i % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(300));
                }
                x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64
            },
            |i, r| seen.push((i, r)),
        );
        seen
    }

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 7, 64] {
            let out = fan_out((0..50).collect(), threads, |i, x: i32| (i, x * 2));
            assert_eq!(out.len(), 50);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*doubled, i as i32 * 2);
            }
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        let out: Vec<u32> = fan_out(Vec::<u32>::new(), 8, |_, x| x);
        assert!(out.is_empty());
        let out = fan_out(vec![42], 8, |i, x: u32| x + i as u32);
        assert_eq!(out, vec![42]);
        let mut calls = 0;
        ordered(Vec::<u32>::new(), 8, |_, x| x, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(consumed_at(64, 3), consumed_at(1, 3));
    }

    #[test]
    fn identical_at_any_thread_count() {
        let work = |i: usize, seed: u64| -> u64 {
            // All "randomness" derives from the index — the contract.
            let mut h = seed.wrapping_add(i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            h ^= h >> 31;
            h
        };
        let items: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let seq = fan_out(items.clone(), 1, work);
        for threads in [2, 5, 16] {
            assert_eq!(fan_out(items.clone(), threads, work), seq);
        }
    }

    #[test]
    fn uneven_task_costs_still_order_correctly() {
        // Heavily skewed costs exercise actual stealing: worker 0's static
        // share would be the slow half. Output must stay input-ordered.
        let out = fan_out((0..40).collect(), 4, |i, x: u64| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..40).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            fan_out((0..8).collect(), 3, |i, _x: u32| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn ordered_consumes_in_task_order_at_any_thread_count() {
        let seq = consumed_at(1, 200);
        assert_eq!(
            seq.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
        for threads in [2, 3, 7, 64] {
            assert_eq!(consumed_at(threads, 200), seq, "threads={threads}");
        }
    }

    #[test]
    fn ordered_fills_but_never_exceeds_its_window() {
        for threads in [1, 2, 3, 7] {
            // Inline, one result exists at a time.
            let window = if threads == 1 { 1 } else { 2 * threads };
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            ordered(
                (0..120).collect(),
                threads,
                |_, x: u32| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    x
                },
                |i, _| {
                    // Hold the first result until the workers have run
                    // ahead as far as the window lets them.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while i == 0 && live.load(Ordering::SeqCst) < window {
                        assert!(std::time::Instant::now() < deadline, "window never filled");
                        std::thread::yield_now();
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                },
            );
            assert_eq!(peak.load(Ordering::SeqCst), window, "threads={threads}");
            assert_eq!(live.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn ordered_propagates_produce_and_consume_panics() {
        for threads in [1, 3] {
            let produce_panic = std::panic::catch_unwind(|| {
                ordered(
                    (0..50).collect(),
                    threads,
                    |i, x: u32| {
                        assert!(i != 17, "produce boom");
                        x
                    },
                    |_, _| {},
                )
            });
            assert!(produce_panic.is_err(), "produce panic lost at {threads}");
            let consume_panic = std::panic::catch_unwind(|| {
                ordered(
                    (0..50).collect(),
                    threads,
                    |_, x: u32| x,
                    |i, _| assert!(i != 9, "consume boom"),
                )
            });
            assert!(consume_panic.is_err(), "consume panic lost at {threads}");
        }
    }
}
