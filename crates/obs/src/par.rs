//! The one parallel executor: work-stealing produce, in-order consume,
//! bounded window, bounded per-task queues.
//!
//! Every parallel axis of the suite (residence-days, long-tail days,
//! subscriber shards, provider subscriber-days, ISP sweeps, crawled sites)
//! runs on [`stream`] or its one-result-per-task wrappers [`ordered`] and
//! [`fan_out`]. Up to `threads` scoped workers claim task indices from one
//! shared cursor and run `produce`, so a worker that drew cheap tasks keeps
//! pulling. `produce` hands its output to an emitter, in as many chunks as
//! it likes; the calling thread runs `consume` on every chunk strictly in
//! task order, then emission order, so whatever it feeds sees one sequence
//! at any thread count and need not be `Send`. The consumer drains task
//! `i` until it is done, then moves to task `i + 1`.
//!
//! Memory is bounded twice. A worker claims task `i` only once task
//! `i - window` has been consumed, so at most `window` tasks are in
//! flight; and each in-flight task may queue at most [`QUEUE_DEPTH`]
//! chunks ahead of the consumer, its producer blocking on the next. So at
//! most `window × (QUEUE_DEPTH + 1)` chunks are alive at once, with
//! `window = 2 × threads` for [`stream`] and [`ordered`]: no barrier, and
//! peak memory of a few chunks rather than the run.
//!
//! Determinism is the caller's contract: `produce` must derive all
//! randomness from its task. Workers adopt the caller's span path, so spans
//! opened in `produce` nest as they do inline and span paths are the same
//! at any layout. At `threads <= 1` everything runs inline and nothing is
//! spawned: the emitter calls `consume` directly, so nothing is queued. A
//! panic in `produce` re-raises on the caller when its task's turn comes,
//! after the chunks it emitted first; a panic in `consume` also stops the
//! workers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};

/// Chunks one in-flight task may queue ahead of the consumer before its
/// producer blocks on the next emit.
pub const QUEUE_DEPTH: usize = 2;

/// The default worker count of every parallel pass: the host's available
/// parallelism, capped at 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Run `produce` over `tasks` on up to `threads` workers; each call hands
/// its output to the emitter in chunks, and `consume` sees every chunk on
/// the calling thread, in task order, then emission order. At most
/// `2 × threads` tasks are in flight and `2 × threads × (QUEUE_DEPTH + 1)`
/// chunks alive.
pub fn stream<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    produce: impl Fn(usize, T, &mut dyn FnMut(R)) + Sync,
    consume: impl FnMut(usize, R),
) {
    pipeline(tasks, threads, 2 * threads.max(1), produce, consume);
}

/// Run `produce` over `tasks` on up to `threads` workers and hand each
/// result to `consume` on the calling thread, in task order: [`stream`]
/// with one chunk per task. At most `2 × threads` results are in flight.
pub fn ordered<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    produce: impl Fn(usize, T) -> R + Sync,
    consume: impl FnMut(usize, R),
) {
    stream(
        tasks,
        threads,
        |i, task, emit| emit(produce(i, task)),
        consume,
    );
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
    pipeline(
        items,
        threads,
        window,
        |i, item, emit| emit(f(i, item)),
        |_, r| out.push(r),
    );
    out
}

fn pipeline<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    window: usize,
    produce: impl Fn(usize, T, &mut dyn FnMut(R)) + Sync,
    mut consume: impl FnMut(usize, R),
) {
    let n = tasks.len();
    let workers = threads.min(n);
    if workers <= 1 {
        for (i, task) in tasks.into_iter().enumerate() {
            produce(i, task, &mut |r| consume(i, r));
        }
        return;
    }
    // The window is a pool of credits: a worker takes one before it claims
    // the next task, and the consumer returns one per finished task.
    let (credit_tx, credits) = mpsc::sync_channel(window);
    for _ in 0..window {
        let _ = credit_tx.send(());
    }
    let queue = Mutex::new((credits, tasks.into_iter().enumerate()));
    // Each claimed task's queue, announced in claim order, which is task
    // order: the consumer takes them one by one. A queue carries chunks,
    // then the panic that ended the task, if one did.
    let (announce_tx, announced) = mpsc::channel::<mpsc::Receiver<std::thread::Result<R>>>();
    let parent = crate::current_span_path();
    let (queue, produce, parent) = (&queue, &produce, &parent);
    std::thread::scope(|scope| {
        // Owned by this closure, so an unwinding consumer drops them: every
        // worker waiting for a credit, announcing a task or emitting into a
        // queue then stops.
        let (credit_tx, announced) = (credit_tx, announced);
        for _ in 0..workers {
            let announce_tx = announce_tx.clone();
            scope.spawn(move || {
                let _path = crate::enter_path(parent);
                loop {
                    // Neither `recv`, `next` nor `send` can panic, so a
                    // poisoned lock still holds consistent state.
                    let claimed = {
                        let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                        q.0.recv()
                            .ok()
                            .and_then(|()| q.1.next())
                            .and_then(|(i, task)| {
                                let (chunks, rx) = mpsc::sync_channel(QUEUE_DEPTH);
                                announce_tx.send(rx).ok().map(|()| (i, task, chunks))
                            })
                    };
                    let Some((i, task, chunks)) = claimed else {
                        break;
                    };
                    // A consumer that is gone drops what is emitted; the
                    // next claim then stops this worker.
                    let mut emit = |r| {
                        let _ = chunks.send(Ok(r));
                    };
                    // A panic travels behind the task's earlier chunks and
                    // re-raises on the consumer when it arrives.
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| produce(i, task, &mut emit)))
                    {
                        let _ = chunks.send(Err(payload));
                    }
                }
            });
        }
        drop(announce_tx);
        for i in 0..n {
            let Ok(chunks) = announced.recv() else {
                unreachable!("every task is claimed and announced");
            };
            // Ends when the task's worker drops its sender.
            for chunk in chunks {
                match chunk {
                    Ok(r) => consume(i, r),
                    Err(payload) => resume_unwind(payload),
                }
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

    /// `stream`'s consume sequence at one layout: task `i` emits
    /// `(i * 7) % 5` chunks (none for some), and every third task is slow,
    /// so workers finish out of order.
    fn streamed_at(threads: usize, n: usize) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        stream(
            (0..n).collect(),
            threads,
            |i, task: usize, emit| {
                for k in 0..(task * 7) % 5 {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    emit((i, k));
                }
            },
            |i, (task, k)| {
                assert_eq!(i, task, "chunk handed to the wrong task");
                seen.push((task, k));
            },
        );
        seen
    }

    #[test]
    fn stream_delivers_in_task_then_emission_order() {
        let expect: Vec<(usize, usize)> = (0..60)
            .flat_map(|i| (0..(i * 7) % 5).map(move |k| (i, k)))
            .collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(streamed_at(threads, 60), expect, "threads={threads}");
        }
    }

    #[test]
    fn stream_queues_but_never_exceeds_its_bound() {
        for threads in [1, 2, 3, 8] {
            let bound = if threads == 1 {
                1
            } else {
                2 * threads * (QUEUE_DEPTH + 1)
            };
            // Holding task 0's first chunk blocks every worker on a full
            // queue: each holds QUEUE_DEPTH queued chunks and one it is
            // emitting, and the consumer holds one more.
            let held = if threads == 1 {
                1
            } else {
                threads * (QUEUE_DEPTH + 1) + 1
            };
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut first = true;
            stream(
                (0..40).collect(),
                threads,
                |_, task: usize, emit| {
                    for k in 0..4 + task % 7 {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        emit(k);
                    }
                },
                |_, _| {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while first && live.load(Ordering::SeqCst) < held {
                        assert!(std::time::Instant::now() < deadline, "queues never filled");
                        std::thread::yield_now();
                    }
                    first = false;
                    // A slow consumer: the workers run ahead as far as the
                    // window and the queues let them.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    live.fetch_sub(1, Ordering::SeqCst);
                },
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak >= held, "threads={threads}: peak {peak} < {held}");
            assert!(peak <= bound, "threads={threads}: peak {peak} > {bound}");
            assert_eq!(live.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn stream_reraises_a_produce_panic_after_earlier_chunks() {
        for threads in [1, 2, 3] {
            let mut seen = Vec::new();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                stream(
                    (0..20).collect(),
                    threads,
                    |i, task: usize, emit| {
                        for k in 0..3 {
                            emit((task, k));
                        }
                        assert!(i != 11, "produce boom");
                    },
                    |_, chunk| seen.push(chunk),
                )
            }));
            assert!(result.is_err(), "produce panic lost at {threads}");
            let expect: Vec<(usize, usize)> =
                (0..12).flat_map(|i| (0..3).map(move |k| (i, k))).collect();
            assert_eq!(seen, expect, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_consume_stops_the_workers() {
        for threads in [2, 3] {
            let started = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                stream(
                    (0..200).collect(),
                    threads,
                    |_, _task: usize, emit| {
                        started.fetch_add(1, Ordering::SeqCst);
                        for k in 0..10 {
                            emit(k);
                        }
                    },
                    |i, _| {
                        // Slow enough that the workers block on full queues.
                        std::thread::sleep(std::time::Duration::from_micros(100));
                        assert!(i != 3, "consume boom");
                    },
                )
            });
            assert!(result.is_err(), "consume panic lost at {threads}");
            // Tasks 0..3 were finished; at most a window more were claimed
            // before the consumer went away, and no worker ran on.
            let started = started.load(Ordering::SeqCst);
            assert!(
                started <= 3 + 2 * threads,
                "threads={threads}: {started} tasks ran"
            );
        }
    }
}
