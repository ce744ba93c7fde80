//! Helpers shared by the integration tests.

/// Runs `f` with exactly `workers` rayon workers for every parallel
/// operation it starts, nested ones included. The count is scoped to `f`
/// on this thread, so tests running beside it keep their own.
pub fn with_workers<R: Send>(workers: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("worker pool")
        .install(|| {
            assert_eq!(rayon::current_num_threads(), workers);
            f()
        })
}
