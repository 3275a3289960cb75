//! Lint self-test fixture: must trip the `thread-spawn` rule.

pub fn fan_out(jobs: usize) -> usize {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs) {
            s.spawn(|| ());
        }
    });
    std::thread::spawn(|| ()).join().is_ok() as usize
}
