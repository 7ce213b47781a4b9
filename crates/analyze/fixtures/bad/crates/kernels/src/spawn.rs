//! Fixture: `hot-path-thread-spawn` (2 expected: the scope under a
//! kernel call and the detached helper). The scope inside the test
//! module must not be flagged.

pub fn count_active(status: &[u8]) -> usize {
    let (left, right) = status.split_at(status.len() / 2);
    std::thread::scope(|s| {
        let l = s.spawn(|| left.iter().filter(|&&b| b == 1).count());
        let r = right.iter().filter(|&&b| b == 1).count();
        l.join().unwrap_or(0) + r
    })
}

pub fn prefetch(block: Vec<u8>) {
    std::thread::spawn(move || drop(block));
}

#[cfg(test)]
mod tests {
    #[test]
    fn racing_threads_are_fine_in_tests() {
        std::thread::scope(|s| {
            s.spawn(|| super::count_active(&[1, 0, 1]));
        });
    }
}
