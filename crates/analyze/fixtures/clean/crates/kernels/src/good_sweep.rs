//! Clean fixture: the parallel sweep runs as parts on the persistent
//! pool, and only a test creates threads of its own.

pub fn count_active(status: &[u8]) -> usize {
    // Per vertex: one part per 256 vertices, on the caller up to 256.
    let counts = gswitch_pool::ranges(status.len(), 256, |vs| {
        status[vs].iter().filter(|&&b| b == 1).count()
    });
    counts.into_iter().sum()
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
