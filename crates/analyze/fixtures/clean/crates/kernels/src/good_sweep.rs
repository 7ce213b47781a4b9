//! Clean fixture: the parallel sweep runs as parts on the persistent
//! pool, and only a test creates threads of its own.

use rayon::prelude::*;

pub fn count_active(status: &[u8]) -> usize {
    status.par_iter().filter(|&&b| b == 1).count()
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
