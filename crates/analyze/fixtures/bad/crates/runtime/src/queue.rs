//! Fixture: `unbounded-collection` (1 expected; no identifier in this
//! file mentions a bound).

use std::collections::VecDeque;

pub fn backlog() -> VecDeque<u64> {
    VecDeque::new()
}
