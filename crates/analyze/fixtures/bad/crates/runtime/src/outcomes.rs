//! Fixture: `unaccounted-terminal-status` (2 expected).
//! `shed_overflow` fabricates a terminal `JobStatus::Shed`, but
//! neither it nor any caller increments a shed counter — the job
//! vanishes from the books. `evict` hands its `Shed` directly to
//! `finish`, a callee that counts nothing, so handing it over books
//! nothing either.

pub enum JobStatus {
    Queued,
    Running,
    Shed,
}

pub struct Outcome {
    pub status: JobStatus,
}

pub fn shed_overflow(depth: usize, limit: usize) -> Option<Outcome> {
    if depth >= limit {
        return Some(Outcome { status: JobStatus::Shed });
    }
    None
}

pub fn evict(depth: usize, limit: usize) -> Option<Outcome> {
    if depth >= limit {
        return Some(finish(JobStatus::Shed));
    }
    None
}

fn finish(status: JobStatus) -> Outcome {
    Outcome { status }
}
