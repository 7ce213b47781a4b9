//! Clean fixture: terminal `JobStatus::Shed`s the conservation pass
//! must accept. One is constructed in a helper and accounted by its
//! caller; one is passed directly to `settle`, a callee that books
//! whatever status it is handed.

pub enum JobStatus {
    Queued,
    Running,
    Shed,
}

pub struct Outcome {
    pub status: JobStatus,
}

pub struct Stats {
    pub shed: Counter,
}

impl Stats {
    pub fn shed_overflow(&self, depth: usize, limit: usize) -> Option<Outcome> {
        if depth >= limit {
            self.shed.inc();
            return Some(shed_outcome());
        }
        None
    }

    pub fn evict(&self, depth: usize, limit: usize) -> Option<Outcome> {
        if depth >= limit {
            return Some(self.settle(JobStatus::Shed));
        }
        None
    }

    fn settle(&self, status: JobStatus) -> Outcome {
        match status {
            JobStatus::Shed => self.shed.inc(),
            JobStatus::Queued | JobStatus::Running => {}
        }
        Outcome { status }
    }
}

fn shed_outcome() -> Outcome {
    Outcome { status: JobStatus::Shed }
}
