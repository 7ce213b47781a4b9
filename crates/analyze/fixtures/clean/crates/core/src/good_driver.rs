//! Clean fixture: both entry points reach the one super-step loop,
//! whose drain polls its probe in the condition — once per iteration,
//! like the body would — and whose rescue spin polls on every retry.

pub fn run(opts: &EngineOptions) {
    drive(opts, 1);
}

pub fn run_sharded(opts: &EngineOptions, lanes: usize) {
    drive(opts, lanes);
}

fn drive(opts: &EngineOptions, lanes: usize) {
    let mut iteration = 0;
    while opts.probe.check(iteration).is_none() {
        for _ in 0..lanes {
            classify_rescuing(opts, iteration);
        }
        iteration += 1;
    }
}

fn classify_rescuing(opts: &EngineOptions, iteration: u32) {
    loop {
        if classified() || opts.probe.check(iteration).is_some() {
            return;
        }
    }
}

fn classified() -> bool {
    true
}
