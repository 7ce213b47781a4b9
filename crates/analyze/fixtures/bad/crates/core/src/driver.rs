//! Fixture: `unpolled-hot-loop` (3 expected). The entry point `run`
//! reaches no polled loop at all (rule 1 fires on the root): the one
//! super-step loop in `drive` drains with a `while` that never polls,
//! and the rescue spin two calls down in `classify_rescuing` never
//! polls either (rule 2 fires on each).

pub struct Step;

pub fn run(steps: &[Step]) {
    drive(steps);
}

fn drive(steps: &[Step]) {
    let mut pos = 0;
    while pos < steps.len() {
        inspect(steps, pos);
        pos += 1;
    }
}

fn inspect(steps: &[Step], pos: usize) {
    classify_rescuing(steps.len() - pos);
}

fn classify_rescuing(mut budget: usize) {
    loop {
        if budget == 0 {
            break;
        }
        budget -= 1;
    }
}
