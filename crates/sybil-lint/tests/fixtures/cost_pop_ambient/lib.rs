//! A hot-path root pops a `Vec`. `.pop()` is a std method, so it must
//! not link by name to the unrelated `Queue::pop`, which allocates; the
//! path-qualified `Queue::pop(&mut q)` in `drain` still resolves to it.

#![forbid(unsafe_code)]

pub struct Queue {
    pub items: Vec<u32>,
}

impl Queue {
    pub fn pop(&mut self) -> Option<u32> {
        let spare: Vec<u32> = Vec::new();
        self.items.first().or(spare.first()).copied()
    }
}

pub fn serve(mut stack: Vec<u32>, events: u32) -> u32 {
    let mut acc = 0;
    for _ in 0..events {
        acc += stack.pop().unwrap_or(0);
    }
    acc
}

pub fn drain(mut q: Queue, events: u32) -> u32 {
    let mut acc = 0;
    for _ in 0..events {
        acc += Queue::pop(&mut q).unwrap_or(0);
    }
    acc
}
