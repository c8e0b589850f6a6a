//! BAD: the depth helper the hot loop calls recurses (S117), reachable
//! from the root `serve`. The loop's `.lock()` is no S-rule's: the Mutex
//! it needs is D003's wherever it is declared.

#![forbid(unsafe_code)]

use std::sync::Mutex;

pub fn serve(q: &Mutex<Vec<u32>>, events: u32) -> u32 {
    let mut acc = 0;
    for e in 0..events {
        if let Ok(g) = q.lock() {
            acc += g.first().copied().unwrap_or(0);
        }
        acc += depth(e);
    }
    acc
}

fn depth(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        1 + depth(n - 1)
    }
}
