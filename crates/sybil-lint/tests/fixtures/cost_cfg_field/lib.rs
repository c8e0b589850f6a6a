//! BAD: the struct's last field and a struct-literal field are
//! test-only, and the `impl` right after the struct allocates per event.
//! A test-only field's span ends with the struct, so the allocation in
//! `bump` is seen.

#![forbid(unsafe_code)]

pub struct Counter {
    total: u32,
    #[cfg(test)]
    probes: u32
}

impl Counter {
    fn bump(&mut self, e: u32) -> u32 {
        let row = vec![e];
        self.total += row.iter().copied().max().unwrap_or(0);
        self.total
    }
}

pub fn serve(events: u32) -> u32 {
    let mut c = Counter { total: 0, #[cfg(test)] probes: 0 };
    let mut acc = 0;
    for e in 0..events {
        acc += c.bump(e);
    }
    acc
}
