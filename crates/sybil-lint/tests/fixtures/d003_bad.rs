// D003 fixture: raw threading primitives outside osn_graph::par.
// Expected findings: lines 5, 10, 13, 18.

pub fn race() {
    let lock = std::sync::Mutex::new(0u32);
    let _ = lock.lock();
}

pub fn fork() {
    std::thread::spawn(|| {});
}

pub fn count(c: &std::sync::atomic::AtomicUsize) -> usize {
    c.load(std::sync::atomic::Ordering::Relaxed)
}

pub fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
