// Keeps the fixture's exports alive for S104: Queue, items, pop, serve, drain.

fn main() {
    let mut q = cost_pop_ambient::Queue { items: vec![1] };
    let _ = cost_pop_ambient::Queue::pop(&mut q);
    let _ = (cost_pop_ambient::serve(vec![1], 1), cost_pop_ambient::drain(q, 1));
}
