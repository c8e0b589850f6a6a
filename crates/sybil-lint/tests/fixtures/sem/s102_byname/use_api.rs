//! Names the fixture's public surface so S104 stays quiet.

fn _exercise() {
    let _ = s102_byname::totals as fn(Vec<Vec<f64>>, f64) -> Vec<f64>;
}
