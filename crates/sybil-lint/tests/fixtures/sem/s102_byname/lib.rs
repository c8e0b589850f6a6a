//! S102 bad fixture: the closure crosses the par boundary by name, and
//! consumes its items (`map_owned`), the way the serving engine drives
//! its shards.
#![forbid(unsafe_code)]

/// Per-row totals computed in parallel.
pub fn totals(rows: Vec<Vec<f64>>, scale: f64) -> Vec<f64> {
    let per_row = move |row: Vec<f64>| {
        let t = total(&row);
        t * scale
    };
    par::map_owned(rows, per_row)
}

fn total(row: &[f64]) -> f64 {
    row.iter().sum::<f64>()
}
