//! Terminal plots: CDF curves, scatter plots, and the Fig. 8 dot matrix.
//!
#![allow(clippy::needless_range_loop)] // grid painting reads clearer indexed

//! The `repro` harness prints every figure as ASCII so results are
//! inspectable without a plotting stack; the typed results behind them
//! are written as JSON for external tooling.

use crate::cdf::Cdf;

const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// Render one or more CDFs as an ASCII chart (y: 0–100%, x: sample space).
/// `log_x` uses log-spaced evaluation points (Figs. 4, 5, 9 style).
pub fn plot_cdfs(series: &[(&str, &Cdf)], width: usize, height: usize, log_x: bool) -> String {
    let width = width.clamp(20, 200);
    let height = height.clamp(5, 60);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, c) in series {
        if let (Some(a), Some(b)) = (c.min(), c.max()) {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::from("(no data)\n");
    }
    if log_x {
        lo = lo.max(1e-6);
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, c)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for col in 0..width {
            let f = col as f64 / (width - 1) as f64;
            let x = if log_x {
                lo * (hi / lo).powf(f)
            } else {
                lo + (hi - lo) * f
            };
            let y = c.eval(x);
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = glyph;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let pct = 100.0 * (1.0 - r as f64 / (height - 1) as f64);
        out.push_str(&format!("{pct:5.0}% |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("       {}\n", "-".repeat(width)));
    let axis = if log_x {
        format!("       x: {lo:.3} .. {hi:.3} (log scale)")
    } else {
        format!("       x: {lo:.3} .. {hi:.3}")
    };
    out.push_str(&axis);
    out.push('\n');
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("       {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    out
}

/// Scatter plot on log–log axes with the `y = x` diagonal marked `/`
/// (Fig. 7 style). Points at or below the diagonal render normally; the
/// diagonal makes "all components above y = x" visible at a glance.
pub fn scatter_loglog(points: &[(f64, f64)], width: usize, height: usize) -> String {
    let width = width.clamp(20, 200);
    let height = height.clamp(5, 60);
    let finite: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite() && *x > 0.0 && *y > 0.0)
        .collect();
    if finite.is_empty() {
        return String::from("(no data)\n");
    }
    let lo = finite
        .iter()
        .flat_map(|&(x, y)| [x, y])
        .fold(f64::INFINITY, f64::min)
        .max(1e-9);
    let hi = finite
        .iter()
        .flat_map(|&(x, y)| [x, y])
        .fold(f64::NEG_INFINITY, f64::max)
        .max(lo * 10.0);
    let to_col = |x: f64| ((x / lo).ln() / (hi / lo).ln() * (width - 1) as f64).round() as usize;
    let to_row =
        |y: f64| ((1.0 - (y / lo).ln() / (hi / lo).ln()) * (height - 1) as f64).round() as usize;
    let mut grid = vec![vec![' '; width]; height];
    // y = x diagonal.
    for col in 0..width {
        let f = col as f64 / (width - 1) as f64;
        let v = lo * (hi / lo).powf(f);
        let row = to_row(v).min(height - 1);
        grid[row][col] = '/';
    }
    for &(x, y) in &finite {
        let c = to_col(x).min(width - 1);
        let r = to_row(y).min(height - 1);
        grid[r][c] = '*';
    }
    let mut out = String::new();
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "axes: log, {lo:.2} .. {hi:.2}; '/' marks y = x; '*' data\n"
    ));
    out
}

/// Fig. 8 dot matrix: each input column is `(total_edges, sybil_positions)`;
/// the plot shows edge order (bottom = first) per account (x axis), with a
/// dot where an edge is a Sybil edge.
pub fn dot_matrix(columns: &[(usize, Vec<usize>)], width: usize, height: usize) -> String {
    let width = width.clamp(10, 400);
    let height = height.clamp(5, 80);
    if columns.is_empty() {
        return String::from("(no data)\n");
    }
    let mut grid = vec![vec![' '; width]; height];
    let n = columns.len();
    for col_px in 0..width.min(n) {
        // Sample columns evenly when there are more accounts than pixels.
        let idx = col_px * n / width.min(n);
        let (total, positions) = &columns[idx];
        if *total == 0 {
            continue;
        }
        for &p in positions {
            let frac = p as f64 / (*total).max(1) as f64;
            let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col_px] = '.';
        }
    }
    let mut out = String::new();
    out.push_str("edge-creation order (top = last, bottom = first); '.' = Sybil edge\n");
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "accounts: {} (one column each, subsampled)\n",
        n.min(width)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_plot_contains_series() {
        let a = Cdf::new((1..=50).map(|i| i as f64).collect());
        let b = Cdf::new((40..=90).map(|i| i as f64).collect());
        let plot = plot_cdfs(&[("alpha", &a), ("beta", &b)], 60, 12, false);
        assert!(plot.contains("alpha"));
        assert!(plot.contains("beta"));
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.lines().count() >= 14);
    }

    #[test]
    fn cdf_plot_log_scale_label() {
        let a = Cdf::new(vec![0.001, 0.01, 0.1, 1.0]);
        let plot = plot_cdfs(&[("x", &a)], 40, 8, true);
        assert!(plot.contains("log scale"));
    }

    #[test]
    fn cdf_plot_empty() {
        let a = Cdf::new(vec![]);
        assert_eq!(plot_cdfs(&[("e", &a)], 40, 8, false), "(no data)\n");
    }

    #[test]
    fn scatter_renders_diagonal_and_points() {
        let pts = vec![(1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)];
        let plot = scatter_loglog(&pts, 40, 12);
        assert!(plot.contains('/'));
        assert!(plot.contains('*'));
    }

    #[test]
    fn scatter_filters_nonpositive() {
        let plot = scatter_loglog(&[(0.0, 1.0), (-1.0, 2.0)], 40, 12);
        assert_eq!(plot, "(no data)\n");
    }

    #[test]
    fn dot_matrix_marks_positions() {
        let cols = vec![(10, vec![0, 9]), (5, vec![2])];
        let m = dot_matrix(&cols, 10, 10);
        assert!(m.contains('.'));
        assert!(m.contains("accounts: 2"));
        assert_eq!(dot_matrix(&[], 10, 10), "(no data)\n");
    }
}
