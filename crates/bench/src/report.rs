//! Markdown report helpers shared by the experiment generators.

/// Build a markdown table from a header row and data rows.
pub fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Format a float with a sensible number of digits for reports.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format seconds with an automatic unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

/// An ASCII scatter/line sketch for quick terminal viewing of figure data
/// (the numeric series themselves are always printed too).
pub fn ascii_plot(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
        let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
        grid[height - 1 - cy][cx] = b'*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "x: [{}, {}]  y: [{}, {}]\n",
        fmt_f(xmin),
        fmt_f(xmax),
        fmt_f(ymin),
        fmt_f(ymax)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a |"));
        assert!(lines[2].contains("| 1 |"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(28248.0), "28248");
        assert_eq!(fmt_f(97.93), "97.9");
        assert_eq!(fmt_f(2.345), "2.35");
        assert_eq!(fmt_f(0.0), "0");
    }

    #[test]
    fn time_units() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0035), "3.50 ms");
        assert_eq!(fmt_time(8.52e-4), "852.0 us");
        assert_eq!(fmt_time(5.4e-5), "54.0 us");
    }

    #[test]
    fn plot_contains_points() {
        let p = ascii_plot(&[(0.0, 0.0), (1.0, 1.0)], 10, 5);
        assert_eq!(p.matches('*').count(), 2);
    }

    #[test]
    fn plot_handles_degenerate_input() {
        assert!(ascii_plot(&[], 10, 5).contains("no data"));
        let p = ascii_plot(&[(1.0, 1.0)], 10, 5);
        assert_eq!(p.matches('*').count(), 1);
    }
}
