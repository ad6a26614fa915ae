//! Plain-text and CSV rendering of experiment results.
//!
//! Figures become tables here: one row per x-axis point, one column per
//! series (typically per benchmark), matching the rows the paper plots.

use bpred_trace::workload::IbsBenchmark;
use std::fmt::Write as _;

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Convenience: headers from string slices.
    pub fn with_columns(title: impl Into<String>, columns: &[&str]) -> Self {
        Table::new(title, columns.iter().map(|s| s.to_string()).collect())
    }

    /// A benchmark-per-column table: `first_column`, then one column per
    /// benchmark in [`IbsBenchmark::all`] order. Row `r` is
    /// `row_labels[r]` followed by `cell(r, b)` for each benchmark index
    /// `b`.
    pub fn per_bench(
        title: impl Into<String>,
        first_column: &str,
        row_labels: &[String],
        cell: impl Fn(usize, usize) -> String,
    ) -> Self {
        let benches = IbsBenchmark::all();
        let names = benches.iter().map(|b| b.name().to_string());
        let mut table = Table::new(
            title,
            std::iter::once(first_column.into()).chain(names).collect(),
        );
        for (r, label) in row_labels.iter().enumerate() {
            let cells = (0..benches.len()).map(|b| cell(r, b));
            table.push_row(std::iter::once(label.clone()).chain(cells).collect());
        }
        table
    }

    /// Append a row; it is padded or truncated to the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.columns.len(), String::new());
        self.rows.push(row);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut header = String::new();
        for (i, col) in self.columns.iter().enumerate() {
            let _ = write!(header, "{:width$}  ", col, width = widths[i]);
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Render as CSV (title omitted; quotes around cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Render a numeric series as a fixed-height ASCII chart (one column per
/// point, `#` bars over a labeled y-range) — enough to see a figure's
/// shape in a terminal without plotting tools.
///
/// Returns an empty string for an empty series.
///
/// # Panics
///
/// Panics if `height` is zero.
pub fn ascii_chart(series: &[f64], height: usize) -> String {
    assert!(height > 0, "chart height must be nonzero");
    if series.is_empty() {
        return String::new();
    }
    let max = series.iter().copied().fold(f64::MIN, f64::max);
    let min = series.iter().copied().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold = min + span * (row as f64 + 0.5) / height as f64;
        let label = if row == height - 1 {
            format!("{max:>8.2} ")
        } else if row == 0 {
            format!("{min:>8.2} ")
        } else {
            " ".repeat(9)
        };
        out.push_str(&label);
        out.push('|');
        for &v in series {
            // The bottom row is always filled so every point (including
            // the minimum, and flat series) leaves a mark.
            out.push(if v >= threshold || row == 0 { '#' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{}+{}", " ".repeat(9), "-".repeat(series.len()));
    out
}

/// Format a percentage with two decimals, as the paper prints them.
pub fn pct(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio with two decimals (Table 2's substream ratios).
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_columns("demo", &["size", "groff", "gs"]);
        t.push_row(vec!["1024".into(), "5.12".into(), "6.01".into()]);
        t.push_row(vec!["4096".into(), "4.02".into()]);
        t
    }

    #[test]
    fn render_aligns_and_pads() {
        let s = sample().render();
        assert!(s.contains("## demo"));
        assert!(s.contains("size  groff  gs"));
        assert!(s.contains("1024  5.12   6.01"));
        // Short row padded with an empty cell.
        assert!(s.contains("4096  4.02"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::with_columns("x", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn ascii_chart_shapes() {
        let chart = ascii_chart(&[0.0, 1.0, 2.0, 3.0], 4);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 5, "4 rows + axis");
        // Top row: only the maximum reaches it.
        assert!(lines[0].ends_with("   #"));
        // Bottom data row: always fully filled (every point leaves a mark).
        assert!(lines[3].ends_with("####"));
        assert!(lines[0].contains("3.00"));
        assert!(lines[3].contains("0.00"));
    }

    #[test]
    fn ascii_chart_flat_and_empty() {
        assert_eq!(ascii_chart(&[], 3), "");
        // A flat series must not divide by zero.
        let chart = ascii_chart(&[5.0; 10], 3);
        assert!(chart.contains('#'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.345), "12.35");
        assert_eq!(pct(0.5), "0.50");
        assert_eq!(ratio(1.0), "1.00");
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.title(), "demo");
        assert_eq!(t.columns().len(), 3);
        assert_eq!(t.rows().len(), 2);
    }
}
