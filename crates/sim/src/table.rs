//! Plain-text table and series rendering for experiment output.
//!
//! The benchmark binaries print the same rows/series the paper reports;
//! this module keeps the formatting in one place.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use cras_sim::table::Table;
/// let mut t = Table::new(&["streams", "MB/s"]);
/// t.row(&["1", "0.19"]);
/// t.row(&["25", "3.58"]);
/// let s = t.render();
/// assert!(s.contains("streams"));
/// assert!(s.contains("3.58"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Renders a crude ASCII sparkline of `values` scaled into `width` columns
/// and 8 vertical levels — handy for eyeballing delay traces in a terminal.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let span = (max - min).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1", "2"]);
        t.row(&["100", "2000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert!(lines[0].len() >= lines[2].trim_end().len());
        assert!(s.contains("long-header"));
    }

    #[test]
    fn table_handles_ragged_rows() {
        let mut t = Table::new(&["x"]);
        t.row(&["1", "extra"]);
        t.row(&[]);
        let s = t.render();
        assert!(s.contains("extra"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert_eq!(first, '▁');
        assert_eq!(last, '█');
    }

    #[test]
    fn sparkline_empty_and_flat() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[5.0, 5.0]);
        assert_eq!(s.chars().count(), 2);
    }
}
