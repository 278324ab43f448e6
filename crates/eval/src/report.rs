//! Plain-text table rendering and JSON persistence for experiment output.
//!
//! Every bench target prints its table/figure through [`TextTable`] so the
//! output can be compared line-by-line with the paper, and optionally
//! dumps the raw rows as JSON for downstream plotting.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
            let _ = writeln!(out, "{}", "=".repeat(self.title.len()));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Formats a percentage with two decimals, or `-` for `None`.
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_owned(),
    }
}

/// Formats a large count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a count in scientific notation like the paper's Table 2
/// (`6.54e8`).
pub fn sci(n: u64) -> String {
    if n < 100_000 {
        count(n)
    } else {
        format!("{:.2e}", n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and both rows align on the second column.
        let col = lines[2].find("value").or(lines[2].find('1'));
        assert!(col.is_some());
        assert!(s.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(99.346)), "99.35");
        assert_eq!(pct(None), "-");
    }

    #[test]
    fn count_inserts_separators() {
        assert_eq!(count(5), "5");
        assert_eq!(count(5_208_100), "5,208,100");
        assert_eq!(count(1_000), "1,000");
    }

    #[test]
    fn sci_switches_at_scale() {
        assert_eq!(sci(1800), "1,800");
        assert!(sci(654_000_000).contains('e'));
    }
}
