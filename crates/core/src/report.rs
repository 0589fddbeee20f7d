//! Plain-text table rendering shared by the experiment reports.

use std::fmt;

/// One column of a report table: its header and how a row fills its cell.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A simple aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Renders `rows` through `columns`: one line per row, one cell per
    /// column, so a header and its cell are written side by side and cannot
    /// drift apart.
    pub fn of<R>(rows: impl IntoIterator<Item = R>, columns: &[Column<R>]) -> Self {
        let mut table = TextTable::new(columns.iter().map(|(header, _)| *header));
        for row in rows {
            table.row(columns.iter().map(|(_, cell)| cell(&row)));
        }
        table
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in widths.iter().take(cols) {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a flag as `yes` / `no`.
pub fn yes_no(flag: bool) -> String {
    if flag { "yes" } else { "no" }.to_owned()
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a metric with three decimals.
pub fn num3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in adaptive units.
pub fn dur(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us == 0 {
        format!("{} ns", d.as_nanos())
    } else if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.2} s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(["method", "f1"]);
        t.row(["two-stage", "0.98"]);
        t.row(["5-tuple", "0.41"]);
        let s = t.to_string();
        assert!(s.contains("| method    | f1   |"), "got:\n{s}");
        assert!(s.lines().count() == 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn column_list_renders_like_hand_built_rows() {
        let rows = [("two-stage", 0.98), ("5-tuple", 0.41)];
        let by_columns = TextTable::of(
            &rows,
            &[
                ("method", |(name, _)| name.to_string()),
                ("f1", |(_, f1)| format!("{f1:.2}")),
            ],
        );
        let mut by_hand = TextTable::new(["method", "f1"]);
        by_hand.row(["two-stage", "0.98"]);
        by_hand.row(["5-tuple", "0.41"]);
        assert_eq!(by_columns, by_hand);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        assert!(t.to_string().lines().count() == 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!((yes_no(true), yes_no(false)), ("yes".into(), "no".into()));
        assert_eq!(num3(0.98765), "0.988");
        assert_eq!(dur(Duration::from_micros(500)), "500 µs");
        assert_eq!(dur(Duration::from_micros(2500)), "2.50 ms");
        assert_eq!(dur(Duration::from_secs(3)), "3.00 s");
    }
}
