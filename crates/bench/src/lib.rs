//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the paper maps to one experiment here (see
//! DESIGN.md §4 for the index); the `tables` binary prints them, the
//! criterion benches wall-clock the kernels, and `EXPERIMENTS.md` records
//! paper-vs-measured.

pub mod amortize;
pub mod experiments;
pub mod families;
mod jsonv;
pub mod kernels;
pub mod loadrep;
pub mod obs;
pub mod phases;
pub mod sep;
pub mod serve;

/// Fixed-width table printer for experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (cell, w) in cells.iter().zip(widths) {
                out.push_str(&format!("{cell:>w$}  ", w = w));
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        for (w, _) in widths.iter().zip(&self.header) {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Format a float compactly for table cells.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 || x.abs() < 0.01 {
        format!("{x:.2e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "work"]);
        t.row(vec!["100".into(), "12345".into()]);
        t.row(vec!["20000".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("n"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert!(fmt_f(123456.0).contains('e'));
        assert_eq!(fmt_f(1.5), "1.500");
    }
}
