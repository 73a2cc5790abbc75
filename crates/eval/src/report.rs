//! Plain-text table formatting shared by the experiment binaries.
//!
//! Every experiment binary prints its results in the same aligned-column
//! layout so EXPERIMENTS.md can quote the output verbatim next to the
//! paper's tables.

/// A simple aligned-column text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as the header).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[c], width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Format a float as a signed percentage ("+1.3%" / "-0.2%").
pub fn fmt_pct(value: f64, decimals: usize) -> String {
    format!("{value:+.decimals$}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Model", "AUC"]);
        t.row(vec!["DeepWalk", "0.81"]);
        t.row(vec!["AMCAD", "0.93"]);
        let s = t.render();
        assert!(s.contains("Model"));
        assert!(s.contains("DeepWalk"));
        assert_eq!(s.lines().count(), 4, "header, rule and two rows");
        // header and rows aligned: every line has AUC column starting at the
        // same offset
        let lines: Vec<&str> = s.lines().collect();
        let col = lines[0].find("AUC").unwrap();
        assert_eq!(lines[2].find("0.81").unwrap(), col);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(1.5, 1), "+1.5%");
        assert_eq!(fmt_pct(-0.25, 2), "-0.25%");
    }
}
