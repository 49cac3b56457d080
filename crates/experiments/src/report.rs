//! Paper-style text tables and CSV output.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple column-aligned table matching the paper's layout: one row per
/// task, one column per method/condition.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    corner: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates a table titled like the paper ("Table II — ...").
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self { title: title.into(), corner: "Task".into(), columns, rows: Vec::new() }
    }

    /// Overrides the label-column header (default `"Task"`, the paper's
    /// layout). `summarize_runs` uses this for its non-task-shaped table.
    pub fn corner(mut self, header: impl Into<String>) -> Self {
        self.corner = header.into();
        self
    }

    /// Adds a row of numeric cells rendered with no decimals (the paper
    /// reports integer percentages).
    pub fn row_pct(&mut self, label: impl Into<String>, values: &[f64]) {
        self.rows.push((
            label.into(),
            values.iter().map(|v| format!("{v:.0}")).collect(),
        ));
    }

    /// Adds a row of pre-rendered cells.
    pub fn row(&mut self, label: impl Into<String>, values: Vec<String>) {
        self.rows.push((label.into(), values));
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows as (label, cells) pairs.
    pub fn rows(&self) -> &[(String, Vec<String>)] {
        &self.rows
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = vec![self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(self.corner.len()))
            .max()
            .unwrap_or(self.corner.len())];
        for (c, col) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, cells)| cells.get(c).map_or(0, std::string::String::len))
                .chain(std::iter::once(col.len()))
                .max()
                .unwrap_or(col.len());
            widths.push(w);
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let mut header = format!("{:<w$}", self.corner, w = widths[0]);
        for (c, col) in self.columns.iter().enumerate() {
            let _ = write!(header, "  {:>w$}", col, w = widths[c + 1]);
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for (label, cells) in &self.rows {
            let _ = write!(out, "{:<w$}", label, w = widths[0]);
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "  {:>w$}", cell, w = widths[c + 1]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "task,{}", self.columns.join(","));
        for (label, cells) in &self.rows {
            let _ = writeln!(out, "{},{}", label, cells.join(","));
        }
        out
    }
}

/// Writes CSV content to `results/<name>`, creating the directory if
/// needed, and names the file on stderr. A failure is reported there, not
/// raised; returns whether the file was written.
pub fn write_csv(name: &str, content: &str) -> bool {
    let path = Path::new("results").join(name);
    let written = fs::create_dir_all("results").and_then(|()| fs::write(&path, content));
    match &written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Renders a loss-vs-time curve as CSV (`time_s,loss` rows).
pub fn curve_csv(curves: &[(&str, &[(f64, f64)])]) -> String {
    let mut out = String::from("method,time_s,loss\n");
    for (name, curve) in curves {
        for (t, l) in *curve {
            let _ = writeln!(out, "{name},{t:.0},{l:.6}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(
            "Table X — demo",
            vec!["A".into(), "LbChat".into()],
        );
        t.row_pct("Straight", &[100.0, 99.6]);
        t.row_pct("Navi. (Dense)", &[65.0, 78.0]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("Straight"));
        assert!(s.contains("100"));
        // Integer rendering.
        assert!(!s.contains("99.6"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("t", vec!["m1".into()]);
        t.row_pct("r", &[50.0]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("task,m1"));
    }

    #[test]
    fn curve_csv_format() {
        let c = vec![(0.0, 1.0), (60.0, 0.5)];
        let s = curve_csv(&[("LbChat", c.as_slice())]);
        assert!(s.contains("LbChat,0,1.000000"));
        assert!(s.contains("LbChat,60,0.500000"));
    }
}
