//! Report formatting: aligned text tables and CSV emission.
//!
//! The figure-regeneration harness prints the same rows/series the paper
//! reports; this module keeps that output consistent across figures.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Builder for an aligned, monospace text table.
///
/// # Examples
///
/// ```
/// use sitw_stats::report::TextTable;
///
/// let mut t = TextTable::new(vec!["Trigger", "%Functions", "%Invocations"]);
/// t.row(vec!["HTTP".into(), "55.0".into(), "35.9".into()]);
/// let s = t.render();
/// assert!(s.contains("HTTP"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Self {
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header separator, columns left-aligned and
    /// padded to the widest cell.
    pub fn render(&self) -> String {
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<w$}");
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Escapes a CSV field (RFC 4180 quoting).
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serializes headers and rows as CSV text.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| csv_escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(
            &row.iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

/// Writes headers and rows as a CSV file, creating parent directories.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_csv(headers, rows))
}

/// Formats a float with `digits` decimal places, trimming to a compact
/// representation (`1.50` stays, `1.00` also stays — column alignment
/// matters more than byte count).
pub fn fnum(x: f64, digits: usize) -> String {
    if x.is_nan() {
        "nan".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 { "inf" } else { "-inf" }.to_owned()
    } else {
        format!("{x:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["a", "longheader"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a       "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let rows = vec![vec!["1".to_owned(), "x,y".to_owned()]];
        let csv = to_csv(&["n", "label"], &rows);
        assert_eq!(csv, "n,label\n1,\"x,y\"\n");
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("sitw_report_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/out.csv");
        write_csv(&path, &["a"], &[vec!["1".to_owned()]]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a\n1\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.5, 2), "1.50");
        assert_eq!(fnum(f64::NAN, 2), "nan");
        assert_eq!(fnum(f64::INFINITY, 2), "inf");
        assert_eq!(fnum(f64::NEG_INFINITY, 2), "-inf");
    }
}
