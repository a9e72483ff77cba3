//! Plain-text table rendering for the reproduction harness.

use crate::artifact::Json;

/// A rectangular table with a title, column headers, and string cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub columns: Vec<String>,
    /// Rows of cells; each must have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (title omitted; quotes cells containing commas).
    pub fn render_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// The table as a JSON object `{"title", "columns", "rows"}` — the
    /// shape the `repro --json` run report embeds, one per experiment.
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("title", &self.title)
            .field("columns", Json::arr(&self.columns))
            .field("rows", Json::arr(self.rows.iter().map(Json::arr)))
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Renders a series as a Unicode sparkline (▁▂▃▄▅▆▇█), scaled to its own
/// min..max. Empty input gives an empty string.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(f64::EPSILON);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Formats a microsecond value the way the paper's tables do.
pub fn us(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}us")
    } else {
        format!("{v:.1}us")
    }
}

/// Formats a MB/s value.
pub fn mbs(v: f64) -> String {
    format!("{v:.0} MB/s")
}

/// Formats a ratio as `N.Nx`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::parse;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", vec!["metric".into(), "a".into(), "bbbb".into()]);
        t.push_row(vec!["pipe lat".into(), "17".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("metric    a   bbbb"));
        assert!(r.contains("pipe lat  17  2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", vec!["a".into(), "b".into()]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("My Table", vec!["x".into(), "y".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.starts_with("### My Table"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", vec!["a".into(), "b".into()]);
        t.push_row(vec!["plain".into(), "with, comma".into()]);
        let csv = t.render_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("plain,\"with, comma\""));
    }

    #[test]
    fn json_escapes_and_balances() {
        let mut t = Table::new("Quote \"me\"", vec!["a".into(), "b".into()]);
        t.push_row(vec!["x\\y".into(), "line\nbreak".into()]);
        let j = t.to_json().write();
        assert!(j.contains("Quote \\\"me\\\""));
        assert!(j.contains("x\\\\y"));
        assert!(j.contains("line\\nbreak"));
        // A table holding a quote survives the round trip, so a run report
        // with one can be diffed.
        assert_eq!(parse(&j).unwrap(), t.to_json());
    }

    #[test]
    fn sparkline_scales() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.contains('█'));
    }

    #[test]
    fn formatters() {
        assert_eq!(us(3240.4), "3240us");
        assert_eq!(us(41.23), "41.2us");
        assert_eq!(mbs(52.4), "52 MB/s");
        assert_eq!(ratio(80.0, 1.0), "80.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }
}
