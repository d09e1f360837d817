//! Result tables: the common currency of the experiment library.

/// One reproduced figure/table: a grid of cells plus identity metadata.
#[derive(Debug, Clone)]
pub struct Table {
    /// Stable identifier, e.g. `"fig10"`.
    pub id: String,
    /// Human title, e.g. `"Figure 10: ACK-based, packet size x window"`.
    pub title: String,
    /// Column headers; the first column is the x-axis/parameter.
    pub columns: Vec<String>,
    /// Rows of cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper expectation, observed shape).
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with headers.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a formatted row; must match the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; cells are quoted when needed).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with millisecond precision (paper-style).
pub fn secs(d: rmwire::Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Format a throughput in Mbit/s.
pub fn mbps(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering() {
        let mut t = Table::new("fig00", "demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "0.5".into()]);
        t.push_row(vec!["20".into(), "0.25".into()]);
        t.note("shape ok");
        let txt = t.render_text();
        assert!(txt.contains("fig00"));
        assert!(txt.contains("note: shape ok"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("x,y"));
    }

    #[test]
    fn csv_quoting() {
        let mut t = Table::new("t", "q", &["a"]);
        t.push_row(vec!["has,comma \"q\"".into()]);
        assert!(t.to_csv().contains("\"has,comma \"\"q\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(rmwire::Duration::from_millis(64)), "0.064000");
        assert_eq!(mbps(89.66), "89.7");
    }
}

impl Table {
    /// Render the table as an ASCII line plot (x = first column, one
    /// glyph per series), or `None` when the cells are not numeric or
    /// there are too few rows to plot.
    pub fn render_plot(&self, width: usize, height: usize) -> Option<String> {
        const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
        if self.rows.len() < 2 || self.columns.len() < 2 {
            return None;
        }
        let parse = |s: &str| s.parse::<f64>().ok();
        let xs: Vec<f64> = self
            .rows
            .iter()
            .map(|r| parse(&r[0]))
            .collect::<Option<_>>()?;
        let series: Vec<Vec<f64>> = (1..self.columns.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| parse(&r[c]))
                    .collect::<Option<Vec<f64>>>()
            })
            .collect::<Option<_>>()?;

        let (xmin, xmax) = (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let ys: Vec<f64> = series.iter().flatten().copied().collect();
        let (ymin, ymax) = (
            ys.iter().copied().fold(f64::INFINITY, f64::min),
            ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        if !(xmin.is_finite() && xmax.is_finite() && ymin.is_finite() && ymax.is_finite()) {
            return None;
        }
        let xspan = (xmax - xmin).max(f64::MIN_POSITIVE);
        let yspan = (ymax - ymin).max(f64::MIN_POSITIVE);

        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (&x, &y) in xs.iter().zip(s) {
                let cx = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
                let cy = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
                let row = height - 1 - cy;
                grid[row][cx] = glyph;
            }
        }

        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("y: [{ymin:.6} .. {ymax:.6}]\n"));
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!(
            " x: {} in [{xmin} .. {xmax}]   series: {}\n",
            self.columns[0],
            self.columns[1..]
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{}={}", GLYPHS[i % GLYPHS.len()], c))
                .collect::<Vec<_>>()
                .join("  ")
        ));
        Some(out)
    }
}

#[cfg(test)]
mod plot_tests {
    use super::*;

    #[test]
    fn numeric_tables_plot() {
        let mut t = Table::new("figX", "demo", &["x", "a", "b"]);
        for i in 0..10 {
            t.push_row(vec![
                i.to_string(),
                (i * i).to_string(),
                (100 - i).to_string(),
            ]);
        }
        let p = t.render_plot(40, 10).expect("plots");
        assert!(p.contains("figX"));
        assert!(p.contains('*') && p.contains('o'));
        assert_eq!(p.lines().filter(|l| l.starts_with('|')).count(), 10);
    }

    #[test]
    fn non_numeric_tables_do_not_plot() {
        let mut t = Table::new("t", "t", &["proto", "time"]);
        t.push_row(vec!["ack".into(), "1.0".into()]);
        t.push_row(vec!["nak".into(), "2.0".into()]);
        assert!(t.render_plot(40, 10).is_none());
    }

    #[test]
    fn single_row_does_not_plot() {
        let mut t = Table::new("t", "t", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert!(t.render_plot(40, 10).is_none());
    }
}
