//! Report rendering: markdown tables, ASCII log-scale line plots, and JSON
//! result persistence.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned markdown table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (padded / truncated to the header width).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as column-aligned markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (i, w) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<w$}|", "", w = w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// One named series for [`ascii_plot`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points; `y` must be positive for log-scale plots.
    pub points: Vec<(f64, f64)>,
}

/// Render series as an ASCII chart (x linear over the union of x values,
/// y log₁₀-scaled — the scale Figures 8 and 9 use). Each series draws with
/// its own glyph; the legend maps glyphs to labels.
#[must_use]
pub fn ascii_plot(title: &str, series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: &[char] =
        &['o', '*', '+', 'x', '#', '@', '%', '&', '=', '~', '^', 's', 'v', 'd', 'p', 'q'];
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for s in series {
        pts.extend(s.points.iter().filter(|&&(_, y)| y > 0.0 && y.is_finite()));
    }
    if pts.is_empty() {
        return format!("{title}\n(no finite positive data)\n");
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y.log10());
        y1 = y1.max(y.log10());
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            if !(y > 0.0 && y.is_finite()) {
                continue;
            }
            let gx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let gy = (((y.log10() - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - gy.min(height - 1)][gx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  y: log10 in [{y0:.2}, {y1:.2}]   x: [{x0:.0}, {x1:.0}]");
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

/// Persist a serializable result next to a human-readable rendering.
///
/// Writes `<dir>/<name>.json`; creates the directory if needed. The write
/// is atomic (temp file + rename) so a crash mid-write never leaves a
/// half-written result file behind.
///
/// # Errors
/// I/O errors.
pub fn save_json<T: wmh_json::ToJson>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let tmp = dir.join(format!(".{name}.json.tmp"));
    std::fs::write(&tmp, wmh_json::to_string_pretty(value))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Format a float compactly for tables (scientific when tiny).
#[must_use]
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() < 1e-3 || v.abs() >= 1e5 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(["Algo", "MSE"]);
        t.row(["MinHash", "0.01"]).row(["ICWS", "0.001"]);
        let md = t.to_markdown();
        assert!(md.contains("| Algo    | MSE   |"));
        assert!(md.lines().count() == 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["x"]);
        let md = t.to_markdown();
        assert!(md.lines().all(|l| l.matches('|').count() == 4));
    }

    #[test]
    fn ascii_plot_contains_series_glyphs_and_legend() {
        let s = vec![
            Series { label: "one".into(), points: vec![(10.0, 0.1), (100.0, 0.01)] },
            Series { label: "two".into(), points: vec![(10.0, 0.2), (100.0, 0.002)] },
        ];
        let plot = ascii_plot("demo", &s, 40, 10);
        assert!(plot.contains('o') && plot.contains('*'));
        assert!(plot.contains("o = one") && plot.contains("* = two"));
        assert!(plot.contains("log10"));
    }

    #[test]
    fn ascii_plot_handles_empty_and_degenerate() {
        assert!(ascii_plot("t", &[], 10, 5).contains("no finite positive data"));
        let s = vec![Series { label: "flat".into(), points: vec![(1.0, 0.5)] }];
        let plot = ascii_plot("t", &s, 10, 5);
        assert!(plot.contains("flat"));
        // Non-positive ys are skipped, not plotted.
        let s = vec![Series { label: "bad".into(), points: vec![(1.0, -0.5), (2.0, 0.0)] }];
        assert!(ascii_plot("t", &s, 10, 5).contains("no finite positive data"));
    }

    #[test]
    fn save_json_roundtrip() {
        let dir = wmh_check::scratch("report");
        let path = save_json(&dir, "probe", &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let back: Vec<i32> = wmh_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        // No temp file is left behind.
        assert!(!dir.join(".probe.json.tmp").exists());
    }

    #[test]
    fn fmt_value_ranges() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(0.1234), "0.1234");
        assert!(fmt_value(1e-5).contains('e'));
        assert!(fmt_value(1e6).contains('e'));
    }
}
