//! Plain-text rendering of experiment results, matching the rows/series the
//! paper's figures report.

use std::fmt;

use nifdy_trace::MetricsRegistry;

/// A rendered result table.
///
/// # Examples
///
/// ```
/// use nifdy_harness::Table;
///
/// let mut t = Table::new("demo", vec!["net".into(), "pkts".into()]);
/// t.row(vec!["mesh".into(), "123".into()]);
/// let s = t.to_string();
/// assert!(s.contains("mesh") && s.contains("123"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the headers.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, "{cell:>w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Renders every latency histogram of a metrics registry as a percentile
/// table (count, p50/p90/p99/p99.9, max), for experiment reports.
///
/// # Examples
///
/// ```
/// use nifdy_harness::percentile_table;
/// use nifdy_trace::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// for v in 1..=1000 {
///     reg.record("latency.cycles", v);
/// }
/// let t = percentile_table("demo", &reg);
/// assert!(t.to_string().contains("latency.cycles"));
/// ```
pub fn percentile_table(title: &str, registry: &MetricsRegistry) -> Table {
    let mut t = Table::new(
        format!("{title}: latency percentiles (cycles)"),
        vec![
            "histogram".into(),
            "count".into(),
            "p50".into(),
            "p90".into(),
            "p99".into(),
            "p99.9".into(),
            "max".into(),
        ],
    );
    for row in registry.percentile_rows() {
        t.row(vec![
            row.name,
            row.count.to_string(),
            row.p50.to_string(),
            row.p90.to_string(),
            row.p99.to_string(),
            row.p999.to_string(),
            row.max.to_string(),
        ]);
    }
    t
}

/// Renders a per-receiver time series as an ASCII heat map (the Figure 5
/// style: time on the horizontal axis, receivers on the vertical axis,
/// darker marks for more pending packets).
///
/// # Examples
///
/// ```
/// use nifdy_harness::heat_map;
///
/// let series = vec![vec![0.0, 3.0, 25.0], vec![1.0, 0.0, 0.0]];
/// let map = heat_map("demo", &series);
/// assert!(map.contains("r00"));
/// ```
pub fn heat_map(title: &str, per_receiver: &[Vec<f64>]) -> String {
    const SHADES: [char; 6] = ['.', '1', '2', '4', '8', '#'];
    let mut out = format!("== {title} == (rows: receivers, cols: time; '#' = 20+ pending)\n");
    for (r, series) in per_receiver.iter().enumerate() {
        out.push_str(&format!("r{r:02} "));
        for &v in series {
            let shade = match v as u32 {
                0 => 0,
                1 => 1,
                2..=3 => 2,
                4..=7 => 3,
                8..=19 => 4,
                _ => 5,
            };
            out.push(SHADES[shade]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("t", vec!["a".into(), "long-header".into()]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.row(vec!["x".into(), "extra".into()]);
    }

    #[test]
    fn heat_map_scales_shades() {
        let map = heat_map("x", &[vec![0.0, 1.0, 2.0, 5.0, 10.0, 30.0]]);
        let row = map.lines().nth(1).unwrap();
        assert!(row.contains('.') && row.contains('#'));
    }
}
