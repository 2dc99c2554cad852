//! Markdown rendering for the report binary, and [`Table`]: the one path
//! every experiment prints its Markdown and builds its summary through.

use std::time::Duration;

use ddpa_obs::JsonValue;
use ddpa_support::stats::{fmt_count, fmt_duration};

/// Renders a Markdown table. A `|` inside a header or cell is escaped,
/// so it cannot split the cell.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {} |", h.replace('|', "\\|")));
    }
    out.push_str("\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {} |", cell.replace('|', "\\|")));
        }
        out.push('\n');
    }
    out
}

/// Formats a duration for table cells.
pub fn dur(d: Duration) -> String {
    fmt_duration(d)
}

/// Formats a count for table cells.
pub fn count(n: usize) -> String {
    fmt_count(n as u64)
}

/// Formats a ratio like `12.3x`.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a percentage like `97.4%`.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

/// Formats a cross-check verdict (answers or precision compared between
/// two configurations).
pub fn identical(same: bool) -> String {
    if same { "identical ✓" } else { "DIFFERS ✗" }.to_owned()
}

/// Median of a sample (upper middle for even sizes); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
    v[v.len() / 2]
}

/// Milliseconds as a summary value.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One table column: its header and the cell it renders for a row.
pub struct Column<R> {
    header: &'static str,
    cell: fn(&R) -> String,
}

/// Declares a column.
pub fn col<R>(header: &'static str, cell: fn(&R) -> String) -> Column<R> {
    Column { header, cell }
}

/// Renders `rows` as one Markdown table under `columns`.
pub fn markdown<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let headers: Vec<&str> = columns.iter().map(|c| c.header).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|c| (c.cell)(r)).collect())
        .collect();
    table(&headers, &cells)
}

/// Renders one `###` sub-table: the heading, then `points` under
/// `columns`.
pub fn section<P>(heading: &str, columns: &[Column<P>], points: &[P]) -> String {
    format!("### {heading}\n\n{}\n", markdown(columns, points))
}

/// One key of an experiment's JSON summary.
pub enum Stat<R> {
    /// The median of a per-row value.
    Median(&'static str, fn(&R) -> f64),
    /// The median over the rows that yield a value.
    MedianOf(&'static str, fn(&R) -> Option<f64>),
    /// True only if every row passes.
    All(&'static str, fn(&R) -> bool),
    /// A value the run fixed, not one derived from its rows.
    Fixed(&'static str, JsonValue),
}

/// How an experiment lays out its rows.
pub enum Body<R> {
    /// One Markdown table, a line per row.
    Rows(Vec<Column<R>>),
    /// One `###` section per row (see [`section`]).
    Sections(fn(&R) -> String),
}

/// One experiment, declared once: its title, its table and its summary.
pub struct Table<R> {
    /// The `##` heading.
    pub title: String,
    /// The rows' layout.
    pub body: Body<R>,
    /// The summary keys, in output order.
    pub summary: Vec<Stat<R>>,
}

impl<R> Table<R> {
    /// The Markdown below the heading.
    pub fn markdown(&self, rows: &[R]) -> String {
        match &self.body {
            Body::Rows(columns) => format!("{}\n", markdown(columns, rows)),
            Body::Sections(section) => rows.iter().map(section).collect(),
        }
    }

    /// The summary object (what `--json-out` records and `--history`
    /// compares).
    pub fn summary(&self, rows: &[R]) -> JsonValue {
        let median_of = |value: &dyn Fn(&R) -> Option<f64>| {
            JsonValue::F64(median(rows.iter().filter_map(value).collect()))
        };
        JsonValue::Object(
            self.summary
                .iter()
                .map(|stat| match stat {
                    Stat::Median(key, value) => (key, median_of(&|r| Some(value(r)))),
                    Stat::MedianOf(key, value) => (key, median_of(value)),
                    Stat::All(key, pass) => (key, JsonValue::Bool(rows.iter().all(pass))),
                    Stat::Fixed(key, value) => (key, value.clone()),
                })
                .map(|(key, value)| ((*key).to_owned(), value))
                .collect(),
        )
    }

    /// Prints the heading and the Markdown; returns the summary.
    pub fn print(&self, rows: &[R]) -> JsonValue {
        println!("## {}\n", self.title);
        print!("{}", self.markdown(rows));
        self.summary(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_table() {
        let t = table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn pipes_in_headers_and_cells_are_escaped() {
        let t = table(&["Σ|pts|", "b"], &[vec!["x|y".into(), "2".into()]]);
        assert_eq!(t, "| Σ\\|pts\\| | b |\n|---|---|\n| x\\|y | 2 |\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(count(1500), "1,500");
        assert_eq!(ratio(2.0), "2.00x");
        assert_eq!(pct(0.974), "97.4%");
        assert_eq!(dur(Duration::from_millis(5)), "5.00ms");
        assert_eq!(identical(true), "identical ✓");
        assert_eq!(identical(false), "DIFFERS ✗");
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn one_declaration_renders_rows_and_summary() {
        let t: Table<(u32, bool)> = Table {
            title: "X".into(),
            body: Body::Rows(vec![
                col("n", |r| r.0.to_string()),
                col("ok", |r| identical(r.1)),
            ]),
            summary: vec![
                Stat::Fixed("k", JsonValue::U64(7)),
                Stat::Median("n", |r| r.0.into()),
                Stat::MedianOf("odd", |r| (r.0 % 2 == 1).then_some(r.0.into())),
                Stat::All("ok", |r| r.1),
            ],
        };
        let rows = [(1, true), (4, true), (3, false)];
        assert_eq!(
            t.markdown(&rows),
            "| n | ok |\n|---|---|\n| 1 | identical ✓ |\n| 4 | identical ✓ |\n\
             | 3 | DIFFERS ✗ |\n\n"
        );
        assert_eq!(
            t.summary(&rows).to_string(),
            r#"{"k":7,"n":3,"odd":3,"ok":false}"#
        );
    }
}
