//! The one value every experiment returns: a markdown table whose cells
//! keep the number they were rendered from. `Display` is what gets
//! printed and committed under `results/`; [`Table::get`] is what tests
//! read. Nothing parses rendered text.

use std::fmt;

/// One table cell: its text, and the number behind it (`None` for labels
/// and for results that do not exist, such as a share of no gain).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub value: Option<f64>,
    pub text: String,
}

impl Cell {
    /// A cell without a number.
    pub fn text(text: impl Into<String>) -> Cell {
        let (value, text) = (None, text.into());
        Cell { value, text }
    }

    /// `value` rendered through `spec`: text around one `{}`, `{:.N}` or
    /// `{:+.N}`.
    pub fn num(value: f64, spec: &str) -> Cell {
        let (before, rest) = spec.split_once('{').expect("a `{…}` in the spec");
        let (inner, after) = rest.split_once('}').expect("a `{…}` in the spec");
        let number = match inner.split_once('.') {
            None => format!("{value}"),
            Some((flags, n)) => {
                let n: usize = n.parse().expect("a precision in the spec");
                if flags.contains('+') {
                    format!("{value:+.n$}")
                } else {
                    format!("{value:.n$}")
                }
            }
        };
        let (value, text) = (Some(value), format!("{before}{number}{after}"));
        Cell { value, text }
    }

    /// A yes/no cell: prints `yes` or `no`, reads as 1 or 0.
    pub fn flag(set: bool, yes: &str, no: &str) -> Cell {
        let (value, text) = (Some(f64::from(u8::from(set))), if set { yes } else { no });
        let text = text.to_string();
        Cell { value, text }
    }
}

/// A titled markdown table with keyed rows and trailing notes.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Everything printed above the header row (may span lines).
    pub heading: String,
    /// `(name, spec)` per printed column; a number pushed under a column
    /// renders through its spec (see [`Cell::num`]).
    pub columns: Vec<(String, String)>,
    /// What a result that does not exist prints as.
    pub missing: &'static str,
    /// `(key, cells)` per row. The key prints in the leading columns (one,
    /// or two as in `ad_ranker | drift-mcf`), the cells in the rest.
    pub rows: Vec<(String, Vec<Cell>)>,
    /// Lines printed below the last row; one that starts with `\n` leaves a
    /// blank line above itself.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table under `heading`. `header` is the header row as it
    /// prints, a column's spec after its name where the default `{}` will
    /// not do: `"workload | cycles | vs AutoFDO {:+.2}%"`.
    pub fn new(heading: impl Into<String>, header: &str) -> Table {
        let column = |c: &str| match c.split_once(" {") {
            Some((name, spec)) => (name.to_string(), format!("{{{spec}")),
            None => (c.to_string(), "{}".to_string()),
        };
        Table {
            heading: heading.into(),
            columns: header.split(" | ").map(column).collect(),
            missing: "—",
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row of numbers (`f64`, or `Option<f64>` where a result may
    /// not exist), each rendered by the column it lands in. The key takes
    /// as many columns as it has ` | `-separated parts; columns past the
    /// last value print as [`Table::missing`].
    pub fn push<V: Copy + Into<Option<f64>>>(&mut self, key: impl Into<String>, values: &[V]) {
        let (key, mut cells) = (key.into(), Vec::new());
        for (i, (_, spec)) in self.columns[key.split(" | ").count()..].iter().enumerate() {
            let value: Option<f64> = values.get(i).and_then(|&v| v.into());
            cells.push(value.map_or(Cell::text(self.missing), |v| Cell::num(v, spec)));
        }
        self.rows.push((key, cells));
    }

    /// Overwrites the trailing cells of the row pushed last: the flag or
    /// text columns that follow its numbers.
    pub fn end_row_with<const N: usize>(&mut self, cells: [Cell; N]) {
        let (_, row) = self.rows.last_mut().expect("a pushed row");
        row.splice(row.len() - N.., cells);
    }

    /// Appends a line below the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The number in row `row` under column `column`; `None` when either
    /// is absent or the cell holds no number.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|(name, _)| name == column)?;
        let (_, cells) = self.rows.iter().find(|(key, _)| key == row)?;
        let key_columns = self.columns.len() - cells.len();
        cells.get(col.checked_sub(key_columns)?)?.value
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n|", self.heading)?;
        (self.columns.iter()).try_for_each(|(name, _)| write!(f, " {name} |"))?;
        write!(f, "\n|{}", "---|".repeat(self.columns.len()))?;
        for (key, cells) in &self.rows {
            write!(f, "\n| {key} |")?;
            // An empty cell is one space wide, not two.
            let pad = |c: &Cell| if c.text.is_empty() { "" } else { " " };
            (cells.iter()).try_for_each(|c| write!(f, "{}{} |", pad(c), c.text))?;
        }
        self.notes.iter().try_for_each(|n| write!(f, "\n{n}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_get_agree_on_a_table_with_an_absent_result() {
        let mut t = Table::new(
            "# demo\n(two lines)",
            "workload | row | cycles | delta {:+.2} | share {:.0}%",
        );
        t.push("a | x", &[1200.0, -0.0, 49.6]);
        t.push("b | y", &[Some(7.0), Some(0.125)]);
        t.push("b | z", &[7.5]);
        t.end_row_with([Cell::flag(false, "up", ""), Cell::flag(true, "yes", "no")]);
        let blank = Cell::text("");
        let custom = Cell::num(0.5, "about {:.1}x");
        t.rows
            .push(("c | z".into(), vec![blank.clone(), blank, custom]));
        t.note("\n(a note)");

        assert_eq!(
            t.to_string(),
            "# demo\n(two lines)\n\
             | workload | row | cycles | delta | share |\n\
             |---|---|---|---|---|\n\
             | a | x | 1200 | -0.00 | 50% |\n\
             | b | y | 7 | +0.12 | — |\n\
             | b | z | 7.5 | | yes |\n\
             | c | z | | | about 0.5x |\n\
             \n(a note)"
        );
        assert_eq!(t.get("a | x", "cycles"), Some(1200.0));
        assert_eq!(t.get("a | x", "share"), Some(49.6));
        assert_eq!(t.get("b | y", "delta"), Some(0.125));
        assert_eq!(t.get("b | y", "share"), None);
        assert_eq!(t.get("b | z", "delta"), Some(0.0));
        assert_eq!(t.get("b | z", "share"), Some(1.0));
        assert_eq!(t.get("c | z", "cycles"), None);
        assert_eq!(t.get("c | z", "share"), Some(0.5));
        assert_eq!(t.get("b | y", "no such column"), None);
        assert_eq!(t.get("no such row", "share"), None);
        assert_eq!(t.get("a | x", "workload"), None);
        assert_eq!(t.get("a | x", "row"), None);
    }
}
