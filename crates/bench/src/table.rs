//! The one value every experiment returns: a markdown table whose cells
//! keep the number they were rendered from. `Display` is what gets
//! printed and committed under `results/`; [`Table::get`] is what tests
//! read. Nothing parses rendered text.

use std::fmt;

/// One table cell: how it prints, and the number behind it (`None` for
/// labels and for results that do not exist, such as a share of no gain).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The number the text was rendered from.
    pub value: Option<f64>,
    /// The text between the column bars.
    pub text: String,
}

impl Cell {
    /// A cell without a number.
    pub fn text(text: impl Into<String>) -> Cell {
        Cell {
            value: None,
            text: text.into(),
        }
    }

    /// A cell rendered by `render` when the result exists, as `missing`
    /// when it does not.
    pub fn opt(value: Option<f64>, missing: &str, render: impl Fn(f64) -> String) -> Cell {
        Cell {
            value,
            text: value.map_or_else(|| missing.to_string(), render),
        }
    }
}

/// A cell carrying `$v` (any primitive number) rendered through the format
/// string `$fmt`.
#[macro_export]
macro_rules! cell {
    ($v:expr, $fmt:literal) => {{
        let v = $v;
        $crate::Cell {
            value: Some(v as f64),
            text: format!($fmt, v),
        }
    }};
}

/// A titled markdown table with keyed rows and trailing notes.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Everything printed above the header row (may span lines).
    pub heading: String,
    /// Column names; the first names the key column.
    pub columns: Vec<String>,
    /// `(key, cells)` per row: the key prints in the first column (and may
    /// itself span printed columns, as in `ad_ranker | drift-mcf`), the
    /// cells under `columns[1..]`.
    pub rows: Vec<(String, Vec<Cell>)>,
    /// Lines printed below the last row; an empty string is a blank line.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table under `heading` with the given column names.
    pub fn new(heading: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            heading: heading.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row is not as wide as the header.
    pub fn push(&mut self, key: impl Into<String>, cells: Vec<Cell>) {
        assert_eq!(cells.len() + 1, self.columns.len(), "{}", self.heading);
        self.rows.push((key.into(), cells));
    }

    /// Appends a line below the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The number in row `row` under column `column`; `None` when either
    /// is absent or the cell holds no number.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().skip(1).position(|c| c == column)?;
        let (_, cells) = self.rows.iter().find(|(key, _)| key == row)?;
        cells[col].value
    }

    /// Row keys, top to bottom.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(key, _)| key.as_str())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One rule per printed column: a key column named `a | b` is two.
        let header = self.columns.join(" | ");
        let printed = header.matches(" | ").count() + 1;
        write!(f, "{}\n| {header} |\n|{}", self.heading, "---|".repeat(printed))?;
        for (key, cells) in &self.rows {
            write!(f, "\n| {key} |")?;
            for cell in cells {
                // An empty cell is one space wide, not two.
                let pad = if cell.text.is_empty() { "" } else { " " };
                write!(f, "{pad}{} |", cell.text)?;
            }
        }
        self.notes.iter().try_for_each(|n| write!(f, "\n{n}"))
    }
}
