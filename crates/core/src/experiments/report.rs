//! One result shape for every experiment and one renderer for it.
//!
//! A [`Report`] holds typed tables, the paper's reference values as data
//! ([`PaperRef`]), reading notes and the files the experiment produced.
//! [`Report::render`] prints it as aligned text or as CSV; both formats
//! print each number with its column's precision.

use std::fmt::{self, Write as _};

use ossd_block::DeviceError;

use super::Scale;

/// Why an experiment produced no report.
#[derive(Debug)]
pub enum ExperimentError {
    /// The simulated device refused a request or a configuration.
    Device(DeviceError),
    /// The experiment ran, but one of its own checks failed.
    Check {
        /// The experiment's registry name.
        experiment: &'static str,
        /// What failed, with the numbers involved.
        what: String,
    },
}

impl From<DeviceError> for ExperimentError {
    fn from(e: DeviceError) -> Self {
        ExperimentError::Device(e)
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Device(e) => write!(f, "device error: {e}"),
            ExperimentError::Check { what, .. } => write!(f, "check failed: {what}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A measurement, printed with its column's precision.
    Num(f64),
    /// A label, printed as is.
    Text(String),
}

macro_rules! int_cell {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::Int(v as u64)
            }
        }
    )*};
}
int_cell!(u32, u64, usize);

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Text(v.to_string())
    }
}

/// A table column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: &'static str,
    /// Unit of the column's numbers (empty when they have none).
    pub unit: &'static str,
    /// Decimals a [`Cell::Num`] prints with.
    pub precision: usize,
    /// Print [`Cell::Num`] in scientific notation.
    pub scientific: bool,
}

/// A fixed-point column.
pub(crate) const fn col(name: &'static str, unit: &'static str, precision: usize) -> Column {
    Column {
        name,
        unit,
        precision,
        scientific: false,
    }
}

impl Column {
    /// The header: the name, suffixed with the unit in parentheses.
    fn header(&self) -> String {
        match self.unit {
            "" => self.name.to_string(),
            unit => format!("{} ({unit})", self.name),
        }
    }

    fn format(&self, cell: &Cell) -> String {
        let p = self.precision;
        match cell {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) if self.scientific => format!("{v:.p$e}"),
            Cell::Num(v) => format!("{v:.p$}"),
            Cell::Text(s) => s.clone(),
        }
    }
}

/// A value the paper reports for one cell of a table.
#[derive(Clone, Debug, PartialEq)]
pub struct PaperRef {
    /// Index of the table row the value belongs to.
    pub row: usize,
    /// Name of the column the value belongs to.
    pub column: &'static str,
    /// The paper's value.
    pub value: Cell,
}

/// A column and the getter that reads its cell from a row.
pub(crate) type Getter<T> = (Column, fn(&T) -> Cell);

/// One table of a report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Table name (empty for a report's only table).
    pub name: &'static str,
    /// The columns, in print order.
    pub columns: Vec<Column>,
    /// The rows; each holds one cell per column.
    pub rows: Vec<Vec<Cell>>,
    /// The paper's values for cells of this table.
    pub paper: Vec<PaperRef>,
}

impl Table {
    /// An unnamed table of one row per item of `rows`, each column's cell
    /// read by its getter.
    pub fn of<T>(rows: &[T], columns: &[Getter<T>]) -> Self {
        let cells = |row| columns.iter().map(|(_, cell)| cell(row)).collect();
        Table {
            name: "",
            columns: columns.iter().map(|(c, _)| *c).collect(),
            rows: rows.iter().map(cells).collect(),
            paper: Vec::new(),
        }
    }

    /// Records the paper's values for `column`, one per row from the first.
    pub(crate) fn paper_column<V: Into<Cell>>(
        &mut self,
        column: &'static str,
        values: impl IntoIterator<Item = V>,
    ) {
        for (row, value) in values.into_iter().enumerate() {
            let value = value.into();
            self.paper.push(PaperRef { row, column, value });
        }
    }

    /// The table as strings: the header, then the rows, with a
    /// `paper <column>` column after the measured ones for every column the
    /// paper reports.
    fn grid(&self) -> Result<Vec<Vec<String>>, String> {
        let width = self.columns.len();
        if let Some((r, cells)) = self.rows.iter().enumerate().find(|(_, c)| c.len() != width) {
            return Err(format!(
                "row {r} has {} cells for {width} columns",
                cells.len()
            ));
        }
        let known = |p: &PaperRef| {
            p.row < self.rows.len() && self.columns.iter().any(|c| c.name == p.column)
        };
        if let Some(p) = self.paper.iter().find(|p| !known(p)) {
            return Err(format!("paper value for row {} column {}", p.row, p.column));
        }
        let paper: Vec<&Column> = (self.columns.iter())
            .filter(|c| self.paper.iter().any(|p| p.column == c.name))
            .collect();
        let mut header: Vec<String> = self.columns.iter().map(Column::header).collect();
        header.extend(paper.iter().map(|c| format!("paper {}", c.header())));
        let mut grid = vec![header];
        for (r, cells) in self.rows.iter().enumerate() {
            let mut line: Vec<String> = self
                .columns
                .iter()
                .zip(cells)
                .map(|(c, cell)| c.format(cell))
                .collect();
            line.extend(paper.iter().map(|c| {
                let value = self.paper.iter().find(|p| p.row == r && p.column == c.name);
                value.map_or(String::new(), |p| c.format(&p.value))
            }));
            grid.push(line);
        }
        Ok(grid)
    }
}

/// How [`Report::render`] prints a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// A banner, aligned tables and the notes.
    Text,
    /// The tables as CSV, a blank line between tables.
    Csv,
}

/// Everything one experiment reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// The experiment's registry name.
    pub name: &'static str,
    /// The paper result (or the question) it answers.
    pub title: &'static str,
    /// The scale it ran at.
    pub scale: Scale,
    /// Its tables.
    pub tables: Vec<Table>,
    /// How to read the tables.
    pub notes: Vec<String>,
    /// Files it produced, as (file name, contents).
    pub artifacts: Vec<(String, String)>,
    /// Host wall-clock measurements.  They differ from run to run, so they
    /// are kept apart from the tables, which are deterministic.
    pub timings: Vec<String>,
}

impl Report {
    /// A report of `tables`, with no notes, artifacts or timings yet.
    pub fn new(name: &'static str, title: &'static str, scale: Scale, tables: Vec<Table>) -> Self {
        Report {
            name,
            title,
            scale,
            tables,
            ..Report::default()
        }
    }

    /// The report with `note` appended to its notes.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Prints the report.  Fails if a row's cell count differs from its
    /// table's column count, or a paper value names no cell.
    pub fn render(&self, format: Format) -> Result<String, ExperimentError> {
        let mut out = String::new();
        if format == Format::Text {
            let rule = "=".repeat(64);
            let _ = write!(
                out,
                "{rule}\n{}\nscale: {:?}\n{rule}\n",
                self.title, self.scale
            );
        }
        for (t, table) in self.tables.iter().enumerate() {
            let grid = table.grid().map_err(|what| ExperimentError::Check {
                experiment: self.name,
                what: format!("table {}: {what}", table.name),
            })?;
            if format == Format::Csv {
                out.push_str(if t > 0 { "\n" } else { "" });
                for row in &grid {
                    let fields: Vec<String> = row.iter().map(|f| csv_field(f)).collect();
                    let _ = writeln!(out, "{}", fields.join(","));
                }
                continue;
            }
            if !table.name.is_empty() {
                let _ = writeln!(out, "-- {} --", table.name);
            }
            // Numbers align right, labels left.
            let columns: Vec<(usize, bool)> = (0..grid[0].len())
                .map(|c| {
                    let width = grid.iter().map(|row| row[c].len()).max().unwrap_or(0);
                    let numeric = (grid[1..].iter())
                        .all(|row| row[c].is_empty() || row[c].parse::<f64>().is_ok());
                    (width, numeric)
                })
                .collect();
            for row in &grid {
                let mut line = String::new();
                for (field, &(w, numeric)) in row.iter().zip(&columns) {
                    let _ = if numeric {
                        write!(line, "{field:>w$}  ")
                    } else {
                        write!(line, "{field:<w$}  ")
                    };
                }
                let _ = writeln!(out, "{}", line.trim_end());
            }
        }
        if format == Format::Text && !self.notes.is_empty() {
            let _ = write!(out, "\n{}\n", self.notes.join("\n"));
        }
        Ok(out)
    }
}

/// Quotes a CSV field that holds a comma, a quote or a line break.
fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(name: &'static str, columns: Vec<Column>) -> Table {
        Table {
            name,
            columns,
            ..Table::default()
        }
    }

    fn report_with(table: Table) -> Report {
        Report::new("demo", "Demo", Scale::Quick, vec![table])
    }

    #[test]
    fn a_row_of_the_wrong_width_is_rejected() {
        let mut table = empty("t", vec![col("a", "", 0), col("b", "", 0)]);
        table.rows.push(vec![1u64.into()]);
        for format in [Format::Text, Format::Csv] {
            match report_with(table.clone()).render(format) {
                Err(ExperimentError::Check { experiment, what }) => {
                    assert_eq!(experiment, "demo");
                    assert!(what.contains("1 cells for 2 columns"), "{what}");
                }
                other => panic!("expected a check failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn each_column_prints_with_its_own_precision() {
        let uber = Column {
            scientific: true,
            ..col("uber", "", 3)
        };
        let mut table = empty("", vec![col("a", "ms", 1), col("b", "", 4), uber]);
        table
            .rows
            .push(vec![2.375.into(), 2.375.into(), 0.000123.into()]);
        table.paper_column("b", [8.0]);
        let csv = report_with(table.clone()).render(Format::Csv).unwrap();
        assert_eq!(csv, "a (ms),b,uber,paper b\n2.4,2.3750,1.230e-4,8.0000\n");
        let text = report_with(table).render(Format::Text).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last.split_whitespace().collect::<Vec<_>>(),
            ["2.4", "2.3750", "1.230e-4", "8.0000"]
        );
    }

    #[test]
    fn text_with_commas_or_quotes_is_quoted_in_csv() {
        let mut table = empty("", vec![col("evidence", "", 0)]);
        table.rows.push(vec!["ratio = 1.0, far jump".into()]);
        table.rows.push(vec!["a \"quoted\" word".into()]);
        table.rows.push(vec!["plain".into()]);
        let csv = report_with(table).render(Format::Csv).unwrap();
        assert_eq!(
            csv,
            "evidence\n\"ratio = 1.0, far jump\"\n\"a \"\"quoted\"\" word\"\nplain\n"
        );
    }

    #[test]
    fn tables_are_separated_and_aligned() {
        let mut first = empty("first", vec![col("name", "", 0), col("n", "", 0)]);
        first.rows.push(vec!["x".into(), 10u64.into()]);
        first.rows.push(vec!["longer".into(), 7u64.into()]);
        let mut report = report_with(first);
        report.tables.push(empty("second", vec![col("m", "", 0)]));
        report.notes.push("a note".to_string());
        assert_eq!(
            report.render(Format::Csv).unwrap(),
            "name,n\nx,10\nlonger,7\n\nm\n"
        );
        let text = report.render(Format::Text).unwrap();
        assert!(
            text.contains("-- first --\nname     n\nx       10\nlonger   7\n-- second --\nm\n"),
            "{text}"
        );
        assert!(text.ends_with("\na note\n"));
    }

    #[test]
    fn a_paper_value_must_name_a_cell() {
        let mut table = empty("t", vec![col("a", "", 0)]);
        table.rows.push(vec![1u64.into()]);
        table.paper_column("b", [1.0]);
        assert!(report_with(table).render(Format::Text).is_err());
    }
}
