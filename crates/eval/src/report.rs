//! Fixed-width ASCII tables for terminal reports.

use crate::metrics::PrecisionRecall;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        fn cell(row: &[String], c: usize) -> &str {
            row.get(c).map(String::as_str).unwrap_or("")
        }
        let width = |c: usize| {
            self.rows
                .iter()
                .map(|r| cell(r, c).chars().count())
                .chain(std::iter::once(cell(&self.header, c).chars().count()))
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..cols).map(width).collect();

        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (c, w) in widths.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                let text = cell(row, c);
                line.push_str(text);
                for _ in text.chars().count()..*w {
                    line.push(' ');
                }
            }
            line.trim_end().to_owned()
        };

        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Header of a table scoring both directions between two KBs, in the
/// paper's column order: `kb1 ⊂ kb2` first.
pub fn direction_header(first: &str, kb1: &str, kb2: &str) -> Vec<String> {
    vec![
        first.to_owned(),
        format!("{kb1} ⊂ {kb2} P"),
        format!("{kb1} ⊂ {kb2} F1"),
        format!("{kb2} ⊂ {kb1} P"),
        format!("{kb2} ⊂ {kb1} F1"),
    ]
}

/// The row under a [`direction_header`].
pub fn direction_row(
    first: String,
    kb1_in_kb2: &PrecisionRecall,
    kb2_in_kb1: &PrecisionRecall,
) -> Vec<String> {
    vec![
        first,
        format!("{:.2}", kb1_in_kb2.precision()),
        format!("{:.2}", kb1_in_kb2.f1()),
        format!("{:.2}", kb2_in_kb1.precision()),
        format!("{:.2}", kb2_in_kb1.f1()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.push(vec!["short".into(), "1".into()]);
        t.push(vec!["a much longer name".into(), "12345".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // The value column starts at the same offset in every data row.
        let offset = lines[2].find('1').unwrap();
        assert_eq!(&lines[3][offset..offset + 5], "12345");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.push(vec!["only one".into()]);
        let out = t.render();
        assert!(out.contains("only one"));
    }

    #[test]
    fn unicode_widths_use_chars() {
        let mut t = Table::new(vec!["yago ⊂ dbpd".into()]);
        t.push(vec!["0.95".into()]);
        let out = t.render();
        assert!(out.lines().nth(1).unwrap().len() >= "yago ⊂ dbpd".chars().count());
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["x".into()]);
        assert!(t.is_empty());
        t.push(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
