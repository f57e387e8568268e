//! Plain-text table rendering for the reproduction harness.

/// A rendered experiment artifact: a title, a caption tying it to the
/// thesis, a header row, and data rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`table2`, `fig11`, …).
    pub id: String,
    /// Human title matching the thesis artifact.
    pub title: String,
    /// The *Shape target* line: [`crate::claims::shape_target`] of the
    /// experiment's claims.
    pub expectation: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Indices of the columns that read the host clock, or anything else
    /// that varies run to run: [`moved_cells`] skips them.
    pub host: Vec<usize>,
}

impl Table {
    /// Construct an empty table; its shape target is set from the claims
    /// of its experiment id.
    pub fn new(id: &str, title: &str, header: Vec<String>) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            expectation: String::new(),
            header,
            rows: Vec::new(),
            host: Vec::new(),
        }
    }

    /// Mark the column headed `name` as host-dependent: its cells vary run
    /// to run, so a snapshot check does not compare them.
    pub fn host_column(&mut self, name: &str) {
        let i = self.header.iter().position(|h| h == name);
        self.host.push(i.expect("a host column names a header"));
    }

    /// Append one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   shape target: {}\n", self.expectation));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format!("   {}\n", fmt_row(&self.header)));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&format!("   {}\n", "-".repeat(total)));
        for row in &self.rows {
            out.push_str(&format!("   {}\n", fmt_row(row)));
        }
        out
    }

    /// Render as a JSON object (`{"id", "title", "expectation", "header",
    /// "rows"}`, then `"host"` when a column is marked) for machine
    /// consumption — the workspace builds offline, so this is a small
    /// hand-rolled encoder rather than a serde dependency.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(cells: &[String]) -> String {
            let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", quoted.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        let host: Vec<String> = self.host.iter().map(usize::to_string).collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"expectation\":\"{}\",\"header\":{},\"rows\":[{}]{}}}",
            esc(&self.id),
            esc(&self.title),
            esc(&self.expectation),
            arr(&self.header),
            rows.join(","),
            if host.is_empty() {
                String::new()
            } else {
                format!(",\"host\":[{}]", host.join(","))
            }
        )
    }

    /// Render as GitHub-flavoured markdown. A host-marked column's header
    /// carries a `†`, explained by one footnote under the table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### `{}` — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Shape target:* {}\n\n", self.expectation));
        let header: Vec<String> = (self.header.iter().enumerate())
            .map(|(i, h)| match self.host.contains(&i) {
                true => format!("{h} {HOST_MARK}"),
                false => h.clone(),
            })
            .collect();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        if !self.host.is_empty() {
            out.push_str(&format!(
                "{HOST_MARK} Varies run to run: `repro --check` skips this column.\n\n"
            ));
        }
        out
    }

    /// Parse one line of [`Table::render_json`]'s output.
    pub fn parse_json(line: &str) -> Result<Table, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let mut t = Table::new("", "", Vec::new());
        p.eat(b'{')?;
        loop {
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "id" => t.id = p.string()?,
                "title" => t.title = p.string()?,
                "expectation" => t.expectation = p.string()?,
                "header" => t.header = p.list(Parser::string)?,
                "rows" => t.rows = p.list(|p| p.list(Parser::string))?,
                "host" => t.host = p.list(Parser::index)?,
                other => return Err(format!("unknown key {other:?}")),
            }
            if p.peek() != Some(b',') {
                break;
            }
            p.i += 1;
        }
        p.eat(b'}')?;
        if p.peek().is_some() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        let width = t.header.len();
        if let Some(row) = t.rows.iter().find(|r| r.len() != width) {
            return Err(format!("row width mismatch: {row:?} under {width} columns"));
        }
        if let Some(i) = t.host.iter().find(|&&i| i >= width) {
            return Err(format!("host column {i} past the {width} columns"));
        }
        Ok(t)
    }
}

/// Marks a host column's header in [`Table::render_markdown`].
const HOST_MARK: char = '†';

/// Render every line of a `repro --json` snapshot with
/// [`Table::render_markdown`], in order: what EXPERIMENTS.md holds between
/// its markers.
pub fn snapshot_markdown(snapshot: &str) -> Result<String, String> {
    let mut out = String::new();
    for (n, line) in snapshot.lines().enumerate() {
        let table = Table::parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        out.push_str(&table.render_markdown());
    }
    Ok(out)
}

/// The cells of `new` that differ from `old`, as `id/row/column: old → new`,
/// `row` being the row's first cell. Host-marked columns of either table are
/// skipped; a changed header or row count is reported as one line.
pub fn moved_cells(old: &Table, new: &Table) -> Vec<String> {
    let id = &old.id;
    if old.header != new.header {
        return vec![format!("{id}/header: {:?} → {:?}", old.header, new.header)];
    }
    let mut moved = Vec::new();
    for (old_row, new_row) in old.rows.iter().zip(&new.rows) {
        for (c, (a, b)) in old_row.iter().zip(new_row).enumerate() {
            if a != b && !old.host.contains(&c) && !new.host.contains(&c) {
                let (row, column) = (&old_row[0], &old.header[c]);
                moved.push(format!("{id}/{row}/{column}: {a} → {b}"));
            }
        }
    }
    if old.rows.len() != new.rows.len() {
        let (a, b) = (old.rows.len(), new.rows.len());
        moved.push(format!("{id}/rows: {a} → {b}"));
    }
    moved
}

/// A reader for the JSON that [`Table::render_json`] writes: objects,
/// arrays, strings and unsigned integers, no whitespace.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return Err(format!("expected '{}' at {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    let c = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            self.i += 4;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            char::from_u32(code).ok_or("bad \\u")?
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }

    fn index(&mut self) -> Result<usize, String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let digits = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        digits
            .parse()
            .map_err(|_| format!("expected a number at {start}"))
    }

    fn list<T>(&mut self, item: fn(&mut Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                _ => break,
            }
        }
        self.eat(b']')?;
        Ok(out)
    }
}

/// Format seconds like the thesis tables (3–4 significant digits).
pub fn secs(t: f64) -> String {
    if t < 0.1 {
        format!("{t:.4}")
    } else {
        format!("{t:.3}")
    }
}

/// Format a speedup.
pub fn speedup(s: f64) -> String {
    format!("{s:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", "demo", vec!["a".into(), "long-header".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "demo", vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_is_escaped_and_well_formed() {
        let mut t = Table::new("t1", "a \"quoted\"\ttitle", vec!["a".into(), "b".into()]);
        t.expectation = "line\nbreak".into();
        t.row(vec!["1".into(), "x\\y".into()]);
        let json = t.render_json();
        assert_eq!(
            json,
            "{\"id\":\"t1\",\"title\":\"a \\\"quoted\\\"\\ttitle\",\
             \"expectation\":\"line\\nbreak\",\"header\":[\"a\",\"b\"],\
             \"rows\":[[\"1\",\"x\\\\y\"]]}"
        );
    }

    #[test]
    fn json_parses_back_and_host_columns_are_skipped() {
        let mut old = Table::new(
            "t2",
            "a \"quoted\"\ttitle \u{1}",
            vec!["row".into(), "host ms".into(), "cut".into()],
        );
        old.expectation = "line\nbreak — dash".into();
        old.host_column("host ms");
        old.row(vec!["p=2".into(), "1.5".into(), "x\\y".into()]);
        old.row(vec!["p=4".into(), "2.5".into(), "7".into()]);
        let parsed = Table::parse_json(&old.render_json()).expect("parses");
        assert_eq!(parsed.render_json(), old.render_json());
        assert_eq!(parsed.host, vec![1]);
        let md = parsed.render_markdown();
        assert_eq!(
            md,
            old.render_markdown(),
            "the host mark survives the round trip"
        );
        assert!(md.contains("| row | host ms † | cut |\n"));
        assert!(md.ends_with("|\n\n† Varies run to run: `repro --check` skips this column.\n\n"));
        assert!(moved_cells(&old, &parsed).is_empty());
        let mut new = parsed.clone();
        new.rows[0][1] = "9.9".into();
        new.rows[1][2] = "8".into();
        assert_eq!(moved_cells(&old, &new), vec!["t2/p=4/cut: 7 → 8"]);
        new.rows.pop();
        assert_eq!(moved_cells(&old, &new), vec!["t2/rows: 2 → 1"]);
        assert!(Table::parse_json("{\"id\":\"t\"} x").is_err());
    }

    #[test]
    fn a_row_or_host_index_wider_or_narrower_than_the_header_is_refused() {
        let mut t = Table::new("t3", "demo", vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let json = t.render_json();
        assert!(Table::parse_json(&json).is_ok());
        for (from, to) in [
            ("[\"1\",\"2\"]", "[\"1\"]"),
            ("[\"1\",\"2\"]", "[\"1\",\"2\",\"3\"]"),
            ("]]}", "]],\"host\":[2]}"),
        ] {
            let bad = json.replace(from, to);
            assert_ne!(bad, json);
            assert!(Table::parse_json(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("t", "demo", vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn secs_formats_small_and_large() {
        assert_eq!(secs(0.0123456), "0.0123");
        assert_eq!(secs(1.23456), "1.235");
    }
}
