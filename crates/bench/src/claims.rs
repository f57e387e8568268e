//! Shape claims: what each artifact's table must show, declared once per
//! experiment id and checked over the table itself.
//!
//! The thesis's evaluation is judged by shapes, not absolute numbers. A
//! [`Claim`] is a shape in words plus a check over the [`Table`] the
//! experiment builds. A claim either holds here, or it is a declared
//! [`Deviation`]: a shape the thesis reports that this reproduction does
//! not show, with the EXPERIMENTS.md section that explains why. A deviation's
//! check must keep failing, so a change that makes the thesis's shape hold
//! again is flagged too, and the deviation becomes a claim.
//!
//! The *Shape target* line of every rendering is [`shape_target`] of the
//! claims, `repro` checks the claims of every table it builds, and the
//! harness tests check them over the committed snapshot.

use crate::report::Table;

/// One shape an artifact's table shows, or a declared deviation from one.
#[derive(Clone, Copy)]
pub struct Claim {
    /// The shape in words, naming the rows and columns it reads.
    pub text: &'static str,
    /// Whether `text` holds over the table.
    pub(crate) check: fn(&Table) -> bool,
    /// Set when the shape is the thesis's and does not hold here.
    pub deviation: Option<Deviation>,
}

/// Why a thesis shape does not hold in this reproduction.
#[derive(Clone, Copy)]
pub struct Deviation {
    /// The EXPERIMENTS.md section, by its `### ` heading, that explains it.
    pub section: &'static str,
    /// The cause, in one sentence.
    pub reason: &'static str,
}

impl Claim {
    /// A shape that holds: its check must pass.
    pub(crate) const fn holds(text: &'static str, check: fn(&Table) -> bool) -> Claim {
        Claim {
            text,
            check,
            deviation: None,
        }
    }

    /// A thesis shape that does not hold here: its check must fail.
    pub(crate) const fn deviates(
        text: &'static str,
        check: fn(&Table) -> bool,
        section: &'static str,
        reason: &'static str,
    ) -> Claim {
        Claim {
            text,
            check,
            deviation: Some(Deviation { section, reason }),
        }
    }
}

/// The *Shape target* line rendered for `claims`.
pub fn shape_target(claims: &[Claim]) -> String {
    let texts: Vec<String> = (claims.iter())
        .map(|c| match c.deviation {
            None => c.text.to_string(),
            Some(d) => format!("not reproduced: {} (see “{}”)", c.text, d.section),
        })
        .collect();
    texts.join("; ")
}

/// Every claim of `id` that `table` breaks: a claim that does not hold, or a
/// deviation whose thesis shape now does. Empty when all is as declared.
pub fn broken(id: &str, claims: &[Claim], table: &Table) -> Vec<String> {
    (claims.iter())
        .filter(|c| (c.check)(table) == c.deviation.is_some())
        .map(|c| match c.deviation {
            None => format!("{id}: claim “{}” does not hold", c.text),
            Some(d) => format!(
                "{id}: deviation “{}” now holds (declared because {}); \
                 make it a claim and rewrite “{}”",
                c.text, d.reason, d.section
            ),
        })
        .collect()
}

// ---- Reading a table --------------------------------------------------------

/// A cell as a number: a leading `+` and trailing units (`%`, `ms`) are
/// ignored, and anything else that does not parse is NaN, which fails every
/// comparison.
fn num(cell: &str) -> f64 {
    let digits = cell
        .trim_start_matches('+')
        .trim_end_matches(|c: char| !c.is_ascii_digit());
    digits.parse().unwrap_or(f64::NAN)
}

/// The cell in the row whose first cell is `row`, under the header `column`.
pub(crate) fn cell(t: &Table, row: &str, column: &str) -> f64 {
    let c = t.header.iter().position(|h| h == column);
    let r = t.rows.iter().find(|r| r[0] == row);
    match (r, c) {
        (Some(r), Some(c)) => num(&r[c]),
        _ => f64::NAN,
    }
}

/// The numbers of the row whose first cell is `row`, label excluded.
pub(crate) fn row(t: &Table, row: &str) -> Vec<f64> {
    match t.rows.iter().find(|r| r[0] == row) {
        Some(r) => r[1..].iter().map(|c| num(c)).collect(),
        None => vec![f64::NAN],
    }
}

/// The numbers of column `column` over the rows labelled `rows`, in order.
pub(crate) fn column(t: &Table, column: &str, rows: &[&str]) -> Vec<f64> {
    rows.iter().map(|r| cell(t, r, column)).collect()
}

/// Every row's numbers, label excluded.
pub(crate) fn rows(t: &Table) -> Vec<Vec<f64>> {
    (t.rows.iter())
        .map(|r| r[1..].iter().map(|c| num(c)).collect())
        .collect()
}

/// Strictly rising, with at least two values.
pub(crate) fn rises(xs: &[f64]) -> bool {
    xs.len() > 1 && xs.windows(2).all(|w| w[0] < w[1])
}

/// Strictly falling, with at least two values.
pub(crate) fn falls(xs: &[f64]) -> bool {
    xs.len() > 1 && xs.windows(2).all(|w| w[0] > w[1])
}

/// Never falling, with at least two values.
pub(crate) fn never_falls(xs: &[f64]) -> bool {
    xs.len() > 1 && xs.windows(2).all(|w| w[0] <= w[1])
}

/// All equal, with at least two values.
pub(crate) fn level(xs: &[f64]) -> bool {
    xs.len() > 1 && xs.windows(2).all(|w| w[0] == w[1])
}

/// `x` within the fraction `tol` of `target`.
pub(crate) fn near(x: f64, target: f64, tol: f64) -> bool {
    (x / target - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::new("t", "demo", vec!["k".into(), "x".into(), "y".into()]);
        t.row(vec!["a".into(), "+1.5%".into(), "3.0ms".into()]);
        t.row(vec!["b".into(), "2".into(), "—".into()]);
        t
    }

    #[test]
    fn cells_read_as_numbers_and_missing_ones_as_nan() {
        let t = demo();
        assert_eq!(cell(&t, "a", "x"), 1.5);
        assert_eq!(cell(&t, "a", "y"), 3.0);
        assert!(cell(&t, "b", "y").is_nan());
        assert!(cell(&t, "c", "x").is_nan());
        assert!(cell(&t, "a", "z").is_nan());
        assert_eq!(column(&t, "x", &["a", "b"]), vec![1.5, 2.0]);
        assert!(rises(&column(&t, "x", &["a", "b"])));
        assert!(!rises(&[1.0]), "one value is no shape");
        assert!(!falls(&row(&t, "c")));
    }

    #[test]
    fn a_claim_breaks_when_it_fails_and_a_deviation_when_it_holds() {
        let t = demo();
        let claims = [
            Claim::holds("x rises", |t| rises(&column(t, "x", &["a", "b"]))),
            Claim::deviates(
                "x falls",
                |t| falls(&column(t, "x", &["a", "b"])),
                "S",
                "why",
            ),
        ];
        assert!(broken("t", &claims, &t).is_empty());
        assert_eq!(
            shape_target(&claims),
            "x rises; not reproduced: x falls (see “S”)"
        );
        let mut flipped = t.clone();
        flipped.rows[0][1] = "9".into();
        let broken = broken("t", &claims, &flipped);
        assert_eq!(broken.len(), 2, "{broken:?}");
        assert!(broken[0].starts_with("t: claim “x rises”"));
        assert!(broken[1].starts_with("t: deviation “x falls” now holds"));
    }
}
