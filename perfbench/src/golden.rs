//! Comparison of rendered figures against the checked-in
//! `results_scaled.txt` (the `figures all` output at seed 2023).

use std::collections::BTreeMap;

/// Whether `line` is a `(figN took 1.2s)` timing line.
fn is_timing_line(line: &str) -> bool {
    let t = line.trim();
    t.starts_with('(') && t.ends_with(')') && t.contains(" took ")
}

/// The lines of one rendered figure that must match: header, column row,
/// data rows and notes. Timing lines and blank lines are dropped.
pub fn comparable_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !is_timing_line(l))
        .map(|l| l.trim_end().to_string())
        .collect()
}

/// Split a `figures` text output into figure id → comparable lines.
pub fn parse_results(text: &str) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in comparable_lines(text) {
        if let Some(rest) = line.strip_prefix("== ") {
            let id = rest.split(':').next().unwrap_or("").to_string();
            out.insert(id.clone(), Vec::new());
            current = Some(id);
        }
        if let Some(id) = &current {
            out.entry(id.clone()).or_default().push(line);
        }
    }
    out
}

/// The first difference between `expected` and `actual`, if any.
pub fn first_mismatch(expected: &[String], actual: &[String]) -> Option<String> {
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            return Some(format!("line {}: expected {e:?}, got {a:?}", i + 1));
        }
    }
    (expected.len() != actual.len()).then(|| {
        format!(
            "{} lines expected, {} rendered",
            expected.len(),
            actual.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
== fig4: Impact (normalized) ==
          speedup
In-Core     1.000
  note: n = 1500000 floats

  (fig4 took 164.6ms)

== fig6: Irregular ==
             speedup
pr_push/Base   1.000

  (fig6 took 5.8s)
";

    #[test]
    fn timing_lines_are_stripped() {
        let figs = parse_results(SAMPLE);
        assert_eq!(figs.len(), 2);
        assert_eq!(
            figs["fig4"],
            vec![
                "== fig4: Impact (normalized) ==",
                "          speedup",
                "In-Core     1.000",
                "  note: n = 1500000 floats",
            ]
        );
        assert_eq!(figs["fig6"].len(), 3);
        assert!(figs.values().flatten().all(|l| !l.contains("took")));
    }

    #[test]
    fn rendered_figure_matches_its_block() {
        let figs = parse_results(SAMPLE);
        let rendered = "== fig6: Irregular ==\n             speedup\npr_push/Base   1.000\n";
        assert_eq!(
            first_mismatch(&figs["fig6"], &comparable_lines(rendered)),
            None
        );
        let drifted = rendered.replace("1.000", "1.001");
        assert!(first_mismatch(&figs["fig6"], &comparable_lines(&drifted)).is_some());
        let short = "== fig6: Irregular ==\n";
        assert!(first_mismatch(&figs["fig6"], &comparable_lines(short)).is_some());
    }
}
