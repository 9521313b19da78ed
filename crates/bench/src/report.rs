//! Rendering helpers: normalised series, aligned and pivoted text
//! tables, output files.

use serde::Serialize;
use std::path::Path;

/// Normalises values to the paper's convention: divide by the largest
/// value, so the worst (strategy, size) cell reads `1.00`.
/// A zero/empty series stays all-zero.
pub fn normalize(values: &[f64]) -> Vec<f64> {
    let max = values.iter().fold(0.0f64, |m, &v| m.max(v));
    if max <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / max).collect()
}

/// Renders an aligned text table.
///
/// # Panics
///
/// Panics if any row length differs from the header length.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Renders `(x, series, value)` cells as one table: a row per x value
/// under `x_header` and a column per series, both in first-seen order,
/// each value printed by `format_cell`.
///
/// # Panics
///
/// Panics if some (x, series) pair has no cell.
pub fn pivot_table(
    x_header: &str,
    cells: &[(usize, &str, f64)],
    format_cell: impl Fn(f64) -> String,
) -> String {
    let mut xs: Vec<usize> = Vec::new();
    let mut headers = vec![x_header];
    for &(x, series, _) in cells {
        if !xs.contains(&x) {
            xs.push(x);
        }
        if !headers[1..].contains(&series) {
            headers.push(series);
        }
    }
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            let values = headers[1..].iter().map(|&series| {
                let &(_, _, v) = cells
                    .iter()
                    .find(|c| c.0 == x && c.1 == series)
                    .expect("dense sweep");
                format_cell(v)
            });
            std::iter::once(x.to_string()).chain(values).collect()
        })
        .collect();
    render_table(&headers, &rows)
}

/// Writes `contents` to `path`, creating its parent directories.
///
/// # Panics
///
/// Panics on I/O failure — experiment output locations are always
/// writable in this repo's workflows, and silent loss of results is
/// worse than an abort.
pub fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results directory");
    }
    std::fs::write(path, contents).expect("write results file");
}

/// Writes `data` as pretty JSON to `path` through [`write_file`].
///
/// # Panics
///
/// As [`write_file`].
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, data: &T) {
    write_file(
        path,
        serde_json::to_string_pretty(data).expect("results serialize"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_to_unit_max() {
        let n = normalize(&[1.0, 2.0, 4.0]);
        assert_eq!(n, vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "12.50".into()],
            ],
        );
        let lines: Vec<_> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("12.50"));
        // all rows equal width
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn pivot_keeps_first_seen_order_and_formats_every_cell() {
        let cells = [
            (500, "b", 2.0),
            (500, "a", 1.0),
            (100, "b", 4.0),
            (100, "a", 3.0),
        ];
        let t = pivot_table("size", &cells, |v| format!("{v:.1}"));
        let lines: Vec<Vec<&str>> = t.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(lines[0], ["size", "b", "a"]);
        assert_eq!(lines[2], ["500", "2.0", "1.0"]);
        assert_eq!(lines[3], ["100", "4.0", "3.0"]);
    }

    #[test]
    #[should_panic(expected = "dense sweep")]
    fn pivot_rejects_a_missing_cell() {
        let _ = pivot_table("size", &[(1, "a", 1.0), (2, "b", 2.0)], |v| v.to_string());
    }

    #[test]
    fn write_json_round_trips() {
        let dir = std::env::temp_dir().join("mec-bench-test");
        let path = dir.join("x.json");
        write_json(&path, &vec![1, 2, 3]);
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
