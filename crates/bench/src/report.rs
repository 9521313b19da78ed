//! Rendering helpers: normalised series, aligned text tables, JSON
//! dumps.

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

/// Writes `data` as pretty JSON to `path`, creating parent directories.
///
/// # Panics
///
/// Panics on I/O failure — experiment output locations are always
/// writable in this repo's workflows, and silent loss of results is
/// worse than an abort.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, data: &T) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results directory");
    }
    let json = serde_json::to_string_pretty(data).expect("results serialize");
    std::fs::write(path, json).expect("write results file");
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
