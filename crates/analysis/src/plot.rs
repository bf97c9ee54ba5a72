//! Terminal plots for experiment reports.
//!
//! The experiment binaries are the repository's "figures"; these helpers
//! render series (learning curves, per-round message counts) as compact
//! ASCII charts so a terminal run reads like the paper's plots.

/// Renders a series as a fixed-height ASCII column chart.
///
/// Values are binned to `width` columns (averaging within bins) and scaled
/// to `height` rows. Returns a multi-line string, top row first, with a
/// y-axis legend of the maximum value.
///
/// # Examples
///
/// ```
/// use dynspread_analysis::plot::column_chart;
///
/// let chart = column_chart(&[0.0, 1.0, 2.0, 3.0], 4, 3);
/// assert_eq!(chart.lines().count(), 4); // 3 rows + legend
/// ```
///
/// # Panics
///
/// Panics if `width` or `height` is zero.
pub fn column_chart(values: &[f64], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "chart dimensions must be positive");
    if values.is_empty() {
        return format!("{}(empty series)\n", " ".repeat(2));
    }
    let cols = width.min(values.len());
    // Bin by averaging.
    let binned: Vec<f64> = (0..cols)
        .map(|c| {
            let lo = c * values.len() / cols;
            let hi = ((c + 1) * values.len() / cols).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let max = binned.iter().copied().fold(0.0f64, f64::max);
    let mut out = String::new();
    for row in (1..=height).rev() {
        let threshold = max * (row as f64 - 0.5) / height as f64;
        for &v in &binned {
            out.push(if max > 0.0 && v >= threshold {
                '█'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out.push_str(&format!("max = {max:.1}, {} points\n", values.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_has_height_plus_legend_lines() {
        let chart = column_chart(&[1.0, 5.0, 3.0], 10, 5);
        assert_eq!(chart.lines().count(), 6);
        assert!(chart.contains("max = 5.0"));
    }

    #[test]
    fn chart_peak_reaches_top_row() {
        let chart = column_chart(&[0.0, 0.0, 10.0], 3, 4);
        let top = chart.lines().next().unwrap();
        assert_eq!(top.chars().filter(|&c| c == '█').count(), 1);
    }

    #[test]
    fn chart_of_zeros_is_blank() {
        let chart = column_chart(&[0.0; 5], 5, 3);
        for line in chart.lines().take(3) {
            assert!(line.chars().all(|c| c == ' '));
        }
    }

    #[test]
    fn chart_bins_long_series() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let chart = column_chart(&values, 20, 4);
        // 20 columns per row.
        assert!(chart.lines().take(4).all(|l| l.chars().count() == 20));
        assert!(chart.contains("1000 points"));
    }

    #[test]
    fn empty_series_is_handled() {
        assert!(column_chart(&[], 10, 3).contains("empty"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimensions_panic() {
        let _ = column_chart(&[1.0], 0, 3);
    }
}
