//! The number format of experiment tables.
//!
//! The experiment bins print the paper's tables as aligned ASCII (so a
//! terminal run reads like the paper); `dynspread_bench::row::render_table`
//! lays them out, and [`fmt_f64`] is how their float cells read.

/// Formats a float compactly for table cells (`1234.5` → `"1234.5"`,
/// `0.000123` → `"1.23e-4"`).
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.01 && v.abs() < 1e7 {
        let s = format!("{v:.2}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_modes() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5), "1234.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.000123), "1.230e-4");
        assert_eq!(fmt_f64(1e9), "1.000e9");
    }
}
