//! Small helpers: order statistics, the output digest, peak memory and
//! the hand-written JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a 64-bit hash, rendered as 16 hex digits: the digest of a
/// workload's canonical output text.
pub fn fnv64(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Exact text form of a float for digests (its bit pattern).
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Resets this process's peak resident set size to its current size
/// (Linux `clear_refs` mode 5), so the next [`peak_rss_mb`] reads the peak
/// since this call. Where that is unsupported, the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median cost, in ns, of reading the clock twice back to back: the bias
/// every sampled span carries and that the CC decorator subtracts.
pub fn clock_cost_ns() -> f64 {
    let mut samples = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let a = Instant::now();
        let b = Instant::now();
        samples.push(b.duration_since(a).as_nanos() as f64);
    }
    median(&samples)
}

/// One printed metric: name, value and unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values print as 0 so the line always parses.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints the shortest text that reads back to the same
        // f64, always with a decimal point or exponent.
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, v, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv64(""), "cbf29ce484222325");
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("x", 1.5, "s"), Metric::new("y", f64::NAN, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x\": {\"value\": 1.5, \"unit\": \"s\"}, \"y\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
