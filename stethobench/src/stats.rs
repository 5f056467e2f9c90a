//! Sample sets, percentiles, and the two kernel counters the report
//! reads (`VmHWM` of this process, `Udp: RcvbufErrors` of its network
//! namespace).

use std::time::Duration;

/// A set of timing (or ratio) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len().max(1) as f64
    }

    /// Percentile `q` in [0, 1], linearly interpolated between the two
    /// closest ranks (NaN when empty).
    pub fn pct(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The kernel's `Udp: RcvbufErrors` counter: datagrams dropped because
/// a socket's receive buffer was full.
pub fn udp_rcvbuf_errors() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let header = udp.next()?;
    let values = udp.next()?;
    let col = header
        .split_whitespace()
        .position(|h| h == "RcvbufErrors")?;
    values.split_whitespace().nth(col)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(1.0), 4.0);
        assert!(Samples::default().median().is_nan());
    }
}
