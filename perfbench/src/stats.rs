//! Order statistics over latency samples and CPU-time readings from
//! `/proc`, with no dependencies.

/// The median of `values` (the mean of the middle two for an even
/// count). `values` need not be sorted; an empty slice gives 0.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the usual median). An empty slice gives 0.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The arithmetic mean (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanoseconds the calling thread has run on a CPU, from the first
/// field of `/proc/thread-self/schedstat`.
///
/// # Panics
///
/// Panics if the file is missing or malformed (a kernel without
/// schedstats cannot run this benchmark).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds")
}

/// Nanoseconds of user plus system CPU time of the whole process,
/// exited threads included, from `/proc/self/stat` (clock ticks of
/// 10 ms, the fixed `USER_HZ` the kernel reports in).
///
/// # Panics
///
/// Panics if the file is missing or malformed.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    const NANOS_PER_TICK: u64 = 10_000_000;
    let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // the command name may hold spaces; fields resume after its ')'
    let rest = &text[text.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the pid and the command
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("tick count is an integer") };
    (ticks(11) + ticks(12)) * NANOS_PER_TICK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() >= p0);
    }
}
