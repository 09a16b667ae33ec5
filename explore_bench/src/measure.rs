//! Small measurement helpers: order statistics, peak memory, and the
//! named metric values a run reports.

/// One reported value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one value.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank
/// rule; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A Linux `cpu_set_t`: 1024 CPU bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
///
/// # Errors
///
/// Fails when the kernel refuses the query.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok((0..1024).filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the calling thread to `cpu`.
///
/// # Errors
///
/// Fails when `cpu` is out of range or the kernel refuses it.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut set = CpuSet([0; 16]);
    *set.0.get_mut(cpu / 64).ok_or_else(|| format!("CPU {cpu} is out of range"))? |=
        1 << (cpu % 64);
    // SAFETY: `set` is a cpu_set_t of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(format!("pinning to CPU {cpu}: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pins_a_thread_to_one_allowed_cpu() {
        let cpus = allowed_cpus().expect("affinity query");
        assert!(!cpus.is_empty());
        let last = *cpus.last().expect("non-empty");
        std::thread::spawn(move || {
            pin_to(last).expect("pins");
            assert_eq!(allowed_cpus().expect("affinity query"), vec![last]);
        })
        .join()
        .expect("thread ends");
    }
}
