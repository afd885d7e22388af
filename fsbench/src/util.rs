//! Seeded randomness, order statistics and process memory for the
//! benchmark. Own code rather than the repository's `rand` stand-in, so
//! that a change to the stand-in cannot change a workload.

/// splitmix64: small, fast and good enough to shuffle an epoch order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// An independent sub-seed of `seed` for one purpose (`stream`), so the
/// dataset seed and the shuffle seed never share a sequence.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// Median of `v` (sorts it). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail to report of an ascending slice: percentile `p` (0..=1) when
/// at least ten samples lie beyond it, otherwise the highest percentile
/// that still has ten beyond it, and the median when the sample is too
/// small even for that. Returns the percentile reported (0..=1) and its
/// value.
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p_idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n - 1 - p_idx >= 10 {
        p_idx
    } else if n >= 21 {
        n - 11
    } else {
        (n - 1) / 2
    };
    ((idx + 1) as f64 / n as f64, sorted[idx])
}

/// Resident set of this process in MB (`VmRSS`), 0 where `/proc` does not
/// offer it.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Words in a CPU mask: room for 1,024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While this lives, the calling thread and every thread it spawns may
/// run on one CPU only; dropping it gives the thread its CPUs back.
///
/// A cluster's threads hand every request from one to the next, and what
/// a hand-off costs depends on where the scheduler put them: a few
/// microseconds on one CPU, ten times that across two CPUs of a virtual
/// machine, where the wake-up is an inter-processor interrupt through the
/// hypervisor. Left alone, the same binary ran `small_files` at 150,000
/// files/s or at 40,000, depending on what had run before it. On one CPU
/// the placement cannot vary, and a run measures the CPU work and the
/// hand-offs of the store rather than the scheduler's choice. The price
/// is that threads of a cluster never overlap: throughput follows the sum
/// of their CPU time.
pub struct OneCpu {
    before: [u64; MASK_WORDS],
}

impl OneCpu {
    /// Pin to the highest CPU this thread may use (the lowest takes most
    /// interrupts). `None`, with a note on standard error, where the
    /// system call is refused: the run goes on unpinned.
    pub fn pin() -> Option<OneCpu> {
        let mut before = [0u64; MASK_WORDS];
        // SAFETY: `before` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let got = unsafe { sched_getaffinity(0, size_of_val(&before), before.as_mut_ptr()) };
        let word = before.iter().rposition(|w| *w != 0)?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << (63 - before[word].leading_zeros());
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let set = got == 0 && unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } == 0;
        if !set {
            eprintln!("fsbench: could not pin to one CPU; hand-off costs will vary with placement");
        }
        set.then_some(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `before` is a readable buffer of exactly the size passed.
        // A failure leaves the thread pinned, which only costs speed.
        unsafe { sched_setaffinity(0, size_of_val(&self.before), self.before.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_undone_on_drop() {
        let mask = || {
            let mut m = [0u64; MASK_WORDS];
            // SAFETY: a writable buffer of exactly the size passed.
            assert_eq!(unsafe { sched_getaffinity(0, size_of_val(&m), m.as_mut_ptr()) }, 0);
            m
        };
        let before = mask();
        if let Some(pin) = OneCpu::pin() {
            assert_eq!(mask().iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let inherited = std::thread::scope(|s| s.spawn(mask).join().expect("child"));
            assert_eq!(inherited, mask(), "spawned threads inherit the pin");
            drop(pin);
        }
        assert_eq!(mask(), before);
    }

    #[test]
    fn tail_is_the_percentile_asked_for_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.99, 990.0));
        assert_eq!(tail(&v, 0.9), (0.9, 900.0));
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.99, 4950.0));
        // 101 samples: p90 is rank 91, ten beyond.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9).1, 91.0);
    }

    #[test]
    fn tail_falls_back_to_highest_percentile_with_ten_beyond() {
        // 999 samples: p99 is rank 990, nine beyond, so one rank lower.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, x) = tail(&v, 0.99);
        assert_eq!(x, 989.0);
        assert!((p - 989.0 / 999.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.90, 90.0));
        assert_eq!(tail(&v, 0.9), (0.90, 90.0));
        // Exactly ten beyond the reported sample in every fallback.
        for n in 21..200usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, x) = tail(&v, 0.99);
            assert_eq!(v.iter().filter(|s| **s > x).count(), 10, "n = {n}");
        }
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), (5.0 / 9.0, 5.0));
        assert_eq!(tail(&[], 0.9), (0.0, 0.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
