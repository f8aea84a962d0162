//! Sample statistics, the seeded input generator, and small host probes.

/// Linear-interpolated quantile `q` (0..=1) of `samples` (sorted here).
/// Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's only source of inputs. Every workload
/// derives its data and request sequence from `--seed` through this.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    pub fn vec_f32(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32_in(lo, hi)).collect()
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut pick = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if pick < u64::from(w) {
                return i;
            }
            pick -= u64::from(w);
        }
        weights.len() - 1
    }
}

/// FNV-1a over the bit patterns of `data`: a final-state checksum that
/// repeats exactly whenever the state does.
pub fn checksum(data: &[f32]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Whether two results agree bit for bit.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string, as `/proc/cpuinfo` reports it.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Size in bytes of the highest-level cache CPU 0 reports, or 32 MiB
/// when sysfs does not say.
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1usize << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            if level > best.0 {
                best = (level, n * scale);
            }
        }
    }
    if best.1 == 0 {
        32 << 20
    } else {
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_weighted_draws_cover_every_index() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[a.weighted(&[1, 2, 3])] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0));
        assert!(seen[2] > seen[0]);
        let x = a.f32_in(1.0, 2.0);
        assert!((1.0..2.0).contains(&x));
    }
}
