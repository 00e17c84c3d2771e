//! Host facts, hermetic-run hygiene, and the benchmark's own RNG and hash.

use fv3::state::DycoreState;

/// Remove every `FV3_*` variable from the process environment and return
/// the names removed. Called before the first thread starts: the repo
/// reads nine such knobs at six sites, and no run may depend on them.
pub fn clear_fv3_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FV3_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(level, type, size)` of every cache of cpu0 that sysfs describes.
pub fn caches() -> Vec<(u32, String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        out.push((
            level.trim().parse().unwrap_or(0),
            ty.trim().to_string(),
            size.trim().to_string(),
        ));
    }
    out
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit of the checkout, read from `.git` without running git; the
/// driver's checkouts are not repositories, so this is often "unknown".
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.chars().take(12).collect(),
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed maps
/// to the same inputs on every commit regardless of what the workspace's
/// `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bit patterns of every stored value of every prognostic
/// field of every rank, one 64-bit word at a time. Equal hashes are the
/// benchmark's 0-ULP check.
pub fn state_hash(states: &[DycoreState]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in states {
        for (_, field) in s.fields() {
            for v in field.raw() {
                h = (h ^ v.to_bits()).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(3) < 3);
        }
    }

    #[test]
    fn state_hash_sees_a_one_ulp_change() {
        let mut s = DycoreState::zeros(4, 2);
        s.pt.set(1, 1, 0, 300.0);
        let h0 = state_hash(std::slice::from_ref(&s));
        s.pt.set(1, 1, 0, f64::from_bits(300.0f64.to_bits() + 1));
        assert_ne!(h0, state_hash(std::slice::from_ref(&s)));
    }
}
