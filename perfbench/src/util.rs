//! Seeded inputs, output comparison, and process/host facts.

/// SplitMix64: a tiny, well-mixed generator; the same seed gives the
/// same stream on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// A generator for an independent stream: `seed` split by `lane`.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The seeded sample stream for a float program: uniform in `[-1, 1)`.
pub fn float_input(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.unit() * 2.0 - 1.0).collect()
}

/// The seeded key stream for an int program: integers in `[-2^20, 2^20)`,
/// carried as `f64` like every engine's external input.
pub fn int_input(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| rng.below(1 << 21) as f64 - (1u64 << 20) as f64)
        .collect()
}

/// How two output streams may differ: bit identity, or the bound the
/// workspace's differential suites allow downstream of a reassociating
/// linear rewrite (`LinearReport::reassociating`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    Bit,
    /// 4096 ULPs or 1e-9 absolute.
    Reassociated,
}

impl Tolerance {
    pub fn for_report(report: Option<&streamit::linear::LinearReport>) -> Tolerance {
        match report {
            Some(r) if r.reassociating() => Tolerance::Reassociated,
            _ => Tolerance::Bit,
        }
    }

    fn matches(self, a: f64, b: f64) -> bool {
        match self {
            Tolerance::Bit => a.to_bits() == b.to_bits(),
            Tolerance::Reassociated => {
                if a.is_nan() || b.is_nan() {
                    return a.is_nan() && b.is_nan();
                }
                (a - b).abs() <= 1e-9 || ulp_diff(a, b) <= 4096
            }
        }
    }
}

/// Distance in representable `f64`s, counting through zero.
fn ulp_diff(a: f64, b: f64) -> u64 {
    fn monotone(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    monotone(a).abs_diff(monotone(b))
}

/// Compare `got` with the first `got.len()` items of `want`; `Err`
/// names the first difference.  `want` may be longer (a reference run
/// can overshoot), never shorter.
pub fn compare(label: &str, tol: Tolerance, got: &[f64], want: &[f64]) -> Result<(), String> {
    if want.len() < got.len() {
        return Err(format!(
            "{label}: {} outputs, reference has only {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(&g, &w)| !tol.matches(g, w)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{label}: output {i} is {:?}, reference {:?} ({tol:?})",
            got[i], want[i]
        )),
    }
}

/// A `/proc/self/status` field in KiB (0 where unavailable).
fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") as f64 / 1024.0
}

pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:")
}

/// CPU time the calling thread has consumed, in seconds.
///
/// Single-threaded work is timed with this clock instead of the wall
/// clock: on a shared virtual machine the hypervisor hands the virtual
/// CPU to other guests (steal time) for anywhere from 0% to 17% of a
/// run, and wall time counts that while thread CPU time does not.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time every thread of this process has consumed, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks always exist on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_clock: i32) -> f64 {
    wall_s()
}

/// Wall-clock seconds since the first call.
pub fn wall_s() -> f64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// Load-generation threads and connections may not exceed this.
pub fn thread_cap() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit being measured and whether its tree had local changes,
/// from `git` when `root` is the top of a git checkout (`None`
/// otherwise, including inside some enclosing repository).
pub fn commit(root: &std::path::Path) -> (Option<String>, Option<bool>) {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let ours = run(&["rev-parse", "--show-toplevel"])
        .is_some_and(|top| std::fs::canonicalize(top).ok() == std::fs::canonicalize(root).ok());
    if !ours {
        return (None, None);
    }
    let rev = run(&["rev-parse", "HEAD"]);
    let dirty = run(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

/// Minimal JSON string escaping for names and messages we emit.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_differ_by_seed() {
        let a = float_input(&mut Rng::new(7), 64);
        assert_eq!(a, float_input(&mut Rng::new(7), 64));
        assert_ne!(a, float_input(&mut Rng::new(8), 64));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        let k = int_input(&mut Rng::lane(7, 3), 64);
        assert!(k.iter().all(|v| v.fract() == 0.0));
    }

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_s() - t0;
        let t1 = thread_cpu_s();
        let mut x = 0u64;
        while thread_cpu_s() - t1 < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 0.01, "sleeping used {slept} s of CPU");
        assert!(x > 0);
    }

    #[test]
    fn tolerance_policies() {
        let x = 1.0f64;
        let next = f64::from_bits(x.to_bits() + 3);
        assert!(compare("b", Tolerance::Bit, &[x], &[x, 2.0]).is_ok());
        assert!(compare("b", Tolerance::Bit, &[next], &[x]).is_err());
        assert!(compare("r", Tolerance::Reassociated, &[next], &[x]).is_ok());
        assert!(compare("r", Tolerance::Reassociated, &[1.001], &[x]).is_err());
        assert!(compare("short", Tolerance::Bit, &[x, x], &[x]).is_err());
    }
}
