//! Handwritten Rust versions of two benchmark apps, as plain iterator
//! chains: the distance from the compiled engines to straightforward
//! native code.  Each must reproduce the reference interpreter's
//! output bit for bit, so its arithmetic follows the stream program's
//! exact evaluation order.

use std::f64::consts::PI;

/// Windowed-sinc low-pass taps, as `apps::common::lowpass_fir` builds them.
fn lowpass_taps(taps: usize, cutoff: f64) -> Vec<f64> {
    let m = (taps - 1) as f64;
    (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * x).sin() / (PI * x)
            };
            sinc * (0.54 - 0.46 * (2.0 * PI * i as f64 / m).cos())
        })
        .collect()
}

/// Band-pass taps, as `apps::common::bandpass_fir` builds them.
fn bandpass_taps(taps: usize, freq: f64, width: f64) -> Vec<f64> {
    let m = (taps - 1) as f64;
    (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let lp = |c: f64| {
                if x == 0.0 {
                    2.0 * c
                } else {
                    (2.0 * PI * c * x).sin() / (PI * x)
                }
            };
            (lp(freq + width) - lp((freq - width).max(0.0)))
                * (0.54 - 0.46 * (2.0 * PI * i as f64 / m).cos())
        })
        .collect()
}

/// `sum = sum + x[n+i] * h[i]` over each window, in tap order.
fn fir<'a>(x: &'a [f64], h: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    x.windows(h.len())
        .map(move |w| w.iter().zip(h).fold(0.0, |s, (a, b)| s + a * b))
}

/// The FM radio of `apps::fmradio::fmradio(bands, taps)`: low-pass,
/// arctangent demodulator, `bands` band-pass-and-gain branches summed.
pub struct FmRadio {
    lowpass: Vec<f64>,
    bands: Vec<(Vec<f64>, f64)>,
}

impl FmRadio {
    pub fn new(bands: usize, taps: usize) -> FmRadio {
        let b = bands as f64;
        FmRadio {
            lowpass: lowpass_taps(taps, 0.25),
            bands: (0..bands)
                .map(|i| {
                    let centre = (i as f64 + 0.5) / (2.0 * b);
                    (
                        bandpass_taps(taps, centre, 0.5 / (2.0 * b)),
                        1.0 + 0.1 * i as f64,
                    )
                })
                .collect(),
        }
    }

    /// Every output the input fully determines.
    pub fn run(&self, input: &[f64]) -> Vec<f64> {
        let lp: Vec<f64> = fir(input, &self.lowpass).collect();
        let demod: Vec<f64> = lp.windows(2).map(|w| (w[1] * w[0] * 0.5).atan()).collect();
        let bands: Vec<Vec<f64>> = self
            .bands
            .iter()
            .map(|(h, g)| fir(&demod, h).map(|v| v * g).collect())
            .collect();
        let n = bands.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|j| bands.iter().fold(0.0, |s, b| s + b[j]))
            .collect()
    }
}

/// The network of `apps::bitonic::bitonic_sort(n)` on each block of `n`
/// keys: merge phases of growing block size `k`, each a series of
/// compare-exchange stages at partner distance `d`, ascending where
/// `(i / k)` is even.
pub fn bitonic(input: &[f64], n: usize) -> Vec<f64> {
    input
        .chunks_exact(n)
        .flat_map(|block| {
            let mut v: Vec<i64> = block.iter().map(|&x| x as i64).collect();
            let mut k = 2;
            while k <= n {
                let mut d = k / 2;
                while d >= 1 {
                    for i in (0..n).filter(|i| i & d == 0) {
                        let (lo, hi) = (v[i].min(v[i + d]), v[i].max(v[i + d]));
                        let up = (i / k) % 2 == 0;
                        (v[i], v[i + d]) = if up { (lo, hi) } else { (hi, lo) };
                    }
                    d /= 2;
                }
                k *= 2;
            }
            v.into_iter().map(|x| x as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitonic_sorts_blocks() {
        let input: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64 - 20.0).collect();
        let out = bitonic(&input, 32);
        for (a, b) in input.chunks(32).zip(out.chunks(32)) {
            let mut want = a.to_vec();
            want.sort_by(f64::total_cmp);
            assert_eq!(b, &want[..]);
        }
    }

    #[test]
    fn fmradio_output_count() {
        let r = FmRadio::new(4, 16);
        // 16-tap low-pass, 2-wide demod, 16-tap bands.
        assert_eq!(r.run(&vec![0.5; 100]).len(), 100 - 15 - 1 - 15);
    }
}
