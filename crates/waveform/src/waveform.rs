//! The [`Waveform`] enum and its exact calculus.

use std::f64::consts::TAU;

/// Construction errors for waveforms whose validity depends on their
/// data: the PULSE and EXP shapes and PWL point lists. Every front end
/// (netlist, JSON) reports these messages as they are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveformError {
    /// A PULSE rise or fall time is not positive.
    PulseEdges,
    /// A periodic PULSE's period is shorter than rise + width + fall.
    PulsePeriod,
    /// An EXP time constant is not positive.
    ExpTimeConstants,
    /// An EXP decay starts before its rise (`td2 < td1`).
    ExpDecayBeforeRise,
    /// A PWL waveform needs at least one `(t, v)` breakpoint.
    EmptyPwl,
    /// A PWL breakpoint has a NaN/infinite time or value (index given).
    NonFinitePwl(usize),
}

impl std::fmt::Display for WaveformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveformError::PulseEdges => write!(f, "PULSE rise and fall must be positive"),
            WaveformError::PulsePeriod => write!(f, "PULSE period must fit the pulse shape"),
            WaveformError::ExpTimeConstants => write!(f, "EXP time constants must be positive"),
            WaveformError::ExpDecayBeforeRise => {
                write!(f, "EXP decay must start after the rise")
            }
            WaveformError::EmptyPwl => {
                write!(f, "PWL waveform needs at least one (t, v) breakpoint")
            }
            WaveformError::NonFinitePwl(i) => {
                write!(f, "PWL breakpoint {i} has a non-finite time or value")
            }
        }
    }
}

impl std::error::Error for WaveformError {}

/// A scalar input waveform `u(t)` on `t ≥ 0` with closed-form
/// antiderivative and piecewise derivative.
///
/// ```
/// use opm_waveform::Waveform;
/// let w = Waveform::step(1.0, 2.5);
/// assert_eq!(w.eval(0.5), 0.0);
/// assert_eq!(w.eval(1.5), 2.5);
/// // Exact average over [0, 2): half the interval is on.
/// assert!((w.average(0.0, 2.0) - 1.25).abs() < 1e-15);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Waveform {
    /// Constant level.
    Dc(f64),
    /// `0` before `t0`, `level` after.
    Step {
        /// Switch-on time.
        t0: f64,
        /// Level after `t0`.
        level: f64,
    },
    /// `slope·t` for `t ≥ 0`.
    Ramp {
        /// Slope.
        slope: f64,
    },
    /// SPICE `PULSE(v1 v2 delay rise width fall period)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time (> 0).
        rise: f64,
        /// Time at `v2`.
        width: f64,
        /// Fall time (> 0).
        fall: f64,
        /// Repetition period (`0` = single pulse).
        period: f64,
    },
    /// SPICE `SIN(offset ampl freq delay damp)`:
    /// `offset` for `t < delay`, then
    /// `offset + ampl·e^{−damp(t−delay)}·sin(2πf(t−delay))`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Start delay.
        delay: f64,
        /// Damping factor (1/s).
        damp: f64,
    },
    /// SPICE `EXP(v1 v2 td1 tau1 td2 tau2)`: rises from `v1` toward `v2`
    /// with time constant `tau1` after `td1`, then decays back toward `v1`
    /// with `tau2` after `td2`.
    Exp {
        /// Initial value.
        v1: f64,
        /// Target value of the rising phase.
        v2: f64,
        /// Rise delay.
        td1: f64,
        /// Rise time constant (> 0).
        tau1: f64,
        /// Decay delay (≥ td1).
        td2: f64,
        /// Decay time constant (> 0).
        tau2: f64,
    },
    /// Piecewise-linear through `(t, v)` breakpoints (sorted by `t`);
    /// clamps to the first/last value outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Unit step at `t0` scaled to `level`.
    pub fn step(t0: f64, level: f64) -> Self {
        Waveform::Step { t0, level }
    }

    /// A periodic trapezoidal pulse (`period = 0`: a single pulse).
    ///
    /// # Errors
    /// [`WaveformError::PulseEdges`] unless rise and fall are positive,
    /// [`WaveformError::PulsePeriod`] unless the period is 0 or fits
    /// rise + width + fall. A NaN fails the check it meets.
    pub fn pulse(
        v1: f64,
        v2: f64,
        delay: f64,
        rise: f64,
        width: f64,
        fall: f64,
        period: f64,
    ) -> Result<Self, WaveformError> {
        if !(rise > 0.0 && fall > 0.0) {
            return Err(WaveformError::PulseEdges);
        }
        if !(period == 0.0 || period >= rise + width + fall) {
            return Err(WaveformError::PulsePeriod);
        }
        Ok(Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            width,
            fall,
            period,
        })
    }

    /// Sine wave `ampl·sin(2πft)` with optional offset/delay/damping.
    pub fn sine(offset: f64, ampl: f64, freq: f64, delay: f64, damp: f64) -> Self {
        Waveform::Sine {
            offset,
            ampl,
            freq,
            delay,
            damp,
        }
    }

    /// SPICE EXP source.
    ///
    /// # Errors
    /// [`WaveformError::ExpTimeConstants`] unless both time constants are
    /// positive, [`WaveformError::ExpDecayBeforeRise`] when `td2 < td1`.
    /// A NaN fails the check it meets.
    pub fn exp(
        v1: f64,
        v2: f64,
        td1: f64,
        tau1: f64,
        td2: f64,
        tau2: f64,
    ) -> Result<Self, WaveformError> {
        if !(tau1 > 0.0 && tau2 > 0.0) {
            return Err(WaveformError::ExpTimeConstants);
        }
        let decays_after_rise = td2 >= td1;
        if !decays_after_rise {
            return Err(WaveformError::ExpDecayBeforeRise);
        }
        Ok(Waveform::Exp {
            v1,
            v2,
            td1,
            tau1,
            td2,
            tau2,
        })
    }

    /// Builds a PWL waveform; points are sorted by time (a stable sort,
    /// so coincident-time breakpoints keep their relative order and model
    /// an instantaneous jump).
    ///
    /// # Errors
    /// [`WaveformError::EmptyPwl`] on an empty point list,
    /// [`WaveformError::NonFinitePwl`] when any breakpoint time or value
    /// is NaN or infinite.
    pub fn pwl(mut points: Vec<(f64, f64)>) -> Result<Self, WaveformError> {
        if points.is_empty() {
            return Err(WaveformError::EmptyPwl);
        }
        if let Some(i) = points
            .iter()
            .position(|&(t, v)| !t.is_finite() || !v.is_finite())
        {
            return Err(WaveformError::NonFinitePwl(i));
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Waveform::Pwl(points))
    }

    /// Evaluates `u(t)`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Step { t0, level } => {
                if t >= *t0 {
                    *level
                } else {
                    0.0
                }
            }
            Waveform::Ramp { slope } => {
                if t >= 0.0 {
                    slope * t
                } else {
                    0.0
                }
            }
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                width,
                fall,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Sine {
                offset,
                ampl,
                freq,
                delay,
                damp,
            } => {
                if t < *delay {
                    *offset
                } else {
                    let tau = t - delay;
                    offset + ampl * (-damp * tau).exp() * (TAU * freq * tau).sin()
                }
            }
            Waveform::Exp {
                v1,
                v2,
                td1,
                tau1,
                td2,
                tau2,
            } => {
                let mut v = *v1;
                if t >= *td1 {
                    v += (v2 - v1) * (1.0 - (-(t - td1) / tau1).exp());
                }
                if t >= *td2 {
                    v += (v1 - v2) * (1.0 - (-(t - td2) / tau2).exp());
                }
                v
            }
            Waveform::Pwl(points) => {
                // Directly-constructed `Pwl(vec![])` bypasses the
                // validating constructor; treat it as the zero waveform
                // rather than indexing out of bounds.
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|&(tp, _)| tp <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// The antiderivative `F(t) = ∫₀ᵗ u(τ) dτ` in closed form (`t ≥ 0`).
    pub fn integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match self {
            Waveform::Dc(v) => v * t,
            Waveform::Step { t0, level } => {
                if t <= *t0 {
                    0.0
                } else {
                    level * (t - t0.max(0.0))
                }
            }
            Waveform::Ramp { slope } => 0.5 * slope * t * t,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                width,
                fall,
                period,
            } => {
                let mut acc = v1 * t.min(*delay);
                if t <= *delay {
                    return acc;
                }
                let tau = t - delay;
                let shape_len = rise + width + fall;
                let one_period = |tl: f64| -> f64 {
                    // ∫ of one pulse shape from 0 to tl (tl within period).
                    let mut s = 0.0;
                    // Rising edge.
                    let tr = tl.min(*rise);
                    if tr > 0.0 {
                        s += v1 * tr + 0.5 * (v2 - v1) * tr * tr / rise;
                    }
                    // Flat top.
                    let tw = (tl - rise).clamp(0.0, *width);
                    if tw > 0.0 {
                        s += v2 * tw;
                    }
                    // Falling edge.
                    let tf = (tl - rise - width).clamp(0.0, *fall);
                    if tf > 0.0 {
                        s += v2 * tf + 0.5 * (v1 - v2) * tf * tf / fall;
                    }
                    // Off (back at v1).
                    let toff = tl - shape_len;
                    if toff > 0.0 {
                        s += v1 * toff;
                    }
                    s
                };
                if *period > 0.0 {
                    let full = (tau / period).floor();
                    acc += full * one_period(*period);
                    acc += one_period(tau - full * period);
                } else {
                    acc += one_period(tau);
                }
                acc
            }
            Waveform::Sine {
                offset,
                ampl,
                freq,
                delay,
                damp,
            } => {
                let mut acc = offset * t.min(*delay);
                if t <= *delay {
                    return acc;
                }
                let tau = t - delay;
                acc += offset * tau;
                let w = TAU * freq;
                let a = -damp;
                // ∫₀^τ e^{aσ} sin(wσ) dσ = [e^{aσ}(a sin wσ − w cos wσ)]₀^τ/(a²+w²)
                let denom = a * a + w * w;
                if denom == 0.0 {
                    return acc; // freq = damp = 0: sin term vanishes
                }
                let at = (a * tau).exp();
                let val = (at * (a * (w * tau).sin() - w * (w * tau).cos()) + w) / denom;
                acc + ampl * val
            }
            Waveform::Exp {
                v1,
                v2,
                td1,
                tau1,
                td2,
                tau2,
            } => {
                // ∫(1 − e^{−(t−td)/τ}) from td to t = (t − td) − τ(1 − e^{−(t−td)/τ})
                let ramp = |t: f64, td: f64, tau: f64| -> f64 {
                    if t <= td {
                        0.0
                    } else {
                        (t - td) - tau * (1.0 - (-(t - td) / tau).exp())
                    }
                };
                v1 * t + (v2 - v1) * ramp(t, *td1, *tau1) + (v1 - v2) * ramp(t, *td2, *tau2)
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                let mut acc = 0.0;
                let mut prev_t = 0.0f64;
                // Leading clamp before the first breakpoint.
                if points[0].0 > 0.0 {
                    let seg_end = points[0].0.min(t);
                    acc += points[0].1 * (seg_end - 0.0).max(0.0);
                    prev_t = seg_end;
                    if t <= points[0].0 {
                        return acc;
                    }
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t0 {
                        break;
                    }
                    let lo = t0.max(prev_t).max(0.0);
                    let hi = t1.min(t);
                    if hi > lo && t1 > t0 {
                        // Linear segment value at σ: v0 + (v1−v0)(σ−t0)/(t1−t0).
                        let slope = (v1 - v0) / (t1 - t0);
                        let va = v0 + slope * (lo - t0);
                        let vb = v0 + slope * (hi - t0);
                        acc += 0.5 * (va + vb) * (hi - lo);
                    }
                    prev_t = prev_t.max(hi);
                }
                // Trailing clamp.
                let last = points[points.len() - 1];
                if t > last.0 {
                    acc += last.1 * (t - last.0.max(0.0));
                }
                acc
            }
        }
    }

    /// Exact interval average `(1/(b−a))·∫_a^b u` — the BPF projection
    /// kernel.
    ///
    /// # Panics
    /// Panics when `b <= a`.
    pub fn average(&self, a: f64, b: f64) -> f64 {
        assert!(b > a, "average needs b > a");
        (self.integral(b) - self.integral(a)) / (b - a)
    }

    /// Piecewise derivative `u̇(t)` (one-sided at corners; Dirac masses of
    /// ideal steps are *not* represented — use finite rise times when the
    /// derivative feeds a model).
    pub fn derivative(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(_) | Waveform::Step { .. } => 0.0,
            Waveform::Ramp { slope } => {
                if t >= 0.0 {
                    *slope
                } else {
                    0.0
                }
            }
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                width,
                fall,
                period,
            } => {
                if t < *delay {
                    return 0.0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    (v2 - v1) / rise
                } else if tau < rise + width {
                    0.0
                } else if tau < rise + width + fall {
                    (v1 - v2) / fall
                } else {
                    0.0
                }
            }
            Waveform::Sine {
                ampl,
                freq,
                delay,
                damp,
                ..
            } => {
                if t < *delay {
                    0.0
                } else {
                    let tau = t - delay;
                    let w = TAU * freq;
                    ampl * (-damp * tau).exp() * (w * (w * tau).cos() - damp * (w * tau).sin())
                }
            }
            Waveform::Exp {
                v1,
                v2,
                td1,
                tau1,
                td2,
                tau2,
            } => {
                let mut d = 0.0;
                if t >= *td1 {
                    d += (v2 - v1) / tau1 * (-(t - td1) / tau1).exp();
                }
                if t >= *td2 {
                    d += (v1 - v2) / tau2 * (-(t - td2) / tau2).exp();
                }
                d
            }
            Waveform::Pwl(points) => {
                if points.is_empty() || t < points[0].0 || t >= points[points.len() - 1].0 {
                    return 0.0;
                }
                let idx = points.partition_point(|&(tp, _)| tp <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    0.0
                } else {
                    (v1 - v0) / (t1 - t0)
                }
            }
        }
    }

    /// BPF projection: the `m` interval averages on `[0, t_end)`.
    pub fn bpf_coeffs(&self, m: usize, t_end: f64) -> Vec<f64> {
        let h = t_end / m as f64;
        (0..m)
            .map(|i| self.average(i as f64 * h, (i + 1) as f64 * h))
            .collect()
    }

    /// Offset BPF projection: the `m` interval averages on the window
    /// `[t_start, t_start + t_len)`, sampled at **global** time — the
    /// per-window projection of a windowed/streaming solve, which shifts
    /// the sampling grid instead of mutating the waveform.
    ///
    /// `bpf_coeffs_window(m, 0.0, t_end)` equals
    /// [`bpf_coeffs`](Self::bpf_coeffs)`(m, t_end)`.
    pub fn bpf_coeffs_window(&self, m: usize, t_start: f64, t_len: f64) -> Vec<f64> {
        (0..m)
            .map(|i| self.bpf_coeff_window(m, t_start, t_len, i))
            .collect()
    }

    /// Coefficient `i` of [`Waveform::bpf_coeffs_window`]: the average
    /// on `[t_start + i·h, t_start + (i+1)·h)`, `h = t_len/m`.
    pub fn bpf_coeff_window(&self, m: usize, t_start: f64, t_len: f64, i: usize) -> f64 {
        let h = t_len / m as f64;
        self.average(t_start + i as f64 * h, t_start + (i + 1) as f64 * h)
    }

    /// Samples at the `m` interval *endpoints* `t_k = k·h` for
    /// `k = 1..=m` (what the classical steppers consume).
    pub fn samples_at_ends(&self, m: usize, t_end: f64) -> Vec<f64> {
        let h = t_end / m as f64;
        (1..=m).map(|k| self.eval(k as f64 * h)).collect()
    }
}

/// A vector input `u(t) ∈ R^p`: one waveform per channel.
#[derive(Clone, Debug, Default)]
pub struct InputSet {
    channels: Vec<Waveform>,
}

impl InputSet {
    /// Creates an input set from waveforms.
    pub fn new(channels: Vec<Waveform>) -> Self {
        InputSet { channels }
    }

    /// Number of channels `p`.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True when there are no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The waveforms.
    pub fn channels(&self) -> &[Waveform] {
        &self.channels
    }

    /// Evaluates the input vector at `t`.
    pub fn eval(&self, t: f64) -> Vec<f64> {
        self.channels.iter().map(|w| w.eval(t)).collect()
    }

    /// Evaluates the derivative vector at `t`.
    pub fn derivative(&self, t: f64) -> Vec<f64> {
        self.channels.iter().map(|w| w.derivative(t)).collect()
    }

    /// The `p × m` BPF coefficient matrix `U` (row per channel), flattened
    /// row-major.
    pub fn bpf_matrix(&self, m: usize, t_end: f64) -> Vec<Vec<f64>> {
        self.channels
            .iter()
            .map(|w| w.bpf_coeffs(m, t_end))
            .collect()
    }

    /// Offset form of [`InputSet::bpf_matrix`]: the `p × m` coefficient
    /// matrix of the window `[t_start, t_start + t_len)`, each channel
    /// sampled at global time (see [`Waveform::bpf_coeffs_window`]).
    pub fn bpf_matrix_window(&self, m: usize, t_start: f64, t_len: f64) -> Vec<Vec<f64>> {
        self.channels
            .iter()
            .map(|w| w.bpf_coeffs_window(m, t_start, t_len))
            .collect()
    }

    /// Interval averages on an arbitrary (adaptive) grid given by
    /// boundaries `bounds[0..=m]`.
    pub fn averages_on_grid(&self, bounds: &[f64]) -> Vec<Vec<f64>> {
        self.channels
            .iter()
            .map(|w| {
                bounds
                    .windows(2)
                    .map(|ab| w.average(ab[0], ab[1]))
                    .collect()
            })
            .collect()
    }

    /// Interval averages of the *derivative* `u̇` on a grid — exact via the
    /// fundamental theorem: `avg(u̇) = (u(b) − u(a))/(b − a)`. The
    /// second-order nodal power-grid model consumes `u̇` as its input.
    pub fn derivative_averages_on_grid(&self, bounds: &[f64]) -> Vec<Vec<f64>> {
        self.channels
            .iter()
            .map(|w| {
                bounds
                    .windows(2)
                    .map(|ab| (w.eval(ab[1]) - w.eval(ab[0])) / (ab[1] - ab[0]))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric quadrature oracle (composite Simpson, fine grid).
    fn quad(w: &Waveform, a: f64, b: f64) -> f64 {
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut s = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            s += h / 6.0 * (w.eval(x0) + 4.0 * w.eval(x0 + 0.5 * h) + w.eval(x0 + h));
        }
        s
    }

    fn check_integral(w: &Waveform, t: f64, tol: f64) {
        let exact = w.integral(t);
        let numeric = quad(w, 0.0, t);
        assert!(
            (exact - numeric).abs() < tol * numeric.abs().max(1.0),
            "{w:?} at t={t}: exact {exact} vs numeric {numeric}"
        );
    }

    #[test]
    fn dc_and_step_and_ramp_integrals() {
        check_integral(&Waveform::Dc(2.5), 3.0, 1e-12);
        // Tolerance limited by the Simpson oracle at the jump, not by the
        // closed form (which is exact).
        check_integral(&Waveform::step(1.0, 4.0), 3.0, 1e-4);
        check_integral(&Waveform::Ramp { slope: 2.0 }, 2.0, 1e-12);
    }

    #[test]
    fn pulse_integral_single_and_periodic() {
        let single = Waveform::pulse(0.0, 1.0, 0.5, 0.1, 0.3, 0.1, 0.0).unwrap();
        for &t in &[0.3, 0.55, 0.7, 0.95, 1.05, 3.0] {
            check_integral(&single, t, 1e-7);
        }
        let periodic = Waveform::pulse(0.2, 1.0, 0.0, 0.05, 0.2, 0.05, 0.5).unwrap();
        for &t in &[0.1, 0.31, 0.5, 1.23, 4.9] {
            check_integral(&periodic, t, 1e-7);
        }
    }

    #[test]
    fn sine_integral_damped_and_undamped() {
        let u = Waveform::sine(0.5, 2.0, 3.0, 0.0, 0.0);
        for &t in &[0.2, 1.0, 2.7] {
            check_integral(&u, t, 1e-9);
        }
        let d = Waveform::sine(0.0, 1.0, 2.0, 0.25, 1.5);
        for &t in &[0.2, 0.5, 2.0] {
            check_integral(&d, t, 1e-9);
        }
    }

    #[test]
    fn exp_eval_integral_derivative() {
        let w = Waveform::exp(0.2, 1.0, 0.1, 0.05, 0.4, 0.1).unwrap();
        assert_eq!(w.eval(0.0), 0.2);
        // Far past both phases the waveform returns to v1.
        assert!((w.eval(5.0) - 0.2).abs() < 1e-6);
        // Peak near td2 approaches v2.
        assert!(w.eval(0.4) > 0.9);
        for &t in &[0.05, 0.2, 0.5, 1.5] {
            check_integral(&w, t, 1e-8);
            let eps = 1e-7;
            let fd = (w.eval(t + eps) - w.eval(t - eps)) / (2.0 * eps);
            assert!(
                (fd - w.derivative(t)).abs() < 1e-4 * fd.abs().max(1.0),
                "t={t}"
            );
        }
    }

    #[test]
    fn exp_validation() {
        assert_eq!(
            Waveform::exp(0.0, 1.0, 0.0, 0.0, 0.1, 0.1),
            Err(WaveformError::ExpTimeConstants)
        );
        assert_eq!(
            Waveform::exp(0.0, 1.0, 0.2, 0.1, 0.1, 0.1),
            Err(WaveformError::ExpDecayBeforeRise)
        );
        assert_eq!(
            Waveform::exp(0.0, 1.0, f64::NAN, 0.1, 0.1, 0.1),
            Err(WaveformError::ExpDecayBeforeRise)
        );
    }

    #[test]
    fn pwl_integral_with_clamps() {
        let w = Waveform::pwl(vec![(0.5, 1.0), (1.0, 3.0), (2.0, -1.0)]).unwrap();
        for &t in &[0.25, 0.75, 1.5, 2.5] {
            check_integral(&w, t, 1e-9);
        }
    }

    #[test]
    fn averages_match_integral_differences() {
        let w = Waveform::pulse(0.0, 1.0, 0.1, 0.05, 0.2, 0.05, 0.0).unwrap();
        let avg = w.average(0.0, 0.4);
        assert!((avg - w.integral(0.4) / 0.4).abs() < 1e-15);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let cases = [
            Waveform::sine(0.1, 1.5, 2.0, 0.1, 0.7),
            Waveform::pulse(0.0, 2.0, 0.2, 0.1, 0.3, 0.1, 1.0).unwrap(),
            Waveform::pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]).unwrap(),
            Waveform::Ramp { slope: -3.0 },
        ];
        // Sample away from corners.
        for w in &cases {
            for &t in &[0.35, 0.72, 1.4] {
                let eps = 1e-7;
                let fd = (w.eval(t + eps) - w.eval(t - eps)) / (2.0 * eps);
                let an = w.derivative(t);
                assert!(
                    (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                    "{w:?} at t={t}: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn bpf_coeffs_of_ramp_are_midpoints() {
        let w = Waveform::Ramp { slope: 1.0 };
        let c = w.bpf_coeffs(4, 1.0);
        assert_eq!(c, vec![0.125, 0.375, 0.625, 0.875]);
    }

    #[test]
    fn input_set_plumbing() {
        let set = InputSet::new(vec![Waveform::Dc(1.0), Waveform::step(0.5, 2.0)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.eval(0.75), vec![1.0, 2.0]);
        let u = set.bpf_matrix(2, 1.0);
        assert_eq!(u[0], vec![1.0, 1.0]);
        assert_eq!(u[1], vec![0.0, 2.0]);
        let grid = set.averages_on_grid(&[0.0, 0.5, 1.0]);
        assert_eq!(grid[1], vec![0.0, 2.0]);
    }

    #[test]
    fn pulse_validation() {
        assert_eq!(
            Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.1, 0.1, 0.0),
            Err(WaveformError::PulseEdges),
            "zero rise must be rejected"
        );
        assert_eq!(
            Waveform::pulse(0.0, 1.0, 0.0, 0.1, 0.5, 0.1, 0.2),
            Err(WaveformError::PulsePeriod),
            "period shorter than shape must be rejected"
        );
        assert_eq!(
            Waveform::pulse(0.0, 1.0, 0.0, 0.1, 0.5, 0.1, f64::NAN),
            Err(WaveformError::PulsePeriod)
        );
        assert!(Waveform::pulse(0.0, 1.0, 0.0, 0.1, 0.5, 0.1, 0.7).is_ok());
    }

    #[test]
    fn samples_at_ends_align_with_steppers() {
        let w = Waveform::Ramp { slope: 2.0 };
        assert_eq!(w.samples_at_ends(4, 2.0), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_pwl_is_an_error_not_a_panic() {
        assert_eq!(Waveform::pwl(vec![]), Err(WaveformError::EmptyPwl));
        // Even a Pwl built around the constructor stays panic-free.
        let raw = Waveform::Pwl(vec![]);
        assert_eq!(raw.eval(0.5), 0.0);
        assert_eq!(raw.integral(2.0), 0.0);
        assert_eq!(raw.derivative(0.5), 0.0);
    }

    #[test]
    fn unsorted_pwl_is_sorted_at_construction() {
        let w = Waveform::pwl(vec![(2.0, 4.0), (0.0, 0.0), (1.0, 2.0)]).unwrap();
        let sorted = Waveform::pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]).unwrap();
        assert_eq!(w, sorted);
        // Interpolation is the ramp the sorted points describe.
        assert!((w.eval(0.5) - 1.0).abs() < 1e-15);
        assert!((w.eval(1.5) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn non_finite_pwl_points_are_rejected() {
        assert_eq!(
            Waveform::pwl(vec![(0.0, 0.0), (f64::NAN, 1.0)]),
            Err(WaveformError::NonFinitePwl(1))
        );
        assert_eq!(
            Waveform::pwl(vec![(0.0, f64::INFINITY)]),
            Err(WaveformError::NonFinitePwl(0))
        );
    }

    #[test]
    fn window_coeffs_sample_global_time() {
        let w = Waveform::step(1.0, 2.0);
        // Window [1, 2) sits entirely past the step: every average is 2.
        assert_eq!(w.bpf_coeffs_window(4, 1.0, 1.0), vec![2.0; 4]);
        // The zero-offset window reproduces the plain projection.
        assert_eq!(w.bpf_coeffs_window(8, 0.0, 2.0), w.bpf_coeffs(8, 2.0));
        // Concatenated half-windows cover the full-span projection.
        let full = w.bpf_coeffs(8, 2.0);
        let mut halves = w.bpf_coeffs_window(4, 0.0, 1.0);
        halves.extend(w.bpf_coeffs_window(4, 1.0, 1.0));
        for (a, b) in full.iter().zip(&halves) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn input_set_window_matrix_matches_per_channel() {
        let set = InputSet::new(vec![Waveform::Ramp { slope: 1.0 }, Waveform::Dc(3.0)]);
        let u = set.bpf_matrix_window(4, 0.5, 1.0);
        assert_eq!(
            u[0],
            Waveform::Ramp { slope: 1.0 }.bpf_coeffs_window(4, 0.5, 1.0)
        );
        assert_eq!(u[1], vec![3.0; 4]);
    }
}
