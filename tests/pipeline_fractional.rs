//! Integration: the fractional pipeline — CPE netlists, OPM vs GL vs FFT
//! baselines vs Mittag-Leffler oracles.

use opm::circuits::tline::FractionalLineSpec;
use opm::core::metrics::{max_abs_diff, relative_error_db_multi};
use opm::core::{Simulation, SolveOptions};
use opm::fft::FftSimulator;
use opm::fracnum::mittag_leffler::ml_kernel;
use opm::sparse::{CooMatrix, CsrMatrix};
use opm::system::{DescriptorSystem, FractionalSystem};
use opm::transient::gl_fractional;
use opm::waveform::{InputSet, Waveform};

fn scalar_fractional(alpha: f64, lambda: f64) -> FractionalSystem {
    let mut a = CooMatrix::new(1, 1);
    a.push(0, 0, lambda);
    let mut b = CooMatrix::new(1, 1);
    b.push(0, 0, 1.0);
    FractionalSystem::new(
        alpha,
        DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap(),
    )
    .unwrap()
}

/// Three independent implementations (OPM operational matrix, GL time
/// stepping, analytic Mittag-Leffler) agree on the fractional relaxation.
#[test]
fn three_way_agreement_on_fractional_relaxation() {
    let (alpha, lambda) = (0.5, -2.0);
    let fsys = scalar_fractional(alpha, lambda);
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let t_end = 3.0;
    let m = 300;

    let u = inputs.bpf_matrix(m, t_end);
    let opm = Simulation::from_fractional(fsys.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    let gl = gl_fractional(&fsys, &inputs, t_end, m, false).unwrap();

    let h = t_end / m as f64;
    for probe in [m / 5, m / 2, m - 2] {
        let t_mid = (probe as f64 + 0.5) * h;
        let exact = ml_kernel(alpha, alpha + 1.0, lambda, t_mid);
        let opm_val = opm.state_coeff(0, probe);
        // GL endpoints bracket the midpoint.
        let gl_val = 0.5 * (gl.outputs[0][probe] + gl.outputs[0][probe.saturating_sub(1)]);
        assert!(
            (opm_val - exact).abs() < 2e-2 * exact.abs().max(0.05),
            "OPM vs ML at t={t_mid}: {opm_val} vs {exact}"
        );
        assert!(
            (gl_val - exact).abs() < 2e-2 * exact.abs().max(0.05),
            "GL vs ML at t={t_mid}: {gl_val} vs {exact}"
        );
    }
}

/// Table I shape: on the fractional transmission line, the FFT baseline
/// with more sampling points lands closer to OPM (per the paper's
/// Eq. 30 metric), and OPM agrees with the independent GL stepper.
#[test]
fn table1_shape_holds_at_test_scale() {
    let spec = FractionalLineSpec::default();
    let model = spec.assemble();
    let t_end = 2.7e-9;

    // OPM at the paper's m = 8 plus a denser reference run.
    let m = 8;
    let u = model.inputs.bpf_matrix(m, t_end);
    let opm = Simulation::from_fractional(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    let opm_out: Vec<Vec<f64>> = (0..2).map(|o| opm.output_row(o).to_vec()).collect();

    let err_of = |n_samples: usize| -> f64 {
        let fft = FftSimulator::new(n_samples).simulate(&model.system, &model.inputs, t_end);
        let on_grid: Vec<Vec<f64>> = (0..2)
            .map(|o| {
                opm.midpoints()
                    .iter()
                    .map(|&t| fft.interpolate_output(o, t))
                    .collect()
            })
            .collect();
        relative_error_db_multi(&on_grid, &opm_out)
    };
    let err_fft1 = err_of(8);
    let err_fft2 = err_of(100);
    assert!(
        err_fft2 < err_fft1,
        "more FFT samples must track OPM better: {err_fft2} !< {err_fft1} dB"
    );

    // Independent time-domain check: GL on the same DAE.
    let m_fine = 128;
    let u_fine = model.inputs.bpf_matrix(m_fine, t_end);
    let opm_fine = Simulation::from_fractional(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u_fine[0].len()))
        .unwrap()
        .solve_coeffs(&u_fine)
        .unwrap();
    let gl = gl_fractional(&model.system, &model.inputs, t_end, m_fine, false).unwrap();
    let mut gl_mid = vec![0.0; m_fine];
    for j in 0..m_fine {
        gl_mid[j] = if j == 0 {
            0.5 * gl.outputs[0][0]
        } else {
            0.5 * (gl.outputs[0][j - 1] + gl.outputs[0][j])
        };
    }
    let peak = opm_fine
        .output_row(0)
        .iter()
        .fold(0.0f64, |a, &v| a.max(v.abs()));
    let dev = max_abs_diff(opm_fine.output_row(0), &gl_mid);
    assert!(
        dev < 0.15 * peak,
        "OPM vs GL on the line: {dev} vs peak {peak}"
    );
}

/// High-order special case: a pure d²x/dt² system through the fractional
/// solver with integer α equals the multi-term fast path.
#[test]
fn integer_alpha_equals_multiterm_path() {
    use opm::system::{MultiTermSystem, Term};
    let fsys = scalar_fractional(2.0, -4.0);
    let m = 64;
    let t_end = 3.0;
    let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 0.5, 0.0, 0.0)]).bpf_matrix(m, t_end);
    let frac = Simulation::from_fractional(fsys.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    let mt = MultiTermSystem::new(
        vec![
            Term {
                alpha: 2.0,
                matrix: CsrMatrix::identity(1),
            },
            Term {
                alpha: 0.0,
                matrix: CsrMatrix::identity(1).scale(4.0),
            },
        ],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let fast = Simulation::from_multiterm(mt.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    for j in 0..m {
        assert!(
            (frac.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-8,
            "column {j}"
        );
    }
}

/// The paper's §IV system `E·d^α x = A x + B u` and its two-term
/// conversion `[(α, E), (0, −A)]` are one equation swept by one
/// nilpotent-series convolution: on R–CPE ladders a fractional plan and
/// a multi-term plan of the conversion agree bit for bit — whole
/// horizon, windowed, with full and truncated history, on 2 lanes × 2
/// threads — and report the same (nonzero) factor statistics.
#[test]
fn fractional_plan_equals_its_two_term_conversion() {
    use opm::core::{SimModel, WindowedOptions};
    use opm::system::{MultiTermSystem, Term};
    use std::fmt::Write as _;
    let ladder = |alpha: f64| {
        let mut s = String::from("* R-CPE ladder\nV1 in 0 DC 1\n");
        let mut prev = "in".to_string();
        for k in 1..=16 {
            let _ = writeln!(s, "R{k} {prev} n{k} 1e3");
            let _ = writeln!(s, "P{k} n{k} 0 CPE 1e-6 {alpha}");
            prev = format!("n{k}");
        }
        s.push_str(".end\n");
        Simulation::from_netlist(&s, &["n4", "n16"])
            .unwrap()
            .horizon(1e-3)
    };
    let lanes = [
        InputSet::new(vec![Waveform::step(1e-4, 1.0)]),
        InputSet::new(vec![Waveform::sine(0.2, 1.0, 3e3, 0.0, 0.0)]),
    ];
    let bits = |r: &opm::core::OpmResult| -> Vec<u64> {
        let cols = r.columns.iter().flatten();
        let outs = (0..2).flat_map(|o| r.output_row(o).to_vec());
        cols.copied().chain(outs).map(f64::to_bits).collect()
    };
    for alpha in [0.3, 0.5, 0.8] {
        let frac = ladder(alpha);
        let SimModel::Fractional(fsys) = frac.model() else {
            panic!("a CPE netlist assembles a fractional model");
        };
        let sys = fsys.system();
        let terms = vec![
            Term {
                alpha,
                matrix: sys.e().clone(),
            },
            Term {
                alpha: 0.0,
                matrix: sys.a().scale(-1.0),
            },
        ];
        let mt = MultiTermSystem::new(terms, sys.b().clone(), sys.c().cloned()).unwrap();
        let two_term = Simulation::from_multiterm(mt).horizon(frac.t_end());
        for m in [16, 64] {
            let opts = SolveOptions::new().resolution(m);
            let (pf, pm) = (frac.plan(&opts).unwrap(), two_term.plan(&opts).unwrap());
            let (nnz_f, nnz_m) = (
                pf.factor_profile().factor_nnz,
                pm.factor_profile().factor_nnz,
            );
            assert!(nnz_f > 0, "α = {alpha}, m = {m}: factor stats reported");
            assert_eq!(nnz_f, nnz_m, "α = {alpha}, m = {m}: factor_nnz");
            for windows in [1, 4, 16] {
                for cap in [None, Some(3 * m)] {
                    let mut wopts = WindowedOptions::new(windows);
                    if let Some(cap) = cap {
                        wopts = wopts.history_len(cap);
                    }
                    let rf = pf.solve_windowed_batch_opts(&lanes, &wopts, 2).unwrap();
                    let rm = pm.solve_windowed_batch_opts(&lanes, &wopts, 2).unwrap();
                    for (l, (a, b)) in rf.iter().zip(&rm).enumerate() {
                        assert!(
                            bits(a) == bits(b),
                            "α = {alpha}, m = {m}, W = {windows}, cap {cap:?}, lane {l}"
                        );
                    }
                }
            }
        }
    }
}
