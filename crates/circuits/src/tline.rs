//! The fractional transmission-line model of Table I.
//!
//! The paper's example "originates from transmission line analysis
//! \[7\], \[8\]": a lossy line whose distributed RC behaviour is captured by
//! half-order dynamics (the input impedance of a semi-infinite RC line is
//! `Z(s) = √(R/(sC)) ∝ s^{−1/2}`). Following the cited modelling route we
//! lump the line into a resistive ladder with **constant-phase elements**
//! (CPE, order α = ½) as shunts:
//!
//! ```text
//! port1 ──V₁──ₙ₁─ R ─ₙ₂─ R ─ₙ₃─ R ─ₙ₄─ R ─ₙ₅──V₂── port2
//!               │      │      │      │      │
//!              CPE    CPE    CPE    CPE    CPE
//!               ⏚      ⏚      ⏚      ⏚      ⏚
//! ```
//!
//! MNA yields exactly the paper's dimensions: 5 node voltages + 2 source
//! currents = **7 state variables**, **2 inputs** (port voltages), **2
//! outputs** (port currents), with `E·d^{1/2}x/dt^{1/2} = A·x + B·u`.

use crate::mna::{assemble_fractional_mna, FractionalMnaModel, Output};
use crate::netlist::{Circuit, Element};
use opm_waveform::Waveform;

/// Parameters of the fractional line (defaults tuned so the ports show a
/// full transient inside the paper's `[0, 2.7 ns)` window).
#[derive(Clone, Debug)]
pub struct FractionalLineSpec {
    /// Internal ladder nodes (5 ⇒ the paper's 7-state model).
    pub sections: usize,
    /// Series resistance per segment (Ω).
    pub r_segment: f64,
    /// CPE pseudo-capacitance (F·s^{−1/2}).
    pub q_cpe: f64,
    /// Fractional order (½ for the RC-line physics).
    pub alpha: f64,
    /// Waveform driving port 1.
    pub drive1: Waveform,
    /// Waveform driving port 2.
    pub drive2: Waveform,
}

impl Default for FractionalLineSpec {
    fn default() -> Self {
        // Half-order corner: s^{1/2}·q ≈ 1/R ⇒ τ ≈ (R·q)² ≈ 0.2 ns, so the
        // CPE dynamics play out inside the paper's 2.7 ns window and the
        // response has largely settled by its end (which the FFT baseline's
        // periodicity assumption needs).
        FractionalLineSpec {
            sections: 5,
            r_segment: 50.0,
            q_cpe: 4e-7,
            alpha: 0.5,
            drive1: Waveform::pulse(0.0, 1.0, 0.1e-9, 0.45e-9, 0.7e-9, 0.45e-9, 0.0)
                .expect("a single pulse with positive edges"),
            drive2: Waveform::Dc(0.0),
        }
    }
}

impl FractionalLineSpec {
    /// Builds the netlist.
    pub fn build(&self) -> Circuit {
        assert!(self.sections >= 2, "need at least two ladder nodes");
        let mut ckt = Circuit::new();
        let nodes: Vec<usize> = (0..self.sections).map(|_| ckt.add_node()).collect();
        // Port sources at both ends.
        ckt.add(Element::VoltageSource {
            n1: nodes[0],
            n2: 0,
            waveform: self.drive1.clone(),
        })
        .unwrap();
        ckt.add(Element::VoltageSource {
            n1: nodes[self.sections - 1],
            n2: 0,
            waveform: self.drive2.clone(),
        })
        .unwrap();
        // Series resistors.
        for w in nodes.windows(2) {
            ckt.add(Element::Resistor {
                n1: w[0],
                n2: w[1],
                ohms: self.r_segment,
            })
            .unwrap();
        }
        // CPE shunts.
        for &n in &nodes {
            ckt.add(Element::Cpe {
                n1: n,
                n2: 0,
                q: self.q_cpe,
                alpha: self.alpha,
            })
            .unwrap();
        }
        ckt
    }

    /// Assembles the fractional MNA system with the two port currents as
    /// outputs — the paper's `x ∈ R⁷`, `u, y ∈ R²` model for the default
    /// five sections.
    pub fn assemble(&self) -> FractionalMnaModel {
        let ckt = self.build();
        assemble_fractional_mna(
            &ckt,
            self.alpha,
            &[Output::SourceCurrent(0), Output::SourceCurrent(1)],
        )
        .expect("fractional line assembles by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let model = FractionalLineSpec::default().assemble();
        assert_eq!(model.system.order(), 7, "x ∈ R⁷");
        assert_eq!(model.system.num_inputs(), 2, "u ∈ R²");
        assert_eq!(model.system.num_outputs(), 2, "y ∈ R²");
        assert_eq!(model.system.alpha(), 0.5);
    }

    #[test]
    fn e_matrix_is_cpe_diagonal_plus_singular_rows() {
        let model = FractionalLineSpec::default().assemble();
        let (e, _, _) = model.system.system().to_dense();
        // Node rows carry the CPE pseudo-capacitance; source rows are zero.
        let q = FractionalLineSpec::default().q_cpe;
        for i in 0..5 {
            assert!((e.get(i, i) - q).abs() < 1e-20);
        }
        for i in 5..7 {
            for j in 0..7 {
                assert_eq!(e.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn pencil_is_regular() {
        // (σ^α·E − A) must be invertible for σ > 0 — the OPM solvability
        // condition. Check at a few shifts.
        let model = FractionalLineSpec::default().assemble();
        let (e, a, _) = model.system.system().to_dense();
        for &sigma in &[1e9f64, 4e9, 1e10] {
            let shifted = e.scale(sigma.powf(0.5)).sub(&a);
            assert!(
                shifted.factor_lu().is_some(),
                "pencil singular at σ = {sigma}"
            );
        }
    }

    #[test]
    fn more_sections_scale_dimensions() {
        let spec = FractionalLineSpec {
            sections: 9,
            ..Default::default()
        };
        let model = spec.assemble();
        assert_eq!(model.system.order(), 11); // 9 nodes + 2 ports
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_section_rejected() {
        FractionalLineSpec {
            sections: 1,
            ..Default::default()
        }
        .build();
    }
}
