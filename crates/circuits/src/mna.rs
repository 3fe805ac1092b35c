//! Modified nodal analysis: `Circuit` → descriptor / fractional systems.
//!
//! Unknown ordering: node voltages `v_1..v_N`, then inductor currents in
//! element order, then voltage-source currents in element order. Input
//! ordering: voltage sources first (element order), then current sources.
//!
//! Stamps follow the standard MNA conventions:
//!
//! ```text
//! [C 0 0]      [−G   −A_L  −A_V] [v ]   [ 0   B_I] [V_s]
//! [0 L 0]·ẋ =  [A_Lᵀ  0     0  ]·[i_L] + [ 0    0 ]·[J  ]
//! [0 0 0]      [A_Vᵀ  0     0  ] [i_V]   [ I    0 ]
//! ```

use crate::netlist::{Circuit, Element};
use crate::nonlinear::{DeviceModel, Diode, Mosfet, NonlinearDevice, GMIN};
use crate::CircuitError;
use opm_sparse::{CsrBuilder, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::{InputSet, Waveform};

/// Where each MNA unknown comes from — used to build output selectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unknown {
    /// Voltage of node `n` (1-based node index).
    NodeVoltage(usize),
    /// Current through the `k`-th inductor (element order).
    InductorCurrent(usize),
    /// Current through the `k`-th voltage source (element order).
    SourceCurrent(usize),
}

/// An assembled MNA model: the descriptor system plus bookkeeping.
#[derive(Clone, Debug)]
pub struct MnaModel {
    /// The descriptor system `E ẋ = A x + B u`.
    pub system: DescriptorSystem,
    /// Inputs in channel order (voltage sources, then current sources).
    pub inputs: InputSet,
    /// Meaning of each state entry.
    pub unknowns: Vec<Unknown>,
}

/// An assembled nonlinear MNA model: the linearized descriptor system
/// `E ẋ = A x + f(x) + B u` (with [`GMIN`] planted on every device
/// coupling pair so the Newton sparsity pattern is iteration-invariant)
/// plus the device list that re-stamps `f`'s companion models per
/// Newton iterate.
#[derive(Clone, Debug)]
pub struct NonlinearMnaModel {
    /// The linear part (GMIN placeholders already stamped into `A`).
    pub model: MnaModel,
    /// Nonlinear devices in element order.
    pub devices: Vec<DeviceModel>,
}

/// An assembled fractional MNA model `E·d^α x = A x + B u`.
#[derive(Clone, Debug)]
pub struct FractionalMnaModel {
    /// The fractional system.
    pub system: FractionalSystem,
    /// Inputs in channel order.
    pub inputs: InputSet,
    /// Meaning of each state entry.
    pub unknowns: Vec<Unknown>,
}

/// Output request for [`assemble_mna`] / [`assemble_fractional_mna`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Voltage of a node.
    NodeVoltage(usize),
    /// Current of the `k`-th voltage source (element order).
    SourceCurrent(usize),
    /// Current of the `k`-th inductor (element order).
    InductorCurrent(usize),
}

/// How many unknowns and inputs each kind of element adds.
struct Layout {
    n_nodes: usize,
    inductors: usize,
    vsrcs: usize,
    isrcs: usize,
}

fn layout(ckt: &Circuit) -> Layout {
    let (_, inductors, _, vsrcs, isrcs) = ckt.census();
    Layout {
        n_nodes: ckt.num_nodes(),
        inductors,
        vsrcs,
        isrcs,
    }
}

/// Stamps a conductance-like quantity between two nodes (node 0 =
/// ground rows/cols are dropped).
fn stamp_pair(m: &mut CsrBuilder, n1: usize, n2: usize, g: f64) {
    if n1 > 0 {
        m.push(n1 - 1, n1 - 1, g);
    }
    if n2 > 0 {
        m.push(n2 - 1, n2 - 1, g);
    }
    if n1 > 0 && n2 > 0 {
        m.push(n1 - 1, n2 - 1, -g);
        m.push(n2 - 1, n1 - 1, -g);
    }
}

/// Emits every stamp of `E`, `A` and `B` in card order, then GMIN on
/// each device's coupling pairs (`A` holds −G, matching the resistor
/// stamp), so the Newton matrix pattern is fixed across iterates. The
/// formulation has already rejected what it cannot hold, so capacitors
/// and CPEs both stamp `E`.
fn stamp(
    ckt: &Circuit,
    lay: &Layout,
    devices: &[DeviceModel],
    e: &mut CsrBuilder,
    a: &mut CsrBuilder,
    b: &mut CsrBuilder,
) {
    let (mut ind_count, mut vs_count, mut is_count) = (0, 0, 0);
    for el in ckt.elements() {
        match *el {
            Element::Resistor { n1, n2, ohms } => stamp_pair(a, n1, n2, -1.0 / ohms),
            Element::Capacitor { n1, n2, farads: c } | Element::Cpe { n1, n2, q: c, .. } => {
                stamp_pair(e, n1, n2, c)
            }
            Element::Inductor { n1, n2, henries } => {
                let r = lay.n_nodes + ind_count;
                // KCL: +i_L leaves n1, enters n2.
                if n1 > 0 {
                    a.push(n1 - 1, r, -1.0);
                    a.push(r, n1 - 1, 1.0);
                }
                if n2 > 0 {
                    a.push(n2 - 1, r, 1.0);
                    a.push(r, n2 - 1, -1.0);
                }
                // L·di/dt = v(n1) − v(n2).
                e.push(r, r, henries);
                ind_count += 1;
            }
            Element::VoltageSource { n1, n2, .. } => {
                let r = lay.n_nodes + lay.inductors + vs_count;
                if n1 > 0 {
                    a.push(n1 - 1, r, -1.0);
                    a.push(r, n1 - 1, -1.0);
                }
                if n2 > 0 {
                    a.push(n2 - 1, r, 1.0);
                    a.push(r, n2 - 1, 1.0);
                }
                // Row r: 0 = −(v1 − v2) + V_s  ⇒ B entry +1.
                b.push(r, vs_count, 1.0);
                vs_count += 1;
            }
            Element::CurrentSource { n1, n2, .. } => {
                let chan = lay.vsrcs + is_count;
                // J leaves n1 (−), enters n2 (+).
                if n1 > 0 {
                    b.push(n1 - 1, chan, -1.0);
                }
                if n2 > 0 {
                    b.push(n2 - 1, chan, 1.0);
                }
                is_count += 1;
            }
            Element::Diode { .. } | Element::Mosfet { .. } => {}
        }
    }
    for dev in devices {
        for (p, q) in dev.coupling_pairs() {
            stamp_pair(a, p, q, -GMIN);
        }
    }
}

/// Assembles the first-order MNA descriptor system.
///
/// # Errors
/// [`CircuitError::Unsupported`] when the circuit contains CPEs (use
/// [`assemble_fractional_mna`]) or nonlinear devices (use
/// [`assemble_nonlinear_mna`]) and [`CircuitError::BadNode`] on dangling
/// output references.
pub fn assemble_mna(ckt: &Circuit, outputs: &[Output]) -> Result<MnaModel, CircuitError> {
    assemble_mna_inner(ckt, outputs, Formulation::Integer)
}

/// Assembles the MNA system of a circuit with nonlinear devices.
///
/// The linear part is identical to [`assemble_mna`] except that a
/// [`GMIN`] conductance is stamped across every device coupling pair,
/// so the union pencil pattern already contains every position a Newton
/// iterate can stamp — the solver then reuses one symbolic
/// factorization across all iterates.
///
/// # Errors
/// Same as [`assemble_mna`] (CPEs remain unsupported).
pub fn assemble_nonlinear_mna(
    ckt: &Circuit,
    outputs: &[Output],
) -> Result<NonlinearMnaModel, CircuitError> {
    let mut devices = Vec::new();
    let model = assemble_mna_inner(ckt, outputs, Formulation::Nonlinear(&mut devices))?;
    Ok(NonlinearMnaModel { model, devices })
}

/// Assembles the fractional MNA system `E·d^α x = A x + B u` for circuits
/// whose only dynamic elements are CPEs of common order `α`.
///
/// # Errors
/// [`CircuitError::Unsupported`] when capacitors/inductors are present or
/// a CPE has a different order.
pub fn assemble_fractional_mna(
    ckt: &Circuit,
    alpha: f64,
    outputs: &[Output],
) -> Result<FractionalMnaModel, CircuitError> {
    let model = assemble_mna_inner(ckt, outputs, Formulation::Fractional(alpha))?;
    let system =
        FractionalSystem::new(alpha, model.system).expect("alpha validated by circuit elements");
    Ok(FractionalMnaModel {
        system,
        inputs: model.inputs,
        unknowns: model.unknowns,
    })
}

/// Which system the element walks assemble.
enum Formulation<'d> {
    /// `E ẋ = A x + B u`: capacitors and inductors stamp `E`.
    Integer,
    /// The integer system, with the circuit's diodes and MOSFETs
    /// collected into a device list and GMIN planted on their pairs.
    Nonlinear(&'d mut Vec<DeviceModel>),
    /// `E·d^α x = A x + B u`: CPEs of order `α` stamp `E` the way
    /// capacitors do; every other dynamic element is rejected.
    Fractional(f64),
}

impl Formulation<'_> {
    /// The device list a nonlinear `what` joins, or the formulation's
    /// rejection of it.
    fn devices(&mut self, what: &str) -> Result<&mut Vec<DeviceModel>, CircuitError> {
        match self {
            Formulation::Nonlinear(devices) => Ok(devices),
            Formulation::Integer => Err(CircuitError::Unsupported(format!(
                "{what} in linear MNA; use assemble_nonlinear_mna"
            ))),
            Formulation::Fractional(_) => Err(CircuitError::Unsupported(
                "nonlinear device in fractional MNA".into(),
            )),
        }
    }
}

fn assemble_mna_inner(
    ckt: &Circuit,
    outputs: &[Output],
    mut form: Formulation<'_>,
) -> Result<MnaModel, CircuitError> {
    let lay = layout(ckt);
    if matches!(form, Formulation::Fractional(_)) && lay.inductors > 0 {
        return Err(CircuitError::Unsupported(
            "inductors in fractional MNA".into(),
        ));
    }
    let n = lay.n_nodes + lay.inductors + lay.vsrcs;
    let p = lay.vsrcs + lay.isrcs;

    let mut vs_count = 0usize;
    let mut is_count = 0usize;
    let mut waveforms: Vec<Waveform> = vec![Waveform::Dc(0.0); p];

    // This walk checks each card against the formulation and collects
    // inputs and devices; `stamp` then walks the accepted cards twice,
    // the counting and the filling pass of `CsrBuilder`.
    for el in ckt.elements() {
        match el {
            Element::Capacitor { .. } => {
                if let Formulation::Fractional(_) = form {
                    return Err(CircuitError::Unsupported(
                        "capacitor in fractional MNA (model it as a CPE with α)".into(),
                    ));
                }
            }
            Element::Cpe { alpha: a_el, .. } => {
                let Formulation::Fractional(alpha) = form else {
                    return Err(CircuitError::Unsupported(
                        "CPE in integer-order MNA; use assemble_fractional_mna".into(),
                    ));
                };
                if (a_el - alpha).abs() > 1e-12 {
                    return Err(CircuitError::Unsupported(format!(
                        "CPE order {a_el} differs from system order {alpha}"
                    )));
                }
            }
            Element::VoltageSource { waveform, .. } => {
                waveforms[vs_count] = waveform.clone();
                vs_count += 1;
            }
            Element::CurrentSource { waveform, .. } => {
                waveforms[lay.vsrcs + is_count] = waveform.clone();
                is_count += 1;
            }
            Element::Diode { n1, n2, is_sat, vt } => {
                form.devices("diode")?.push(DeviceModel::Diode(Diode {
                    anode: *n1,
                    cathode: *n2,
                    is_sat: *is_sat,
                    vt: *vt,
                }));
            }
            Element::Mosfet { d, g, s, kp, vth } => {
                form.devices("MOSFET")?.push(DeviceModel::Mosfet(Mosfet {
                    drain: *d,
                    gate: *g,
                    source: *s,
                    kp: *kp,
                    vth: *vth,
                }));
            }
            Element::Resistor { .. } | Element::Inductor { .. } => {}
        }
    }

    let unknowns = build_unknowns(&lay);
    let c = build_outputs(&lay, outputs, n)?;
    let devices: &[DeviceModel] = match &form {
        Formulation::Nonlinear(devices) => devices,
        _ => &[],
    };
    let (mut e, mut a, mut b) = (
        CsrBuilder::new(n, n),
        CsrBuilder::new(n, n),
        CsrBuilder::new(n, p),
    );
    stamp(ckt, &lay, devices, &mut e, &mut a, &mut b);
    for m in [&mut e, &mut a, &mut b] {
        m.start_filling();
    }
    stamp(ckt, &lay, devices, &mut e, &mut a, &mut b);
    let system = DescriptorSystem::new(e.finish(), a.finish(), b.finish(), c)
        .expect("MNA assembly produces consistent dimensions");
    Ok(MnaModel {
        system,
        inputs: InputSet::new(waveforms),
        unknowns,
    })
}

fn build_unknowns(lay: &Layout) -> Vec<Unknown> {
    let mut u = Vec::with_capacity(lay.n_nodes + lay.inductors + lay.vsrcs);
    for node in 1..=lay.n_nodes {
        u.push(Unknown::NodeVoltage(node));
    }
    for k in 0..lay.inductors {
        u.push(Unknown::InductorCurrent(k));
    }
    for k in 0..lay.vsrcs {
        u.push(Unknown::SourceCurrent(k));
    }
    u
}

fn build_outputs(
    lay: &Layout,
    outputs: &[Output],
    n: usize,
) -> Result<Option<CsrMatrix>, CircuitError> {
    if outputs.is_empty() {
        return Ok(None);
    }
    // One unit entry per row, so the columns alone are the CSR.
    let mut cols = Vec::with_capacity(outputs.len());
    for o in outputs {
        cols.push(match *o {
            Output::NodeVoltage(node) => {
                if node == 0 || node > lay.n_nodes {
                    return Err(CircuitError::BadNode(node));
                }
                node - 1
            }
            Output::InductorCurrent(k) => {
                if k >= lay.inductors {
                    return Err(CircuitError::Unsupported(format!(
                        "inductor output {k} of {}",
                        lay.inductors
                    )));
                }
                lay.n_nodes + k
            }
            Output::SourceCurrent(k) => {
                if k >= lay.vsrcs {
                    return Err(CircuitError::Unsupported(format!(
                        "vsrc output {k} of {}",
                        lay.vsrcs
                    )));
                }
                lay.n_nodes + lay.inductors + k
            }
        });
    }
    let q = outputs.len();
    Ok(Some(CsrMatrix::from_raw(
        q,
        n,
        (0..=q).collect(),
        cols,
        vec![1.0; q],
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// V → R → node1 → C → gnd.
    fn rc_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let nin = ckt.add_node();
        let nout = ckt.add_node();
        ckt.add(Element::VoltageSource {
            n1: nin,
            n2: 0,
            waveform: Waveform::step(0.0, 1.0),
        })
        .unwrap();
        ckt.add(Element::Resistor {
            n1: nin,
            n2: nout,
            ohms: 1000.0,
        })
        .unwrap();
        ckt.add(Element::Capacitor {
            n1: nout,
            n2: 0,
            farads: 1e-6,
        })
        .unwrap();
        ckt
    }

    #[test]
    fn rc_mna_structure() {
        let m = assemble_mna(&rc_circuit(), &[Output::NodeVoltage(2)]).unwrap();
        // Unknowns: v1, v2, i_V ⇒ n = 3, p = 1, q = 1.
        assert_eq!(m.system.order(), 3);
        assert_eq!(m.system.num_inputs(), 1);
        assert_eq!(m.system.num_outputs(), 1);
        let (e, a, b) = m.system.to_dense();
        // E: capacitor on v2 only.
        assert_eq!(e.get(1, 1), 1e-6);
        assert_eq!(e.get(0, 0), 0.0);
        // A: conductance between nodes 1, 2.
        assert!((a.get(0, 0) + 1e-3).abs() < 1e-15);
        assert!((a.get(0, 1) - 1e-3).abs() < 1e-15);
        // Voltage source row/col.
        assert_eq!(a.get(0, 2), -1.0);
        assert_eq!(a.get(2, 0), -1.0);
        assert_eq!(b.get(2, 0), 1.0);
        assert_eq!(
            m.unknowns,
            vec![
                Unknown::NodeVoltage(1),
                Unknown::NodeVoltage(2),
                Unknown::SourceCurrent(0)
            ]
        );
    }

    #[test]
    fn inductor_adds_state() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add(Element::CurrentSource {
            n1: 0,
            n2: n1,
            waveform: Waveform::Dc(1.0),
        })
        .unwrap();
        ckt.add(Element::Inductor {
            n1,
            n2: 0,
            henries: 1e-9,
        })
        .unwrap();
        ckt.add(Element::Resistor {
            n1,
            n2: 0,
            ohms: 50.0,
        })
        .unwrap();
        let m = assemble_mna(&ckt, &[]).unwrap();
        assert_eq!(m.system.order(), 2); // v1 + i_L
        let (e, a, b) = m.system.to_dense();
        assert_eq!(e.get(1, 1), 1e-9);
        assert_eq!(a.get(0, 1), -1.0); // i_L leaves node
        assert_eq!(a.get(1, 0), 1.0); // L di/dt = +v1
        assert_eq!(b.get(0, 0), 1.0); // source enters n1
    }

    #[test]
    fn dc_steady_state_via_solve() {
        // At DC, E·ẋ = 0 ⇒ A·x = −B·u; check the resistive divider value.
        let mut ckt = Circuit::new();
        let nin = ckt.add_node();
        let nmid = ckt.add_node();
        ckt.add(Element::VoltageSource {
            n1: nin,
            n2: 0,
            waveform: Waveform::Dc(6.0),
        })
        .unwrap();
        ckt.add(Element::Resistor {
            n1: nin,
            n2: nmid,
            ohms: 100.0,
        })
        .unwrap();
        ckt.add(Element::Resistor {
            n1: nmid,
            n2: 0,
            ohms: 200.0,
        })
        .unwrap();
        let m = assemble_mna(&ckt, &[]).unwrap();
        let (_, a, b) = m.system.to_dense();
        let u = opm_linalg::DVector::from_slice(&[6.0]);
        let rhs = b.mul_vec(&u).scale(-1.0);
        let x = a.solve(&rhs).expect("resistive MNA is nonsingular");
        assert!((x[0] - 6.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
        // Source current: 6 V over 300 Ω, flowing out of the source.
        assert!((x[2] + 0.02).abs() < 1e-12);
    }

    #[test]
    fn fractional_assembly_of_cpe_ladder() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add(Element::VoltageSource {
            n1,
            n2: 0,
            waveform: Waveform::step(0.0, 1.0),
        })
        .unwrap();
        ckt.add(Element::Resistor { n1, n2, ohms: 10.0 }).unwrap();
        ckt.add(Element::Cpe {
            n1: n2,
            n2: 0,
            q: 1e-3,
            alpha: 0.5,
        })
        .unwrap();
        let m = assemble_fractional_mna(&ckt, 0.5, &[Output::SourceCurrent(0)]).unwrap();
        assert_eq!(m.system.alpha(), 0.5);
        assert_eq!(m.system.order(), 3);
        let (e, _, _) = m.system.system().to_dense();
        assert_eq!(e.get(1, 1), 1e-3);
    }

    #[test]
    fn fractional_rejects_mixed_dynamics() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add(Element::Capacitor {
            n1,
            n2: 0,
            farads: 1e-9,
        })
        .unwrap();
        assert!(matches!(
            assemble_fractional_mna(&ckt, 0.5, &[]),
            Err(CircuitError::Unsupported(_))
        ));
        let mut ckt2 = Circuit::new();
        let n = ckt2.add_node();
        ckt2.add(Element::Cpe {
            n1: n,
            n2: 0,
            q: 1.0,
            alpha: 0.3,
        })
        .unwrap();
        assert!(assemble_fractional_mna(&ckt2, 0.5, &[]).is_err());
    }

    #[test]
    fn integer_mna_rejects_cpe() {
        let mut ckt = Circuit::new();
        let n = ckt.add_node();
        ckt.add(Element::Cpe {
            n1: n,
            n2: 0,
            q: 1.0,
            alpha: 0.5,
        })
        .unwrap();
        assert!(matches!(
            assemble_mna(&ckt, &[]),
            Err(CircuitError::Unsupported(_))
        ));
    }

    #[test]
    fn output_validation() {
        let ckt = rc_circuit();
        assert!(assemble_mna(&ckt, &[Output::NodeVoltage(0)]).is_err());
        assert!(assemble_mna(&ckt, &[Output::NodeVoltage(9)]).is_err());
        assert!(assemble_mna(&ckt, &[Output::SourceCurrent(1)]).is_err());
        assert!(assemble_mna(&ckt, &[Output::SourceCurrent(0)]).is_ok());
    }
}
