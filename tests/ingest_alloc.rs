//! Integration: netlist ingest allocates per distinct node, not per
//! card or token. `Simulation::from_netlist` on the 48×48 RC mesh (146 KB,
//! 6,819 lines, 2,304 named nodes) owns one `String` per node name and a
//! constant number of vectors, tables and matrices besides.

mod counting_alloc;

use counting_alloc::counted;
use opm::prelude::*;
use std::fmt::Write as _;

/// The `g×g` RC mesh the serving benchmark drives: 100 Ω segments, 1 nF
/// per node, a DC source at the corner.
fn mesh_netlist(g: usize) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=g {
        for j in 1..=g {
            let mut resistor = |s: &mut String, b: String| {
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} {b} {:e}", 100.0);
            };
            if j < g {
                resistor(&mut s, format!("n{i}_{}", j + 1));
            }
            if i < g {
                resistor(&mut s, format!("n{}_{j}", i + 1));
            }
            let _ = writeln!(s, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    s.push_str(".end\n");
    s
}

#[test]
fn mesh_ingest_allocates_per_node_not_per_card() {
    let g = 48;
    let text = mesh_netlist(g);
    let nodes = g * g;
    let (sim, allocs) = counted(|| Simulation::from_netlist(&text, &["n3_3"]));
    let sim = sim.unwrap();
    assert_eq!(sim.order(), nodes + 1);
    assert!(
        allocs <= nodes + 64,
        "{allocs} allocations for {nodes} nodes and {} lines",
        text.lines().count()
    );
}
