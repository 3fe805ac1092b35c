//! Integration: a Newton iterate makes no heap allocation. A counting
//! global allocator tallies the allocations of one windowed rectifier
//! solve on the calling thread: the solve may allocate per column (the
//! stored solution), per window (the window's stimulus coefficients and
//! its seed) and a constant amount of setup, but nothing that grows with
//! the number of Newton iterates.

mod counting_alloc;

use counting_alloc::counted;
use opm::prelude::*;

/// Half-wave rectifier into an RC load; `ampl` sets how hard the diode
/// is driven, and with it how many Newton iterates each column takes.
fn rectifier(ampl: f64) -> String {
    format!(
        "* half-wave rectifier with RC load\n\
         V1 in 0 SIN(0 {ampl} 1)\n\
         R1 in a 0.1\n\
         D1 a out 1e-14\n\
         R2 out 0 10\n\
         C1 out 0 0.2\n\
         .end\n"
    )
}

/// Allocation events and Newton iterates of one windowed solve.
fn solve_counted(ampl: f64, m: usize, windows: usize) -> (usize, usize) {
    let sim = Simulation::from_netlist(&rectifier(ampl), &["out"])
        .unwrap()
        .horizon(2.0);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let inputs = sim.inputs().unwrap();
    let opts = NewtonOptions::new();
    let (result, allocs) = counted(|| plan.solve_newton_windowed(inputs, windows, &opts));
    assert_eq!(result.unwrap().num_intervals(), m * windows);
    let p = plan.factor_profile();
    assert_eq!(p.newton_refactors, p.newton_iters, "{p:?}");
    assert_eq!(p.newton_fresh_fallbacks, 0, "{p:?}");
    (allocs, p.newton_iters)
}

#[test]
fn newton_iterates_do_not_allocate() {
    let (m, windows) = (64, 8);
    let columns = m * windows;
    // An idle source converges in one iterate per column; a 0.7 V drive
    // sits on the diode's knee and takes about a third more.
    let (gentle, gentle_iters) = solve_counted(0.0, m, windows);
    let (hard, hard_iters) = solve_counted(0.7, m, windows);
    assert!(
        hard_iters >= gentle_iters + columns / 4,
        "the drives should differ in iterate count: {gentle_iters} vs {hard_iters}"
    );
    // Per window: the stimulus coefficients (one vector per channel plus
    // the outer one); per solve: the sweep's buffers, the first factor
    // and the result's vectors besides its columns.
    const PER_WINDOW: usize = 4;
    const SETUP: usize = 48;
    for (allocs, iters) in [(gentle, gentle_iters), (hard, hard_iters)] {
        assert!(
            allocs <= columns + PER_WINDOW * windows + SETUP,
            "{allocs} allocations for {columns} columns, {windows} windows, {iters} iterates"
        );
    }
    assert_eq!(
        gentle, hard,
        "allocations must not grow with the iterate count ({gentle_iters} vs {hard_iters} iterates)"
    );
}
