//! Quickstart: compute the paper's bounds, run the optimal strategy, and
//! watch theory and measurement agree.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use raysearch::bounds::{LineInstance, Regime};
use raysearch::core::{CompiledFleet, RayEvaluator};
use raysearch::sim::LineItinerary;
use raysearch::strategies::{CyclicExponential, LineStrategy, RayStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("raysearch quickstart — Kupavskii & Welzl, PODC 2018\n");

    // ------------------------------------------------------------------
    // 1. The closed form: A(k, f) for k robots, f of them crash-faulty.
    // ------------------------------------------------------------------
    println!("Theorem 1 — optimal ratios A(k, f) on the line:");
    for (k, f) in [(1u32, 0u32), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3)] {
        let instance = LineInstance::new(k, f)?;
        match instance.regime() {
            Regime::Searchable { ratio } => {
                println!(
                    "  k={k}, f={f}:  rho = {:.4}  A = {ratio:.6}",
                    instance.rho()
                );
            }
            Regime::Trivial => println!("  k={k}, f={f}:  trivial (ratio 1)"),
            Regime::Impossible => println!("  k={k}, f={f}:  impossible"),
        }
    }

    // ------------------------------------------------------------------
    // 2. Run the optimal strategy on the line and measure its ratio
    //    exactly (no sampling: the evaluator enumerates breakpoints).
    //    The line is the two-ray case: each robot's zig-zag compiles as
    //    a two-ray tour, ray 0 being the positive side.
    // ------------------------------------------------------------------
    let (k, f) = (3u32, 1u32);
    let strategy = CyclicExponential::optimal(2, k, f)?.to_line()?;
    let itineraries = strategy.fleet_itineraries(1e6)?;
    let tours = itineraries.iter().map(LineItinerary::to_two_ray_tour);
    let fleet = CompiledFleet::from_tours(2, 1e6, tours)?;
    let report = RayEvaluator::new(2, f, 1.0, 1e5)?.evaluate(&fleet)?;
    let theory = LineInstance::new(k, f)?
        .regime()
        .ratio()
        .expect("searchable");
    println!("\nOptimal strategy, k={k}, f={f}:");
    println!("  theory   A(k,f)    = {theory:.9}");
    println!("  measured sup t/x   = {:.9}", report.ratio);
    let worst = report.worst.expect("covered");
    println!(
        "  worst target: just past x = {:.3} on the {} side",
        worst.x,
        if worst.ray == 0 {
            "positive"
        } else {
            "negative"
        }
    );
    assert!((report.ratio - theory).abs() < 1e-3);

    // ------------------------------------------------------------------
    // 3. The m-ray generalization (Theorem 6), f = 0: the question open
    //    since Baeza-Yates et al., Kao et al. and Bernstein et al.
    // ------------------------------------------------------------------
    println!("\nTheorem 6 — parallel search on m rays (f = 0):");
    for (m, k) in [(3u32, 1u32), (3, 2), (4, 3), (5, 2)] {
        let strategy = CyclicExponential::optimal(m, k, 0)?;
        let fleet = CompiledFleet::from_tours(m as usize, 1e6, &strategy.fleet_tours(1e6)?)?;
        let measured = RayEvaluator::new(m as usize, 0, 1.0, 1e4)?
            .evaluate(&fleet)?
            .ratio;
        let theory = raysearch::bounds::a_rays(m, k, 0)?;
        println!(
            "  m={m}, k={k}:  A = {theory:.6}   measured = {measured:.6}   alpha* = {:.6}",
            strategy.alpha()
        );
        assert!((measured - theory).abs() < 1e-2);
    }

    println!("\nAll measurements match the paper's closed forms.");
    Ok(())
}
