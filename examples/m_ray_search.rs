//! Searching m rays with a faulty fleet: the Theorem 6 setting, plus the
//! α-ablation showing the optimal base is genuinely optimal.
//!
//! ```text
//! cargo run --example m_ray_search
//! ```

use raysearch::bounds::{a_rays, cyclic_ratio, optimal_alpha, RayInstance};
use raysearch::core::{CompiledFleet, RayEvaluator};
use raysearch::strategies::{CyclicExponential, RayStrategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, k, f) = (3u32, 4u32, 1u32);
    let instance = RayInstance::new(m, k, f)?;
    let q = instance.q();
    println!(
        "m = {m} rays, k = {k} robots, f = {f} faulty  =>  q = m(f+1) = {q}, eta = {:.4}",
        instance.eta()
    );
    println!("A(m,k,f) = {:.6}\n", a_rays(m, k, f)?);

    // ------------------------------------------------------------------
    // Sweep the geometric base alpha around the optimum: the measured
    // ratio traces 2·alpha^q/(alpha^k - 1) + 1 with its minimum at
    // alpha* = (q/(q-k))^(1/k).
    // ------------------------------------------------------------------
    let astar = optimal_alpha(q, k)?;
    println!("alpha sweep (optimal alpha* = {astar:.6}):");
    println!("  alpha      formula     measured");
    let evaluator = RayEvaluator::new(m as usize, f, 1.0, 1e4)?;
    let mut best = (f64::INFINITY, 0.0);
    for step in -3i32..=3 {
        // scale relative to (alpha* - 1) so every swept base stays > 1
        let alpha = 1.0 + (astar - 1.0) * 1.3f64.powi(step);
        let strategy = CyclicExponential::with_alpha(m, k, f, alpha)?;
        let fleet = CompiledFleet::from_tours(m as usize, 1e5, &strategy.fleet_tours(1e5)?)?;
        let measured = evaluator.evaluate(&fleet)?.ratio;
        let formula = cyclic_ratio(alpha, q, k)?;
        println!("  {alpha:.4}    {formula:>8.4}    {measured:>8.4}");
        if measured < best.0 {
            best = (measured, alpha);
        }
        assert!(
            (measured - formula).abs() < 1e-2 * formula,
            "measured ratio disagrees with the appendix formula"
        );
    }
    println!(
        "\nbest measured base: {:.4} (optimal {:.4}); minimum value {:.6} = A(m,k,f)",
        best.1,
        astar,
        a_rays(m, k, f)?
    );
    assert!((best.1 - astar).abs() < 0.2 * astar);

    // ------------------------------------------------------------------
    // Where the adversary hides: the worst target sits just past a
    // turning point on some ray.
    // ------------------------------------------------------------------
    let strategy = CyclicExponential::optimal(m, k, f)?;
    let fleet = CompiledFleet::from_tours(m as usize, 1e5, &strategy.fleet_tours(1e5)?)?;
    let report = evaluator.evaluate(&fleet)?;
    let w = report.worst.expect("covered");
    println!(
        "\nworst-case target: just past distance {:.4} on ray {}, detected at {:.4} \
         (ratio {:.6})",
        w.x, w.ray, w.detection_limit, report.ratio
    );
    Ok(())
}
