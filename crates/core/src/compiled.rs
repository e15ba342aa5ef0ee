//! The compilation layer: fleet geometry compiled once, evaluated many
//! times.
//!
//! Every consumer of a fleet — the exact evaluator, the tightness
//! verdict, the Monte-Carlo engine, every campaign grid cell — walks the
//! same structure: each robot's first-visit function on each ray, a run
//! of slope-1 pieces `c + x`. [`CompiledFleet`] is the one place that
//! structure lives, whichever form the fleet arrived in: linear tours,
//! a line fleet read as two-ray tours
//! ([`LineItinerary::to_two_ray_tour`](raysearch_sim::LineItinerary::to_two_ray_tour)),
//! or the optimal fleet's turn stream ([`CyclicExponential::turns`]).
//!
//! * [`CompiledFleet`] — the arena-backed artifact: one contiguous piece
//!   arena per ray, holding every robot's pieces on that ray robot by
//!   robot, with `(robot, ray)` span indices into it, and beside it the
//!   ray's sweep plan, which the exact evaluator walks;
//! * [`FleetBuilder`] — streaming construction, one tour at a time,
//!   written straight into the arenas and truncated at the cap;
//! * [`optimal_fleet`] — the fleet attaining `A(m, k, f)`, and the one
//!   place its [`FleetKey`] is chosen;
//! * [`FleetKey`] — the memoization key `(strategy, m, k, α, cap)`;
//! * [`CompileCache`] / [`NoCache`] / [`CompileMemo`] — the cache
//!   seam: callers thread any cache through
//!   [`evaluate_optimal_cached`](crate::eval::evaluate_optimal_cached)
//!   and friends; [`CompileMemo`] is the sharded in-process memo the
//!   campaign runner and serving layer use, with hit/miss/timing
//!   counters ([`CompileStats`]).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use raysearch_bounds::{RayInstance, Regime};
use raysearch_sim::{RobotId, TourItinerary};
use raysearch_strategies::{CyclicExponential, RayStrategy, ZonePartition};

use crate::canon::CanonF64;
use crate::eval::check_range;
use crate::CoreError;

/// One slope-1 piece of a first-visit function: targets in `(lo, hi]`
/// are first visited at time `c + x`.
///
/// `hi = ∞` marks a *straddling* piece compiled from a streamed turn
/// that saturated to `∞` past linear `f64`; its `c` is still exact, and
/// `hi` only ever participates in `x ≤ hi` comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstVisitPiece {
    /// Left end of the covered interval (exclusive).
    pub lo: f64,
    /// Right end of the covered interval (inclusive).
    pub hi: f64,
    /// The first-visit constant: twice the turning mass spent before
    /// the covering leg.
    pub c: f64,
}

/// The memoization key of a compiled fleet: everything the piece arenas
/// depend on, and nothing they don't.
///
/// The key carries no fault budget. The zone-partition fleet is a
/// function of `(m, k, cap)` alone, so trivial-regime cells with
/// different `f` share one artifact. The cyclic exponential fleet is a
/// function of `(m, k, α, cap)`, but the optimal `α` depends on
/// `(m, k, f)`, so an η-sweep over `f` at fixed `k` compiles one
/// artifact per `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetKey {
    /// A [`CyclicExponential`] fleet compiled with the given piece cap.
    Cyclic {
        /// Number of rays.
        m: u32,
        /// Number of robots.
        k: u32,
        /// The geometric base `α`.
        alpha: CanonF64,
        /// The compilation cap (the evaluation range's upper end).
        cap: CanonF64,
    },
    /// A [`ZonePartition`] fleet whose tours walk out to `cap`.
    Zone {
        /// Number of rays.
        m: u32,
        /// Number of robots.
        k: u32,
        /// The tour horizon the zone walkers were generated at.
        cap: CanonF64,
    },
}

/// The `enter` rank of a [`Transition`] at which a robot's plan on the
/// ray ends.
pub(crate) const PLAN_ENDS: u32 = u32::MAX;

/// One finite right end in a ray's [`SweepPlan`]: for probes past `at`,
/// the piece's constant (rank `leave`) leaves the multiset of covering
/// constants, and the robot's next piece's constant (rank `enter`)
/// enters it, or the robot's plan ends there (`enter = PLAN_ENDS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    pub(crate) at: f64,
    pub(crate) leave: u32,
    pub(crate) enter: u32,
}

/// A ray's sweep plan: what the exact evaluator's sweep needs of the
/// ray, none of which depends on `f` or on the evaluation range.
///
/// It rests on the tiling [`FleetBuilder`] guarantees: a robot's first
/// piece on a ray starts at 0, and each next piece starts bit for bit
/// where the one before ends. So the piece boundaries in any `(lo, hi)`
/// with `lo ≥ 0` are exactly the distinct finite right ends there, and
/// crossing a right end swaps one constant for the next.
///
/// No transition lowers a rank: `enter ≥ leave` unless the plan ends.
/// The builder sets a piece's constant to twice the running sum of the
/// robot's turns before its leg, and no turn is negative (`Excursion`
/// takes positive turns only, and the turn stream yields exponentials),
/// so a robot's constants never decrease along its run; ranks follow
/// the bit order of non-negative constants. The evaluator's
/// forward-only order-statistic cursor rests on this.
///
/// Its two sorts take the pieces in [`column_order`], which is already
/// sorted on a cyclic exponential fleet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SweepPlan {
    /// The ray's distinct constants in `total_cmp` order, deduplicated
    /// by bit pattern; a constant's rank is its index here.
    pub(crate) constants: Vec<f64>,
    /// The first-piece rank of every robot with pieces on the ray.
    pub(crate) first: Vec<u32>,
    /// Every piece's finite right end, sorted by position.
    pub(crate) transitions: Vec<Transition>,
}

impl SweepPlan {
    /// The plan of one ray's `arena`, whose robot runs are `spans`.
    fn new(
        arena: &[FirstVisitPiece],
        spans: impl Iterator<Item = (u32, u32)> + Clone,
    ) -> SweepPlan {
        // one walk over the arena lists each piece's constant as a sort
        // key, and each finite right end with the arena indices of the
        // pieces it swaps, which become ranks once the constants are
        // sorted. Constants are finite and non-negative (twice a sum of
        // turns), where the bit pattern orders like the value
        let mut order: Vec<(u64, u32)> = Vec::with_capacity(arena.len());
        let mut transitions = Vec::with_capacity(arena.len());
        column_order(spans.clone(), |i, last| {
            let piece = &arena[i as usize];
            order.push((piece.c.to_bits(), i));
            // a straddling `hi = ∞` piece never leaves
            if piece.hi.is_finite() {
                let enter = if last { PLAN_ENDS } else { i + 1 };
                transitions.push(Transition {
                    at: piece.hi,
                    leave: i,
                    enter,
                });
            }
        });
        // rank every piece's constant: sorting (key, index) pairs puts
        // equal constants side by side
        order.sort_unstable();
        let mut ranks = vec![0u32; arena.len()];
        let mut constants = Vec::new();
        let mut last_key = None;
        for &(key, i) in &order {
            if last_key != Some(key) {
                last_key = Some(key);
                constants.push(f64::from_bits(key));
            }
            ranks[i as usize] = constants.len() as u32 - 1;
        }
        let first = spans
            .filter(|&(start, end)| start < end)
            .map(|(start, _)| ranks[start as usize])
            .collect();
        for t in &mut transitions {
            t.leave = ranks[t.leave as usize];
            if t.enter != PLAN_ENDS {
                t.enter = ranks[t.enter as usize];
            }
            debug_assert!(t.enter == PLAN_ENDS || t.enter >= t.leave);
        }
        // right ends are positive and finite, where the bit pattern
        // orders like the value
        transitions.sort_unstable_by_key(|t| t.at.to_bits());
        SweepPlan {
            constants,
            first,
            transitions,
        }
    }
}

/// Visits a ray's pieces, given its robot runs as `(start, end)` spans,
/// in column order: every run's first piece, runs in order, then every
/// run's second, and so on, each as its arena index and whether it ends
/// its run. Spent runs drop out, so ragged runs cost nothing extra.
///
/// On a [`CyclicExponential`] fleet this is the plan order. Every robot
/// makes the same excursions `n` to a ray, so robot `r`'s `j`-th piece
/// there ends at `α^(k·n_j + m(r+1))`: column `j`'s right ends have
/// exponents in `[k·n_j + m, k·n_j + km]`, below column `j + 1`'s. The
/// constants, `∝ α^(m(r+1))·(α^(k(n_j − n0)) − 1)`, ascend in the same
/// blocks.
fn column_order(spans: impl Iterator<Item = (u32, u32)>, mut visit: impl FnMut(u32, bool)) {
    let mut live: Vec<(u32, u32)> = spans.filter(|&(start, end)| start < end).collect();
    while !live.is_empty() {
        live.retain_mut(|(next, end)| {
            visit(*next, *next + 1 == *end);
            *next += 1;
            next < end
        });
    }
}

/// A compiled fleet: every robot's first-visit pieces on every ray, and
/// each ray's sweep plan.
///
/// Storage is one arena per ray: `rays[ray]` holds robot 0's pieces on
/// that ray, then robot 1's, and so on, and robot `r`'s run is the index
/// range `spans[r·m + ray]`. A run tiles `(0, reach]`: its first piece
/// starts at 0 and each next piece's `lo` is the previous `hi`, bit for
/// bit. A `(robot, ray)` lookup is one binary search inside its span.
/// Beside each arena sits the ray's sweep plan: its distinct constants
/// in order, each robot's first-piece rank, and the finite right ends in
/// order of position with the ranks that leave and enter there. The
/// exact evaluator walks the plans instead of the pieces, and
/// [`boundaries_on_ray`](CompiledFleet::boundaries_on_ray) reads the
/// right ends. The plans cost about as many bytes as the arenas (see
/// [`CompileMemo`]). Pieces are valid for queries
/// `x ≤ cap`: every piece with `lo < cap` is kept, later ones are not.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFleet {
    cap: f64,
    rays: Vec<Vec<FirstVisitPiece>>,
    /// `spans[robot * m + ray] = (first, last+1)` into `rays[ray]`.
    spans: Vec<(u32, u32)>,
    /// `plans[ray]`, built by [`FleetBuilder::finish`].
    plans: Vec<SweepPlan>,
}

impl CompiledFleet {
    /// Compiles a whole fleet of linear tours (see
    /// [`FleetBuilder::push_tour`]). A line fleet enters as two-ray
    /// tours, ray `0` being the positive side:
    ///
    /// ```
    /// use raysearch_core::{CompiledFleet, RayEvaluator};
    /// use raysearch_sim::LineItinerary;
    /// use raysearch_strategies::{DoublingCowPath, LineStrategy};
    ///
    /// let cow = DoublingCowPath::classic().fleet_itineraries(1e5)?;
    /// let fleet =
    ///     CompiledFleet::from_tours(2, 1e5, cow.iter().map(LineItinerary::to_two_ray_tour))?;
    /// let report = RayEvaluator::new(2, 0, 1.0, 1e4)?.evaluate(&fleet)?;
    /// assert!((report.ratio - 9.0).abs() < 1e-3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`FleetBuilder::new`] and [`FleetBuilder::push_tour`].
    pub fn from_tours<T: Borrow<TourItinerary>>(
        m: usize,
        cap: f64,
        tours: impl IntoIterator<Item = T>,
    ) -> Result<Self, CoreError> {
        let mut builder = FleetBuilder::new(m, cap)?;
        for tour in tours {
            builder.push_tour(tour.borrow())?;
        }
        Ok(builder.finish())
    }

    /// Number of rays.
    #[inline]
    pub fn num_rays(&self) -> usize {
        self.rays.len()
    }

    /// Number of compiled robots.
    #[inline]
    pub fn num_robots(&self) -> usize {
        self.spans.len() / self.num_rays()
    }

    /// The compilation cap: queries are valid for targets `x ≤ cap`.
    #[inline]
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Total pieces across all robots and rays.
    pub fn num_pieces(&self) -> usize {
        self.rays.iter().map(Vec::len).sum()
    }

    /// The pieces of one `(robot, ray)` pair, sorted by strictly
    /// increasing `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `robot` or `ray` is out of range.
    #[inline]
    pub fn pieces(&self, robot: usize, ray: usize) -> &[FirstVisitPiece] {
        let m = self.num_rays();
        assert!(ray < m, "ray {ray} out of range for m = {m}");
        let (a, b) = self.spans[robot * m + ray];
        &self.rays[ray][a as usize..b as usize]
    }

    /// The sweep plan of `ray`.
    pub(crate) fn plan(&self, ray: usize) -> &SweepPlan {
        &self.plans[ray]
    }

    /// First-visit time of `robot` to a target at distance `x` on
    /// `ray`, or `None` if the robot's compiled plan never reaches it —
    /// one binary search on the `(robot, ray)` span.
    ///
    /// # Panics
    ///
    /// Panics if `robot` or `ray` is out of range.
    #[inline]
    pub fn first_visit(&self, robot: usize, ray: usize, x: f64) -> Option<f64> {
        let pieces = self.pieces(robot, ray);
        let idx = pieces.partition_point(|p| p.lo < x);
        let p = &pieces[idx.checked_sub(1)?];
        (x <= p.hi).then_some(p.c + x)
    }

    /// All piece boundaries on `ray` strictly inside `(lo, hi)`, sorted
    /// and deduplicated: the exact adversary's candidate targets. They
    /// are 0, where every robot's first piece starts, and the plan's
    /// right ends.
    ///
    /// # Panics
    ///
    /// Panics if `ray` is out of range.
    pub fn boundaries_on_ray(&self, ray: usize, lo: f64, hi: f64) -> Vec<f64> {
        let ends = &self.plans[ray].transitions;
        let mut bs = Vec::new();
        if lo < 0.0 && 0.0 < hi && !self.rays[ray].is_empty() {
            bs.push(0.0);
        }
        let start = ends.partition_point(|t| t.at <= lo);
        // `at > lo` keeps a NaN `lo` empty, as the comparisons always did
        for t in ends[start..].iter().take_while(|t| t.at > lo && t.at < hi) {
            if bs.last() != Some(&t.at) {
                bs.push(t.at);
            }
        }
        bs
    }
}

/// Streaming builder for a [`CompiledFleet`]: fix the geometry's ray
/// count and cap, push one tour per robot, then [`finish`].
///
/// [`finish`]: FleetBuilder::finish
///
/// # Example
///
/// ```
/// use raysearch_core::compiled::FleetBuilder;
/// use raysearch_sim::RobotId;
/// use raysearch_strategies::{CyclicExponential, RayStrategy};
///
/// let s = CyclicExponential::optimal(2, 3, 1)?;
/// let mut b = FleetBuilder::new(2, 100.0)?;
/// for r in 0..3 {
///     b.push_tour(&s.tour(RobotId(r), 100.0)?)?;
/// }
/// let fleet = b.finish();
/// assert_eq!(fleet.num_robots(), 3);
/// assert!(fleet.first_visit(0, 0, 5.0).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FleetBuilder {
    fleet: CompiledFleet,
}

impl FleetBuilder {
    /// A builder for an `m`-ray fleet whose pieces are valid for
    /// queries up to `cap`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if `m = 0` or `cap` is not
    /// positive and finite.
    pub fn new(m: usize, cap: f64) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::invalid("need at least one ray"));
        }
        if !(cap.is_finite() && cap > 0.0) {
            return Err(CoreError::invalid(format!(
                "piece cap must be positive and finite, got {cap}"
            )));
        }
        Ok(FleetBuilder {
            fleet: CompiledFleet {
                cap,
                rays: vec![Vec::new(); m],
                spans: Vec::new(),
                plans: Vec::new(),
            },
        })
    }

    /// Compiles one robot's linear tour and appends it, truncated at
    /// the cap.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the tour's ray count
    /// disagrees with the builder's, or a first-visit constant within
    /// the cap overflows `f64` — at caps within a factor `α^(k·m)` of
    /// `f64::MAX`, the turning mass ahead of a straddling leg can exceed
    /// linear range, and answering with a saturated `∞` would be a
    /// silent wrong answer. A failed push leaves the builder as it was.
    pub fn push_tour(&mut self, tour: &TourItinerary) -> Result<(), CoreError> {
        let excursions = tour.excursions().iter();
        self.push_robot(tour.num_rays(), excursions.map(|e| (e.ray.index(), e.turn)))
    }

    /// The piece compiler: one pass over a robot's `(ray, turn)`
    /// excursions. A piece opens whenever an excursion pushes past the
    /// furthest distance the robot has reached on that ray, and its
    /// constant is twice the turning mass spent before that leg. Only
    /// pieces with `lo < cap` are kept — the only ones a query in
    /// `(0, cap]` can consult — and the pass ends once every ray has
    /// reached the cap, so a turn stream's padding past the cap is never
    /// read. It is a single pass because a per-ray scan would walk the
    /// `O(m·f)`-excursion tour `m` times. Errors as
    /// [`FleetBuilder::push_tour`].
    pub(crate) fn push_robot(
        &mut self,
        num_rays: usize,
        excursions: impl Iterator<Item = (usize, f64)>,
    ) -> Result<(), CoreError> {
        let CompiledFleet {
            cap, rays, spans, ..
        } = &mut self.fleet;
        let (cap, m) = (*cap, rays.len());
        if num_rays != m {
            return Err(CoreError::invalid(format!(
                "tour is for {num_rays} rays, builder expects {m}"
            )));
        }
        let base = spans.len();
        spans.extend(
            rays.iter()
                .map(|arena| (arena.len() as u32, arena.len() as u32)),
        );
        let mut open = m;
        let mut prefix = 0.0f64;
        for (ray, turn) in excursions {
            let arena = &mut rays[ray];
            let span = &mut spans[base + ray];
            let reach = if span.0 == span.1 {
                0.0
            } else {
                arena[span.1 as usize - 1].hi
            };
            if reach < cap && turn > reach {
                let c = 2.0 * prefix;
                if !c.is_finite() {
                    for (arena, &(start, _)) in rays.iter_mut().zip(&spans[base..]) {
                        arena.truncate(start as usize);
                    }
                    spans.truncate(base);
                    return Err(CoreError::invalid(format!(
                        "first-visit constant on ray {ray} overflows f64 within the \
                         evaluation cap {cap:e}: the horizon is too deep for this \
                         fleet's turning-point growth"
                    )));
                }
                arena.push(FirstVisitPiece {
                    lo: reach,
                    hi: turn,
                    c,
                });
                span.1 += 1;
                if turn >= cap {
                    open -= 1;
                    if open == 0 {
                        break;
                    }
                }
            }
            prefix += turn;
        }
        Ok(())
    }

    /// Finalizes the artifact, building each ray's sweep plan.
    pub fn finish(mut self) -> CompiledFleet {
        let fleet = &mut self.fleet;
        let m = fleet.rays.len();
        fleet.plans = (0..m)
            .map(|ray| {
                SweepPlan::new(
                    &fleet.rays[ray],
                    fleet.spans.iter().skip(ray).step_by(m).copied(),
                )
            })
            .collect();
        self.fleet
    }
}

/// The fleet attaining `A(m, k, f)`, compiled through `cache` for
/// targets in `[1, horizon]`. This is the one place the optimal fleet's
/// [`FleetKey`] is chosen; evaluations, verdicts and Monte-Carlo runs of
/// the same instance and horizon all fetch the same artifact.
///
/// * Searchable regime `f < k < m(f+1)`: the [`CyclicExponential`]
///   fleet, keyed `Cyclic { m, k, α, cap: horizon }`. Each robot's
///   [`turns`](CyclicExponential::turns) up to the cap stream into the
///   piece compiler, which stops them once every ray reaches the cap,
///   so no tour is built and fleets of thousands of robots compile at
///   deep horizons; the sweep plans' sorts then see sorted input.
/// * Trivial regime `k ≥ m(f+1)`: the saturating [`ZonePartition`],
///   keyed `Zone { m, k, cap: 4·horizon }`; its tours depend only on
///   `(m, k, cap)`, so every `f` shares the artifact.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] unless `horizon > 1`, and the
/// substrates' errors for an invalid or impossible `(m, k, f)` or a
/// failed build (which `cache` does not keep).
pub fn optimal_fleet<C: CompileCache>(
    cache: &C,
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
) -> Result<Arc<CompiledFleet>, CoreError> {
    check_range(1.0, horizon)?;
    if RayInstance::new(m, k, f)?.regime() == Regime::Trivial {
        // padded so every target in range lies strictly inside the
        // zone walkers' covered territory
        let padded = horizon * 4.0;
        let key = FleetKey::Zone {
            m,
            k,
            cap: CanonF64::new(padded)?,
        };
        return cache.get_or_compile(key, &mut || {
            let tours = ZonePartition::new(m, k, f)?.fleet_tours(padded)?;
            CompiledFleet::from_tours(m as usize, padded, &tours)
        });
    }
    // searchable — or impossible, which the strategy constructor rejects
    let strategy = CyclicExponential::optimal(m, k, f)?;
    let key = FleetKey::Cyclic {
        m,
        k,
        alpha: CanonF64::new(strategy.alpha())?,
        cap: CanonF64::new(horizon)?,
    };
    cache.get_or_compile(key, &mut || {
        // each robot's turns stream straight into the piece compiler,
        // which stops them once every ray has reached the cap
        let mut builder = FleetBuilder::new(m as usize, horizon)?;
        for r in 0..k as usize {
            let turns = strategy.turns(RobotId(r), horizon)?;
            builder.push_robot(m as usize, turns.map(|(ray, turn)| (ray.index(), turn)))?;
        }
        Ok(builder.finish())
    })
}

/// The cache seam of the compilation layer: anything that can answer
/// "give me the artifact for this key, compiling at most once on a
/// miss".
///
/// Implementations must return the `build` result unmodified on a miss
/// and must not cache errors.
pub trait CompileCache {
    /// Returns the artifact for `key`, invoking `build` only on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error (which is then *not* cached).
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError>;
}

/// The trivial cache: always compiles. Threading [`NoCache`] through a
/// `_cached` entry point reproduces the uncached behavior exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl CompileCache for NoCache {
    fn get_or_compile(
        &self,
        _key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        Ok(Arc::new(build()?))
    }
}

/// A snapshot of a [`CompileMemo`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CompileStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Artifacts currently held.
    pub entries: u64,
    /// Total wall-clock microseconds spent compiling on misses.
    pub compile_micros: u64,
}

impl CompileStats {
    /// The counter deltas `self − earlier` (entries stay absolute: they
    /// are a level, not a flow).
    pub fn since(&self, earlier: &CompileStats) -> CompileStats {
        CompileStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            compile_micros: self.compile_micros.saturating_sub(earlier.compile_micros),
        }
    }
}

/// A sharded, unbounded in-process compile memo: the [`CompileCache`]
/// the campaign runner threads through its worker pool so grid cells
/// with shared geometry compile once, and the second memo tier the
/// serving layer keeps beside its result LRU.
///
/// Compilation happens under the shard lock, so concurrent requests for
/// the same key compile exactly once and everyone else blocks briefly
/// and shares the artifact. Errors are never cached. The memo is
/// unbounded, because a campaign's key set is finite; a serving layer
/// that needs eviction wraps its own bounded store instead. An artifact
/// costs about 48 bytes per piece: 24 in the arena and 24 in the sweep
/// plans. The largest e12 cell (`m = 2`, `k = 4096`, `f = 4095`,
/// horizon `1e12`) holds 181,710 pieces, or 8.8 MB (4.43 MB of arena
/// and 4.36 MB of plan), and the full 24-cell e12 sweep about 40 MB.
///
/// # Example
///
/// ```
/// use raysearch_core::compiled::CompileMemo;
/// use raysearch_core::eval::evaluate_optimal_cached;
///
/// let memo = CompileMemo::new();
/// let a = evaluate_optimal_cached(&memo, 2, 3, 1, 1e4)?;
/// let b = evaluate_optimal_cached(&memo, 2, 3, 1, 1e4)?;
/// assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
/// let stats = memo.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok::<(), raysearch_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct CompileMemo {
    shards: Vec<Mutex<HashMap<FleetKey, Arc<CompiledFleet>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compile_micros: AtomicU64,
}

impl Default for CompileMemo {
    fn default() -> Self {
        CompileMemo::new()
    }
}

impl CompileMemo {
    /// Default shard count: enough to keep an 8-thread campaign off a
    /// single lock without bloating the empty memo.
    const DEFAULT_SHARDS: usize = 16;

    /// A memo with the default shard count.
    pub fn new() -> Self {
        CompileMemo::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A memo with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards = 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "compile memo needs at least one shard");
        CompileMemo {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compile_micros: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &FleetKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> CompileStats {
        CompileStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
            compile_micros: self.compile_micros.load(Ordering::Relaxed),
        }
    }

    /// Drops every held artifact (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

impl CompileCache for CompileMemo {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        let mut shard = self.shards[self.shard_of(&key)].lock();
        if let Some(found) = shard.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        // compile under the shard lock: same-key racers block and share
        // the one artifact instead of compiling redundantly
        let started = Instant::now();
        let built = build()?;
        self.compile_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(built);
        shard.insert(key, Arc::clone(&arc));
        Ok(arc)
    }
}

// `&C` caches transparently delegate, so call sites can thread either
// an owned cache or a shared reference without ceremony.
impl<C: CompileCache + ?Sized> CompileCache for &C {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        (**self).get_or_compile(key, build)
    }
}

impl<C: CompileCache + ?Sized> CompileCache for Arc<C> {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        (**self).get_or_compile(key, build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysearch_sim::{Excursion, LineItinerary, RayId};
    use raysearch_strategies::{DoublingCowPath, LineStrategy, ReplicatedDoubling};

    fn cyclic_fleet(cap: f64) -> CompiledFleet {
        Arc::unwrap_or_clone(optimal_fleet(&NoCache, 3, 4, 1, cap).unwrap())
    }

    #[test]
    fn builder_validates() {
        assert!(FleetBuilder::new(0, 10.0).is_err());
        assert!(FleetBuilder::new(2, 0.0).is_err());
        assert!(FleetBuilder::new(2, f64::INFINITY).is_err());
        let mut b = FleetBuilder::new(2, 10.0).unwrap();
        let three_ray = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .tour(RobotId(0), 10.0)
            .unwrap();
        assert!(b.push_tour(&three_ray).is_err());
        assert!(CompiledFleet::from_tours(2, 10.0, [three_ray]).is_err());
    }

    #[test]
    fn arena_pieces_match_fresh_compilation_bit_for_bit() {
        let s = CyclicExponential::optimal(3, 4, 1).unwrap();
        let cap = 500.0;
        let fleet = cyclic_fleet(cap);
        assert_eq!(fleet.num_rays(), 3);
        assert_eq!(fleet.num_robots(), 4);
        assert_eq!(fleet.cap(), cap);
        for r in 0..4usize {
            // the reference path: the full padded tour, compiled fresh
            let mut fresh = FleetBuilder::new(3, cap).unwrap();
            fresh
                .push_tour(&s.tour(RobotId(r), cap * 4.0).unwrap())
                .unwrap();
            let fresh = fresh.finish();
            for ray in 0..3 {
                let (arena, fresh) = (fleet.pieces(r, ray), fresh.pieces(0, ray));
                assert_eq!(arena.len(), fresh.len(), "robot {r}, ray {ray}");
                for (a, b) in arena.iter().zip(fresh) {
                    assert_eq!(a.lo.to_bits(), b.lo.to_bits());
                    assert_eq!(a.hi.to_bits(), b.hi.to_bits());
                    assert_eq!(a.c.to_bits(), b.c.to_bits());
                }
            }
        }
    }

    #[test]
    fn spans_tile_each_ray_arena_robot_by_robot() {
        let fleet = cyclic_fleet(200.0);
        let mut total = 0;
        for ray in 0..fleet.num_rays() {
            let tiled: Vec<FirstVisitPiece> = (0..fleet.num_robots())
                .flat_map(|robot| fleet.pieces(robot, ray).iter().copied())
                .collect();
            assert_eq!(tiled, fleet.rays[ray], "ray {ray}");
            total += tiled.len();
        }
        assert_eq!(total, fleet.num_pieces());
    }

    #[test]
    fn first_visit_answers_like_the_piece_lookup() {
        let fleet = cyclic_fleet(500.0);
        for robot in 0..4usize {
            for ray in 0..3usize {
                for &x in &[0.5, 1.0, 7.3, 41.0, 499.0] {
                    let by_scan = fleet
                        .pieces(robot, ray)
                        .iter()
                        .find(|p| p.lo < x && x <= p.hi)
                        .map(|p| p.c + x);
                    assert_eq!(
                        fleet.first_visit(robot, ray, x),
                        by_scan,
                        "robot {robot}, ray {ray}, x {x}"
                    );
                }
                // no plan covers distance 0 itself, and pieces past the
                // cap's straddling one were never compiled
                assert_eq!(fleet.first_visit(robot, ray, 0.0), None);
                assert_eq!(fleet.first_visit(robot, ray, 1e12), None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ray 2 out of range for m = 2")]
    fn first_visit_panics_on_out_of_range_ray() {
        let s = CyclicExponential::optimal(2, 3, 1).unwrap();
        let mut b = FleetBuilder::new(2, 100.0).unwrap();
        for r in 0..3 {
            b.push_tour(&s.tour(RobotId(r), 100.0).unwrap()).unwrap();
        }
        b.finish().first_visit(0, 2, 5.0);
    }

    /// A two-ray fleet of one robot that only ever walks ray 0.
    fn one_sided_fleet(cap: f64) -> CompiledFleet {
        let ray0 = RayId::new(0, 2).unwrap();
        let excursions = [3.0, 40.0, 2.0 * cap]
            .map(|turn| Excursion::new(ray0, turn).unwrap())
            .to_vec();
        CompiledFleet::from_tours(2, cap, [TourItinerary::new(2, excursions).unwrap()]).unwrap()
    }

    /// Asserts the tiling the sweep plan relies on: every `(robot, ray)`
    /// run starts at 0, each next piece starts bit for bit where the one
    /// before ends, and only a run's last piece may end at ∞.
    fn assert_tiles(fleet: &CompiledFleet, at: &str) {
        for robot in 0..fleet.num_robots() {
            for ray in 0..fleet.num_rays() {
                let pieces = fleet.pieces(robot, ray);
                let mut reach = 0.0f64;
                for (j, p) in pieces.iter().enumerate() {
                    let at = format!("{at}: robot {robot}, ray {ray}, piece {j}");
                    assert_eq!(p.lo.to_bits(), reach.to_bits(), "{at}");
                    assert!(p.hi > p.lo, "{at}");
                    assert!(p.hi.is_finite() || j + 1 == pieces.len(), "{at}");
                    reach = p.hi;
                }
            }
        }
    }

    /// A two-ray fleet whose column order is out of plan order: robot 1
    /// spends 500 on ray 1 first, so on ray 0 its constants top robot
    /// 0's column by column while its right ends fall between robot 0's.
    fn out_of_column_order_fleet() -> CompiledFleet {
        let tour = |turns: &[(usize, f64)]| {
            let excursions = turns
                .iter()
                .map(|&(ray, turn)| Excursion::new(RayId::new(ray, 2).unwrap(), turn).unwrap())
                .collect();
            TourItinerary::new(2, excursions).unwrap()
        };
        let tours = [
            tour(&[(0, 1.0), (0, 100.0), (0, 1000.0), (1, 5.0)]),
            tour(&[(1, 500.0), (0, 50.0), (0, 60.0), (0, 70.0)]),
        ];
        CompiledFleet::from_tours(2, 1000.0, tours).unwrap()
    }

    /// Whether `ray`'s pieces in column order are in plan order: their
    /// constants never decrease and their finite right ends strictly
    /// increase.
    fn column_order_is_sorted(fleet: &CompiledFleet, ray: usize) -> bool {
        let spans = fleet.spans.iter().skip(ray).step_by(fleet.num_rays());
        let mut pieces: Vec<&FirstVisitPiece> = Vec::new();
        column_order(spans.copied(), |i, _| {
            pieces.push(&fleet.rays[ray][i as usize])
        });
        let ends: Vec<f64> = pieces
            .iter()
            .map(|p| p.hi)
            .filter(|hi| hi.is_finite())
            .collect();
        pieces
            .windows(2)
            .all(|w| w[0].c.to_bits() <= w[1].c.to_bits())
            && ends.windows(2).all(|w| w[0] < w[1])
    }

    /// Asserts every ray's sweep plan equals one sorted from scratch:
    /// the constants of all pieces sorted and deduplicated by bit
    /// pattern, each robot's first rank, and every finite right end with
    /// the ranks it swaps, taken robot by robot and sorted. Tied right
    /// ends may come in any order (the evaluator applies all of them
    /// before its next probe), so transitions compare ordered by
    /// `(at, leave, enter)`. No transition may lower a rank.
    fn assert_plans_sort_from_scratch(fleet: &CompiledFleet, at: &str) {
        for ray in 0..fleet.num_rays() {
            let at = format!("{at}: ray {ray}");
            let mut constants: Vec<f64> = fleet.rays[ray].iter().map(|p| p.c).collect();
            constants.sort_by(f64::total_cmp);
            constants.dedup_by_key(|c| c.to_bits());
            let rank = |c: f64| constants.partition_point(|d| d.total_cmp(&c).is_lt()) as u32;
            let runs: Vec<&[FirstVisitPiece]> = (0..fleet.num_robots())
                .map(|robot| fleet.pieces(robot, ray))
                .filter(|run| !run.is_empty())
                .collect();
            let mut transitions = Vec::new();
            for run in &runs {
                for (j, p) in run.iter().enumerate().filter(|(_, p)| p.hi.is_finite()) {
                    let enter = run.get(j + 1).map_or(PLAN_ENDS, |next| rank(next.c));
                    transitions.push((p.hi.to_bits(), rank(p.c), enter));
                }
            }
            transitions.sort_unstable();
            let plan = fleet.plan(ray);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plan.constants), bits(&constants), "{at}: constants");
            let first: Vec<u32> = runs.iter().map(|run| rank(run[0].c)).collect();
            assert_eq!(plan.first, first, "{at}: first ranks");
            assert!(
                plan.transitions.windows(2).all(|w| w[0].at <= w[1].at),
                "{at}: transitions out of order"
            );
            let mut got: Vec<(u64, u32, u32)> = (plan.transitions.iter())
                .map(|t| (t.at.to_bits(), t.leave, t.enter))
                .collect();
            got.sort_unstable();
            assert_eq!(got, transitions, "{at}: transitions");
            assert!(
                (plan.transitions.iter()).all(|t| t.enter == PLAN_ENDS || t.enter >= t.leave),
                "{at}: a transition lowers a rank"
            );
        }
    }

    #[test]
    fn every_robot_run_tiles_from_zero() {
        let s = CyclicExponential::optimal(3, 5, 1).unwrap();
        let tours = |horizon| s.fleet_tours(horizon).unwrap();
        let optimal =
            |m, k, f, cap| Arc::unwrap_or_clone(optimal_fleet(&NoCache, m, k, f, cap).unwrap());
        let mut fleets = vec![
            (
                "push_tour".to_owned(),
                CompiledFleet::from_tours(3, 1e4, tours(4e4)).unwrap(),
            ),
            (
                "short tours".to_owned(),
                CompiledFleet::from_tours(3, 1e4, tours(300.0)).unwrap(),
            ),
            ("streamed turns".to_owned(), cyclic_fleet(1e4)),
            ("k = 149".to_owned(), optimal(2, 149, 74, 1e6)),
            ("zone partition".to_owned(), optimal(3, 7, 1, 1e4)),
            ("one-sided".to_owned(), one_sided_fleet(100.0)),
            (
                "out of column order".to_owned(),
                out_of_column_order_fleet(),
            ),
        ];
        let cyclic_line = CyclicExponential::optimal(2, 5, 2)
            .unwrap()
            .to_line()
            .unwrap();
        let lines = [
            DoublingCowPath::classic().fleet_itineraries(1e4).unwrap(),
            ReplicatedDoubling::new(3)
                .unwrap()
                .fleet_itineraries(1e4)
                .unwrap(),
            cyclic_line.fleet_itineraries(4e4).unwrap(),
        ];
        for (i, line) in lines.iter().enumerate() {
            let two_ray = line.iter().map(LineItinerary::to_two_ray_tour);
            let fleet = CompiledFleet::from_tours(2, 1e4, two_ray).unwrap();
            fleets.push((format!("line fleet {i}"), fleet));
        }
        for (at, fleet) in &fleets {
            assert_tiles(fleet, at);
            assert_plans_sort_from_scratch(fleet, at);
        }
        // without this fleet no sort above would have to reorder anything
        assert!(!column_order_is_sorted(&out_of_column_order_fleet(), 0));
    }

    /// The speed-up's guard: on every cyclic exponential fleet the sweep
    /// plans' two sorts see sorted input. Outputs would stay exact in any
    /// emission order, so only this test notices a return to robot by
    /// robot emission.
    #[test]
    fn column_order_is_the_plan_order_of_every_cyclic_fleet() {
        for m in 2u32..=5 {
            for k in [1u32, 3, 7, 31, 100, 257, 320] {
                // the searchable regime's f, from k/m to k − 1
                let mut faults = vec![k / m, (k / m + k - 1) / 2, k - 1];
                faults.dedup();
                for f in faults {
                    for cap in [10.0, 1e4, 1e6, 1e12] {
                        let fleet = optimal_fleet(&NoCache, m, k, f, cap).unwrap();
                        for ray in 0..m as usize {
                            assert!(
                                column_order_is_sorted(&fleet, ray),
                                "(m={m},k={k},f={f}) cap {cap:e}, ray {ray}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundaries_are_sorted_in_range() {
        let fleet = cyclic_fleet(500.0);
        let bs = fleet.boundaries_on_ray(0, 1.0, 400.0);
        assert!(!bs.is_empty());
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
        assert!(bs.iter().all(|&b| b > 1.0 && b < 400.0));
        // the plan walk answers like collecting, sorting and deduplicating
        // every piece end, on duplicate ends, early-ending plans and empty
        // rays, for ranges below 0, on boundaries, empty or not a number
        let replicated = ReplicatedDoubling::new(3)
            .unwrap()
            .fleet_itineraries(500.0)
            .unwrap();
        let short = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .fleet_tours(100.0)
            .unwrap();
        let fleets = [
            fleet.clone(),
            CompiledFleet::from_tours(
                2,
                500.0,
                replicated.iter().map(LineItinerary::to_two_ray_tour),
            )
            .unwrap(),
            CompiledFleet::from_tours(3, 500.0, short).unwrap(),
            one_sided_fleet(500.0),
        ];
        let on = fleet.pieces(1, 0)[2].hi;
        let ranges = [
            (1.0, 400.0),
            (-1.0, 400.0),
            (-1.0, 0.0),
            (-1.0, 1e-3),
            (-0.0, 10.0),
            (0.0, 50.0),
            (on, 400.0),
            (1.0, on),
            (on, on),
            (50.0, 2.0),
            (-1.0, f64::INFINITY),
            (f64::NEG_INFINITY, 1e9),
            (f64::NAN, 400.0),
            (-1.0, f64::NAN),
        ];
        for (i, fleet) in fleets.iter().enumerate() {
            for ray in 0..fleet.num_rays() {
                for (lo, hi) in ranges {
                    let mut reference: Vec<f64> = fleet.rays[ray]
                        .iter()
                        .flat_map(|p| [p.lo, p.hi])
                        .filter(|&b| b > lo && b < hi)
                        .collect();
                    reference.sort_by(f64::total_cmp);
                    reference.dedup();
                    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    assert_eq!(
                        bits(fleet.boundaries_on_ray(ray, lo, hi)),
                        bits(reference),
                        "fleet {i}, ray {ray}, ({lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn overflowing_push_leaves_the_builder_unchanged() {
        // at a cap this close to f64::MAX the turning mass ahead of the
        // straddling leg no longer fits in linear f64
        let cap = f64::MAX / 8.0;
        let s = CyclicExponential::optimal(2, 149, 74).unwrap();
        let mut b = FleetBuilder::new(2, cap).unwrap();
        let mut pushed = 0;
        let err = (0..149)
            .find_map(|r| {
                let before = b.fleet.clone();
                let turns = s.turns(RobotId(r), cap).unwrap();
                let result = b.push_robot(2, turns.map(|(ray, turn)| (ray.index(), turn)));
                pushed += usize::from(result.is_ok());
                result.err().map(|e| (e, before))
            })
            .expect("some robot's constant overflows");
        assert!(err.0.to_string().contains("overflows f64"), "{}", err.0);
        assert_eq!(b.fleet, err.1, "the failed robot left no pieces behind");
        assert_eq!(b.finish().num_robots(), pushed);
    }

    #[test]
    fn linear_push_matches_zone_partition_tours() {
        let tours = ZonePartition::new(2, 4, 1)
            .unwrap()
            .fleet_tours(100.0)
            .unwrap();
        let fleet = CompiledFleet::from_tours(2, 100.0, &tours).unwrap();
        assert_eq!(fleet.num_robots(), 4);
        // zone walkers go straight out: one piece on their own ray
        for (robot, tour) in tours.iter().enumerate() {
            let own_ray = tour.excursions()[0].ray.index();
            for ray in 0..2usize {
                let n = fleet.pieces(robot, ray).len();
                assert_eq!(n, usize::from(ray == own_ray), "robot {robot}, ray {ray}");
            }
        }
    }

    #[test]
    fn optimal_fleet_keys_share_zones_across_f_but_not_cyclic_fleets() {
        let memo = CompileMemo::new();
        // searchable: α depends on f, so every f compiles its own fleet
        for f in [4u32, 5, 6] {
            optimal_fleet(&memo, 2, 8, f, 1e4).unwrap();
        }
        assert_eq!((memo.stats().misses, memo.stats().hits), (3, 0));
        // trivial: the zone partition ignores f
        for f in [1u32, 2, 3] {
            optimal_fleet(&memo, 2, 64, f, 1e4).unwrap();
        }
        assert_eq!((memo.stats().misses, memo.stats().hits), (4, 2));
        assert!(optimal_fleet(&memo, 2, 3, 3, 1e4).is_err(), "impossible");
        assert!(optimal_fleet(&memo, 2, 3, 1, 1.0).is_err(), "empty range");
    }

    #[test]
    fn memo_hits_share_one_artifact_and_count() {
        let memo = CompileMemo::new();
        let key = FleetKey::Cyclic {
            m: 3,
            k: 4,
            alpha: CanonF64::new(1.5).unwrap(),
            cap: CanonF64::new(200.0).unwrap(),
        };
        let a = memo
            .get_or_compile(key, &mut || Ok(cyclic_fleet(200.0)))
            .unwrap();
        let b = memo
            .get_or_compile(key, &mut || panic!("hit must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        memo.clear();
        assert_eq!(memo.stats().entries, 0);
        // counters survive the clear
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn memo_does_not_cache_errors() {
        let memo = CompileMemo::new();
        let key = FleetKey::Zone {
            m: 2,
            k: 4,
            cap: CanonF64::new(100.0).unwrap(),
        };
        let err = memo.get_or_compile(key, &mut || Err(CoreError::invalid("transient failure")));
        assert!(err.is_err());
        assert_eq!(memo.stats().entries, 0);
        // the next lookup compiles successfully
        let ok = memo.get_or_compile(key, &mut || Ok(cyclic_fleet(100.0)));
        assert!(ok.is_ok());
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn stats_deltas() {
        let a = CompileStats {
            hits: 10,
            misses: 4,
            entries: 4,
            compile_micros: 900,
        };
        let b = CompileStats {
            hits: 25,
            misses: 6,
            entries: 6,
            compile_micros: 1500,
        };
        let d = b.since(&a);
        assert_eq!(
            (d.hits, d.misses, d.entries, d.compile_micros),
            (15, 2, 6, 600)
        );
    }

    #[test]
    fn keys_distinguish_geometry_not_faults() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(1e4).unwrap(),
        });
        // same geometry again: no new entry
        assert!(!set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(1e4).unwrap(),
        }));
        // a different cap is a different artifact
        assert!(set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(2e4).unwrap(),
        }));
        // zone keys never collide with cyclic keys
        assert!(set.insert(FleetKey::Zone {
            m: 2,
            k: 8,
            cap: CanonF64::new(1e4).unwrap(),
        }));
    }
}
