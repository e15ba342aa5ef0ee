//! Kinematic substrate for robot search on the real line and on `m` rays.
//!
//! This crate provides the deterministic mechanics on top of which the
//! `raysearch` workspace builds search strategies, fault adversaries,
//! covering arguments and competitive-ratio evaluation:
//!
//! * [`Time`] — a validated, totally ordered wrapper for simulation time;
//! * [`geometry`] — points on the line ([`LinePoint`]) and on `m` rays
//!   ([`RayPoint`]), plus the classic identification of the line with two
//!   rays;
//! * [`itinerary`] — symbolic robot plans: alternating turning sequences on
//!   the line ([`LineItinerary`]) and excursion tours on rays
//!   ([`TourItinerary`]);
//! * [`trajectory`] — compiled piecewise-linear motions with exact
//!   first-visit and all-visits queries ([`LineTrajectory`],
//!   [`RayTrajectory`]);
//! * [`engine`] — a discrete-event engine merging per-robot visit events
//!   into a global, time-ordered schedule ([`VisitEngine`]).
//!
//! Everything is exact up to `f64` arithmetic: trajectories are
//! piecewise-linear with unit speed, so visit times are computed in closed
//! form rather than by time-stepping.
//!
//! # Example
//!
//! ```
//! use raysearch_sim::{LineItinerary, LineTrajectory, Direction};
//!
//! // The classic doubling cow-path plan: +1, -2, +4, -8, ...
//! let plan = LineItinerary::new(Direction::Positive, vec![1.0, 2.0, 4.0, 8.0])?;
//! let traj = LineTrajectory::compile(&plan);
//!
//! // Visiting -2 requires walking 1 right, back, and 2 left: time 1+1+2 = 4.
//! let t = traj.first_visit(-2.0).expect("visited");
//! assert!((t.as_f64() - 4.0).abs() < 1e-12);
//! # Ok::<(), raysearch_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod time;

pub mod engine;
pub mod geometry;
pub mod itinerary;
pub mod trajectory;

pub use engine::{VisitEngine, VisitEvent, VisitSchedule};
pub use error::SimError;
pub use geometry::{Direction, LinePoint, RayId, RayPoint};
pub use itinerary::{Excursion, LineItinerary, TourItinerary};
pub use time::Time;
pub use trajectory::{LineTrajectory, RayTrajectory, Visit};

/// Identifier of a robot within a fleet, dense from `0`.
///
/// A `RobotId` is only meaningful relative to the fleet it was issued for;
/// the workspace uses dense ids `0..k` throughout.
///
/// # Example
///
/// ```
/// use raysearch_sim::RobotId;
/// let r = RobotId(3);
/// assert_eq!(r.index(), 3);
/// assert_eq!(format!("{r}"), "robot#3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct RobotId(pub usize);

impl RobotId {
    /// Returns the dense index of this robot.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RobotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "robot#{}", self.0)
    }
}

impl From<usize> for RobotId {
    fn from(i: usize) -> Self {
        RobotId(i)
    }
}
