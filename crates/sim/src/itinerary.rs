//! Symbolic robot plans.
//!
//! An *itinerary* describes a robot's intended motion without reference to
//! time: on the line, an alternating sequence of turning points
//! ([`LineItinerary`]); on a star of rays, a sequence of excursions from the
//! origin ([`TourItinerary`]). Itineraries are compiled into queryable
//! [`trajectories`](crate::trajectory) by
//! [`LineTrajectory::compile`](crate::LineTrajectory::compile) and
//! [`RayTrajectory::compile`](crate::RayTrajectory::compile).
//!
//! The paper's standardization arguments (Section 2) justify restricting
//! attention to exactly these plan shapes: any line strategy can be replaced
//! by an alternating turning-point strategy that λ-covers at least as much,
//! and any ORC-setting strategy by rounds with a single turn each.

use crate::{Direction, RayId, SimError};

/// An alternating turning-point plan on the real line.
///
/// The robot starts at the origin, walks to `start · t₁`, turns, walks to
/// `-start · t₂`, turns, walks to `start · t₃`, and so on. All turning
/// magnitudes are positive and finite; monotonicity is *not* required here
/// (the covering machinery normalizes arbitrary plans).
///
/// # Example
///
/// ```
/// use raysearch_sim::{Direction, LineItinerary};
///
/// let zigzag = LineItinerary::new(Direction::Positive, vec![1.0, 2.0, 4.0])?;
/// assert_eq!(zigzag.len(), 3);
/// let signed: Vec<f64> = zigzag.signed_turns().collect();
/// assert_eq!(signed, vec![1.0, -2.0, 4.0]);
/// # Ok::<(), raysearch_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LineItinerary {
    start: Direction,
    turns: Vec<f64>,
}

impl LineItinerary {
    /// Creates an itinerary from a starting direction and turning
    /// magnitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDistance`] if any magnitude is not a
    /// positive finite number. An empty list is allowed and describes a
    /// robot that never leaves the origin.
    pub fn new(start: Direction, turns: Vec<f64>) -> Result<Self, SimError> {
        for &t in &turns {
            if !(t.is_finite() && t > 0.0) {
                return Err(SimError::InvalidDistance { value: t });
            }
        }
        Ok(LineItinerary { start, turns })
    }

    /// The starting direction.
    #[inline]
    pub fn start(&self) -> Direction {
        self.start
    }

    /// The turning magnitudes `t₁, t₂, …`.
    #[inline]
    pub fn turns(&self) -> &[f64] {
        &self.turns
    }

    /// Number of turning points.
    #[inline]
    pub fn len(&self) -> usize {
        self.turns.len()
    }

    /// Returns `true` if the robot never leaves the origin.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.turns.is_empty()
    }

    /// Iterates over the signed turning coordinates
    /// `start·t₁, -start·t₂, start·t₃, …`.
    pub fn signed_turns(&self) -> impl Iterator<Item = f64> + '_ {
        let s0 = self.start.sign();
        self.turns
            .iter()
            .enumerate()
            .map(move |(i, &t)| if i % 2 == 0 { s0 * t } else { -s0 * t })
    }

    /// Returns the prefix sums `t₁, t₁+t₂, …` of the turning magnitudes.
    ///
    /// These drive both trajectory compilation (the robot reaches turning
    /// point `i` at time `2·Σ_{j<i} t_j + t_i`) and the paper's fruitful-turn
    /// condition (Eq. (2)).
    pub fn prefix_sums(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.turns
            .iter()
            .map(|&t| {
                acc += t;
                acc
            })
            .collect()
    }

    /// Total of all turning magnitudes.
    pub fn total_turn_sum(&self) -> f64 {
        self.turns.iter().sum()
    }

    /// Returns a copy extended with one more turning magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDistance`] if `turn` is not positive
    /// finite.
    pub fn extended(&self, turn: f64) -> Result<Self, SimError> {
        if !(turn.is_finite() && turn > 0.0) {
            return Err(SimError::InvalidDistance { value: turn });
        }
        let mut turns = self.turns.clone();
        turns.push(turn);
        Ok(LineItinerary {
            start: self.start,
            turns,
        })
    }

    /// Interprets this line plan as a two-ray tour: odd legs become
    /// excursions on ray `0`/`1` according to the starting direction.
    ///
    /// Note this is a *relaxation*: the two-ray tour returns to the origin
    /// between legs, while the line robot swings through. The tour therefore
    /// reaches each turning point no earlier than the line robot reaches the
    /// *opposite* extreme — exactly the relaxation used when passing from
    /// the ±-cover to the ORC setting in the paper.
    pub fn to_two_ray_tour(&self) -> TourItinerary {
        let excursions = self
            .signed_turns()
            .map(|x| Excursion {
                ray: if x >= 0.0 {
                    RayId::new_unvalidated(0)
                } else {
                    RayId::new_unvalidated(1)
                },
                turn: x.abs(),
            })
            .collect();
        TourItinerary {
            num_rays: 2,
            excursions,
        }
    }
}

/// One excursion of a ray tour: out to distance `turn` on ray `ray`, then
/// back to the origin.
///
/// # Example
///
/// ```
/// use raysearch_sim::{Excursion, RayId};
/// let e = Excursion::new(RayId::new(0, 3)?, 2.0)?;
/// assert_eq!(e.round_trip_length(), 4.0);
/// # Ok::<(), raysearch_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Excursion {
    /// The ray explored by this excursion.
    pub ray: RayId,
    /// The distance at which the robot turns back.
    pub turn: f64,
}

impl Excursion {
    /// Creates an excursion, validating the turning distance.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDistance`] if `turn` is not positive
    /// finite.
    pub fn new(ray: RayId, turn: f64) -> Result<Self, SimError> {
        if turn.is_finite() && turn > 0.0 {
            Ok(Excursion { ray, turn })
        } else {
            Err(SimError::InvalidDistance { value: turn })
        }
    }

    /// Length of the full round trip (out and back), which is also its
    /// duration at unit speed.
    #[inline]
    pub fn round_trip_length(&self) -> f64 {
        2.0 * self.turn
    }
}

/// A plan on a star of `m` rays: a sequence of excursions from the origin.
///
/// Between excursions the robot is at the origin, which is what makes this
/// the natural plan shape for the paper's *one-ray cover with returns*
/// (ORC) relaxation: a point is covered once per excursion that reaches it,
/// because the robot returns to `0` in between.
///
/// # Example
///
/// ```
/// use raysearch_sim::{Excursion, RayId, TourItinerary};
///
/// let m = 3;
/// let tour = TourItinerary::new(
///     m,
///     vec![
///         Excursion::new(RayId::new(0, m)?, 1.0)?,
///         Excursion::new(RayId::new(1, m)?, 2.0)?,
///         Excursion::new(RayId::new(2, m)?, 4.0)?,
///     ],
/// )?;
/// assert_eq!(tour.len(), 3);
/// assert_eq!(tour.total_tour_length(), 14.0);
/// # Ok::<(), raysearch_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TourItinerary {
    num_rays: usize,
    excursions: Vec<Excursion>,
}

impl TourItinerary {
    /// Creates a tour over `num_rays` rays.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFleet`] if `num_rays == 0`,
    /// [`SimError::RayOutOfRange`] if an excursion names a ray `≥ num_rays`,
    /// and [`SimError::InvalidDistance`] if a turning distance is invalid.
    pub fn new(num_rays: usize, excursions: Vec<Excursion>) -> Result<Self, SimError> {
        if num_rays == 0 {
            return Err(SimError::InvalidFleet {
                reason: "a ray star must have at least one ray".to_owned(),
            });
        }
        for e in &excursions {
            if e.ray.index() >= num_rays {
                return Err(SimError::RayOutOfRange {
                    ray: e.ray.index(),
                    num_rays,
                });
            }
            if !(e.turn.is_finite() && e.turn > 0.0) {
                return Err(SimError::InvalidDistance { value: e.turn });
            }
        }
        Ok(TourItinerary {
            num_rays,
            excursions,
        })
    }

    /// Number of rays in the star this tour lives on.
    #[inline]
    pub fn num_rays(&self) -> usize {
        self.num_rays
    }

    /// The excursions in order.
    #[inline]
    pub fn excursions(&self) -> &[Excursion] {
        &self.excursions
    }

    /// Number of excursions.
    #[inline]
    pub fn len(&self) -> usize {
        self.excursions.len()
    }

    /// Returns `true` if the tour has no excursions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.excursions.is_empty()
    }

    /// Total length (and duration) of the whole tour.
    pub fn total_tour_length(&self) -> f64 {
        self.excursions
            .iter()
            .map(Excursion::round_trip_length)
            .sum()
    }

    /// Returns the prefix sums `t₁, t₁+t₂, …` of the turning distances.
    ///
    /// Excursion `i` starts at time `2·Σ_{j<i} t_j`, so these sums are the
    /// backbone of both trajectory compilation and the ORC fruitfulness
    /// condition.
    pub fn prefix_sums(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.excursions
            .iter()
            .map(|e| {
                acc += e.turn;
                acc
            })
            .collect()
    }

    /// Iterates over the excursions on a given ray, with their tour index.
    pub fn excursions_on_ray(&self, ray: RayId) -> impl Iterator<Item = (usize, &Excursion)> + '_ {
        self.excursions
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.ray == ray)
    }

    /// Returns a copy extended with one more excursion.
    ///
    /// # Errors
    ///
    /// Same validation as [`TourItinerary::new`] applied to the new
    /// excursion.
    pub fn extended(&self, excursion: Excursion) -> Result<Self, SimError> {
        if excursion.ray.index() >= self.num_rays {
            return Err(SimError::RayOutOfRange {
                ray: excursion.ray.index(),
                num_rays: self.num_rays,
            });
        }
        if !(excursion.turn.is_finite() && excursion.turn > 0.0) {
            return Err(SimError::InvalidDistance {
                value: excursion.turn,
            });
        }
        let mut excursions = self.excursions.clone();
        excursions.push(excursion);
        Ok(TourItinerary {
            num_rays: self.num_rays,
            excursions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ray(i: usize, m: usize) -> RayId {
        RayId::new(i, m).unwrap()
    }

    #[test]
    fn line_itinerary_validation() {
        assert!(LineItinerary::new(Direction::Positive, vec![1.0, -2.0]).is_err());
        assert!(LineItinerary::new(Direction::Positive, vec![1.0, 0.0]).is_err());
        assert!(LineItinerary::new(Direction::Positive, vec![]).is_ok());
    }

    #[test]
    fn signed_turns_alternate() {
        let it = LineItinerary::new(Direction::Negative, vec![1.0, 2.0, 3.0]).unwrap();
        let signed: Vec<f64> = it.signed_turns().collect();
        assert_eq!(signed, vec![-1.0, 2.0, -3.0]);
    }

    #[test]
    fn prefix_sums_and_total() {
        let it = LineItinerary::new(Direction::Positive, vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(it.prefix_sums(), vec![1.0, 3.0, 7.0]);
        assert_eq!(it.total_turn_sum(), 7.0);
    }

    #[test]
    fn extended_preserves_original() {
        let it = LineItinerary::new(Direction::Positive, vec![1.0]).unwrap();
        let it2 = it.extended(2.0).unwrap();
        assert_eq!(it.len(), 1);
        assert_eq!(it2.len(), 2);
        assert!(it.extended(-1.0).is_err());
    }

    #[test]
    fn two_ray_tour_conversion() {
        let it = LineItinerary::new(Direction::Positive, vec![1.0, 2.0, 4.0]).unwrap();
        let tour = it.to_two_ray_tour();
        assert_eq!(tour.num_rays(), 2);
        let rays: Vec<usize> = tour.excursions().iter().map(|e| e.ray.index()).collect();
        assert_eq!(rays, vec![0, 1, 0]);
        let turns: Vec<f64> = tour.excursions().iter().map(|e| e.turn).collect();
        assert_eq!(turns, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn tour_validation() {
        let m = 2;
        assert!(TourItinerary::new(0, vec![]).is_err());
        let bad_ray = Excursion {
            ray: RayId::new_unvalidated(5),
            turn: 1.0,
        };
        assert!(TourItinerary::new(m, vec![bad_ray]).is_err());
        let bad_turn = Excursion {
            ray: ray(0, m),
            turn: f64::NAN,
        };
        assert!(TourItinerary::new(m, vec![bad_turn]).is_err());
    }

    #[test]
    fn tour_queries() {
        let m = 3;
        let tour = TourItinerary::new(
            m,
            vec![
                Excursion::new(ray(0, m), 1.0).unwrap(),
                Excursion::new(ray(1, m), 2.0).unwrap(),
                Excursion::new(ray(0, m), 4.0).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(tour.prefix_sums(), vec![1.0, 3.0, 7.0]);
        assert_eq!(tour.total_tour_length(), 14.0);
        let on_zero: Vec<usize> = tour.excursions_on_ray(ray(0, m)).map(|(i, _)| i).collect();
        assert_eq!(on_zero, vec![0, 2]);
        let e = Excursion::new(ray(2, m), 8.0).unwrap();
        let tour2 = tour.extended(e).unwrap();
        assert_eq!(tour2.len(), 4);
        assert_eq!(tour.len(), 3);
    }
}
