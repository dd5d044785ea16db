//! Mobility: how far a mobile host is from the access point as a
//! function of simulated time.
//!
//! The paper's motivating scenario (Section 3) is a user who "wants to
//! maintain the connection as she moves from her office (near the access
//! point) to a conference room down the hall", at which point packet loss
//! rises and the RAPIDware observer inserts an FEC filter.  [`LinearWalk`]
//! models exactly that movement.

use crate::time::SimTime;

/// A host that walks at constant speed from one distance to another, then
/// stays there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearWalk {
    start_m: f64,
    end_m: f64,
    departure: SimTime,
    speed_mps: f64,
}

impl LinearWalk {
    /// Creates a walk that starts at `start_m` meters from the access point,
    /// departs at `departure`, and walks toward `end_m` at `speed_mps`
    /// meters per second.
    ///
    /// # Panics
    ///
    /// Panics if the distances are negative or the speed is not positive.
    pub fn new(start_m: f64, end_m: f64, departure: SimTime, speed_mps: f64) -> Self {
        assert!(start_m >= 0.0 && end_m >= 0.0, "distances must be non-negative");
        assert!(speed_mps > 0.0, "walking speed must be positive");
        Self {
            start_m,
            end_m,
            departure,
            speed_mps,
        }
    }

    /// The paper's office-to-conference-room walk: the user starts 5 m from
    /// the access point, leaves one minute into the session, and walks at a
    /// comfortable 1 m/s to a room 35 m away.
    pub fn office_to_conference_room() -> Self {
        Self::new(5.0, 35.0, SimTime::from_secs(60), 1.0)
    }

    /// Time at which the walk reaches its destination.
    pub fn arrival_time(&self) -> SimTime {
        let travel_secs = (self.end_m - self.start_m).abs() / self.speed_mps;
        self.departure + (travel_secs * 1e6) as u64
    }

    /// Distance from the access point at `time`, in meters.
    pub fn distance_at(&self, time: SimTime) -> f64 {
        if time <= self.departure {
            return self.start_m;
        }
        let elapsed_secs = time.micros_since(self.departure) as f64 / 1e6;
        let travelled = elapsed_secs * self.speed_mps;
        let total = (self.end_m - self.start_m).abs();
        if travelled >= total {
            self.end_m
        } else if self.end_m >= self.start_m {
            self.start_m + travelled
        } else {
            self.start_m - travelled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_walk_interpolates() {
        let walk = LinearWalk::new(5.0, 35.0, SimTime::from_secs(60), 1.0);
        assert_eq!(walk.distance_at(SimTime::ZERO), 5.0);
        assert_eq!(walk.distance_at(SimTime::from_secs(60)), 5.0);
        assert!((walk.distance_at(SimTime::from_secs(70)) - 15.0).abs() < 1e-9);
        assert!((walk.distance_at(SimTime::from_secs(90)) - 35.0).abs() < 1e-9);
        assert_eq!(walk.distance_at(SimTime::from_secs(10_000)), 35.0);
        assert_eq!(walk.arrival_time(), SimTime::from_secs(90));
    }

    #[test]
    fn linear_walk_can_move_towards_the_access_point() {
        let walk = LinearWalk::new(30.0, 10.0, SimTime::ZERO, 2.0);
        assert!((walk.distance_at(SimTime::from_secs(5)) - 20.0).abs() < 1e-9);
        assert_eq!(walk.distance_at(SimTime::from_secs(60)), 10.0);
    }

    #[test]
    fn office_to_conference_room_matches_paper_scenario() {
        let walk = LinearWalk::office_to_conference_room();
        assert_eq!(walk.distance_at(SimTime::ZERO), 5.0);
        let far = walk.distance_at(SimTime::from_secs(200));
        assert!((far - 35.0).abs() < 1e-9);
    }
}
