//! Raw GPS traces, the input of the map-matching stage.

use netclus_roadnet::Point;

/// One GPS fix: a planar position (meters, see
/// [`netclus_roadnet::geometry`]) and a timestamp in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpsPoint {
    /// Position in the local planar frame.
    pub pos: Point,
    /// Seconds since an arbitrary epoch; must be non-decreasing in a trace.
    pub t: f64,
}

impl GpsPoint {
    /// Creates a fix.
    pub fn new(pos: Point, t: f64) -> Self {
        GpsPoint { pos, t }
    }
}

/// A raw GPS trace: the time-ordered fixes of one trip.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GpsTrace {
    points: Vec<GpsPoint>,
}

impl GpsTrace {
    /// Creates a trace from time-ordered fixes.
    ///
    /// # Panics
    /// Panics if the timestamps are not non-decreasing.
    pub fn new(points: Vec<GpsPoint>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].t <= w[1].t),
            "GPS timestamps must be non-decreasing"
        );
        GpsTrace { points }
    }

    /// The fixes.
    #[inline]
    pub fn points(&self) -> &[GpsPoint] {
        &self.points
    }

    /// Number of fixes.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the trace has no fixes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Duration between first and last fix, in seconds (0 for < 2 fixes).
    pub fn duration(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Sum of straight-line distances between consecutive fixes, in meters.
    pub fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].pos.distance(&w[1].pos))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> GpsTrace {
        GpsTrace::new(vec![
            GpsPoint::new(Point::new(0.0, 0.0), 0.0),
            GpsPoint::new(Point::new(30.0, 40.0), 10.0),
            GpsPoint::new(Point::new(30.0, 140.0), 20.0),
        ])
    }

    #[test]
    fn basic_metrics() {
        let tr = trace();
        assert_eq!(tr.len(), 3);
        assert!(!tr.is_empty());
        assert_eq!(tr.duration(), 20.0);
        assert_eq!(tr.path_length(), 150.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_timestamps_rejected() {
        GpsTrace::new(vec![
            GpsPoint::new(Point::new(0.0, 0.0), 5.0),
            GpsPoint::new(Point::new(1.0, 0.0), 4.0),
        ]);
    }

    #[test]
    fn empty_trace() {
        let tr = GpsTrace::new(vec![]);
        assert!(tr.is_empty());
        assert_eq!(tr.duration(), 0.0);
        assert_eq!(tr.path_length(), 0.0);
    }
}
