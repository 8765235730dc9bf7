//! Planar geometry primitives.
//!
//! Road networks are embedded in a local planar coordinate system measured in
//! **meters** (an azimuthal projection of the city region). Working in meters
//! keeps every distance in the library — edge weights, coverage thresholds
//! `τ`, cluster radii `R_p` — in one unit and avoids repeated geodesic math on
//! hot paths.

/// A point in the local planar frame, in meters.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from easting/northing meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

/// An axis-aligned bounding box in the local planar frame.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoundingBox {
    /// Minimum corner (south-west).
    pub min: Point,
    /// Maximum corner (north-east).
    pub max: Point,
}

impl BoundingBox {
    /// An inverted box that is the identity for [`BoundingBox::extend`].
    pub fn empty() -> Self {
        BoundingBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns true if no point has been added yet.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Grows the box to include `p`.
    pub fn extend(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Computes the tight box around `points`; empty box for an empty slice.
    pub fn around(points: &[Point]) -> Self {
        let mut bb = BoundingBox::empty();
        for p in points {
            bb.extend(*p);
        }
        bb
    }

    /// Width (east-west extent) in meters; zero for an empty box.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (north-south extent) in meters; zero for an empty box.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid, Point::new(5.0, 10.0));
    }

    #[test]
    fn bbox_basics() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let bb = BoundingBox::around(&pts);
        assert_eq!(bb.min, Point::new(-2.0, -1.0));
        assert_eq!(bb.max, Point::new(4.0, 5.0));
        assert_eq!(bb.width(), 6.0);
        assert_eq!(bb.height(), 6.0);
    }

    #[test]
    fn bbox_empty() {
        let bb = BoundingBox::empty();
        assert!(bb.is_empty());
        assert_eq!(bb.width(), 0.0);
        assert_eq!(bb.height(), 0.0);
        assert!(BoundingBox::around(&[]).is_empty());
    }
}
