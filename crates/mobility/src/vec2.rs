//! Two-dimensional vectors/points in metres.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point or displacement in the plane, in metres.
///
/// ```
/// use rica_mobility::Vec2;
/// let a = Vec2::new(0.0, 3.0);
/// let b = Vec2::new(4.0, 0.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    pub fn length(self) -> f64 {
        // `sqrt(x² + y²)` rather than `hypot`: coordinates are bounded by
        // the field diagonal (~1.4 km), so the overflow/underflow guards
        // `hypot` pays a slow libm call for can never trigger; the result
        // differs by at most 1 ulp, and this runs once per channel sample.
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Squared distance (avoids the square root for range comparisons).
    pub fn distance_sq(self, other: Vec2) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // float-fmt: human-readable position display (decimetre precision); positions never appear in results artifacts
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(b - a, Vec2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
    }

    #[test]
    fn norms() {
        assert_eq!(Vec2::new(3.0, 4.0).length(), 5.0);
        assert_eq!(Vec2::new(3.0, 4.0).distance_sq(Vec2::ZERO), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, 10.0));
    }

    #[test]
    fn display() {
        assert_eq!(Vec2::new(1.25, 3.75).to_string(), "(1.2, 3.8)");
    }
}
