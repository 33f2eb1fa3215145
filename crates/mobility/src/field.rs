//! The rectangular simulation field.

use crate::Vec2;
use rica_sim::Rng;

/// A rectangular field with its origin at `(0, 0)`, in metres.
///
/// The paper's testing field is 1000 m × 1000 m ([`Field::PAPER`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// The paper's 1000 m × 1000 m testing field.
    pub const PAPER: Field = Field { width: 1000.0, height: 1000.0 };

    /// Creates a field of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0,
            "field dimensions must be positive and finite, got {width}x{height}"
        );
        Field { width, height }
    }

    /// Field width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height in metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Whether `p` lies inside the field (inclusive of the boundary).
    pub fn contains(&self, p: Vec2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Draws a uniformly random point inside the field.
    pub fn random_point(&self, rng: &mut Rng) -> Vec2 {
        Vec2::new(rng.range_f64(0.0, self.width), rng.range_f64(0.0, self.height))
    }
}

impl Default for Field {
    fn default() -> Self {
        Field::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_field() {
        assert_eq!(Field::PAPER.width(), 1000.0);
        assert_eq!(Field::PAPER.height(), 1000.0);
        assert_eq!(Field::default(), Field::PAPER);
    }

    #[test]
    fn contains_boundary() {
        let f = Field::new(10.0, 20.0);
        assert!(f.contains(Vec2::ZERO));
        assert!(f.contains(Vec2::new(10.0, 20.0)));
        assert!(!f.contains(Vec2::new(10.1, 5.0)));
        assert!(!f.contains(Vec2::new(-0.1, 5.0)));
    }

    #[test]
    fn random_points_inside() {
        let f = Field::new(50.0, 5.0);
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert!(f.contains(f.random_point(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_width_panics() {
        Field::new(0.0, 10.0);
    }
}
