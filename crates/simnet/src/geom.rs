//! Minimal 2-D geometry shared by the networking and world simulators.

use std::ops::{Add, Mul, Neg, Sub};

/// A 2-D point / vector in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East coordinate in meters.
    pub x: f32,
    /// North coordinate in meters.
    pub y: f32,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Euclidean length.
    pub fn norm(self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Vec2) -> f32 {
        (self - other).norm()
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component), positive when `other` is
    /// counter-clockwise of `self`.
    pub fn cross(self, other: Vec2) -> f32 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction; returns the zero vector when the
    /// length is (near) zero.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n < 1e-9 {
            Vec2::ZERO
        } else {
            Vec2::new(self.x / n, self.y / n)
        }
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f32) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Heading angle in radians, `atan2(y, x)`.
    pub fn angle(self) -> f32 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(self, other: Vec2, t: f32) -> Vec2 {
        self + (other - self) * t
    }

    /// Perpendicular vector (rotated +90°).
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f32) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// Total length of a polyline in meters.
pub fn polyline_length(points: &[Vec2]) -> f32 {
    points.windows(2).map(|w| w[0].distance(w[1])).sum()
}

/// Point at arc-length `s` along a polyline, clamped to its ends.
///
/// Returns the last point when `s` exceeds the total length and the first
/// point when `s <= 0` or the polyline has a single point.
///
/// # Panics
/// Panics if `points` is empty.
pub fn point_at_arclength(points: &[Vec2], s: f32) -> Vec2 {
    assert!(!points.is_empty(), "polyline must have at least one point");
    let mut reached = points[0];
    if s <= 0.0 {
        return reached;
    }
    let mut remaining = s;
    for w in points.windows(2) {
        let seg = w[0].distance(w[1]);
        if remaining <= seg {
            if seg < 1e-9 {
                return w[1];
            }
            return w[0].lerp(w[1], remaining / seg);
        }
        remaining -= seg;
        reached = w[1];
    }
    reached // s ran past the end: clamp to the final point
}

/// Tangent (unit direction) at arc-length `s` along a polyline, clamped
/// to the last segment's direction when `s` runs past the end.
///
/// # Panics
/// Panics if `points` has fewer than two points.
pub fn tangent_at_arclength(points: &[Vec2], s: f32) -> Vec2 {
    assert!(points.len() >= 2, "polyline needs two points for a tangent");
    let mut remaining = s.max(0.0);
    let mut dir = points[1] - points[0];
    for w in points.windows(2) {
        dir = w[1] - w[0];
        let seg = w[0].distance(w[1]);
        if remaining <= seg {
            break;
        }
        remaining -= seg;
    }
    dir.normalized()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!((a.distance(Vec2::ZERO) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let u = Vec2::new(0.0, 2.0).normalized();
        assert!((u.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rotation_quarter_turn() {
        let r = Vec2::new(1.0, 0.0).rotated(std::f32::consts::FRAC_PI_2);
        assert!(r.x.abs() < 1e-6 && (r.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn polyline_length_sums_segments() {
        let pts = [Vec2::ZERO, Vec2::new(3.0, 0.0), Vec2::new(3.0, 4.0)];
        assert!((polyline_length(&pts) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn arclength_interpolates() {
        let pts = [Vec2::ZERO, Vec2::new(10.0, 0.0)];
        let p = point_at_arclength(&pts, 4.0);
        assert!((p.x - 4.0).abs() < 1e-6);
        // clamping
        assert_eq!(point_at_arclength(&pts, 20.0), pts[1]);
        assert_eq!(point_at_arclength(&pts, -5.0), pts[0]);
    }

    #[test]
    fn tangent_follows_segments() {
        let pts = [Vec2::ZERO, Vec2::new(5.0, 0.0), Vec2::new(5.0, 5.0)];
        let t0 = tangent_at_arclength(&pts, 1.0);
        assert!((t0.x - 1.0).abs() < 1e-6);
        let t1 = tangent_at_arclength(&pts, 7.0);
        assert!((t1.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lerp_midpoint() {
        let m = Vec2::ZERO.lerp(Vec2::new(2.0, 4.0), 0.5);
        assert_eq!(m, Vec2::new(1.0, 2.0));
    }
}
