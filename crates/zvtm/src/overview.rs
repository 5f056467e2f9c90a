//! Birds-eye views.
//!
//! The offline demo offers a "birds eye view of the entire trace, to
//! understand the sequence of instruction execution clustering" (§5).
//! Two overviews are provided:
//!
//! * [`birdseye`] — the whole virtual space rendered into a thumbnail
//!   (the classic ZGrviewer overview pane);
//! * [`trace_strip`] — the full trace as a horizontal strip, one colored
//!   band per event in execution order, which makes temporal clustering
//!   of costly instructions visible at a glance.

use crate::camera::Camera;
use crate::glyph::Color;
use crate::render::{render, Framebuffer, RenderOptions};
use crate::space::VirtualSpace;

/// Render the whole space into a `width`×`height` thumbnail.
pub fn birdseye(space: &VirtualSpace, width: usize, height: usize) -> Framebuffer {
    let mut cam = Camera::default();
    if !space.is_empty() {
        cam.fit(space.bounds(), width as f64, height as f64, 1.05);
    }
    render(
        space,
        &cam,
        width,
        height,
        &RenderOptions {
            lens: None,
            skip_text: true,
        },
    )
}

/// Render a sequence of per-event colors as a strip image: events on the
/// x axis (left = first), each event a vertical band.
pub fn trace_strip(colors: &[Color], width: usize, height: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    if colors.is_empty() || width == 0 {
        return fb;
    }
    // Column x shows event x·n/width; event i's band ends where that
    // reaches i + 1.
    let n = colors.len();
    let mut x = 0;
    while x < width {
        let idx = x * n / width;
        let end = ((idx + 1) * width).div_ceil(n);
        fb.fill_rect(x as i64, 0, end as i64 - 1, height as i64 - 1, colors[idx]);
        x = end;
    }
    fb
}

/// Map per-event durations to strip colors: cheap events light gray,
/// costly ones shading to RED by quantile.
pub fn duration_colors(durations_usec: &[u64]) -> Vec<Color> {
    if durations_usec.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<u64> = durations_usec.to_vec();
    sorted.sort_unstable();
    let p = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
    let (p50, p90) = (p(0.5), p(0.9));
    durations_usec
        .iter()
        .map(|&d| {
            if d > p90 {
                Color::RED
            } else if d > p50 {
                Color::lerp(Color::DEFAULT_FILL, Color::RED, 0.5)
            } else {
                Color::DEFAULT_FILL
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glyph::GlyphKind;

    #[test]
    fn birdseye_fits_everything() {
        let mut space = VirtualSpace::new();
        // A wide space: nodes far apart.
        space.add(GlyphKind::Shape { w: 40.0, h: 20.0 }, 0.0, 0.0, Color::RED);
        space.add(
            GlyphKind::Shape { w: 40.0, h: 20.0 },
            5000.0,
            3000.0,
            Color::GREEN,
        );
        let fb = birdseye(&space, 120, 80);
        assert!(fb.count_color(Color::RED) > 0, "far-left node visible");
        assert!(fb.count_color(Color::GREEN) > 0, "far-right node visible");
    }

    #[test]
    fn birdseye_of_empty_space() {
        let fb = birdseye(&VirtualSpace::new(), 10, 10);
        assert_eq!(fb.count_color(Color::WHITE), 100);
    }

    #[test]
    fn strip_orders_left_to_right() {
        let colors = vec![Color::RED, Color::GREEN];
        let fb = trace_strip(&colors, 10, 2);
        assert_eq!(fb.get(0, 0), Color::RED);
        assert_eq!(fb.get(9, 0), Color::GREEN);
        assert_eq!(fb.count_color(Color::RED), 10);
        assert_eq!(fb.count_color(Color::GREEN), 10);
    }

    #[test]
    fn strip_handles_more_events_than_pixels() {
        let colors: Vec<Color> = (0..1000)
            .map(|i| if i < 500 { Color::RED } else { Color::GREEN })
            .collect();
        let fb = trace_strip(&colors, 10, 1);
        assert_eq!(fb.count_color(Color::RED), 5);
        assert_eq!(fb.count_color(Color::GREEN), 5);
    }

    #[test]
    fn empty_strip() {
        let fb = trace_strip(&[], 10, 2);
        assert_eq!(fb.count_color(Color::WHITE), 20);
    }

    #[test]
    fn duration_colors_mark_costly_tail() {
        let mut d = vec![10u64; 95];
        d.extend([10_000u64; 5]);
        let colors = duration_colors(&d);
        let reds = colors.iter().filter(|&&c| c == Color::RED).count();
        assert_eq!(reds, 5, "the 5 costly events must be red");
        assert!(colors[..95].iter().all(|&c| c == Color::DEFAULT_FILL));
    }

    #[test]
    fn duration_colors_empty() {
        assert!(duration_colors(&[]).is_empty());
    }
}
