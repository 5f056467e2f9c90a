//! Headless rendering: rasterise a virtual space through a camera into a
//! pixel framebuffer (PPM), or emit an SVG frame. These are the
//! "display window" outputs — Figure 4 of the paper rendered without a
//! GUI toolkit.
//!
//! A frame costs what falls inside it, not what the camera zooms past.
//! Rectangles are filled one clipped row slice at a time. Lines are
//! Bresenham's, drawn in runs: a segment whose bounding box misses the
//! frame is dropped, the walk jumps straight to its first visible pixel
//! and stops after its last, and each run of pixels on one row (or one
//! column, for steep lines) is a single write whose length is one
//! integer division of the error term. So a segment costs O(1 + visible
//! runs + visible pixels) however long it is: at altitude 0 over a
//! 1301-node plan, where most edges run far off screen, a 1280×800 frame
//! is as cheap as the fitted one. The pixels are exactly those of the
//! per-pixel walk (`walk_runs` says why), which
//! `tests/raster_identity.rs` keeps as its reference.

use std::fmt::Write as _;

use crate::camera::Camera;
use crate::glyph::{Color, GlyphKind};
use crate::lens::FisheyeLens;
use crate::space::VirtualSpace;

/// An RGB framebuffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    pixels: Vec<Color>,
}

impl Framebuffer {
    /// White canvas.
    pub fn new(width: usize, height: usize) -> Self {
        Framebuffer {
            width,
            height,
            pixels: vec![Color::WHITE; width * height],
        }
    }

    /// Pixel read.
    pub fn get(&self, x: usize, y: usize) -> Color {
        self.pixels[y * self.width + x]
    }

    /// Pixel write (out-of-bounds writes are clipped).
    pub fn set(&mut self, x: i64, y: i64, c: Color) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.pixels[y as usize * self.width + x as usize] = c;
        }
    }

    /// Filled rectangle (clipped), painted as one row slice per visible
    /// row.
    pub fn fill_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, c: Color) {
        let (xa, xb) = (x0.max(0), x1.min(self.width as i64 - 1));
        if xa > xb {
            return;
        }
        for y in y0.max(0)..=y1.min(self.height as i64 - 1) {
            self.row(y, xa, xb, c);
        }
    }

    /// Bresenham line, clipped to the frame and drawn run by run.
    ///
    /// The pixels are exactly those of the per-pixel error-term walk
    /// (`e2 = 2·err; if e2 >= dy { x += sx } if e2 <= dx { y += sy }`),
    /// but the work is bounded by what is visible: a segment whose
    /// bounding box misses the frame costs nothing, the walk jumps to its
    /// first visible pixel, stops after its last, and writes each run of
    /// pixels on one row (or column) at once.
    pub fn line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, c: Color) {
        let (w, h) = (self.width as i64, self.height as i64);
        if x0.max(x1) < 0 || y0.max(y1) < 0 || x0.min(x1) >= w || y0.min(y1) >= h {
            return;
        }
        let x = Axis::new(x0, x1, w);
        let y = Axis::new(y0, y1, h);
        if x.d >= y.d {
            walk_runs(&x, &y, |y, xa, xb| self.row(y, xa, xb, c));
        } else {
            walk_runs(&y, &x, |x, ya, yb| self.column(x, ya, yb, c));
        }
    }

    /// Paint row `y` from `xa` to `xb` (inclusive, already clipped).
    fn row(&mut self, y: i64, xa: i64, xb: i64, c: Color) {
        let at = y as usize * self.width;
        self.pixels[at + xa as usize..=at + xb as usize].fill(c);
    }

    /// Paint column `x` from `ya` to `yb` (inclusive, already clipped).
    fn column(&mut self, x: i64, ya: i64, yb: i64, c: Color) {
        let w = self.width;
        for p in self.pixels[ya as usize * w + x as usize..=yb as usize * w + x as usize]
            .iter_mut()
            .step_by(w)
        {
            *p = c;
        }
    }

    /// Count pixels of an exact color (test/analysis helper).
    pub fn count_color(&self, c: Color) -> usize {
        self.pixels.iter().filter(|&&p| p == c).count()
    }

    /// Encode as a plain-text PPM (P3).
    pub fn to_ppm(&self) -> String {
        let mut out = String::with_capacity(self.pixels.len() * 12 + 32);
        let _ = writeln!(out, "P3\n{} {}\n255", self.width, self.height);
        for (i, p) in self.pixels.iter().enumerate() {
            let _ = write!(out, "{} {} {}", p.r, p.g, p.b);
            out.push(if (i + 1) % self.width == 0 { '\n' } else { ' ' });
        }
        out
    }
}

/// One axis of a segment: steps `0..=d` from `from` in direction `step`,
/// and the steps `lo..=hi` that land inside a frame of `len` pixels.
struct Axis {
    from: i64,
    step: i64,
    d: i64,
    lo: i64,
    hi: i64,
}

impl Axis {
    /// The axis from `p0` to `p1`. The caller has checked that the
    /// segment's extent overlaps `0..len`, so `lo <= hi`.
    fn new(p0: i64, p1: i64, len: i64) -> Self {
        let d = (p1 - p0).abs();
        let step = if p0 < p1 { 1 } else { -1 };
        let (lo, hi) = if step > 0 {
            (-p0, len - 1 - p0)
        } else {
            (p0 - (len - 1), p0)
        };
        Axis {
            from: p0,
            step,
            d,
            lo: lo.max(0),
            hi: hi.min(d),
        }
    }

    /// Frame coordinate of step `t`.
    fn at(&self, t: i64) -> i64 {
        self.from + self.step * t
    }

    /// Frame coordinates of steps `a..=b`, in increasing order.
    fn span(&self, a: i64, b: i64) -> (i64, i64) {
        let (pa, pb) = (self.at(a), self.at(b));
        (pa.min(pb), pa.max(pb))
    }
}

/// Walk a Bresenham line whose major axis `major` has at least as many
/// steps as its minor axis `minor`, calling `run(minor, lo, hi)` with
/// frame coordinates for each visible run of pixels that share a minor
/// coordinate.
///
/// Why the runs are the per-pixel walk's pixels: write `dM >= dm` for
/// the two extents and `(a, b)` for the steps taken along each. A major
/// step adds `-dm` to the error term and a minor step adds `dM`, so at
/// `(a, b)` it is `err = dM·(b+1) − dm·(a+1)`. The walk takes a major
/// step whenever `2·err >= −dm`, and here it always does: `err` starts
/// at `dM − dm >= 0`, a diagonal step does not lower it, and a
/// major-only step (taken when `2·err > dM`) leaves
/// `2·err > dM − 2·dm >= −dm`. So every step is major-only or diagonal,
/// one pixel per major step, and a run of major-only steps lowers
/// `2·err` by `2·dm` each until `2·err <= dM`: it lasts
/// `⌈(2·err − dM) / 2dm⌉` steps. Solved in closed form, the walk sits at
/// `b(a) = ⌊(2·a·dm + dM) / 2dM⌋` (the ideal line rounded half up) and
/// run `b` starts at major step `⌈dM·(2b − 1) / 2dm⌉`; that is how the
/// walk enters the frame without visiting the pixels before it. A steep
/// line is the same walk with the axes swapped and `err` negated: the
/// two tests of the per-pixel walk mirror each other, ties included.
fn walk_runs(major: &Axis, minor: &Axis, mut run: impl FnMut(i64, i64, i64)) {
    let (big, small) = (i128::from(major.d), i128::from(minor.d));
    // Enter the frame: the first step whose minor coordinate is visible
    // (the first step of run `minor.lo`), or the first visible major
    // step, whichever comes later.
    let first_of_run = if minor.lo == 0 {
        0
    } else {
        (big * (2 * i128::from(minor.lo) - 1) + 2 * small - 1) / (2 * small)
    };
    let mut a = major.lo.max(first_of_run as i64);
    if a > major.hi {
        return;
    }
    let mut b = if big == 0 {
        0
    } else {
        ((2 * i128::from(a) * small + big) / (2 * big)) as i64
    };
    if b > minor.hi {
        return;
    }
    let mut err = (big * i128::from(b + 1) - small * i128::from(a + 1)) as i64;
    let (big, small) = (major.d, minor.d);
    loop {
        let steps = if small == 0 {
            big - a
        } else if 2 * err > big {
            (2 * err - big + 2 * small - 1) / (2 * small)
        } else {
            0
        };
        let end = (a + steps).min(major.hi);
        let (lo, hi) = major.span(a, end);
        run(minor.at(b), lo, hi);
        if end == major.hi || b == minor.hi {
            return;
        }
        err += big - small * (steps + 1);
        a = end + 1;
        b += 1;
    }
}

/// Renderer options.
#[derive(Debug, Clone, Default)]
pub struct RenderOptions {
    /// Optional fisheye lens applied to world coordinates.
    pub lens: Option<FisheyeLens>,
    /// Skip text glyphs (they render as underlines in pixel output).
    pub skip_text: bool,
}

/// Rasterise the space through the camera into a `width`×`height` frame.
pub fn render(
    space: &VirtualSpace,
    camera: &Camera,
    width: usize,
    height: usize,
    opts: &RenderOptions,
) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    let (vw, vh) = (width as f64, height as f64);
    let world_to_screen = |x: f64, y: f64| -> (i64, i64) {
        let (lx, ly) = match &opts.lens {
            Some(lens) => lens.transform(x, y),
            None => (x, y),
        };
        let (sx, sy) = camera.project(lx, ly, vw, vh);
        (sx.round() as i64, sy.round() as i64)
    };
    for g in space.glyphs() {
        if !g.visible {
            continue;
        }
        match &g.kind {
            GlyphKind::Edge { points } => {
                for w in points.windows(2) {
                    let (x0, y0) = world_to_screen(w[0].0, w[0].1);
                    let (x1, y1) = world_to_screen(w[1].0, w[1].1);
                    fb.line(x0, y0, x1, y1, g.color);
                }
            }
            GlyphKind::Shape { .. } => {
                let (bx0, by0, bx1, by1) = g.bounds();
                let (x0, y0) = world_to_screen(bx0, by0);
                let (x1, y1) = world_to_screen(bx1, by1);
                fb.fill_rect(x0, y0, x1, y1, g.color);
                // Border — skipped when the box is so small (birds-eye
                // zoom levels) that it would overdraw the fill entirely.
                if x1 - x0 >= 3 && y1 - y0 >= 3 {
                    fb.line(x0, y0, x1, y0, Color::BLACK);
                    fb.line(x0, y1, x1, y1, Color::BLACK);
                    fb.line(x0, y0, x0, y1, Color::BLACK);
                    fb.line(x1, y0, x1, y1, Color::BLACK);
                }
            }
            GlyphKind::Text { content } => {
                if opts.skip_text {
                    continue;
                }
                // Text renders as a baseline mark (headless stand-in).
                let w = content.len() as f64 * 7.0;
                let (x0, y) = world_to_screen(g.x - w / 2.0, g.y + 6.0);
                let (x1, _) = world_to_screen(g.x + w / 2.0, g.y + 6.0);
                fb.line(x0, y, x1, y, g.color);
            }
        }
    }
    fb
}

/// Emit an SVG frame of the whole space (camera-independent; the SVG
/// viewer's viewBox does the zooming).
pub fn render_svg_frame(space: &VirtualSpace) -> String {
    let (x0, y0, x1, y1) = space.bounds();
    let (w, h) = ((x1 - x0).max(1.0), (y1 - y0).max(1.0));
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.1} {y0:.1} {w:.1} {h:.1}">"#
    );
    for g in space.glyphs() {
        if !g.visible {
            continue;
        }
        match &g.kind {
            GlyphKind::Edge { points } => {
                let pts: Vec<String> = points
                    .iter()
                    .map(|(x, y)| format!("{x:.1},{y:.1}"))
                    .collect();
                let _ = writeln!(
                    out,
                    r#"  <polyline points="{}" fill="none" stroke="{}"/>"#,
                    pts.join(" "),
                    g.color.css()
                );
            }
            GlyphKind::Shape { w, h } => {
                let _ = writeln!(
                    out,
                    r#"  <rect x="{:.1}" y="{:.1}" width="{w:.1}" height="{h:.1}" fill="{}" stroke="black"/>"#,
                    g.x - w / 2.0,
                    g.y - h / 2.0,
                    g.color.css()
                );
            }
            GlyphKind::Text { content } => {
                let body = content
                    .replace('&', "&amp;")
                    .replace('<', "&lt;")
                    .replace('>', "&gt;");
                let _ = writeln!(
                    out,
                    r#"  <text x="{:.1}" y="{:.1}" text-anchor="middle" font-size="11">{}</text>"#,
                    g.x,
                    g.y + 4.0,
                    body
                );
            }
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glyph::GlyphKind;

    fn demo_space() -> VirtualSpace {
        let mut s = VirtualSpace::new();
        s.add(
            GlyphKind::Edge {
                points: vec![(50.0, 20.0), (50.0, 80.0)],
            },
            0.0,
            0.0,
            Color::EDGE,
        );
        s.add(
            GlyphKind::Shape { w: 40.0, h: 20.0 },
            50.0,
            20.0,
            Color::RED,
        );
        s.add(
            GlyphKind::Shape { w: 40.0, h: 20.0 },
            50.0,
            80.0,
            Color::GREEN,
        );
        s
    }

    #[test]
    fn shapes_rasterise_with_their_colors() {
        let space = demo_space();
        let mut cam = Camera::default();
        cam.fit(space.bounds(), 100.0, 100.0, 1.0);
        let fb = render(&space, &cam, 100, 100, &RenderOptions::default());
        assert!(fb.count_color(Color::RED) > 100);
        assert!(fb.count_color(Color::GREEN) > 100);
        assert!(fb.count_color(Color::WHITE) > 1000);
    }

    #[test]
    fn zooming_out_shrinks_coverage() {
        let space = demo_space();
        let mut near = Camera::default();
        near.fit(space.bounds(), 100.0, 100.0, 1.0);
        let mut far = near.clone();
        far.altitude = (far.altitude + 1.0) * 8.0;
        let fb_near = render(&space, &near, 100, 100, &RenderOptions::default());
        let fb_far = render(&space, &far, 100, 100, &RenderOptions::default());
        assert!(fb_far.count_color(Color::RED) < fb_near.count_color(Color::RED));
    }

    #[test]
    fn invisible_glyphs_not_drawn() {
        let mut space = demo_space();
        let id = space.glyphs()[1].id;
        space.glyph_mut(id).visible = false;
        let mut cam = Camera::default();
        cam.fit(space.bounds(), 100.0, 100.0, 1.0);
        let fb = render(&space, &cam, 100, 100, &RenderOptions::default());
        assert_eq!(fb.count_color(Color::RED), 0);
    }

    #[test]
    fn ppm_encoding_wellformed() {
        let fb = Framebuffer::new(4, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with("P3\n4 2\n255\n"));
        assert_eq!(ppm.lines().count(), 3 + 2);
    }

    #[test]
    fn line_clipping_is_safe() {
        let mut fb = Framebuffer::new(10, 10);
        fb.line(-100, -100, 100, 100, Color::BLACK);
        fb.fill_rect(-5, -5, 20, 20, Color::RED);
        assert_eq!(fb.count_color(Color::RED), 100);
    }

    #[test]
    fn huge_segments_cost_only_their_visible_pixels() {
        // Each segment is 2·10⁹ pixels long; a per-pixel walk over them
        // takes tens of seconds, the visible part is 64 and 48 pixels.
        let started = std::time::Instant::now();
        let mut fb = Framebuffer::new(64, 48);
        fb.line(-1_000_000_000, 5, 1_000_000_000, 5, Color::RED);
        assert!((0..64).all(|x| fb.get(x, 5) == Color::RED));
        assert_eq!(fb.count_color(Color::RED), 64);

        let mut fb = Framebuffer::new(64, 48);
        fb.line(
            -1_000_000_000,
            -1_000_000_000,
            1_000_000_000,
            1_000_000_000,
            Color::RED,
        );
        for y in 0..48 {
            for x in 0..64 {
                assert_eq!(fb.get(x, y) == Color::RED, x == y, "pixel ({x}, {y})");
            }
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn svg_frame_contains_colors() {
        let space = demo_space();
        let svg = render_svg_frame(&space);
        assert!(svg.contains("#d02020"));
        assert!(svg.contains("#20a020"));
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn lens_distorts_rendering() {
        let space = demo_space();
        let mut cam = Camera::default();
        cam.fit(space.bounds(), 200.0, 200.0, 1.0);
        let plain = render(&space, &cam, 200, 200, &RenderOptions::default());
        let lensed = render(
            &space,
            &cam,
            200,
            200,
            &RenderOptions {
                lens: Some(FisheyeLens::new(50.0, 20.0, 60.0, 3.0)),
                skip_text: false,
            },
        );
        assert_ne!(plain, lensed, "lens must change the rendered frame");
    }
}
