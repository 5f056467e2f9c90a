//! Pixel identity of the run-based rasterizer.
//!
//! `Framebuffer::line` and `Framebuffer::fill_rect` draw whole runs of
//! pixels and skip what lies outside the frame. They must paint exactly
//! the pixels of the per-pixel Bresenham walk they replaced. That walk,
//! and a `render` built on it, are kept here as the reference.

use proptest::prelude::*;
use stetho_zvtm::overview::trace_strip;
use stetho_zvtm::render::{render, Framebuffer, RenderOptions};
use stetho_zvtm::{Camera, Color, FisheyeLens, GlyphKind, VirtualSpace};

/// Reference line: Bresenham's error-term walk, clipped per pixel.
fn ref_line(fb: &mut Framebuffer, x0: i64, y0: i64, x1: i64, y1: i64, c: Color) {
    let (mut x, mut y) = (x0, y0);
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        fb.set(x, y, c);
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Reference rectangle: every pixel, clipped per pixel.
fn ref_fill_rect(fb: &mut Framebuffer, x0: i64, y0: i64, x1: i64, y1: i64, c: Color) {
    for y in y0.max(0)..=y1.min(fb.height as i64 - 1) {
        for x in x0.max(0)..=x1.min(fb.width as i64 - 1) {
            fb.set(x, y, c);
        }
    }
}

/// Reference frame: `render` with the per-pixel primitives.
fn ref_render(
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
                    ref_line(&mut fb, x0, y0, x1, y1, g.color);
                }
            }
            GlyphKind::Shape { .. } => {
                let (bx0, by0, bx1, by1) = g.bounds();
                let (x0, y0) = world_to_screen(bx0, by0);
                let (x1, y1) = world_to_screen(bx1, by1);
                ref_fill_rect(&mut fb, x0, y0, x1, y1, g.color);
                if x1 - x0 >= 3 && y1 - y0 >= 3 {
                    ref_line(&mut fb, x0, y0, x1, y0, Color::BLACK);
                    ref_line(&mut fb, x0, y1, x1, y1, Color::BLACK);
                    ref_line(&mut fb, x0, y0, x0, y1, Color::BLACK);
                    ref_line(&mut fb, x1, y0, x1, y1, Color::BLACK);
                }
            }
            GlyphKind::Text { content } => {
                if opts.skip_text {
                    continue;
                }
                let w = content.len() as f64 * 7.0;
                let (x0, y) = world_to_screen(g.x - w / 2.0, g.y + 6.0);
                let (x1, _) = world_to_screen(g.x + w / 2.0, g.y + 6.0);
                ref_line(&mut fb, x0, y, x1, y, g.color);
            }
        }
    }
    fb
}

/// Draw one segment both ways on a fresh `w`×`h` frame and compare.
fn assert_same_line(w: usize, h: usize, (x0, y0, x1, y1): (i64, i64, i64, i64)) {
    let mut want = Framebuffer::new(w, h);
    ref_line(&mut want, x0, y0, x1, y1, Color::RED);
    let mut got = Framebuffer::new(w, h);
    got.line(x0, y0, x1, y1, Color::RED);
    assert!(
        got == want,
        "line ({x0},{y0})-({x1},{y1}) on {w}x{h}: {} pixels painted, reference {}",
        w * h - got.count_color(Color::WHITE),
        w * h - want.count_color(Color::WHITE),
    );
}

/// Segment families, each chosen by `kind` and built from the frame
/// size, four wide coordinates `p` and four small offsets `q`.
fn segment(w: i64, h: i64, kind: u8, p: [i64; 4], q: [i64; 4]) -> (i64, i64, i64, i64) {
    match kind {
        // Anywhere in ±10⁴: mostly long segments that cross or miss.
        0 => (p[0], p[1], p[2], p[3]),
        // Both ends near the frame.
        1 => (q[0], q[1], q[2], q[3]),
        // Horizontal and vertical, through or beside the frame.
        2 => (p[0], q[1], p[2], q[1]),
        3 => (q[0], p[1], q[0], p[3]),
        // 45°, in both diagonal directions.
        4 => {
            let sign = if q[3] % 2 == 0 { 1 } else { -1 };
            (q[0], q[1], q[0] + p[2], q[1] + sign * p[2])
        }
        // Zero length.
        5 => (q[0], q[1], q[0], q[1]),
        // Fully off-screen: both ends beyond one edge.
        6 => match q[3].rem_euclid(4) {
            0 => (-1 - p[0].abs(), p[1], -1 - p[2].abs(), p[3]),
            1 => (w + p[0].abs(), p[1], w + p[2].abs(), p[3]),
            2 => (p[0], -1 - p[1].abs(), p[2], -1 - p[3].abs()),
            _ => (p[0], h + p[1].abs(), p[2], h + p[3].abs()),
        },
        // Through (or a pixel or two beside) a frame corner.
        _ => {
            let corners = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)];
            let (cx, cy) = corners[q[3].rem_euclid(4) as usize];
            let (jx, jy) = (q[0].rem_euclid(5) - 2, q[1].rem_euclid(5) - 2);
            (cx - p[0], cy - p[1], cx + p[0] + jx, cy + p[1] + jy)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn line_matches_the_per_pixel_walk(
        (w, h) in (0usize..24, 0usize..18),
        kind in 0u8..8,
        p in (-10_000i64..=10_000, -10_000i64..=10_000, -10_000i64..=10_000, -10_000i64..=10_000),
        q in (-30i64..60, -30i64..60, -30i64..60, -30i64..60),
    ) {
        let seg = segment(w as i64, h as i64, kind, [p.0, p.1, p.2, p.3], [q.0, q.1, q.2, q.3]);
        assert_same_line(w, h, seg);
    }
}

#[test]
fn every_short_segment_around_a_small_frame_matches() {
    // Exhaustive over endpoints in a margin of 3 around a 5×4 frame:
    // every slope, direction, clip edge and corner a short segment has.
    let range = -3i64..8;
    for x0 in range.clone() {
        for y0 in range.clone() {
            for x1 in range.clone() {
                for y1 in range.clone() {
                    assert_same_line(5, 4, (x0, y0, x1, y1));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn fill_rect_matches_the_per_pixel_fill(
        (w, h) in (0usize..24, 0usize..18),
        r in (-40i64..60, -40i64..60, -40i64..60, -40i64..60),
    ) {
        let mut want = Framebuffer::new(w, h);
        ref_fill_rect(&mut want, r.0, r.1, r.2, r.3, Color::GREEN);
        let mut got = Framebuffer::new(w, h);
        got.fill_rect(r.0, r.1, r.2, r.3, Color::GREEN);
        prop_assert!(got == want, "fill_rect {r:?} on {w}x{h}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn trace_strip_bands_match_the_per_pixel_strip(
        tints in proptest::collection::vec(0u8..3, 0..300),
        (w, h) in (0usize..200, 0usize..6),
    ) {
        let palette = [Color::RED, Color::GREEN, Color::DEFAULT_FILL];
        let colors: Vec<Color> = tints.iter().map(|&t| palette[t as usize]).collect();
        let mut want = Framebuffer::new(w, h);
        if !colors.is_empty() {
            for x in 0..w {
                let c = colors[x * colors.len() / w];
                for y in 0..h {
                    want.set(x as i64, y as i64, c);
                }
            }
        }
        prop_assert!(trace_strip(&colors, w, h) == want, "{} events on {w}x{h}", colors.len());
    }
}

/// A random space: edges with 2–5 bend points, node boxes and labels.
fn space_of(glyphs: &[(u8, f64, f64, f64, f64, u8)]) -> VirtualSpace {
    let palette = [Color::EDGE, Color::RED, Color::GREEN, Color::DEFAULT_FILL];
    let mut space = VirtualSpace::new();
    for &(kind, x, y, a, b, tint) in glyphs {
        let color = palette[tint as usize % palette.len()];
        match kind % 3 {
            0 => {
                let bends = 2 + tint as usize % 4;
                let points = (0..bends)
                    .map(|i| (x + a * i as f64, y + b * (i * i) as f64 / 3.0))
                    .collect();
                space.add(GlyphKind::Edge { points }, 0.0, 0.0, color);
            }
            1 => {
                space.add(
                    GlyphKind::Shape {
                        w: a.abs() + 1.0,
                        h: b.abs() / 2.0 + 1.0,
                    },
                    x,
                    y,
                    color,
                );
            }
            _ => {
                let content = "algebra.select".repeat(1 + tint as usize % 3);
                space.add(GlyphKind::Text { content }, x, y, Color::BLACK);
            }
        }
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn render_matches_the_per_pixel_frame(
        glyphs in proptest::collection::vec(
            (
                0u8..3,
                -2_000.0f64..2_000.0,
                -2_000.0f64..2_000.0,
                -300.0f64..300.0,
                -300.0f64..300.0,
                0u8..12,
            ),
            1..60,
        ),
        (w, h) in (1usize..160, 1usize..120),
        view in 0u8..4,
        (px, py, alt) in (-2_500.0f64..2_500.0, -2_500.0f64..2_500.0, 0.0f64..2_000.0),
        lens in (0u8..2, 20.0f64..800.0, 0.0f64..6.0),
        skip_text in any::<bool>(),
    ) {
        let space = space_of(&glyphs);
        let mut camera = Camera::default();
        camera.fit(space.bounds(), w as f64, h as f64, 1.05);
        match view {
            0 => {}
            1 => camera.altitude = alt,
            2 => camera.pan(px, py),
            _ => {
                let g = &space.glyphs()[px.abs() as usize % space.len()];
                camera.cx = g.x;
                camera.cy = g.y;
                camera.altitude = 0.0;
            }
        }
        let opts = RenderOptions {
            lens: (lens.0 == 1).then(|| FisheyeLens::new(px / 2.0, py / 2.0, lens.1, lens.2)),
            skip_text,
        };
        let want = ref_render(&space, &camera, w, h, &opts);
        let got = render(&space, &camera, w, h, &opts);
        prop_assert!(got == want, "frame differs: camera {camera:?}, {w}x{h}");
    }
}
