//! Experiment C1 — interactive animated navigation: camera projection
//! over Figure-2-scale glyph sets, animated zoom transitions, fisheye
//! transforms, and frame rasterisation (the interactivity budget behind
//! claim 1).
//!
//! `camera/render_frame/*` prices one rasterised frame and writes its
//! rows to the benchmark ledger. The `1280x800/*` rows draw the offline
//! session's frame of the 1301-node Q1 mitosis(96) plan twice: fitted
//! to the window, and at altitude 0 on one node (the view
//! `OfflineSession::focus_node` sets), where most of the plan lies
//! outside the frame.

use criterion::{criterion_group, take_reports, BenchmarkId, Criterion, Throughput};
use stetho_bench::ledger::{int, ledger_path, num, text, Ledger};
use stetho_bench::{catalog, plan_for, wide_graph};
use stetho_dot::plan_conv::plan_to_graph;
use stetho_dot::LabelStyle;
use stetho_layout::{layout, LayoutOptions};
use stetho_zvtm::anim::{Animator, CameraSlide, Easing};
use stetho_zvtm::render::{render, RenderOptions};
use stetho_zvtm::{Camera, FisheyeLens, VirtualSpace};

/// Mitosis partitions of the wide Q1 plan (1301 instructions).
const PARTITIONS: usize = 96;

fn space_1000() -> (VirtualSpace, Camera) {
    let g = wide_graph(66, 15);
    let scene = layout(&g, &LayoutOptions::default());
    let (space, _) = VirtualSpace::from_scene(&scene);
    let mut cam = Camera::default();
    cam.fit(space.bounds(), 1280.0, 800.0, 1.05);
    (space, cam)
}

/// The Q1 mitosis(96) plan's space, as an offline session lays it out,
/// and the camera `focus_node` sets on its middle node.
fn space_q1_wide() -> (VirtualSpace, Camera) {
    let plan = plan_for(&catalog(0.002), stetho_tpch::queries::Q1, PARTITIONS);
    let scene = layout(
        &plan_to_graph(&plan, LabelStyle::FullStatement),
        &LayoutOptions::default(),
    );
    let node = &scene.nodes[scene.nodes.len() / 2];
    let focus = Camera::at(node.x, node.y, 0.0);
    (VirtualSpace::from_scene(&scene).0, focus)
}

fn bench_projection(c: &mut Criterion) {
    let (space, cam) = space_1000();
    let mut group = c.benchmark_group("camera/project_all_glyphs");
    group.throughput(Throughput::Elements(space.len() as u64));
    group.bench_function("1000_nodes", |b| {
        b.iter(|| {
            space
                .glyphs()
                .iter()
                .map(|g| cam.project(g.x, g.y, 1280.0, 800.0).0 as i64)
                .sum::<i64>()
        })
    });
    group.finish();
}

fn bench_animated_zoom(c: &mut Criterion) {
    let (space, cam) = space_1000();
    c.bench_function("camera/animated_zoom_25_frames", |b| {
        b.iter(|| {
            let mut camera = cam.clone();
            let mut space = space.clone();
            let mut a = Animator::new();
            a.add_slide(CameraSlide::new(
                &camera,
                (500.0, 300.0, 20.0),
                400.0,
                Easing::EaseInOut,
            ));
            let mut frames = 0;
            while a.busy() {
                a.step(16.0, &mut camera, &mut space);
                frames += 1;
            }
            frames
        })
    });
}

fn bench_fisheye(c: &mut Criterion) {
    let (space, _) = space_1000();
    let lens = FisheyeLens::new(500.0, 300.0, 400.0, 3.0);
    let mut group = c.benchmark_group("camera/fisheye_transform");
    group.throughput(Throughput::Elements(space.len() as u64));
    group.bench_function("1000_nodes", |b| {
        b.iter(|| {
            space
                .glyphs()
                .iter()
                .map(|g| lens.transform(g.x, g.y).0 as i64)
                .sum::<i64>()
        })
    });
    group.finish();
}

fn bench_render_frames(c: &mut Criterion) {
    let (space, cam) = space_1000();
    let mut group = c.benchmark_group("camera/render_frame");
    group.sample_size(10);
    for (name, w, h) in [("320x200", 320usize, 200usize), ("640x400", 640, 400)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &(w, h), |b, &(w, h)| {
            b.iter(|| {
                render(
                    &space,
                    &cam,
                    w,
                    h,
                    &RenderOptions {
                        lens: None,
                        skip_text: true,
                    },
                )
                .count_color(stetho_zvtm::Color::WHITE)
            })
        });
    }

    let (space, focus) = space_q1_wide();
    let mut fitted = Camera::default();
    fitted.fit(space.bounds(), 1280.0, 800.0, 1.05);
    for (view, cam) in [("fitted", &fitted), ("focus", &focus)] {
        group.bench_function(format!("1280x800/{view}"), |b| {
            b.iter(|| render(&space, cam, 1280, 800, &RenderOptions::default()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_projection, bench_animated_zoom, bench_fisheye, bench_render_frames
}

fn main() {
    benches();
    let path = ledger_path();
    let mut ledger = Ledger::load(&path);
    // Recorded per row: the file-wide context describes the host the
    // engine rows came from, which need not be this one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for report in take_reports() {
        let Some(frame) = report.name.strip_prefix("camera/render_frame/") else {
            continue;
        };
        let plan = if frame.starts_with("1280x800/") {
            "q1_mitosis96"
        } else {
            "wide_graph_66x15"
        };
        ledger.put(
            &report.name,
            vec![
                ("bench".to_string(), text("camera_navigation")),
                ("frame".to_string(), text(frame)),
                ("plan".to_string(), text(plan)),
                ("host_cpus".to_string(), int(cpus as i64)),
                ("mean_ns".to_string(), num(report.mean_ns)),
            ],
        );
    }
    ledger.save(&path).expect("ledger writes");
    eprintln!(
        "[ledger] wrote {} entries to {}",
        ledger.len(),
        path.display()
    );
}
