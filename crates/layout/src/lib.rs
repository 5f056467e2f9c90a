//! # stetho-layout — graph layout and the SVG pipeline
//!
//! The paper's workflow (§4): "As a first step the dot file gets parsed
//! and an intermediate scalar vector graphics (svg) representation gets
//! created. In the next step, the svg file gets parsed and an in memory
//! graph structure gets created." GraphViz performed both steps for the
//! original Stethoscope; this crate is our GraphViz:
//!
//! * [`sugiyama`] — a layered (Sugiyama-style) layout: cycle breaking,
//!   longest-path layering, dummy-node insertion for long edges,
//!   barycenter crossing reduction, and coordinate assignment;
//! * [`scene`] — the positioned *scene graph* the viewer navigates;
//! * [`svg`] — an SVG writer and a parser that reads the SVG back into a
//!   scene graph: the paper's dot → svg → in-memory-graph round trip.
//!
//! GraphViz ran as a separate process, so the paper had to read its
//! layout back from the SVG. [`layout`] returns the scene graph itself,
//! and that is what the sessions in `stetho-core` draw. The SVG pair is
//! the export path; the `svg_scene_round_trips` property test pins that
//! parsing the written SVG gives back the same scene, to 0.1 px.
//!
//! Claim 5 of the paper — "support for large query plans with graph
//! representation of more than 1000 nodes" — is exercised against this
//! crate by the `layout_scaling` benchmark.

pub mod scene;
pub mod sugiyama;
pub mod svg;

pub use scene::{SceneEdge, SceneGraph, SceneNode};
pub use sugiyama::{layout, LayoutOptions};
pub use svg::{parse_svg, write_svg, SvgError};
