//! Session workflows (§4).
//!
//! "The Stethoscope works in both online and offline mode. Both modes
//! share some fundamental steps, such as dot file parsing, conversion to
//! an in memory graph representation, and sequential reading of a trace
//! file."
//!
//! Both sessions build their canvas with one function, straight from the
//! layout engine's scene; SVG stays the export path. The online and
//! multi-server sessions share one query launcher and receive loop.

mod intake;
pub mod multi;
pub mod offline;
pub mod online;
pub mod snapshot;

use std::fmt;

use stetho_dot::Graph;
use stetho_layout::{layout, LayoutOptions, SceneGraph};
use stetho_zvtm::VirtualSpace;

use crate::mapping::TraceDotMap;

/// A laid-out plan on its glyph canvas, with the pc ↔ node ↔ glyph map.
struct Canvas {
    scene: SceneGraph,
    space: VirtualSpace,
    map: TraceDotMap,
}

/// Plan to canvas (§4): lay the dot graph out, build one shape and one
/// text glyph per node from the scene, and wire each pc to its glyphs.
fn plan_canvas(graph: &Graph) -> Canvas {
    let scene = layout(graph, &LayoutOptions::default());
    let (space, node_glyphs) = VirtualSpace::from_scene(&scene);
    let mut map = TraceDotMap::from_scene(&scene);
    map.attach_glyphs(&node_glyphs);
    Canvas { scene, space, map }
}

/// Errors from building or driving a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionError {
    /// Explanation.
    pub msg: String,
}

impl SessionError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SessionError { msg: msg.into() }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session error: {}", self.msg)
    }
}

impl std::error::Error for SessionError {}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::new(format!("io: {e}"))
    }
}
