//! Set-up: the generated catalog, the compiled plan, the reference
//! results, and the dot and trace files of one real engine run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use stethoscope::dot::{plan_to_dot, LabelStyle};
use stethoscope::engine::{
    Catalog, ExecOptions, Interpreter, ProfilerConfig, QueryResult, VecSink,
};
use stethoscope::mal::{Plan, Value};
use stethoscope::profiler::{TraceEvent, TraceFile};
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

use crate::workload::Spec;

/// Engine workers everywhere: one per CPU of the 2-CPU reference host.
pub const WORKERS: usize = 2;
/// Every workload runs TPC-H Q1; the workloads differ in plan width,
/// data size and transport.
pub const SQL: &str = queries::Q1;

pub struct Fixture {
    pub catalog: Arc<Catalog>,
    pub plan: Plan,
    /// Serial, unprofiled execution of `plan`: the bit-exact reference.
    pub oracle: QueryResult,
    /// Events of one profiled `WORKERS`-way run.
    pub events: Vec<TraceEvent>,
    pub dot_text: String,
    pub dot_path: PathBuf,
    pub trace_path: PathBuf,
}

pub fn compile_options(partitions: usize) -> CompileOptions {
    CompileOptions {
        plan_name: "user.online".into(),
        partitions,
        skip_optimizers: false,
    }
}

pub fn profiled_parallel(sink: &Arc<VecSink>) -> ExecOptions {
    ExecOptions::parallel(WORKERS, ProfilerConfig::to_sink(sink.clone()))
}

pub fn unprofiled_parallel() -> ExecOptions {
    ExecOptions {
        parallel: true,
        workers: WORKERS,
        ..Default::default()
    }
}

/// Build the fixture for `spec` from `seed`, writing its files to `dir`.
pub fn build(spec: &Spec, seed: u64, dir: &Path) -> Result<Fixture, String> {
    let catalog = Arc::new(generate_catalog(&TpchConfig {
        scale_factor: spec.scale_factor,
        seed,
    }));
    let plan = compile_with(&catalog, SQL, &compile_options(spec.partitions))
        .map_err(|e| format!("compile: {e}"))?
        .plan;
    let interp = Interpreter::new(Arc::clone(&catalog));
    let oracle = interp
        .execute(&plan, &ExecOptions::default())
        .map_err(|e| format!("serial execute: {e}"))?
        .result
        .ok_or("serial execute returned no result set")?;

    // The same SQL without mitosis: an independent check of the
    // partitioned plan, allowing for a different summation order.
    let serial_plan = compile_with(&catalog, SQL, &compile_options(1))
        .map_err(|e| format!("compile serial plan: {e}"))?
        .plan;
    let unpartitioned = interp
        .execute(&serial_plan, &ExecOptions::default())
        .map_err(|e| format!("unpartitioned execute: {e}"))?
        .result
        .ok_or("unpartitioned execute returned no result set")?;
    close_to(&oracle, &unpartitioned, 1e-9).map_err(|e| format!("mitosis vs serial plan: {e}"))?;

    let sink = VecSink::new();
    let profiled = interp
        .execute(&plan, &profiled_parallel(&sink))
        .map_err(|e| format!("profiled execute: {e}"))?
        .result
        .ok_or("profiled execute returned no result set")?;
    same_bits(&oracle, &profiled).map_err(|e| format!("profiled parallel vs serial: {e}"))?;
    let events = sink.take();

    let dot_text = plan_to_dot(&plan, LabelStyle::FullStatement);
    let dot_path = dir.join("recorded.dot");
    let trace_path = dir.join("recorded.trace");
    std::fs::write(&dot_path, &dot_text).map_err(|e| format!("write dot: {e}"))?;
    TraceFile::new(&trace_path)
        .write(&events)
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(Fixture {
        catalog,
        plan,
        oracle,
        events,
        dot_text,
        dot_path,
        trace_path,
    })
}

fn cells(r: &QueryResult) -> Vec<Vec<Option<Value>>> {
    r.columns
        .iter()
        .map(|(_, bat)| (0..bat.len()).map(|i| bat.get(i)).collect())
        .collect()
}

fn names(r: &QueryResult) -> Vec<&str> {
    r.columns.iter().map(|(n, _)| n.as_str()).collect()
}

/// Equal results, doubles compared as IEEE bit patterns.
pub fn same_bits(a: &QueryResult, b: &QueryResult) -> Result<(), String> {
    compare(a, b, |x, y| x.to_bits() == y.to_bits())
}

/// Equal results, doubles within a relative tolerance.
pub fn close_to(a: &QueryResult, b: &QueryResult, rel: f64) -> Result<(), String> {
    compare(a, b, |x, y| {
        (x - y).abs() <= rel * x.abs().max(y.abs()).max(1.0)
    })
}

fn compare(
    a: &QueryResult,
    b: &QueryResult,
    dbl_eq: impl Fn(f64, f64) -> bool,
) -> Result<(), String> {
    if names(a) != names(b) || a.rows() != b.rows() {
        return Err(format!(
            "shape {:?}x{} vs {:?}x{}",
            names(a),
            a.rows(),
            names(b),
            b.rows()
        ));
    }
    for (c, (ca, cb)) in cells(a).iter().zip(cells(b).iter()).enumerate() {
        for (row, (va, vb)) in ca.iter().zip(cb).enumerate() {
            let same = match (va, vb) {
                (Some(Value::Dbl(x)), Some(Value::Dbl(y))) => dbl_eq(*x, *y),
                _ => va == vb,
            };
            if !same {
                return Err(format!("column {c} row {row}: {va:?} vs {vb:?}"));
            }
        }
    }
    Ok(())
}
