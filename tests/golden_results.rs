//! Golden query results: every named TPC-H query, pinned cell for cell.
//!
//! Each query in `stetho_tpch::queries::all()` runs over the SF 0.002,
//! seed 1 catalog twice — serially on the unpartitioned plan, and with
//! mitosis(8) on two workers — and the result sets (column names and
//! every cell, doubles as IEEE-754 bit patterns) must match
//! `tests/fixtures/query_results.golden` exactly. Storage or kernel
//! rewrites that change any answer, or even a floating-point summation
//! order, fail here.
//!
//! Regenerate after an *intentional* change of results with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_results`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use stethoscope::engine::{ExecOptions, Interpreter, ProfilerConfig, QueryResult};
use stethoscope::mal::Value;
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/query_results.golden")
}

fn cell(v: Option<Value>) -> String {
    match v {
        Some(Value::Dbl(x)) => format!("dbl:{:016x}", x.to_bits()),
        Some(v) => format!("{v:?}"),
        None => "<missing>".into(),
    }
}

fn render(out: &mut String, title: &str, result: &QueryResult) {
    let names: Vec<&str> = result.columns.iter().map(|(n, _)| n.as_str()).collect();
    writeln!(out, "== {title} rows={}", result.rows()).unwrap();
    writeln!(out, "columns {}", names.join(" | ")).unwrap();
    for i in 0..result.rows() {
        let row: Vec<String> = result.columns.iter().map(|(_, b)| cell(b.get(i))).collect();
        writeln!(out, "{}", row.join(" | ")).unwrap();
    }
}

fn build_log() -> String {
    let cat = Arc::new(generate_catalog(&TpchConfig {
        scale_factor: 0.002,
        seed: 1,
    }));
    let interp = Interpreter::new(Arc::clone(&cat));
    let modes: [(&str, usize, ExecOptions); 2] = [
        ("serial", 1, ExecOptions::default()),
        (
            "mitosis8-parallel2",
            8,
            ExecOptions::parallel(2, ProfilerConfig::off()),
        ),
    ];
    let mut log = String::new();
    for (name, sql) in queries::all() {
        for (mode, partitions, opts) in &modes {
            let plan = compile_with(&cat, sql, &CompileOptions::with_partitions(*partitions))
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"))
                .plan;
            let result = interp
                .execute(&plan, opts)
                .unwrap_or_else(|e| panic!("{name} ({mode}) failed: {e}"))
                .result
                .unwrap_or_else(|| panic!("{name} ({mode}) returned no result set"));
            render(&mut log, &format!("{name} {mode}"), &result);
        }
    }
    log
}

#[test]
fn every_query_matches_its_golden_result() {
    let log = build_log();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &log).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden results missing; regenerate with UPDATE_GOLDEN=1");
    if golden != log {
        let mut diff = String::new();
        for (i, (g, l)) in golden.lines().zip(log.lines()).enumerate() {
            if g != l {
                diff.push_str(&format!("line {}:\n  golden: {g}\n  actual: {l}\n", i + 1));
            }
        }
        let (gn, ln) = (golden.lines().count(), log.lines().count());
        if gn != ln {
            diff.push_str(&format!("line counts differ: golden {gn}, actual {ln}\n"));
        }
        panic!("query results drifted from the golden fixture:\n{diff}");
    }
}
