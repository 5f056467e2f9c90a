//! Multi-server monitoring (§3.2).
//!
//! "The textual Stethoscope can connect to multiple MonetDB servers at
//! the same time to receive execution traces from all (distributed)
//! sources. Its filter options allow for selective tracing of execution
//! states on each of the connected servers."
//!
//! [`MultiServerSession`] launches one query per "server" (each an
//! engine instance in its own thread with its own UDP emitter), listens
//! on a single textual Stethoscope through the online session's intake,
//! and demultiplexes the merged stream by source address. A failed
//! server, or one whose end-of-trace never arrived, ends the session
//! with an error naming it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use stetho_engine::Catalog;
use stetho_profiler::udp::StreamItem;
use stetho_profiler::{FilterOptions, ProfilerEmitter, TextualStethoscope, TraceEvent};
use stetho_sql::compile;

use crate::analysis::SessionReport;
use crate::session::{intake, SessionError};

/// One server's workload.
#[derive(Clone)]
pub struct ServerSpec {
    /// A name for reporting.
    pub name: String,
    /// The database this server hosts.
    pub catalog: Arc<Catalog>,
    /// The query it will run.
    pub sql: String,
    /// Per-server filter ("selective tracing ... on each of the
    /// connected servers").
    pub filter: Option<FilterOptions>,
}

/// The per-server outcome.
#[derive(Debug)]
pub struct ServerOutcome {
    /// Spec name.
    pub name: String,
    /// The source address its stream arrived from.
    pub source: SocketAddr,
    /// Its (filtered) events, arrival order.
    pub events: Vec<TraceEvent>,
    /// Result rows of its query.
    pub result_rows: usize,
    /// Full analysis over its trace.
    pub report: SessionReport,
}

/// Drives several servers against one textual Stethoscope.
pub struct MultiServerSession;

impl MultiServerSession {
    /// Run every server's query concurrently; returns outcomes in spec
    /// order.
    pub fn run(specs: Vec<ServerSpec>) -> Result<Vec<ServerOutcome>, SessionError> {
        Self::run_with_metrics(specs, None)
    }

    /// Like [`MultiServerSession::run`], publishing self-observability
    /// into `metrics`: the shared receiver counts its transport counts
    /// into it, and `stetho_multi_events_total{server=...}` counts the
    /// demultiplexed per-server event streams.
    pub fn run_with_metrics(
        specs: Vec<ServerSpec>,
        metrics: Option<Arc<stetho_obsv::Registry>>,
    ) -> Result<Vec<ServerOutcome>, SessionError> {
        let mut plans = Vec::with_capacity(specs.len());
        for spec in &specs {
            let compiled = compile(&spec.catalog, &spec.sql)
                .map_err(|e| SessionError::new(format!("{}: compile: {e}", spec.name)))?;
            plans.push(compiled.plan);
        }
        let mut steth = TextualStethoscope::bind()?;
        let rx = steth.start_with_metrics(metrics.as_deref());
        let addr = steth.local_addr()?;

        // Each server's event stream, keyed by the source address the
        // merged stream tags it with, and its per-server demux counter.
        let mut demux = HashMap::new();
        let mut sources = Vec::with_capacity(specs.len());
        let mut queries = Vec::with_capacity(specs.len());
        for (spec, plan) in specs.iter().zip(&plans) {
            let emitter = ProfilerEmitter::connect(addr)?;
            let source = emitter.local_addr()?;
            // Register the server's filter before any of its events flow.
            if let Some(f) = &spec.filter {
                steth.set_server_filter(source, f.clone());
            }
            let counter = metrics.as_ref().map(|reg| {
                reg.counter_with(
                    "stetho_multi_events_total",
                    "Events demultiplexed per connected server",
                    &[("server", &spec.name)],
                )
            });
            demux.insert(source, (Vec::new(), counter));
            sources.push(source);
            let (plan, catalog) = (plan.clone(), Arc::clone(&spec.catalog));
            queries.push(intake::launch(&spec.name, plan, catalog, emitter, 0, None)?);
        }

        let (rows, ended) = intake::receive(&mut steth, &rx, queries, |item| {
            if let StreamItem::Event { source, event } = item {
                if let Some((events, counter)) = demux.get_mut(&source) {
                    counter.iter().for_each(|c| c.inc());
                    events.push(event);
                }
            }
            Ok(())
        })?;

        let mut outcomes = Vec::with_capacity(specs.len());
        for (((spec, plan), source), result_rows) in
            specs.into_iter().zip(plans).zip(sources).zip(rows)
        {
            if !ended.contains(&source) {
                return Err(SessionError::new(format!(
                    "{}: stream closed before end-of-trace",
                    spec.name
                )));
            }
            let events = demux.remove(&source).map(|(e, _)| e).unwrap_or_default();
            let report = SessionReport::build(&plan, &events, 3, 4);
            outcomes.push(ServerOutcome {
                name: spec.name,
                source,
                events,
                result_rows,
                report,
            });
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_engine::{Bat, TableDef};
    use stetho_mal::MalType;

    fn catalog(rows: i64, tag: f64) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "t",
                vec![
                    (
                        "k".into(),
                        MalType::Int,
                        Bat::ints((0..rows).map(|i| i % 5).collect()),
                    ),
                    (
                        "v".into(),
                        MalType::Dbl,
                        Bat::dbls((0..rows).map(|i| i as f64 * tag).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    #[test]
    fn two_servers_streams_demultiplexed() {
        let outcomes = MultiServerSession::run(vec![
            ServerSpec {
                name: "alpha".into(),
                catalog: catalog(200, 1.0),
                sql: "select v from t where k = 1".into(),
                filter: None,
            },
            ServerSpec {
                name: "beta".into(),
                catalog: catalog(300, 2.0),
                sql: "select sum(v) as s from t".into(),
                filter: None,
            },
        ])
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "alpha");
        assert_eq!(outcomes[0].result_rows, 40);
        assert_eq!(outcomes[1].result_rows, 1);
        assert_ne!(outcomes[0].source, outcomes[1].source);
        // Each server's events mention only its own plan's statements.
        assert!(!outcomes[0].events.is_empty());
        assert!(!outcomes[1].events.is_empty());
        assert!(outcomes[1]
            .events
            .iter()
            .any(|e| e.stmt.contains("aggr.sum")));
        assert!(!outcomes[0]
            .events
            .iter()
            .any(|e| e.stmt.contains("aggr.sum")));
    }

    #[test]
    fn per_server_filters_apply_independently() {
        let outcomes = MultiServerSession::run(vec![
            ServerSpec {
                name: "unfiltered".into(),
                catalog: catalog(100, 1.0),
                sql: "select v from t where k = 2".into(),
                filter: None,
            },
            ServerSpec {
                name: "algebra-only".into(),
                catalog: catalog(100, 1.0),
                sql: "select v from t where k = 2".into(),
                filter: Some(FilterOptions::all().with_module("algebra")),
            },
        ])
        .unwrap();
        let all = &outcomes[0].events;
        let algebra_only = &outcomes[1].events;
        assert!(algebra_only.len() < all.len());
        assert!(algebra_only.iter().all(|e| e.module() == "algebra"));
    }

    #[test]
    fn empty_spec_list() {
        assert!(MultiServerSession::run(vec![]).unwrap().is_empty());
    }

    #[test]
    fn metrics_count_each_servers_stream() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let outcomes = MultiServerSession::run_with_metrics(
            vec![
                ServerSpec {
                    name: "alpha".into(),
                    catalog: catalog(100, 1.0),
                    sql: "select v from t where k = 1".into(),
                    filter: None,
                },
                ServerSpec {
                    name: "beta".into(),
                    catalog: catalog(100, 1.0),
                    sql: "select sum(v) as s from t".into(),
                    filter: None,
                },
            ],
            Some(Arc::clone(&registry)),
        )
        .unwrap();
        let snap = registry.snapshot();
        let fam = snap.family("stetho_multi_events_total").unwrap();
        assert_eq!(fam.samples.len(), 2, "one labelled sample per server");
        let total: u64 = outcomes.iter().map(|o| o.events.len() as u64).sum();
        assert_eq!(snap.counter_total("stetho_multi_events_total"), total);
        assert!(
            snap.counter_total("stetho_transport_received_total") > 0,
            "receiver counts into the registry over real UDP"
        );
    }

    #[test]
    fn compile_error_reports_server_name() {
        let err = MultiServerSession::run(vec![ServerSpec {
            name: "broken".into(),
            catalog: catalog(10, 1.0),
            sql: "select nope from missing".into(),
            filter: None,
        }])
        .unwrap_err();
        assert!(err.to_string().contains("broken"));
    }
}
