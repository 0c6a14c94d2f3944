//! Answer checking: every wire answer must equal the in-process
//! [`Oracle`] bit for bit, and every distinct source's answers must match
//! `baselines::dijkstra` to 1e-9 relative.

use crate::drive::Sample;
use crate::trace::{Span, Tracer};
use spsep::core::Oracle;
use spsep::graph::DiGraph;
use spsep::pram::Metrics;
use spsep::serve::{Request, Response};
use std::collections::BTreeMap;
use std::time::Instant;

/// Relative tolerance against Dijkstra.
pub const DIJKSTRA_RTOL: f64 = 1e-9;

/// The outcome of checking a run's answers.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Distances compared.
    pub values: u64,
    /// Distinct sources whose rows were recomputed.
    pub sources: usize,
    /// Indices of samples with at least one wrong value or a malformed
    /// answer.
    pub bad: Vec<usize>,
    /// The first problem found, for the report.
    pub first: Option<String>,
    /// Verification spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Which value of a sample's answer a check reads.
#[derive(Clone, Copy)]
enum Slot {
    Point(usize),
    Table,
    Batch(usize, usize),
}

fn close(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= DIJKSTRA_RTOL * a.abs().max(b.abs()).max(1.0)
}

/// Check every successful sample's answer. `oracle` must have its row
/// cache disabled so each reference row is recomputed; `graph` is the
/// instance as imported from the `.gr` file. Rows are computed on
/// `threads` threads.
pub fn verify(
    samples: &[&Sample],
    oracle: &Oracle,
    graph: &DiGraph<f64>,
    threads: usize,
    tracer_on: bool,
    epoch: Instant,
) -> Verdict {
    let n = graph.n();
    let mut verdict = Verdict::default();
    let mut by_source: BTreeMap<usize, Vec<(usize, Slot)>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate() {
        let slots: Vec<(u64, Slot)> = match (&s.request, &s.result) {
            (_, Err(_)) | (_, Ok(Response::Error { .. })) => continue,
            (Request::Point { source, target }, Ok(Response::Dist(_))) => {
                vec![(*source, Slot::Point(*target as usize))]
            }
            (Request::Source { source }, Ok(Response::Table(row))) if row.len() == n => {
                vec![(*source, Slot::Table)]
            }
            (Request::Batch { pairs }, Ok(Response::Batch(d))) if d.len() == pairs.len() => pairs
                .iter()
                .enumerate()
                .map(|(j, &(u, v))| (u, Slot::Batch(j, v as usize)))
                .collect(),
            _ => {
                verdict.bad.push(i);
                verdict
                    .first
                    .get_or_insert_with(|| format!("malformed answer to {:?}", s.request));
                continue;
            }
        };
        for (u, slot) in slots {
            by_source.entry(u as usize).or_default().push((i, slot));
        }
    }
    let sources: Vec<(&usize, &Vec<(usize, Slot)>)> = by_source.iter().collect();
    verdict.sources = sources.len();
    let threads = threads.max(1);
    // Per thread: values compared, bad samples, first problem, spans.
    type Checked = (u64, Vec<usize>, Option<String>, Vec<Span>);
    let results: Vec<Checked> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sources = &sources;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(tracer_on, epoch, 10 + t as u64);
                    let metrics = Metrics::new();
                    let (mut values, mut bad, mut first) = (0u64, Vec::new(), None);
                    for &(&u, checks) in sources.iter().skip(t).step_by(threads) {
                        let row = tracer.time("verify.reference_row", 0, 0, || {
                            oracle.source_table(u, &metrics)
                        });
                        let Ok(row) = row else {
                            bad.extend(checks.iter().map(|&(i, _)| i));
                            first.get_or_insert_with(|| format!("source {u} rejected in process"));
                            continue;
                        };
                        let dij = tracer.time("verify.dijkstra", 0, 0, || {
                            spsep::baselines::dijkstra(graph, u).dist
                        });
                        for &(i, slot) in checks {
                            let got: Vec<(usize, f64)> = match (slot, &samples[i].result) {
                                (Slot::Point(v), Ok(Response::Dist(d))) => vec![(v, *d)],
                                (Slot::Table, Ok(Response::Table(r))) => {
                                    r.iter().copied().enumerate().collect()
                                }
                                (Slot::Batch(j, v), Ok(Response::Batch(d))) => vec![(v, d[j])],
                                _ => unreachable!("slot kinds follow answer kinds"),
                            };
                            values += got.len() as u64;
                            let wrong = got.iter().find(|&&(v, d)| {
                                d.to_bits() != row[v].to_bits() || !close(d, dij[v])
                            });
                            if let Some(&(v, d)) = wrong {
                                bad.push(i);
                                first.get_or_insert_with(|| {
                                    format!(
                                        "{u}→{v}: wire {d:?}, in-process oracle {:?}, dijkstra {:?}",
                                        row[v], dij[v]
                                    )
                                });
                            }
                        }
                    }
                    (values, bad, first, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification thread panicked"))
            .collect()
    });
    for (values, bad, first, spans) in results {
        verdict.values += values;
        verdict.bad.extend(bad);
        if verdict.first.is_none() {
            verdict.first = first;
        }
        verdict.spans.extend(spans);
    }
    verdict.bad.sort_unstable();
    verdict.bad.dedup();
    verdict
}

#[cfg(test)]
mod tests {
    use super::close;

    #[test]
    fn tolerance_is_relative_and_exact_on_infinity() {
        assert!(close(1e6, 1e6 + 1e-4));
        assert!(!close(1e6, 1e6 + 1e-2));
        assert!(close(f64::INFINITY, f64::INFINITY));
        assert!(!close(f64::INFINITY, 1e300));
    }
}
