//! Output checks. Every check counts as one attempted operation and, when
//! it does not hold, as one failed operation — the same tally the load
//! phases feed — so a wrong answer fails the run exactly like a shed
//! request does.

use std::collections::HashSet;

use amcad_mnn::InvertedIndex;
use amcad_retrieval::{
    CoverageSource, IndexBuildInputs, IndexSet, Request, RetrievalError, RetrievalResponse,
};

use crate::deploy::{self, RETRIEVAL, TOP_K};
use crate::loadgen::PhaseReport;
use crate::requests::is_unseen;

/// Requests compared against the oracle per serving check.
pub const CHECK_REQUESTS: usize = 2_000;
/// Failures described on stderr before the tally goes quiet.
const SHOWN_FAILURES: u64 = 10;

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= SHOWN_FAILURES {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    pub fn add_phase(&mut self, phase: &str, report: &PhaseReport) {
        self.attempted += report.sent;
        self.failed += report.failed();
        if report.failed() > 0 {
            eprintln!(
                "FAILED: {} of {} requests in phase {phase}",
                report.failed(),
                report.sent
            );
        }
    }
}

pub type Served = Result<RetrievalResponse, RetrievalError>;

/// What must hold for any single response, whatever the corpus.
fn well_formed(request: &Request, response: &RetrievalResponse, retired: &HashSet<u32>) -> bool {
    response.ads.len() <= RETRIEVAL.final_top_n
        && response.ads.windows(2).all(|w| w[0].score >= w[1].score)
        && response.ads.iter().all(|a| !retired.contains(&a.ad))
        && (!is_unseen(request) || response.stats.coverage == CoverageSource::PreclickItems)
}

/// What a from-scratch whole-corpus engine over `inputs` answers to the
/// checked requests (through `logical()`, which drops only the physical
/// route): what every topology must serve for those inputs.
pub fn oracle_answers(
    inputs: &IndexBuildInputs,
    requests: &[Request],
) -> Result<Vec<Served>, RetrievalError> {
    let oracle = deploy::oracle(inputs)?;
    Ok(requests
        .iter()
        .take(CHECK_REQUESTS)
        .map(|r| oracle.retrieve(r).map(RetrievalResponse::logical))
        .collect())
}

/// `serve` must answer each checked request exactly as the oracle did
/// (`want`, from [`oracle_answers`]), with a well-formed response that
/// returns no retired ad and was gathered from `route_len` shards — none
/// when a plain engine served it.
pub fn serving_matches_oracle(
    tally: &mut Tally,
    what: &str,
    serve: impl Fn(&Request) -> Served,
    route_len: usize,
    want: &[Served],
    requests: &[Request],
    retired: &HashSet<u32>,
) {
    for (request, want) in requests.iter().zip(want) {
        let got = serve(request);
        let routed = matches!(&got, Ok(r) if r.stats.served_by.len() == route_len);
        let got = got.map(RetrievalResponse::logical);
        let ok =
            routed && matches!(&got, Ok(r) if well_formed(request, r, retired)) && got == *want;
        tally.record(ok, || {
            format!(
                "{what}: query {} answered {got:?} (route of {route_len}: {routed}), oracle {want:?}",
                request.query
            )
        });
    }
}

fn indices(set: &IndexSet) -> [(&'static str, &InvertedIndex); 6] {
    [
        ("q2q", &set.q2q),
        ("q2i", &set.q2i),
        ("i2q", &set.i2q),
        ("i2i", &set.i2i),
        ("q2a", &set.q2a),
        ("i2a", &set.i2a),
    ]
}

/// Every posting list of `built` is sorted by distance, at most `TOP_K`
/// long, and equal to the same key's list in `reference` (a build of the
/// same inputs on another thread count).
pub fn index_sets_match(tally: &mut Tally, built: &IndexSet, reference: &IndexSet) {
    for ((name, index), (_, other)) in indices(built).into_iter().zip(indices(reference)) {
        tally.record(index.len() == other.len(), || {
            format!("{name}: {} keys against {}", index.len(), other.len())
        });
        for (key, postings) in index.iter() {
            let ok = postings.len() <= TOP_K
                && postings.windows(2).all(|w| w[0].1 <= w[1].1)
                && other.get(*key) == Some(postings);
            tally.record(ok, || format!("{name}: posting list of key {key} differs"));
        }
    }
}
