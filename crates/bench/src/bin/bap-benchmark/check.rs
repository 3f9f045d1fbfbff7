//! Output checks shared by the serve workloads: every answer is typed,
//! echoes its id and carries a plan that fills the machine, and every
//! fingerprint equals a serial replay of the same per-session sequences.

use crate::gen::{Sent, SessionStream, What};
use crate::stats::{self, Latency};
use bap_core::{DecisionService, ServeConfig};
use bap_trace::wire::{RequestKind, ResponseKind, WireResponse};
use bap_types::Topology;
use std::collections::BTreeMap;

/// Ways per L2 bank on every session machine.
const BANK_WAYS: usize = 8;

/// The plan fingerprint a response carries, if any.
pub fn fingerprint(kind: &ResponseKind) -> Option<u64> {
    match kind {
        ResponseKind::Decision { fingerprint, .. }
        | ResponseKind::Evaluated { fingerprint, .. }
        | ResponseKind::Plan { fingerprint, .. } => Some(*fingerprint),
        _ => None,
    }
}

/// Whether a per-core way vector is a whole plan for a `cores`-core
/// session (an empty vector means no plan is in force yet).
fn plan_fills(ways: &[usize], cores: usize) -> bool {
    let total = Topology::ring_of_paper_dies(cores).num_banks() * BANK_WAYS;
    ways.is_empty() || (ways.len() == cores && ways.iter().sum::<usize>() == total)
}

/// Check one answer against the request that produced it. Returns the
/// answer's fingerprint (if it carries one) or why it is wrong.
pub fn validate(
    sent: &Sent,
    streams: &[SessionStream],
    resp: &WireResponse,
) -> Result<Option<u64>, String> {
    if resp.id != sent.id {
        return Err(format!("sent id {}, answer echoes id {}", sent.id, resp.id));
    }
    let checkpoint = RequestKind::Checkpoint;
    let (req, cores) = match sent.what {
        What::Session { stream, template } => (
            &streams[stream].templates[template].kind,
            streams[stream].cores,
        ),
        What::Checkpoint => (&checkpoint, 0),
    };
    let ok = match (req, &resp.kind) {
        (_, ResponseKind::Error { code, detail, .. }) => {
            return Err(format!("id {}: error `{code}`: {detail}", sent.id))
        }
        (RequestKind::Open { .. }, ResponseKind::Opened { cores: c, .. }) => *c == cores,
        (RequestKind::Snapshot { .. }, ResponseKind::Decision { ways, .. })
        | (RequestKind::Evaluate { .. }, ResponseKind::Evaluated { ways, .. })
        | (RequestKind::Plan { .. }, ResponseKind::Plan { ways, .. }) => plan_fills(ways, cores),
        (RequestKind::Checkpoint, ResponseKind::Checkpointed { .. }) => true,
        _ => false,
    };
    if !ok {
        return Err(format!(
            "id {}: {} answered by a malformed {}",
            sent.id,
            req.label(),
            resp.kind.label()
        ));
    }
    Ok(fingerprint(&resp.kind))
}

/// The determinism contract's ground truth: replay each session's
/// id-ordered requests through a fresh service, one request per batch, and
/// collect every fingerprint by request id.
pub fn ground_truth(streams: &[SessionStream], sent: &[Sent]) -> BTreeMap<u64, u64> {
    let mut by_stream: BTreeMap<usize, Vec<&Sent>> = BTreeMap::new();
    for s in sent {
        if let What::Session { stream, .. } = s.what {
            by_stream.entry(stream).or_default().push(s);
        }
    }
    let mut service = DecisionService::new(ServeConfig::default());
    let mut truth = BTreeMap::new();
    for mut seq in by_stream.into_values() {
        seq.sort_by_key(|s| s.id);
        for s in seq {
            for resp in service.process_batch(&[s.request(streams)]) {
                if let Some(fp) = fingerprint(&resp.kind) {
                    truth.insert(resp.id, fp);
                }
            }
        }
    }
    truth
}

/// Request ids whose observed fingerprint differs from the ground truth,
/// is missing, or has no ground truth at all.
pub fn mismatches(observed: &BTreeMap<u64, u64>, truth: &BTreeMap<u64, u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = truth
        .iter()
        .filter(|(id, fp)| observed.get(id) != Some(fp))
        .map(|(id, _)| *id)
        .collect();
    ids.extend(observed.keys().filter(|id| !truth.contains_key(id)));
    ids
}

/// Tally of one run's output checks.
#[derive(Default)]
pub struct Checks {
    /// Requests whose answer failed (error, garbled, missing, mismatched).
    pub failed: u64,
    /// What went wrong, first instances.
    pub failures: Vec<String>,
    /// Fingerprints by request id, of the answers that passed.
    pub observed: BTreeMap<u64, u64>,
}

impl Checks {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Validate one answer and remember its fingerprint.
    pub fn answer(&mut self, sent: &Sent, streams: &[SessionStream], resp: &WireResponse) {
        match validate(sent, streams, resp) {
            Ok(Some(fp)) => {
                self.observed.insert(sent.id, fp);
            }
            Ok(None) => {}
            Err(why) => self.fail(why),
        }
    }

    /// Percentiles of a latency sample. A sample too small to support its
    /// p99 fails the run; its percentiles are still reported.
    pub fn latency(&mut self, samples: &[f64]) -> Latency {
        stats::latency(samples).unwrap_or_else(|why| {
            self.fail(why);
            Latency {
                p50: stats::pct(samples, 0.50),
                p99: stats::pct(samples, 0.99),
                count: samples.len(),
            }
        })
    }

    /// Run the serial replay and compare; every differing answer fails.
    pub fn against_ground_truth(&mut self, streams: &[SessionStream], sent: &[Sent]) {
        let truth = ground_truth(streams, sent);
        let bad = mismatches(&self.observed, &truth);
        if let Some(&id) = bad.first() {
            let why = format!(
                "determinism contract: {} answers differ from the serial replay; first, \
                 request {id}: saw {:?}, replay {:?}",
                bad.len(),
                self.observed.get(&id),
                truth.get(&id)
            );
            self.fail(why);
            self.failed += bad.len() as u64 - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DRIFT_ROUNDS;

    /// A short two-session run served in mixed batches, as a racing
    /// server would.
    fn served() -> (Vec<SessionStream>, Vec<Sent>, Vec<WireResponse>) {
        let streams: Vec<SessionStream> = (0..2)
            .map(|s| SessionStream::new(5, s + 1, 16, 3, DRIFT_ROUNDS))
            .collect();
        let mut sent = Vec::new();
        let mut id = 0;
        for (i, s) in streams.iter().enumerate() {
            id += 1;
            sent.push(Sent::session(id, i, SessionStream::OPEN));
            for round in 0..9 {
                id += 1;
                sent.push(Sent::session(id, i, s.snapshot(round)));
            }
            id += 1;
            sent.push(Sent::session(id, i, s.evaluate(0)));
            id += 1;
            sent.push(Sent::session(id, i, s.plan()));
        }
        let mut service = DecisionService::new(ServeConfig::default());
        let reqs: Vec<_> = sent.iter().map(|s| s.request(&streams)).collect();
        let mut responses = Vec::new();
        for batch in reqs.chunks(4) {
            responses.extend(service.process_batch(batch));
        }
        (streams, sent, responses)
    }

    #[test]
    fn a_faithful_run_passes() {
        let (streams, sent, responses) = served();
        let mut checks = Checks::default();
        for (s, r) in sent.iter().zip(&responses) {
            checks.answer(s, &streams, r);
        }
        checks.against_ground_truth(&streams, &sent);
        assert_eq!(checks.failures, Vec::<String>::new());
        assert_eq!(checks.observed.len(), 2 * 11);
    }

    #[test]
    fn a_single_flipped_fingerprint_is_caught() {
        let (streams, sent, responses) = served();
        let mut observed = BTreeMap::new();
        for (s, r) in sent.iter().zip(&responses) {
            if let Some(fp) = validate(s, &streams, r).expect("valid answer") {
                observed.insert(s.id, fp);
            }
        }
        let truth = ground_truth(&streams, &sent);
        assert!(mismatches(&observed, &truth).is_empty());
        let victim = *observed.keys().nth(5).expect("enough answers");
        *observed.get_mut(&victim).expect("present") ^= 1;
        assert_eq!(mismatches(&observed, &truth), vec![victim]);
        observed.remove(&victim);
        assert_eq!(mismatches(&observed, &truth), vec![victim]);
    }

    #[test]
    fn wrong_ids_errors_and_short_plans_are_rejected() {
        let (streams, sent, responses) = served();
        let decision = sent
            .iter()
            .zip(&responses)
            .find(|(_, r)| matches!(r.kind, ResponseKind::Decision { .. }))
            .expect("a decision");
        let mut wrong_id = decision.1.clone();
        wrong_id.id += 1;
        assert!(validate(decision.0, &streams, &wrong_id).is_err());
        let mut error = decision.1.clone();
        error.kind = ResponseKind::error("internal", "x");
        assert!(validate(decision.0, &streams, &error).is_err());
        let mut short = decision.1.clone();
        if let ResponseKind::Decision { ways, .. } = &mut short.kind {
            ways[0] += 1;
        }
        assert!(validate(decision.0, &streams, &short).is_err());
    }
}
