//! Seeded inputs: per-core miss curves, the request templates each session
//! walks, and the pre-encoded lines the transports send. The program under
//! test only ever sees what these generate.

use bap_trace::wire::{encode_request, RequestKind, WireCurve, WireRequest};
use std::io::Write;

/// SplitMix64 finaliser: a well-mixed word from any input.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Way depth of every generated curve (the profilers' 72-way horizon).
const CURVE_WAYS: usize = 72;

/// One knee-shaped miss curve per core: misses fall linearly to a floor at
/// a per-core knee. `key` selects the curve set (session, drift phase).
fn knee_curves(seed: u64, key: u64, cores: usize) -> Vec<WireCurve> {
    (0..cores)
        .map(|core| {
            let h = mix64(seed ^ mix64(key ^ mix64(core as u64)));
            let base = 30_000.0 + (h % 90_000) as f64;
            let knee = 2 + ((h >> 17) % 40) as usize;
            let floor = ((h >> 33) % 3_000) as f64;
            let misses = (0..=CURVE_WAYS)
                .map(|w| {
                    if w >= knee {
                        floor
                    } else {
                        base - (base - floor) * w as f64 / knee as f64
                    }
                })
                .collect();
            WireCurve {
                accesses: base * 4.0,
                misses,
            }
        })
        .collect()
}

/// A request encoded once, ahead of the timed window. Stamping an id
/// writes the bytes `encode_request` would produce for that id, without
/// touching the JSON encoder.
pub struct Line {
    tail: String,
}

/// Every encoded request starts with its id member.
const HEAD: &str = "{\"id\":";

impl Line {
    pub fn new(req: &WireRequest) -> Line {
        let probe = WireRequest {
            id: 0,
            ..req.clone()
        };
        let encoded = encode_request(&probe);
        let tail = encoded
            .strip_prefix(HEAD)
            .and_then(|rest| rest.strip_prefix('0'))
            .filter(|rest| rest.starts_with(','))
            .unwrap_or_else(|| panic!("request lines lead with their id: {encoded:.40}"));
        Line {
            tail: tail.to_string(),
        }
    }

    /// Append the line for `id`, newline-terminated.
    pub fn stamp(&self, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(HEAD.as_bytes());
        write!(out, "{id}").expect("writing to a Vec cannot fail");
        out.extend_from_slice(self.tail.as_bytes());
        out.push(b'\n');
    }

    /// The line for `id`, without the newline.
    #[cfg(test)]
    pub fn stamped(&self, id: u64) -> String {
        let mut out = Vec::new();
        self.stamp(id, &mut out);
        out.pop();
        String::from_utf8(out).expect("JSON is UTF-8")
    }
}

/// Rounds a session's curves stay put before drifting (serve-tcp and
/// serve-stdio-batch): about five of six cluster solves are warm.
pub const DRIFT_ROUNDS: u64 = 6;

/// One session's request templates (ids are stamped when sent): its
/// `Open`, one `Snapshot` per curve phase, what-if `Evaluate`s, and a
/// `Plan` query. Phases cycle, so a run of any length walks a bounded
/// table.
pub struct SessionStream {
    pub cores: usize,
    drift: u64,
    snapshots: usize,
    evaluates: usize,
    pub templates: Vec<WireRequest>,
}

impl SessionStream {
    /// Knee curves for `phases` snapshot and as many evaluate phases;
    /// snapshots move to the next phase every `drift` rounds.
    pub fn new(seed: u64, session: u64, cores: usize, phases: usize, drift: u64) -> Self {
        let curves = |salt: u64| {
            (0..phases as u64)
                .map(|p| knee_curves(seed ^ salt, (session << 32) | p, cores))
                .collect::<Vec<_>>()
        };
        Self::build(session, cores, drift, curves(0), curves(0xE7A1))
    }

    /// One snapshot per given curve set, walked in order, no evaluates.
    pub fn from_snapshots(session: u64, cores: usize, snapshots: Vec<Vec<WireCurve>>) -> Self {
        Self::build(session, cores, 1, snapshots, Vec::new())
    }

    fn build(
        session: u64,
        cores: usize,
        drift: u64,
        snapshots: Vec<Vec<WireCurve>>,
        evaluates: Vec<Vec<WireCurve>>,
    ) -> Self {
        let (n_snap, n_eval) = (snapshots.len(), evaluates.len());
        let mut templates = vec![WireRequest::new(0, RequestKind::Open { session, cores })];
        templates.extend(
            snapshots
                .into_iter()
                .map(|curves| WireRequest::new(0, RequestKind::Snapshot { session, curves })),
        );
        templates.extend(
            evaluates
                .into_iter()
                .map(|curves| WireRequest::new(0, RequestKind::Evaluate { session, curves })),
        );
        templates.push(WireRequest::new(0, RequestKind::Plan { session }));
        SessionStream {
            cores,
            drift,
            snapshots: n_snap,
            evaluates: n_eval,
            templates,
        }
    }

    pub const OPEN: usize = 0;

    /// Template of round `round`'s snapshot.
    pub fn snapshot(&self, round: u64) -> usize {
        1 + ((round / self.drift) % self.snapshots as u64) as usize
    }

    /// Template of the what-if evaluate sent in round `round`.
    pub fn evaluate(&self, round: u64) -> usize {
        1 + self.snapshots + (round % self.evaluates as u64) as usize
    }

    pub fn plan(&self) -> usize {
        self.templates.len() - 1
    }

    /// Template `idx` as a request with `id`.
    pub fn request(&self, idx: usize, id: u64) -> WireRequest {
        WireRequest {
            id,
            ..self.templates[idx].clone()
        }
    }

    /// Every template, pre-encoded.
    pub fn lines(&self) -> Vec<Line> {
        self.templates.iter().map(Line::new).collect()
    }
}

/// One request a client sent: its id and what it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    pub id: u64,
    pub what: What,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum What {
    /// Template `template` of session stream `stream`.
    Session { stream: usize, template: usize },
    /// A service-wide `Checkpoint`.
    Checkpoint,
}

impl Sent {
    pub fn session(id: u64, stream: usize, template: usize) -> Sent {
        Sent {
            id,
            what: What::Session { stream, template },
        }
    }

    /// The wire request this was.
    pub fn request(&self, streams: &[SessionStream]) -> WireRequest {
        match self.what {
            What::Session { stream, template } => streams[stream].request(template, self.id),
            What::Checkpoint => WireRequest::new(self.id, RequestKind::Checkpoint),
        }
    }

    /// Its pre-encoded line, from per-stream tables (`SessionStream::lines`).
    pub fn line<'a>(&self, lines: &'a [Vec<Line>], checkpoint: &'a Line) -> &'a Line {
        match self.what {
            What::Session { stream, template } => &lines[stream][template],
            What::Checkpoint => checkpoint,
        }
    }
}

/// The pre-encoded service-wide `Checkpoint`.
pub fn checkpoint_line() -> Line {
    Line::new(&WireRequest::new(0, RequestKind::Checkpoint))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_lines_are_byte_identical_to_the_encoder() {
        let stream = SessionStream::new(42, 3, 16, 2, DRIFT_ROUNDS);
        let mut kinds: Vec<WireRequest> = stream.templates.clone();
        kinds.push(WireRequest::new(0, RequestKind::Checkpoint));
        kinds.push(WireRequest::new(0, RequestKind::Stats).with_deadline_ms(250));
        for template in &kinds {
            let line = Line::new(template);
            for id in [0, 1, 9, 10, 4_000_000_017, u64::MAX] {
                let req = WireRequest {
                    id,
                    ..template.clone()
                };
                assert_eq!(line.stamped(id), encode_request(&req), "id {id}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let lines = |seed| -> Vec<String> {
            SessionStream::new(seed, 1, 32, 4, DRIFT_ROUNDS)
                .lines()
                .iter()
                .map(|l| l.stamped(7))
                .collect()
        };
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(7));
        // Sessions of one seed differ from each other too.
        let a = SessionStream::new(42, 1, 8, 1, 1);
        let b = SessionStream::new(42, 2, 8, 1, 1);
        let curves = |s: &SessionStream| match &s.templates[s.snapshot(0)].kind {
            RequestKind::Snapshot { curves, .. } => curves.clone(),
            other => panic!("expected a snapshot, got {}", other.label()),
        };
        assert_ne!(curves(&a), curves(&b));
    }

    #[test]
    fn curves_drift_on_schedule() {
        let s = SessionStream::new(1, 1, 8, 64, DRIFT_ROUNDS);
        assert_eq!(s.snapshot(0), s.snapshot(5));
        assert_ne!(s.snapshot(5), s.snapshot(6));
        let fresh = SessionStream::new(1, 1, 8, 48, 1);
        assert_ne!(fresh.snapshot(0), fresh.snapshot(1));
    }
}
