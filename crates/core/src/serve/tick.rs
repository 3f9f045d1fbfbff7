//! The one epoch tick every `bap serve` transport runs. The threaded
//! [`super::Server`] and the stdio loop ([`crate::net::serve_stdio`])
//! differ only in how they collect a sweep and deliver its answers.

use super::governor::OverloadGovernor;
use super::service::DecisionService;
use bap_trace::wire::{WireLogEntry, WireRequest, WireResponse};
use std::time::Instant;

/// What one tick produced for its transport to deliver.
pub(crate) struct Tick<T> {
    /// The admitted requests' answers, each paired with the reply token
    /// its request arrived with, in sweep order.
    pub(crate) answers: Vec<(T, WireResponse)>,
    /// The committed log entry (replicating primaries only). A primary
    /// must ship it, and have every live follower ack it, before any of
    /// `answers` leaves — that ordering is the zero-loss contract.
    pub(crate) entry: Option<WireLogEntry>,
}

/// Run one epoch tick over a sweep of `(request, arrival, reply token)`.
///
/// With a governor, the sweep is gated at `now` first: every shed or
/// expired request is handed to `shed` with its token (tick 0 — it never
/// reached the service) before anything is solved. The admitted rest is
/// moved into one [`DecisionService::process_batch_with`] call under the
/// governor's context, whose duration feeds
/// [`OverloadGovernor::tick_done`], and the tick is committed with
/// [`DecisionService::log_batch`]. A sweep that sheds entirely runs no
/// tick at all.
pub(crate) fn run_tick<T>(
    service: &mut DecisionService,
    mut governor: Option<&mut OverloadGovernor>,
    sweep: Vec<(WireRequest, Instant, T)>,
    now: Instant,
    mut shed: impl FnMut(T, WireResponse),
) -> Tick<T> {
    let verdicts = match governor.as_deref_mut() {
        Some(g) => {
            let pending: Vec<(&WireRequest, Instant)> =
                sweep.iter().map(|(req, at, _)| (req, *at)).collect();
            g.gate(now, &pending)
        }
        None => vec![None; sweep.len()],
    };
    let term = service.term();
    let mut requests = Vec::with_capacity(sweep.len());
    let mut tokens = Vec::with_capacity(sweep.len());
    for ((req, _, token), verdict) in sweep.into_iter().zip(verdicts) {
        match verdict {
            Some(kind) => shed(
                token,
                WireResponse {
                    id: req.id,
                    tick: 0,
                    term,
                    kind,
                },
            ),
            None => {
                requests.push(req);
                tokens.push(token);
            }
        }
    }
    if requests.is_empty() {
        return Tick {
            answers: Vec::new(),
            entry: None,
        };
    }
    let ctx = governor
        .as_deref()
        .map(|g| g.context(now))
        .unwrap_or_default();
    let start = Instant::now();
    let responses = service.process_batch_with(&requests, &ctx);
    if let Some(g) = governor {
        g.tick_done(start.elapsed(), requests.len());
    }
    let entry = service.log_batch(&requests, ctx.brownout as u8);
    Tick {
        answers: tokens.into_iter().zip(responses).collect(),
        entry,
    }
}
