//! The overload governor: every wall-clock judgement of the resilience
//! layer (deadline expiry, shed verdicts, retry hints, the brownout
//! ladder), kept out of [`crate::DecisionService`] so a batch stays a pure
//! function of its requests and its [`BatchContext`].

use bap_trace::wire::{RequestKind, ResponseKind, WireRequest};
use bap_trace::{EventKind, Tracer};
use bap_types::OverloadConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The brownout ladder's level: how much of the full decision pipeline a
/// tick is allowed to run under the current pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full service: every snapshot runs the complete epoch pipeline.
    #[default]
    Normal = 0,
    /// Solves run under the tick deadline: an overrun sheds the decision
    /// to the last-good plan through the controller's budget machinery
    /// (warm starts still serve the cheap decisions in full).
    Budgeted = 1,
    /// No solves at all: decisions are answered from the installed
    /// last-good plan, what-if evaluations are shed.
    LastGood = 2,
}

impl BrownoutLevel {
    /// One level worse (pressure is sustained).
    fn deeper(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::Normal => BrownoutLevel::Budgeted,
            _ => BrownoutLevel::LastGood,
        }
    }

    /// One level better (the load dropped).
    fn shallower(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::LastGood => BrownoutLevel::Budgeted,
            _ => BrownoutLevel::Normal,
        }
    }

    /// Decode the level a replication-log entry shipped (`as u8` inverse;
    /// unknown future levels clamp to the most conservative).
    pub(crate) fn from_u8(v: u8) -> BrownoutLevel {
        match v {
            0 => BrownoutLevel::Normal,
            1 => BrownoutLevel::Budgeted,
            _ => BrownoutLevel::LastGood,
        }
    }
}

/// How one batch is to be served: the overload governor's verdict for a
/// tick, consumed by [`crate::DecisionService::process_batch_with`]. The default
/// context (used by the plain [`crate::DecisionService::process_batch`]) is
/// behaviour-neutral: no deadline, no brownout.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchContext {
    /// Wall-clock deadline every solve in the batch must respect
    /// (brownout level 1); `None` never sheds.
    pub solve_deadline: Option<Instant>,
    /// The brownout ladder level in force for the tick.
    pub brownout: BrownoutLevel,
    /// The retry hint stamped on responses this tick sheds.
    pub retry_after_ms: u64,
}

/// The overload governor: the stateful gate between the request queue and
/// the service. It owns every wall-clock decision of the resilience layer
/// — deadline expiry, shed verdicts, retry hints, and the brownout ladder
/// — so [`crate::DecisionService::process_batch_with`] stays a pure function of
/// its inputs. One governor serves one worker (or one stdio loop); it is
/// deliberately single-threaded.
pub struct OverloadGovernor {
    cfg: OverloadConfig,
    tracer: Tracer,
    /// Smoothed whole-tick duration in microseconds — the retry hint.
    ewma_tick_us: f64,
    /// Smoothed per-request cost in microseconds — the admission model.
    ewma_req_us: f64,
    level: BrownoutLevel,
    over_streak: u32,
    calm_streak: u32,
}

/// EWMA smoothing factor for tick and per-request costs: heavy enough to
/// track a load shift within a few ticks, light enough not to chase one
/// outlier solve.
const EWMA_ALPHA: f64 = 0.3;

impl OverloadGovernor {
    /// A fresh governor at brownout level Normal. Events (sheds, ladder
    /// transitions, deadline expiries) go to `tracer`.
    pub fn new(cfg: OverloadConfig, tracer: Tracer) -> Self {
        OverloadGovernor {
            cfg,
            tracer,
            ewma_tick_us: 0.0,
            ewma_req_us: 0.0,
            level: BrownoutLevel::Normal,
            over_streak: 0,
            calm_streak: 0,
        }
    }

    /// The brownout level currently in force.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// The hint stamped on shed responses: roughly one recent tick
    /// duration — the earliest a retry could plausibly be admitted —
    /// never zero, so a client always has a concrete wait.
    pub fn retry_after_ms(&self) -> u64 {
        ((self.ewma_tick_us / 1000.0).ceil() as u64).max(1)
    }

    /// Gate one dequeue sweep. Returns one verdict per pending request,
    /// in order: `None` admits it into the tick's batch; `Some(kind)` is
    /// the immediate answer (deadline expiry or shed) — the request never
    /// reaches the service. `Shutdown` and `Promote` are exempt from
    /// shedding: a drain must always get through, and a failover must
    /// never be refused by the very overload it is escaping.
    /// At least one decision request is admitted
    /// per sweep so the system keeps making progress under any budget.
    pub fn gate(
        &mut self,
        now: Instant,
        pending: &[(&WireRequest, Instant)],
    ) -> Vec<Option<ResponseKind>> {
        let mut verdicts: Vec<Option<ResponseKind>> = vec![None; pending.len()];
        let hint = self.retry_after_ms();

        // 1. Expired deadlines answer first: shedding a request the
        // client has already given up on as `overloaded` would invite a
        // pointless retry.
        for (i, (req, arrival)) in pending.iter().enumerate() {
            if matches!(req.kind, RequestKind::Shutdown | RequestKind::Promote) {
                continue;
            }
            if let Some(budget) = req.deadline_ms {
                if now.saturating_duration_since(*arrival) >= Duration::from_millis(budget) {
                    self.tracer.emit(|| EventKind::DeadlineExceeded {
                        id: req.id,
                        deadline_ms: budget,
                    });
                    verdicts[i] = Some(ResponseKind::deadline_exceeded(format!(
                        "deadline of {budget}ms expired before evaluation"
                    )));
                }
            }
        }

        // 2. The queue cap bounds what one tick may admit at all.
        let mut admitted = 0usize;
        // 3. The per-session cap bounds what one tenant may claim of it.
        let mut per_session: BTreeMap<u64, usize> = BTreeMap::new();
        // 4. The tick budget bounds the *predicted* batch cost: with a
        // cost model of `ewma_req_us` per decision request, admission
        // stops once the estimate fills the budget (floor one decision,
        // so the system always progresses).
        let budget_cap = if self.cfg.tick_budget_ms > 0 && self.ewma_req_us > 0.0 {
            let fit = (self.cfg.tick_budget_ms as f64 * 1000.0) / self.ewma_req_us;
            Some((fit.floor() as usize).max(1))
        } else {
            None
        };
        let mut decisions = 0usize;

        for (i, (req, _)) in pending.iter().enumerate() {
            if verdicts[i].is_some()
                || matches!(req.kind, RequestKind::Shutdown | RequestKind::Promote)
            {
                continue;
            }
            if self.cfg.max_queue_depth > 0 && admitted >= self.cfg.max_queue_depth {
                verdicts[i] = Some(self.shed("queue", hint));
                continue;
            }
            let session = match &req.kind {
                RequestKind::Snapshot { session, .. } | RequestKind::Evaluate { session, .. } => {
                    Some(*session)
                }
                _ => None,
            };
            if let Some(session) = session {
                let inflight = per_session.entry(session).or_insert(0);
                if self.cfg.max_session_inflight > 0 && *inflight >= self.cfg.max_session_inflight {
                    verdicts[i] = Some(self.shed("session", hint));
                    continue;
                }
                if let Some(cap) = budget_cap {
                    if decisions >= cap {
                        verdicts[i] = Some(self.shed("tick_budget", hint));
                        continue;
                    }
                }
                *inflight += 1;
                decisions += 1;
            }
            admitted += 1;
        }
        verdicts
    }

    /// The batch context for the tick that serves this sweep's admitted
    /// requests: under brownout level 1 every solve runs against the tick
    /// deadline; under level 2 the service answers from installed plans.
    pub fn context(&self, now: Instant) -> BatchContext {
        let solve_deadline = if self.level >= BrownoutLevel::Budgeted && self.cfg.tick_budget_ms > 0
        {
            Some(now + Duration::from_millis(self.cfg.tick_budget_ms))
        } else {
            None
        };
        BatchContext {
            solve_deadline,
            brownout: self.level,
            retry_after_ms: self.retry_after_ms(),
        }
    }

    /// Feed back one completed tick: duration and requests served. Keeps
    /// the cost model current and walks the brownout ladder — `enter`
    /// consecutive over-budget ticks step one level down, `exit`
    /// consecutive calm ticks step one level up (hysteresis: exit is the
    /// longer streak).
    pub fn tick_done(&mut self, dur: Duration, served: usize) {
        let us = dur.as_secs_f64() * 1e6;
        self.ewma_tick_us = if self.ewma_tick_us == 0.0 {
            us
        } else {
            EWMA_ALPHA * us + (1.0 - EWMA_ALPHA) * self.ewma_tick_us
        };
        if served > 0 {
            let per = us / served as f64;
            self.ewma_req_us = if self.ewma_req_us == 0.0 {
                per
            } else {
                EWMA_ALPHA * per + (1.0 - EWMA_ALPHA) * self.ewma_req_us
            };
        }
        if self.cfg.tick_budget_ms == 0 {
            return; // the ladder never arms without a tick budget
        }
        let over = dur > Duration::from_millis(self.cfg.tick_budget_ms);
        if over {
            self.calm_streak = 0;
            self.over_streak += 1;
            if self.over_streak >= self.cfg.enter_ticks() && self.level != BrownoutLevel::LastGood {
                self.level = self.level.deeper();
                let (level, over_ticks) = (self.level as u8, self.over_streak);
                self.tracer
                    .emit(|| EventKind::BrownoutEnter { level, over_ticks });
                self.over_streak = 0;
            }
        } else {
            self.over_streak = 0;
            self.calm_streak += 1;
            if self.calm_streak >= self.cfg.exit_ticks() && self.level != BrownoutLevel::Normal {
                self.level = self.level.shallower();
                let (level, calm_ticks) = (self.level as u8, self.calm_streak);
                self.tracer
                    .emit(|| EventKind::BrownoutExit { level, calm_ticks });
                self.calm_streak = 0;
            }
        }
    }

    /// Emit and build one shed answer.
    fn shed(&self, reason: &str, retry_after_ms: u64) -> ResponseKind {
        let r = reason.to_string();
        self.tracer.emit(|| EventKind::OverloadShed {
            reason: r,
            retry_after_ms,
        });
        ResponseKind::overloaded(
            format!("shed by the {reason} limit; retry after the hint"),
            retry_after_ms,
        )
    }
}
