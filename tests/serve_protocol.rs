//! Wire-protocol property tests for `bap serve` (tier 1).
//!
//! The serve wire format is line-oriented JSON built on the same serde
//! conventions as bap-trace: one externally tagged object per line. The
//! contract under test here is purely syntactic — no server is spawned:
//!
//! * **round trip** — every request and response kind, over arbitrary
//!   field values, survives encode → parse bit-exactly (finite floats
//!   compare equal; NaN is checked structurally below);
//! * **unknown-field tolerance** — a peer speaking a newer dialect may
//!   add fields; injecting extras at the top level or inside the kind
//!   payload must not change what we decode;
//! * **malformed input → typed error** — arbitrary garbage bytes and
//!   truncations of valid messages produce `WireError`, never a panic,
//!   and `WireError::to_response` yields the stable `"malformed"` code.

use bankaware::trace::wire::{
    encode_request, encode_response, parse_request_line, parse_response_line, RequestKind,
    ResponseKind, SessionDigest, WireCurve, WireError, WireLogEntry, WireRequest, WireResponse,
    WireSummary, ERROR_CODES,
};
use proptest::collection;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies. The proptest shim has no `String` strategy, so strings are
// assembled from character vectors.
// ---------------------------------------------------------------------------

/// One character from each class the codec treats differently: plain
/// ASCII, the two it escapes by name (`"` and `\`), control characters,
/// and 2-, 3- and 4-byte UTF-8, so escapes land next to multi-byte runs.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        6 => 32u32..127,
        1 => prop_oneof![Just('"' as u32), Just('\\' as u32)],
        1 => 0u32..32,
        1 => 0x80u32..0x800,
        1 => prop_oneof![0x800u32..0xD800, 0xE000u32..0x10000],
        1 => 0x10000u32..0x110000,
    ]
    .prop_map(|c| char::from_u32(c).expect("no surrogates drawn"))
}

fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(arb_char(), 0..300).prop_map(|chars| chars.into_iter().collect())
}

fn arb_finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..1.0e9f64, 0.0..1.0f64, Just(f64::MAX / 4.0),]
}

fn arb_curve() -> impl Strategy<Value = WireCurve> {
    (arb_finite(), collection::vec(arb_finite(), 0..8))
        .prop_map(|(accesses, misses)| WireCurve { accesses, misses })
}

fn arb_request_kind() -> BoxedStrategy<RequestKind> {
    prop_oneof![
        (any::<u64>(), 0usize..300)
            .prop_map(|(session, cores)| RequestKind::Open { session, cores }),
        (any::<u64>(), collection::vec(arb_curve(), 0..5))
            .prop_map(|(session, curves)| RequestKind::Snapshot { session, curves }),
        (any::<u64>(), collection::vec(arb_curve(), 0..5))
            .prop_map(|(session, curves)| RequestKind::Evaluate { session, curves }),
        any::<u64>().prop_map(|session| RequestKind::Plan { session }),
        (
            collection::vec(arb_string(), 0..4),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(workloads, instructions, seed)| RequestKind::Profile {
                workloads,
                instructions,
                seed,
            }),
        Just(RequestKind::Checkpoint),
        Just(RequestKind::Stats),
        Just(RequestKind::Shutdown),
        Just(RequestKind::Promote),
        Just(RequestKind::ReplStatus),
        any::<u64>().prop_map(|after_tick| RequestKind::ReplSubscribe { after_tick }),
        any::<u64>().prop_map(|tick| RequestKind::ReplAck { tick }),
    ]
    .boxed()
}

fn arb_deadline() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..100_000).prop_map(Some)]
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    (any::<u64>(), arb_deadline(), arb_request_kind()).prop_map(|(id, deadline_ms, kind)| {
        WireRequest {
            id,
            deadline_ms,
            kind,
        }
    })
}

fn arb_summary() -> impl Strategy<Value = WireSummary> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (events, epochs, plans_installed),
                (plans_held, warm_start_hits, solver_failures),
            )| {
                WireSummary {
                    events,
                    epochs,
                    plans_installed,
                    plans_held,
                    warm_start_hits,
                    solver_failures,
                }
            },
        )
}

fn arb_ways() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..100, 0..16)
}

fn arb_digest() -> impl Strategy<Value = SessionDigest> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(session, epoch, fingerprint)| {
        SessionDigest {
            session,
            epoch,
            fingerprint,
        }
    })
}

fn arb_log_entry() -> impl Strategy<Value = WireLogEntry> {
    (
        (any::<u64>(), any::<u64>(), any::<u8>()),
        collection::vec(arb_request(), 0..3),
        collection::vec(arb_digest(), 0..3),
    )
        .prop_map(|((tick, term, brownout), requests, digests)| WireLogEntry {
            tick,
            term,
            brownout,
            requests,
            digests,
        })
}

fn arb_response_kind() -> BoxedStrategy<ResponseKind> {
    prop_oneof![
        (any::<u64>(), 0usize..300)
            .prop_map(|(session, cores)| ResponseKind::Opened { session, cores }),
        (
            (any::<u64>(), any::<u64>(), any::<bool>()),
            (arb_ways(), arb_string(), any::<u64>(), arb_summary())
        )
            .prop_map(
                |((session, epoch, installed), (ways, source, fingerprint, summary))| {
                    ResponseKind::Decision {
                        session,
                        epoch,
                        installed,
                        ways,
                        source,
                        fingerprint,
                        summary,
                    }
                }
            ),
        (any::<u64>(), arb_ways(), any::<u64>()).prop_map(|(session, ways, fingerprint)| {
            ResponseKind::Evaluated {
                session,
                ways,
                fingerprint,
            }
        }),
        (
            (any::<u64>(), any::<u64>()),
            (arb_ways(), arb_string(), any::<u64>())
        )
            .prop_map(|((session, epoch), (ways, source, fingerprint))| {
                ResponseKind::Plan {
                    session,
                    epoch,
                    ways,
                    source,
                    fingerprint,
                }
            }),
        collection::vec(arb_curve(), 0..4).prop_map(|curves| ResponseKind::Profiled { curves }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(bytes, sessions, tick)| {
            ResponseKind::Checkpointed {
                bytes: bytes as usize,
                sessions: sessions as usize,
                tick,
            }
        }),
        (
            (any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>())
        )
            .prop_map(|((sessions, ticks), (requests, decisions, warm_hits))| {
                ResponseKind::Stats {
                    sessions: sessions as usize,
                    ticks,
                    requests,
                    decisions,
                    warm_hits,
                }
            }),
        (0usize..64).prop_map(|drained| ResponseKind::Bye { drained }),
        (any::<u64>(), any::<u64>()).prop_map(|(term, tick)| ResponseKind::Promoted { term, tick }),
        (
            (arb_string(), any::<u64>(), any::<u64>()),
            (0usize..128, any::<u64>(), any::<u64>())
        )
            .prop_map(
                |((role, term, tick), (log_entries, anchor_tick, divergences))| {
                    ResponseKind::ReplStatus {
                        role,
                        term,
                        tick,
                        log_entries,
                        anchor_tick,
                        divergences,
                    }
                }
            ),
        (any::<u64>(), any::<u64>(), arb_string())
            .prop_map(|(tick, term, state)| { ResponseKind::ReplSnapshot { tick, term, state } }),
        arb_log_entry().prop_map(|entry| ResponseKind::ReplEntry { entry }),
        (arb_string(), arb_string(), arb_deadline()).prop_map(|(code, detail, retry_after_ms)| {
            ResponseKind::Error {
                code,
                detail,
                retry_after_ms,
            }
        }),
    ]
    .boxed()
}

fn arb_term() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some)]
}

fn arb_response() -> impl Strategy<Value = WireResponse> {
    (any::<u64>(), any::<u64>(), arb_term(), arb_response_kind()).prop_map(
        |(id, tick, term, kind)| WireResponse {
            id,
            tick,
            term,
            kind,
        },
    )
}

/// Inject `"extra":…` fields immediately after the first `n` opening
/// braces of an encoded line — top-level tolerance at `n = 1`, payload
/// tolerance beyond that. Skips braces inside string literals, and skips
/// the object directly under `"kind"`: that one is the externally tagged
/// enum wrapper, whose single key *is* the variant tag, so extra keys
/// there are ambiguous rather than tolerable.
fn inject_unknown_fields(line: &str, n: usize) -> String {
    let mut out = String::with_capacity(line.len() + 24 * n);
    let mut injected = 0;
    let (mut in_str, mut escaped) = (false, false);
    for ch in line.chars() {
        out.push(ch);
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        if ch == '"' {
            in_str = true;
        } else if ch == '{' && injected < n && !out.ends_with("\"kind\":{") {
            out.push_str(&format!("\"extra{injected}\":[{injected},null],"));
            injected += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(req in arb_request()) {
        let line = encode_request(&req);
        prop_assert!(!line.contains('\n'), "encoded request must be one line");
        let back = parse_request_line(&line).expect("round trip parse");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn every_response_round_trips(resp in arb_response()) {
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'), "encoded response must be one line");
        let back = parse_response_line(&line).expect("round trip parse");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn unknown_fields_are_tolerated(req in arb_request(), depth in 1usize..4) {
        let line = inject_unknown_fields(&encode_request(&req), depth);
        let back = parse_request_line(&line).expect("parse with extra fields");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn unknown_response_fields_are_tolerated(resp in arb_response(), depth in 1usize..4) {
        let line = inject_unknown_fields(&encode_response(&resp), depth);
        let back = parse_response_line(&line).expect("parse with extra fields");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn garbage_never_panics(bytes in collection::vec(any::<u8>(), 0..80)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        // Must return, never panic; if it parses, it must re-encode.
        if let Ok(req) = parse_request_line(&line) {
            let _ = encode_request(&req);
        }
        if let Ok(resp) = parse_response_line(&line) {
            let _ = encode_response(&resp);
        }
    }

    #[test]
    fn truncations_fail_typed(req in arb_request(), frac in 0.0..1.0f64) {
        let line = encode_request(&req);
        // Strings carry multi-byte characters: cut on a char boundary.
        let mut cut = ((line.len() as f64) * frac) as usize;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assume!(cut < line.len());
        match parse_request_line(&line[..cut]) {
            Ok(_) => prop_assert!(false, "proper prefix of a JSON object parsed"),
            Err(WireError::EmptyLine) => prop_assert_eq!(cut, 0),
            Err(WireError::Malformed(detail)) => prop_assert!(!detail.is_empty()),
        }
    }

    #[test]
    fn malformed_maps_to_the_stable_error_code(junk in arb_string()) {
        let line = format!("!{junk}");
        let err = parse_request_line(&line).expect_err("leading '!' is never JSON");
        let resp = err.to_response();
        prop_assert_eq!(resp.id, 0);
        match resp.kind {
            ResponseKind::Error { code, detail, .. } => {
                prop_assert_eq!(code, "malformed");
                prop_assert!(!detail.is_empty());
            }
            other => prop_assert!(false, "expected Error, got {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases the strategies above deliberately avoid.
// ---------------------------------------------------------------------------

#[test]
fn nan_accesses_survive_as_null() {
    let req = WireRequest {
        id: 7,
        deadline_ms: None,
        kind: RequestKind::Snapshot {
            session: 1,
            curves: vec![WireCurve {
                accesses: f64::NAN,
                misses: vec![1.0, f64::NAN],
            }],
        },
    };
    let line = encode_request(&req);
    assert!(line.contains("null"), "NaN must encode as null: {line}");
    let back = parse_request_line(&line).expect("NaN round trip");
    match back.kind {
        RequestKind::Snapshot { curves, .. } => {
            assert!(curves[0].accesses.is_nan());
            assert_eq!(curves[0].misses[0], 1.0);
            assert!(curves[0].misses[1].is_nan());
        }
        other => panic!("wrong kind back: {other:?}"),
    }
}

#[test]
fn empty_and_blank_lines_are_distinguished_from_garbage() {
    assert_eq!(parse_request_line(""), Err(WireError::EmptyLine));
    assert_eq!(parse_request_line("   \t  "), Err(WireError::EmptyLine));
    assert!(matches!(
        parse_request_line("{\"id\":1}"),
        Err(WireError::Malformed(_))
    ));
    assert!(matches!(
        parse_request_line("[1,2,3]"),
        Err(WireError::Malformed(_))
    ));
}

/// The wire error-code registry is an API contract: clients dispatch on
/// these strings (`ServeClient::call_with_retry` retries exactly on
/// `overloaded`), so a rename or removal is a wire break. This test pins
/// the registry verbatim — extending it is fine, but any change here must
/// be deliberate and documented.
#[test]
fn error_code_registry_is_pinned() {
    assert_eq!(
        ERROR_CODES,
        [
            "malformed",
            "bad_request",
            "unknown_session",
            "session_exists",
            "solve_failed",
            "unsupported",
            "checkpoint_failed",
            "overloaded",
            "deadline-exceeded",
            "internal",
            "not-primary",
            "fenced",
            "divergence",
        ],
        "the wire error-code registry changed; this is a compatibility break"
    );
    // The helpers stamp codes straight from the registry.
    let shed = ResponseKind::overloaded("busy", 7);
    assert_eq!(shed.error_code(), Some("overloaded"));
    let late = ResponseKind::deadline_exceeded("too late");
    assert_eq!(late.error_code(), Some("deadline-exceeded"));
    let refused = ResponseKind::not_primary(3);
    assert_eq!(refused.error_code(), Some("not-primary"));
    let stale = ResponseKind::fenced("deposed");
    assert_eq!(stale.error_code(), Some("fenced"));
    let ResponseKind::Error { retry_after_ms, .. } = &shed else {
        panic!("overloaded is an error");
    };
    assert_eq!(*retry_after_ms, Some(7), "sheds always carry a retry hint");
}

#[test]
fn request_labels_are_stable() {
    let labels = [
        (RequestKind::Checkpoint, "checkpoint"),
        (RequestKind::Stats, "stats"),
        (RequestKind::Shutdown, "shutdown"),
        (RequestKind::Plan { session: 0 }, "plan"),
        (RequestKind::Promote, "promote"),
        (RequestKind::ReplStatus, "repl_status"),
        (
            RequestKind::ReplSubscribe { after_tick: 0 },
            "repl_subscribe",
        ),
        (RequestKind::ReplAck { tick: 0 }, "repl_ack"),
    ];
    for (kind, want) in labels {
        assert_eq!(kind.label(), want);
    }
}

/// The fencing term is strictly additive on the wire: an unreplicated
/// server must encode responses WITHOUT a `term` member (byte-identical
/// to the pre-replication dialect), and a pre-replication peer's lines —
/// which never carry `term` — must parse with `term: None`.
#[test]
fn term_is_omitted_when_absent_and_optional_on_parse() {
    let bare = WireResponse {
        id: 9,
        tick: 4,
        term: None,
        kind: ResponseKind::Bye { drained: 0 },
    };
    let line = encode_response(&bare);
    assert!(
        !line.contains("term"),
        "term:None must not appear on the wire: {line}"
    );
    assert_eq!(parse_response_line(&line).unwrap(), bare);

    // A pre-replication line parses with term: None.
    let old = r#"{"id":9,"tick":4,"kind":{"Bye":{"drained":0}}}"#;
    assert_eq!(parse_response_line(old).unwrap(), bare);

    // A stamped term survives the round trip and sits between tick and kind.
    let stamped = WireResponse {
        term: Some(3),
        ..bare.clone()
    };
    let line = encode_response(&stamped);
    assert!(
        line.contains("\"term\":3"),
        "stamped term on the wire: {line}"
    );
    assert_eq!(parse_response_line(&line).unwrap(), stamped);
}
